"""Tests for the distributed sweep backend: frames, leases, stealing,
duplicate delivery, elastic workers and graceful degradation."""

import pickle
import socket
import threading
import time

import pytest

from repro.capman.baselines import DualPolicy
from repro.sim.distributed import (CoordinatorUnreachableError,
                                   DistributedExecutor, FrameServer,
                                   ProtocolError, SweepCoordinator,
                                   SweepWorker, recv_msg, rpc, send_msg)
from repro.sim.executors import CellFailure, ExecutionContext
from repro.sim.retry import RetryPolicy
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


@pytest.fixture(scope="module")
def trace():
    return record_trace(VideoWorkload(seed=5), 120.0)


def _spec(trace, mahs=(30, 40, 50, 60), **kwargs):
    defaults = dict(
        policies={f"Dual{m}": DualPolicy(capacity_mah=float(m))
                  for m in mahs},
        traces={"Video": trace},
        max_duration_s=900.0,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _cell_bytes(result):
    return [pickle.dumps(r) for r in result.results]


class TestFrames:
    def _pair(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname())
        peer, _ = server.accept()
        server.close()
        return client, peer

    def test_round_trip(self):
        client, peer = self._pair()
        try:
            send_msg(client, {"op": "ping", "blob": b"\x00" * 1000})
            message = recv_msg(peer)
            assert message["op"] == "ping"
            assert message["blob"] == b"\x00" * 1000
        finally:
            client.close()
            peer.close()

    def test_corrupt_payload_is_detected(self):
        client, peer = self._pair()
        try:
            payload = pickle.dumps({"op": "ping"}, protocol=4)
            import hashlib
            import struct
            digest = hashlib.sha256(payload).digest()[:8]
            header = struct.Struct(">3sI8s").pack(b"CD1", len(payload),
                                                  digest)
            tampered = bytes([payload[0] ^ 0xFF]) + payload[1:]
            client.sendall(header + tampered)
            with pytest.raises(ProtocolError, match="checksum"):
                recv_msg(peer)
        finally:
            client.close()
            peer.close()

    def test_bad_magic_and_truncation(self):
        client, peer = self._pair()
        try:
            client.sendall(b"XXX" + b"\x00" * 12)
            with pytest.raises(ProtocolError, match="magic"):
                recv_msg(peer)
            client.sendall(b"CD1\x00\x00\x01\x00")  # header cut short
            client.close()
            with pytest.raises(ConnectionError):
                recv_msg(peer)
        finally:
            peer.close()


def _coordinator(trace, lease_timeout_s=0.4, **kwargs):
    cells = _spec(trace, mahs=kwargs.pop("mahs", (30, 40))).expand()
    committed = []
    ctx = ExecutionContext(
        retry=kwargs.pop("retry", RetryPolicy(max_attempts=2)),
        on_final=lambda index, outcome: committed.append((index, outcome)))
    coordinator = SweepCoordinator(cells, ctx,
                                   lease_timeout_s=lease_timeout_s, **kwargs)
    coordinator.start()
    return coordinator, cells, committed


class TestCoordinator:
    def test_grant_result_commit_cycle(self, trace):
        coordinator, cells, committed = _coordinator(trace)
        try:
            address = coordinator.address
            assert rpc(address, {"op": "attach", "worker": "w1"})["op"] == "ok"
            seen = set()
            while True:
                reply = rpc(address, {"op": "request", "worker": "w1"})
                if reply["op"] == "done":
                    break
                assert reply["op"] == "grant"
                cell = reply["call"]["cell"]
                seen.add(cell.index)
                item = (cell.index, f"result-{cell.index}", 0.0, 0)
                commit = rpc(address, {
                    "op": "result", "lease": reply["lease"], "worker": "w1",
                    "item": item})
                assert commit["committed"] is True
            assert seen == {cell.index for cell in cells}
            assert sorted(index for index, _ in committed) == sorted(seen)
            assert coordinator.stats.remote_cells == len(cells)
        finally:
            coordinator.stop()

    def test_expired_lease_is_redispatched_then_failed(self, trace):
        coordinator, cells, committed = _coordinator(
            trace, lease_timeout_s=0.15, mahs=(30,),
            retry=RetryPolicy(max_attempts=2))
        try:
            address = coordinator.address
            first = rpc(address, {"op": "request", "worker": "w1"})
            assert first["op"] == "grant"
            time.sleep(0.2)  # let the lease lapse; never report
            second = rpc(address, {"op": "request", "worker": "w2"})
            assert second["op"] == "grant"  # same cell, re-dispatched
            assert second["call"]["cell"].index == \
                first["call"]["cell"].index
            assert coordinator.stats.lease_expiries == 1
            assert coordinator.stats.retries == 1
            time.sleep(0.2)  # second attempt lapses too: budget spent
            coordinator.reap()
            assert coordinator.finished
            index, outcome = committed[0]
            assert isinstance(outcome, CellFailure)
            assert outcome.error_type == "LeaseExpiredError"
            assert outcome.attempts == 2
        finally:
            coordinator.stop()

    def test_renewal_keeps_lease_alive(self, trace):
        coordinator, cells, _ = _coordinator(trace, lease_timeout_s=0.2,
                                             mahs=(30,))
        try:
            address = coordinator.address
            grant = rpc(address, {"op": "request", "worker": "w1"})
            for _ in range(4):
                time.sleep(0.1)
                assert rpc(address, {"op": "renew",
                                     "lease": grant["lease"]})["ok"]
            coordinator.reap()
            assert coordinator.stats.lease_expiries == 0
        finally:
            coordinator.stop()

    def test_duplicate_results_commit_once(self, trace):
        coordinator, cells, committed = _coordinator(trace, mahs=(30,))
        try:
            address = coordinator.address
            grant = rpc(address, {"op": "request", "worker": "w1"})
            cell = grant["call"]["cell"]
            item = (cell.index, "result", 0.0, 0)
            first = rpc(address, {"op": "result", "lease": grant["lease"],
                                  "worker": "w1", "item": item})
            again = rpc(address, {"op": "result", "lease": grant["lease"],
                                  "worker": "w1", "item": item})
            assert first["committed"] is True
            assert again["committed"] is False
            assert coordinator.stats.duplicate_results == 1
            assert len(committed) == 1
        finally:
            coordinator.stop()

    def test_idle_worker_steals_slow_lease(self, trace):
        coordinator, cells, committed = _coordinator(
            trace, lease_timeout_s=10.0, steal_after_s=0.1, mahs=(30,))
        try:
            address = coordinator.address
            slow = rpc(address, {"op": "request", "worker": "slow"})
            assert slow["op"] == "grant"
            time.sleep(0.15)
            thief = rpc(address, {"op": "request", "worker": "thief"})
            assert thief["op"] == "grant"  # duplicate lease on the cell
            assert thief["call"]["cell"].index == \
                slow["call"]["cell"].index
            assert coordinator.stats.steals == 1
            item = (0, "stolen-result", 0.0, 0)
            fast = rpc(address, {"op": "result", "lease": thief["lease"],
                                 "worker": "thief", "item": item})
            late = rpc(address, {"op": "result", "lease": slow["lease"],
                                 "worker": "slow", "item": item})
            assert fast["committed"] is True
            assert late["committed"] is False
            assert len(committed) == 1
        finally:
            coordinator.stop()

    def test_chaos_duplicate_lease_delivery(self, trace):
        coordinator, cells, committed = _coordinator(trace, mahs=(30,))
        try:
            coordinator.inject_duplicate_leases(1)
            address = coordinator.address
            one = rpc(address, {"op": "request", "worker": "w1"})
            two = rpc(address, {"op": "request", "worker": "w2"})
            assert one["op"] == two["op"] == "grant"
            assert one["call"]["cell"].index == \
                two["call"]["cell"].index
            item = (0, "result", 0.0, 0)
            assert rpc(address, {"op": "result", "lease": one["lease"],
                                 "worker": "w1",
                                 "item": item})["committed"]
            assert not rpc(address, {"op": "result", "lease": two["lease"],
                                     "worker": "w2",
                                     "item": item})["committed"]
            assert len(committed) == 1
        finally:
            coordinator.stop()


class TestAuth:
    def test_authenticated_fleet_rejects_outsiders(self, trace, monkeypatch):
        monkeypatch.setenv("CAPMAN_DIST_SECRET", "fleet-secret")
        coordinator, cells, _ = _coordinator(trace, mahs=(30,))
        try:
            address = coordinator.address
            # A peer holding the secret works normally.
            assert rpc(address, {"op": "attach", "worker": "w1"})["op"] == "ok"
            # A peer without it gets no reply -- the connection is
            # closed before the payload is ever unpickled.
            with pytest.raises(ConnectionError):
                rpc(address, {"op": "attach", "worker": "intruder"},
                    timeout_s=2.0, secret=b"")
            # A peer with a *different* secret fares no better.
            with pytest.raises(ConnectionError):
                rpc(address, {"op": "attach", "worker": "intruder"},
                    timeout_s=2.0, secret=b"wrong")
            # And neither stalls dispatch for the legitimate fleet.
            assert rpc(address, {"op": "request", "worker": "w1"})["op"] \
                == "grant"
            assert coordinator.frame_stats.auth_failures >= 1
        finally:
            coordinator.stop()

    def test_garbage_frames_do_not_stall_dispatch(self, trace, monkeypatch):
        monkeypatch.setenv("CAPMAN_DIST_SECRET", "fleet-secret")
        coordinator, cells, _ = _coordinator(trace, mahs=(30,))
        try:
            address = coordinator.address
            with socket.create_connection(address, timeout=2.0) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")  # wrong protocol
                # Closed without a reply: either a clean EOF or a
                # reset, never protocol bytes.  (The server may have
                # reset the connection already, so even shutdown can
                # fail with ENOTCONN -- that counts as closed too.)
                try:
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(1) == b""
                except OSError:
                    pass
            assert rpc(address, {"op": "attach", "worker": "w1"})["op"] \
                == "ok"
            assert coordinator.frame_stats.protocol_errors >= 1
        finally:
            coordinator.stop()


class TestMalformedMessages:
    def test_malformed_messages_get_an_error_reply(self, trace):
        coordinator, cells, committed = _coordinator(trace, mahs=(30,))
        try:
            address = coordinator.address
            # Well-framed but missing the worker field.
            assert rpc(address, {"op": "request"})["op"] == "error"
            # A result whose item is not an (index, outcome, seconds,
            # steps) tuple: opaque bytes, then a tuple of wrong types.
            for item in (b"\x80not-an-item", ("0", "result", 0.0, 0)):
                reply = rpc(address, {"op": "result", "lease": "l",
                                      "worker": "w1", "item": item})
                assert reply["op"] == "error"
            assert coordinator.frame_stats.protocol_errors == 3
            assert committed == []
            # The server kept serving.
            assert rpc(address, {"op": "attach", "worker": "w1"})["op"] \
                == "ok"
        finally:
            coordinator.stop()

    def test_cache_server_answers_malformed_requests(self, tmp_path):
        from repro.sim.cache_server import CacheServer

        server = CacheServer(tmp_path / "served")
        address = server.start()
        try:
            assert rpc(address, {"op": "cache_get"})["op"] == "error"
            assert rpc(address, {"op": "cache_put", "key": "k",
                                 "payload": b"\x80garbage"})["op"] \
                == "error"
            assert server.frame_stats.protocol_errors == 2
            assert rpc(address, {"op": "cache_ping"})["ok"] is True
        finally:
            server.stop()


class TestAdmissionControl:
    def test_excess_connections_are_shed_not_queued(self):
        entered = threading.Event()
        release = threading.Event()

        def handler(message):
            entered.set()
            release.wait(10.0)
            return {"op": "ok"}

        server = FrameServer(handler, max_connections=1,
                             read_deadline_s=15.0, name="shed-test")
        host, port = server.start()
        blocker = None
        try:
            blocker = socket.create_connection((host, port), timeout=15.0)
            send_msg(blocker, {"op": "hold"}, secret=b"")
            assert entered.wait(5.0)  # the single slot is now busy
            extra = socket.create_connection((host, port), timeout=5.0)
            try:
                with pytest.raises(ConnectionError):
                    recv_msg(extra, secret=b"", deadline_s=5.0)
            finally:
                extra.close()
            assert server.stats.connections_shed >= 1
            # The occupant was never disturbed: release it and read
            # its reply to prove shedding is per-excess-peer only.
            release.set()
            assert recv_msg(blocker, secret=b"",
                            deadline_s=5.0)["op"] == "ok"
        finally:
            release.set()
            if blocker is not None:
                blocker.close()
            server.stop()


class TestFailover:
    def test_rpc_raises_unreachable_instead_of_none(self):
        # Satellite: "coordinator gone" used to be indistinguishable
        # from a transient error (both were None).  Now a blown retry
        # budget is a typed error the run loop can ride out.
        worker = SweepWorker(("127.0.0.1", 1), worker_id="w",
                             rpc_timeout_s=0.2,
                             retry=RetryPolicy(max_attempts=2,
                                               backoff_base_s=0.01))
        with pytest.raises(CoordinatorUnreachableError):
            worker._rpc({"op": "request", "worker": "w"})

    def test_never_attached_worker_exits_cleanly(self):
        worker = SweepWorker(("127.0.0.1", 1), worker_id="w",
                             rpc_timeout_s=0.2,
                             retry=RetryPolicy(max_attempts=1))
        stats = worker.run()
        assert stats.cells == 0
        assert stats.outages_survived == 0

    def test_worker_rides_out_coordinator_restart(self, trace):
        coordinator, cells, _ = _coordinator(trace, mahs=(30, 40))
        address = coordinator.address
        worker = SweepWorker(address, worker_id="survivor",
                             rpc_timeout_s=1.0, reconnect_timeout_s=15.0,
                             retry=RetryPolicy(max_attempts=1))
        worker._rpc({"op": "attach", "worker": worker.worker_id})
        coordinator.stop()
        with pytest.raises(CoordinatorUnreachableError):
            worker._rpc({"op": "request", "worker": worker.worker_id})
        # The coordinator comes back on the same port (a restart from
        # its journal); the surviving worker must re-adopt it and
        # finish the sweep.
        coordinator2, cells2, committed2 = _coordinator(
            trace, mahs=(30, 40), port=address[1])
        try:
            assert worker._ride_out_outage()
            assert worker.stats.reattaches == 1
            assert worker.stats.outages_survived == 1
            stats = worker.run()
            assert stats.cells == len(cells2)
            coordinator2.reap()
            assert coordinator2.finished
            assert len(committed2) == len(cells2)
        finally:
            coordinator2.stop()

    def test_reconnect_gives_up_after_window(self):
        worker = SweepWorker(("127.0.0.1", 1), worker_id="w",
                             rpc_timeout_s=0.2, reconnect_timeout_s=0.3)
        started = time.monotonic()
        assert not worker._ride_out_outage()
        assert time.monotonic() - started < 10.0
        assert worker.stats.reattaches == 0


class TestExecutor:
    def test_spawned_workers_match_serial_bytes(self, trace):
        spec = _spec(trace)
        serial = ScenarioRunner(workers=1).run(spec)
        executor = DistributedExecutor(lease_timeout_s=5.0, spawn_workers=2)
        dist = ScenarioRunner(executor=executor).run(spec)
        assert _cell_bytes(dist) == _cell_bytes(serial)
        assert dist.stats.executor == "distributed"
        assert executor.stats.remote_cells == len(spec)
        assert executor.stats.worker_attaches >= 1
        assert executor.worker_pids() == []  # all reaped after the run

    def test_degrades_to_local_when_no_workers(self, trace):
        spec = _spec(trace, mahs=(30, 40))
        serial = ScenarioRunner(workers=1).run(spec)
        executor = DistributedExecutor(spawn_workers=0, workers_grace_s=0.1)
        dist = ScenarioRunner(executor=executor).run(spec)
        assert _cell_bytes(dist) == _cell_bytes(serial)
        assert executor.stats.local_fallback_cells == len(spec)
        assert executor.stats.remote_cells == 0

    def test_elastic_worker_attaches_mid_sweep(self, trace):
        spec = _spec(trace)
        serial = ScenarioRunner(workers=1).run(spec)
        executor = DistributedExecutor(
            lease_timeout_s=5.0, spawn_workers=0, local_fallback=False)
        results = {}

        def run_sweep():
            results["dist"] = ScenarioRunner(executor=executor).run(spec)

        sweeper = threading.Thread(target=run_sweep)
        sweeper.start()
        try:
            deadline = time.monotonic() + 10.0
            while executor.coordinator is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.2)  # the sweep is genuinely waiting for workers
            stats = SweepWorker(executor.coordinator.address,
                                worker_id="late-joiner").run()
            sweeper.join(timeout=30.0)
        finally:
            assert not sweeper.is_alive()
        assert stats.cells == len(spec)
        assert _cell_bytes(results["dist"]) == _cell_bytes(serial)
        # Attach/detach accounting is exactly paired: one pair in the
        # common case, more if a loaded host briefly reaped the worker
        # as silent and counted its return as a re-attach.
        assert executor.stats.worker_attaches >= 1
        assert (executor.stats.worker_attaches
                == executor.stats.worker_detaches)
