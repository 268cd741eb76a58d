"""Networked sweep-result cache: a TCP server plus a partition-tolerant client.

A fleet of sweep runners (or distributed workers on several hosts)
can share one result cache instead of each keeping its own directory.
The moving parts:

* :class:`CacheServer` serves content-hash ``get``/``put`` over the
  same checksummed frame protocol as the distributed sweep
  coordinator.  Storage is an ordinary :class:`~repro.sim.sweep.SweepCache`
  directory -- atomic write-to-temp-and-rename under the advisory
  file lock, unpickle-validated reads -- so a server crash mid-``put``
  can tear at most a temp file, never a served entry, and the
  directory stays interchangeable with a local cache.
* :class:`NetworkSweepCache` is a drop-in :class:`~repro.sim.sweep.SweepCache`
  subclass: ``ScenarioRunner(cache=NetworkSweepCache(...))`` works
  unchanged.  Every remote failure -- refused connection, timeout,
  torn frame -- flips the client into **partition mode**: reads and
  writes fall back to a local cache directory, writes are remembered,
  and a periodic probe looks for the server.  On heal the client
  **reconciles**: the puts accumulated during the partition are
  replayed to the server, then remote operation resumes.  A sweep
  never fails, blocks, or loses results because the cache network is
  down; at worst it recomputes what the unreachable server knew.

Why stale reads are safe here: cache keys are content hashes of
(cell configuration, code salt), so a key maps to exactly one value
forever.  A "stale" entry is byte-for-byte the correct entry; the
only staleness possible is a *miss* that a fresher server would have
hit, and a miss just means recomputing -- correctness never depends
on cache freshness.

Like the distributed coordinator, the server rides on the shared
:class:`~repro.sim.distributed.FrameServer` shell: frames are
checksummed, HMAC-authenticated when ``CAPMAN_DIST_SECRET`` is set,
size-bounded, and subject to read deadlines and per-connection
admission control.
"""

from __future__ import annotations

import pickle
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, Union

from .. import obs
from .distributed import FrameServer, ProtocolError, rpc, send_msg
from .retry import CircuitBreaker, RetryPolicy
from .sweep import SweepCache

__all__ = [
    "CacheServer",
    "CacheServerStats",
    "NetworkSweepCache",
    "CacheClientStats",
]


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
@dataclass
class CacheServerStats:
    gets: int = 0
    hits: int = 0
    puts: int = 0
    #: Requests deliberately dropped while chaos-partitioned.
    partitioned_drops: int = 0
    #: Replies deliberately truncated mid-frame (chaos).
    torn_replies: int = 0


class CacheServer:
    """Serve one cache directory over TCP.

    Protocol (one request/response per connection):

    ==============  ====================================================
    request          response
    ==============  ====================================================
    ``cache_ping``  ``{ok: True}``
    ``cache_get``   ``{hit: bool, payload: bytes | None}``
    ``cache_put``   ``{ok: True}``
    ``cache_stats`` counters snapshot
    ==============  ====================================================

    Values travel as pickled payload bytes inside checksummed frames;
    at rest they are exactly the files a local
    :class:`~repro.sim.sweep.SweepCache` writes, so the served
    directory can be copied, inspected, or mounted directly by a
    local-cache runner.

    Chaos hooks (used by the fault-injection tests):

    * :meth:`partition` / :meth:`heal` -- while partitioned, every
      accepted connection is closed without a reply, exactly what a
      dropped network looks like to the client;
    * :meth:`inject_torn_replies` -- the next *n* replies are
      truncated mid-frame, exercising the client's checksum path.
    """

    def __init__(self, directory: Union[str, Path],
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 read_deadline_s: float = 10.0) -> None:
        self.store = SweepCache(directory)
        self.host = host
        self.port = port
        self.stats = CacheServerStats()
        self._lock = threading.Lock()
        self._partitioned = threading.Event()
        self._torn_replies = 0
        self._frames = FrameServer(
            handler=self._dispatch, host=host, port=port,
            name="cache-server", max_connections=max_connections,
            read_deadline_s=read_deadline_s,
            gate=self._gate, sender=self._send_reply)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        self.host, self.port = self._frames.start()
        return self.host, self.port

    def stop(self) -> None:
        self._frames.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def frame_stats(self):
        """Hostile-peer counters of the underlying frame server."""
        return self._frames.stats

    # -- chaos hooks ---------------------------------------------------
    def partition(self) -> None:
        """Drop every request until :meth:`heal` (keeps listening, so
        clients see resets/timeouts rather than instant refusals)."""
        self._partitioned.set()

    def heal(self) -> None:
        self._partitioned.clear()

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    def inject_torn_replies(self, n: int) -> None:
        """Truncate the next ``n`` replies mid-frame (torn write on
        the wire; the client's frame checksum must catch it)."""
        with self._lock:
            self._torn_replies += int(n)

    # -- plumbing ------------------------------------------------------
    def _gate(self, conn: socket.socket) -> bool:
        if self._partitioned.is_set():
            self.stats.partitioned_drops += 1
            return False  # close without replying: the partition
        return True

    def _send_reply(self, conn: socket.socket,
                    reply: Dict[str, Any]) -> None:
        with self._lock:
            tear = self._torn_replies > 0
            if tear:
                self._torn_replies -= 1
        if not tear:
            send_msg(conn, reply, secret=self._frames.secret or b"")
            return
        # Emit a deliberately torn frame: a valid header whose payload
        # stops halfway.  The checksum (or the cut itself) must make
        # the client treat this as corruption, never as data.
        import hashlib
        import struct
        payload = pickle.dumps(reply, protocol=4)
        digest = hashlib.sha256(payload).digest()[:8]
        header = struct.Struct(">3sI8s").pack(b"CD1", len(payload), digest)
        conn.sendall(header + payload[: max(1, len(payload) // 2)])
        self.stats.torn_replies += 1

    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # A well-framed but broken request (missing field, unpicklable
        # value, unknown op) raises; the FrameServer answers it with an
        # error reply and counts it in ``protocol_errors``.
        op = message["op"]
        if op == "cache_ping":
            return {"op": "ok", "ok": True}
        if op == "cache_get":
            self.stats.gets += 1
            value = self.store.get(str(message["key"]))
            if value is None:
                return {"op": "ok", "hit": False, "payload": None}
            self.stats.hits += 1
            return {"op": "ok", "hit": True,
                    "payload": pickle.dumps(value, protocol=4)}
        if op == "cache_put":
            value = pickle.loads(message["payload"])
            self.store.put(str(message["key"]), value)
            self.stats.puts += 1
            return {"op": "ok", "ok": True}
        if op == "cache_stats":
            return {"op": "ok", "entries": len(self.store),
                    "gets": self.stats.gets, "hits": self.stats.hits,
                    "puts": self.stats.puts}
        raise ProtocolError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class CacheClientStats:
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    #: Operations served by the local fallback directory.
    fallback_gets: int = 0
    fallback_puts: int = 0
    #: Remote failures that flipped the client into partition mode.
    partitions_detected: int = 0
    #: Successful probes that flipped it back.
    heals: int = 0
    #: Locally-buffered puts replayed to the server on heal.
    reconciled_puts: int = 0
    #: Remote ops refused instantly by the open circuit breaker
    #: (served locally without burning a connection timeout).
    breaker_short_circuits: int = 0


class NetworkSweepCache(SweepCache):
    """A :class:`~repro.sim.sweep.SweepCache` backed by a
    :class:`CacheServer`, degrading to a local directory under
    partition.

    Drop-in for any ``cache=`` argument (it *is* a ``SweepCache``);
    the inherited directory doubles as the local fallback store and
    the reconciliation buffer.

    Failure handling is one-way-door-free: remote errors feed a
    :class:`~repro.sim.retry.CircuitBreaker` and every operation
    completes locally while it is open.  ``failure_threshold``
    consecutive failures trip the circuit (default 1: the first
    failure flips the client into partition mode, the historic
    behaviour); while open, remote calls are refused instantly —
    no per-cell connection timeouts — until one half-open probe per
    ``probe_interval_s`` checks the server.  A successful probe
    replays the locally buffered puts and resumes remote operation.
    :meth:`flush` forces a final probe-and-reconcile, e.g. at the end
    of a sweep.  Breaker transitions surface as
    ``dist.cache_breaker_*`` obs counters when a session is live.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        directory: Union[str, Path],
        rpc_timeout_s: float = 5.0,
        probe_interval_s: float = 0.5,
        retry: Optional[RetryPolicy] = None,
        failure_threshold: int = 1,
    ) -> None:
        super().__init__(directory)
        self.address = (str(address[0]), int(address[1]))
        self.rpc_timeout_s = rpc_timeout_s
        self.probe_interval_s = probe_interval_s
        #: In-line retry schedule for one remote op before the failure
        #: counts against the breaker (default: one quick second
        #: chance).
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, backoff_base_s=0.05, backoff_max_s=0.2)
        self.breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                      reset_timeout_s=probe_interval_s)
        self.stats = CacheClientStats()
        self._mutex = threading.Lock()
        self._pending: Set[str] = set()

    # -- breaker bookkeeping -------------------------------------------
    @property
    def partitioned(self) -> bool:
        return not self.breaker.closed

    @staticmethod
    def _obs_inc(name: str) -> None:
        ob = obs.session()
        if ob is not None:
            ob.registry.counter(name).inc()

    def _record_remote_failure(self) -> None:
        trips_before = self.breaker.stats.trips
        self.breaker.record_failure()
        if self.breaker.stats.trips > trips_before:
            self.stats.partitions_detected += 1
            self._obs_inc("dist.cache_breaker_trips")

    def _record_remote_success(self) -> None:
        closes_before = self.breaker.stats.closes
        self.breaker.record_success()
        if self.breaker.stats.closes > closes_before:
            self.stats.heals += 1
            self._obs_inc("dist.cache_breaker_heals")

    def _admit(self) -> bool:
        """May a remote op be issued now?

        Open circuit: refuse instantly (the caller serves locally).
        Half-open: the breaker lets exactly one call through, and we
        spend it on :meth:`_probe_and_heal` so the buffered puts are
        reconciled before normal remote traffic resumes.
        """
        was_closed = self.breaker.closed
        if not self.breaker.allow():
            self.stats.breaker_short_circuits += 1
            self._obs_inc("dist.cache_breaker_shortcircuits")
            return False
        if was_closed:
            return True
        return self._probe_and_heal()

    def _rpc(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One remote op with quick in-line retries; None on failure."""
        attempts = 0
        while True:
            try:
                return rpc(self.address, message,
                           timeout_s=self.rpc_timeout_s)
            except (ConnectionError, OSError, ProtocolError,
                    pickle.UnpicklingError):
                attempts += 1
                if not self.retry.allows(attempts):
                    return None
                self.retry.sleep(attempts, token=message.get("op", ""))

    def _probe_and_heal(self) -> bool:
        """Try the server; on success replay buffered puts. True if up."""
        reply = self._rpc({"op": "cache_ping"})
        if reply is None:
            self._record_remote_failure()
            return False
        with self._mutex:
            pending = sorted(self._pending)
        for key in pending:
            value = super().get(key)
            if value is None:
                continue  # local entry lost/corrupt: nothing to replay
            reply = self._rpc({
                "op": "cache_put", "key": key,
                "payload": pickle.dumps(value, protocol=4)})
            if reply is None:
                self._record_remote_failure()
                return False  # partition is back; keep the buffer
            with self._mutex:
                self._pending.discard(key)
            self.stats.reconciled_puts += 1
        self._record_remote_success()
        return True

    def flush(self) -> bool:
        """Force a probe + reconcile now (bypassing the breaker's
        reset window); True when the server is reachable and the
        buffer is empty."""
        ok = self._probe_and_heal()
        with self._mutex:
            return ok and not self._pending

    # -- SweepCache interface ------------------------------------------
    def get(self, key: str):
        if not self._admit():
            self.stats.fallback_gets += 1
            return super().get(key)
        reply = self._rpc({"op": "cache_get", "key": key})
        if reply is None:
            self._record_remote_failure()
            self.stats.fallback_gets += 1
            return super().get(key)
        self._record_remote_success()
        if not reply.get("hit"):
            self.stats.remote_misses += 1
            # The server may have missed what we hold locally (it was
            # down when we computed it): answer from the fallback too.
            return super().get(key)
        try:
            value = pickle.loads(reply["payload"])
        except Exception:
            # Corrupt payload that somehow passed framing: a miss,
            # never an exception or a wrong value.
            self.stats.remote_misses += 1
            return super().get(key)
        self.stats.remote_hits += 1
        return value

    def put(self, key: str, result) -> None:
        # The local directory always gets the entry first: a crash or
        # partition at any later point can only lose remote
        # deduplication, never the result itself.
        super().put(key, result)
        if not self._admit():
            with self._mutex:
                self._pending.add(key)
            self.stats.fallback_puts += 1
            return
        reply = self._rpc({
            "op": "cache_put", "key": key,
            "payload": pickle.dumps(result, protocol=4)})
        if reply is None:
            self._record_remote_failure()
            with self._mutex:
                self._pending.add(key)
            self.stats.fallback_puts += 1
            return
        self._record_remote_success()
        self.stats.remote_puts += 1
