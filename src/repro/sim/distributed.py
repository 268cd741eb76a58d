"""Distributed sweep backend: TCP coordinator + elastic lease workers.

The :class:`DistributedExecutor` plugs into
:class:`~repro.sim.sweep.ScenarioRunner` through the
:class:`~repro.sim.executors.SweepExecutor` interface and fans a
sweep's pending cells out over the network:

* the **coordinator** (in the runner's process) serves a small
  request/response TCP protocol on localhost or a LAN address;
* **workers** (:class:`SweepWorker`, ``python -m repro.sim.distributed
  worker --connect HOST:PORT``) attach, lease cells, execute them with
  the exact same :func:`~repro.sim.executors.timed_cell` primitive the
  serial path uses -- results are byte-identical -- and report back;
* every dispatch is a **lease with a deadline**: a worker renews its
  lease while computing, and a lease whose deadline lapses (worker
  SIGKILL'd, network gone) is reclaimed and re-dispatched under the
  sweep's :class:`~repro.sim.retry.RetryPolicy` (exponential backoff,
  deterministic jitter, per-cell attempt caps);
* an idle worker **steals**: when the ready queue is empty but leases
  are outstanding past a steal age, it is granted a duplicate lease on
  the slowest cell.  Commits are idempotent -- the first result for a
  cell wins, duplicates are counted and discarded -- so stealing (and
  deliberately duplicated chaos leases) can never double-commit a
  journalled cell;
* workers are **elastic**: they may attach and detach mid-sweep, and
  if none ever show up (or all die) the executor degrades gracefully
  to in-process execution after a grace period -- a sweep never hangs
  on an empty cluster.

Trust model: frames are checksummed pickles -- corruption is detected
and torn frames surface as connection errors.  With
``CAPMAN_DIST_SECRET`` set (same value on every host), the checksum
becomes an HMAC-SHA256 tag: a frame from a peer without the secret --
or tampered in flight -- is rejected before its payload is unpickled,
which matters because unpickling attacker-controlled bytes is code
execution.  Servers additionally bound frame sizes, enforce a read
deadline per connection (a slow-dripping client cannot hold a handler
thread hostage) and cap concurrent connections (excess peers are shed
with a closed socket, never by stalling dispatch).  Without a secret
the protocol authenticates nobody: localhost or a trusted private
network only, exactly like a ``ProcessPoolExecutor`` whose workers
happen to live on other hosts.

Wire protocol (all messages are dicts inside checksummed frames, one
request + one response per connection; cells and results ride in the
message dict itself, pickled once with the frame):

========================  =============================================
request                    response
========================  =============================================
``attach {worker}``       ``{ok, poll_s}``
``detach {worker}``       ``{ok}``
``request {worker}``      ``grant {lease, lease_timeout_s, call}`` (call:
                          the :func:`~repro.sim.executors.timed_cell`
                          keyword arguments, cell included) / ``idle`` /
                          ``done``
``renew {lease}``         ``{ok: bool}`` (False: lease already reclaimed)
``result {lease, worker,  ``{committed: bool, done: bool}`` (committed
item}``                   False: duplicate, discarded); ``item`` is the
                          ``(index, outcome, seconds, steps)`` tuple
``status``                coordinator snapshot
========================  =============================================

A well-framed message with a missing field, or a ``result`` whose
``item`` is not such a tuple, is answered ``{op: "error"}`` and counted
in ``protocol_errors``; the server keeps serving.

A ``done`` answer (a ``request`` reply, or ``done: True`` on a
``result`` reply once every cell is committed) also detaches the
worker: the coordinator drops it from its live table and counts the
detach under the same lock, and the worker exits without sending
``detach``.  The executor stops the coordinator as soon as the sweep
is finished, so a detach sent after ``done`` could find the port
already closed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from .. import obs
from .executors import (CellFailure, CellItem, ExecutionContext,
                        SweepExecutor, timed_cell, timed_cell_kwargs)
from .retry import RetryPolicy

__all__ = [
    "ProtocolError",
    "AuthenticationError",
    "CoordinatorUnreachableError",
    "protocol_secret",
    "send_msg",
    "recv_msg",
    "FrameServer",
    "FrameServerStats",
    "DistStats",
    "SweepCoordinator",
    "SweepWorker",
    "WorkerStats",
    "DistributedExecutor",
]

#: Frame magic: "capman distributed", protocol version 1.
_MAGIC = b"CD1"
#: Frame header: magic + payload length + 8-byte payload tag (plain
#: sha256 prefix, or HMAC-SHA256 prefix when a secret is configured).
_HEADER = struct.Struct(">3sI8s")
#: Hard cap on a single frame (a pickled multi-day result is a few MB;
#: 256 MB means a corrupt length field fails fast instead of OOMing).
_MAX_FRAME = 256 * 1024 * 1024

#: Environment variable carrying the shared protocol secret.
SECRET_ENV = "CAPMAN_DIST_SECRET"

#: How long an idle worker waits before asking the coordinator again.
IDLE_POLL_S = 0.05
#: Executor loop tick: lease reaping, local fallback, finish check.
EXECUTOR_POLL_S = 0.02
#: Worker name of the executor's in-process fallback leases.
_LOCAL_WORKER = "__local__"


class ProtocolError(ConnectionError):
    """A frame failed validation (bad magic, checksum, or length)."""


class AuthenticationError(ProtocolError):
    """A frame carried a valid plain checksum but no/wrong HMAC tag --
    the peer does not hold ``CAPMAN_DIST_SECRET``."""


class CoordinatorUnreachableError(ConnectionError):
    """The coordinator stayed unreachable past a worker's per-call
    retry budget.  Distinct from the sweep being *done*: the caller
    should ride out the outage (the coordinator may be restarting from
    its journal), not exit."""


def protocol_secret() -> Optional[bytes]:
    """The shared frame secret from ``CAPMAN_DIST_SECRET`` (or None).

    Read fresh on every call so tests (and long-lived processes whose
    environment is updated) see changes without re-importing.
    """
    value = os.environ.get(SECRET_ENV)
    if not value:
        return None
    return value.encode("utf-8")


def _frame_tag(payload: bytes, secret: Optional[bytes]) -> bytes:
    """8-byte payload tag: keyed (HMAC) when a secret is configured."""
    if secret:
        return hmac.new(secret, payload, hashlib.sha256).digest()[:8]
    return hashlib.sha256(payload).digest()[:8]


# ----------------------------------------------------------------------
# Checksummed (optionally authenticated) frames
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, message: Dict[str, Any],
             secret: Optional[bytes] = None) -> None:
    """Send one message as a tagged length-prefixed frame.

    ``secret=None`` picks up :func:`protocol_secret` from the
    environment; pass ``b""`` to force an unauthenticated frame.
    """
    if secret is None:
        secret = protocol_secret()
    payload = pickle.dumps(message, protocol=4)
    tag = _frame_tag(payload, secret)
    sock.sendall(_HEADER.pack(_MAGIC, len(payload), tag) + payload)


def _recv_exact(sock: socket.socket, n: int,
                deadline: Optional[float] = None) -> bytes:
    """Read exactly ``n`` bytes, under an absolute monotonic deadline.

    The deadline bounds the *whole* read, re-armed before every chunk:
    a peer dripping one byte per poll (slowloris) trips it just like a
    silent one, surfacing as :class:`ProtocolError` instead of holding
    the handler thread for the per-chunk socket timeout times ``n``.
    """
    chunks = []
    got = 0
    while got < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"read deadline exceeded mid-frame ({got}/{n} bytes)")
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(n - got)
        except socket.timeout:
            raise ProtocolError(
                f"read deadline exceeded mid-frame ({got}/{n} bytes)")
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket, secret: Optional[bytes] = None,
             deadline_s: Optional[float] = None,
             max_frame: int = _MAX_FRAME) -> Dict[str, Any]:
    """Receive one frame; raises :class:`ProtocolError` on corruption.

    A torn or tampered frame never silently yields a wrong message:
    the length, magic and tag are all validated *before* the payload
    is unpickled -- with a secret configured, an unauthenticated or
    tampered payload is never handed to ``pickle.loads`` at all.

    ``secret=None`` reads :func:`protocol_secret` from the
    environment; ``b""`` forces plain checksumming.  ``deadline_s``
    bounds the whole receive (header + payload) in wall seconds;
    ``max_frame`` rejects oversized length fields before any payload
    allocation.
    """
    if secret is None:
        secret = protocol_secret()
    deadline = (time.monotonic() + deadline_s
                if deadline_s is not None else None)
    magic, length, tag = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size, deadline))
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > max_frame:
        raise ProtocolError(f"frame length {length} exceeds cap")
    payload = _recv_exact(sock, length, deadline)
    if not hmac.compare_digest(_frame_tag(payload, secret), tag):
        if secret and hmac.compare_digest(_frame_tag(payload, b""), tag):
            # Intact plain-checksummed frame from a peer without the
            # secret: an authentication failure, not line noise.
            raise AuthenticationError(
                "frame is not authenticated (peer is missing "
                f"{SECRET_ENV} or holds a different secret)")
        raise ProtocolError("frame checksum mismatch (torn or corrupt)")
    message = pickle.loads(payload)
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError("frame payload is not a protocol message")
    return message


def rpc(address: Tuple[str, int], message: Dict[str, Any],
        timeout_s: float = 10.0,
        secret: Optional[bytes] = None) -> Dict[str, Any]:
    """One request/response round trip on a fresh connection."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        send_msg(sock, message, secret=secret)
        return recv_msg(sock, secret=secret, deadline_s=timeout_s)


# ----------------------------------------------------------------------
# Shared server shell: accept loop + admission control + hardening
# ----------------------------------------------------------------------
@dataclass
class FrameServerStats:
    """Hostile-peer accounting for one :class:`FrameServer`."""

    connections: int = 0
    #: Connections closed unserved because the admission cap was full.
    connections_shed: int = 0
    #: Frames rejected for framing reasons (bad magic/length/checksum,
    #: torn reads, blown read deadlines) or, well-framed, by the handler.
    protocol_errors: int = 0
    #: Intact frames rejected for a missing/wrong HMAC tag.
    auth_failures: int = 0


class FrameServer:
    """One-request-per-connection TCP server over tagged frames.

    The shared shell under :class:`SweepCoordinator` and
    :class:`~repro.sim.cache_server.CacheServer`: accept loop in a
    daemon thread, one handler thread per connection, and the
    hardening that keeps a malformed or hostile peer from stalling
    dispatch --

    * **admission control**: at most ``max_connections`` handler
      threads; excess connections are closed immediately (the client
      sees a reset and retries) instead of queueing behind a slow peer;
    * **read deadline**: each connection gets ``read_deadline_s`` of
      wall clock to deliver its full request frame, dripped bytes
      included;
    * **authentication**: frames are verified against
      :func:`protocol_secret` (resolved at :meth:`start`) before
      anything is unpickled; failures are counted, the connection is
      closed without a reply, and the handler thread moves on;
    * **malformed messages**: a well-framed message the handler
      rejects (it raises: a missing field, an unknown op, a value of
      the wrong shape) is answered ``{op: "error"}`` and counted in
      ``protocol_errors``.

    ``gate`` (returning False to drop a connection unserved) and
    ``sender`` (replacing :func:`send_msg` for replies) are chaos
    hooks used by the cache server's partition / torn-reply injection.
    """

    def __init__(
        self,
        handler: Callable[[Dict[str, Any]], Dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "frame-server",
        max_connections: int = 64,
        read_deadline_s: float = 10.0,
        gate: Optional[Callable[[socket.socket], bool]] = None,
        sender: Optional[
            Callable[[socket.socket, Dict[str, Any]], None]] = None,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.name = name
        self.max_connections = max_connections
        self.read_deadline_s = read_deadline_s
        self.gate = gate
        self.sender = sender
        self.stats = FrameServerStats()
        self._secret: Optional[bytes] = None
        self._slots = threading.Semaphore(max_connections)
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in a daemon thread; returns address."""
        self._secret = protocol_secret()
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(64)
        server.settimeout(0.2)
        self._server = server
        self.port = server.getsockname()[1]
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._serve, name=self.name, daemon=True)
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def secret(self) -> Optional[bytes]:
        """The frame secret resolved at :meth:`start` (None before)."""
        return self._secret

    def _serve(self) -> None:
        assert self._server is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.stats.connections += 1
            if not self._slots.acquire(blocking=False):
                # Every handler slot is busy: shed this peer instead of
                # queueing it behind whatever is slow.  Healthy clients
                # treat the reset as a transient error and retry.
                self.stats.connections_shed += 1
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.settimeout(self.read_deadline_s)
                if self.gate is not None and not self.gate(conn):
                    return
                try:
                    message = recv_msg(conn, secret=self._secret,
                                       deadline_s=self.read_deadline_s)
                except AuthenticationError:
                    self.stats.auth_failures += 1
                    return  # close without a reply; nothing unpickled
                except ProtocolError:
                    self.stats.protocol_errors += 1
                    return
                except (ConnectionError, OSError,
                        pickle.UnpicklingError):
                    # A torn request (dying peer, partition) is the
                    # sender's problem.  Never crash the server.
                    self.stats.protocol_errors += 1
                    return
                try:
                    reply = self.handler(message)
                except Exception as exc:
                    self.stats.protocol_errors += 1
                    reply = {"op": "error",
                             "error": f"malformed {message['op']!r} "
                                      f"message: {type(exc).__name__}: "
                                      f"{exc}"}
                try:
                    if self.sender is not None:
                        self.sender(conn, reply)
                    else:
                        send_msg(conn, reply, secret=self._secret)
                except (ConnectionError, OSError):
                    return  # peer vanished mid-reply: its retry problem
        finally:
            self._slots.release()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class DistStats:
    """Counters for one distributed run (exported as ``dist.*`` obs
    counters when a session is live)."""

    leases_granted: int = 0
    lease_expiries: int = 0
    steals: int = 0
    duplicate_results: int = 0
    retries: int = 0
    backoff_wait_s: float = 0.0
    worker_attaches: int = 0
    worker_detaches: int = 0
    #: Cells the parent executed in-process (graceful degradation).
    local_fallback_cells: int = 0
    #: Cells workers executed remotely.
    remote_cells: int = 0
    #: Coordinator-state records written to the run journal.
    journal_records: int = 0
    #: In-flight leases inherited from a crashed coordinator's journal
    #: and expired/re-dispatched on restart.
    recovered_leases: int = 0
    #: Hostile-peer accounting, folded in from the frame server.
    auth_failures: int = 0
    protocol_errors: int = 0
    connections_shed: int = 0

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


@dataclass
class _Lease:
    lease_id: str
    index: int
    worker: str
    granted_monotonic: float
    deadline_monotonic: float
    #: True when this lease duplicates one still outstanding (a steal
    #: or a chaos duplicate) rather than a fresh/requeued dispatch.
    duplicate: bool = False


class SweepCoordinator:
    """Owns the lease table of one distributed sweep.

    All state transitions happen under one lock, through one path
    each: :meth:`_lease_locked` creates every lease (worker grants,
    steals, the executor's local fallback), :meth:`_charge_locked`
    charges every expired attempt (lease expiry, crash recovery), and
    :meth:`deliver` commits every result (remote or local) -- exactly
    once per cell index, which is what makes work-stealing, duplicate
    lease delivery and worker loss safe for the journal.

    The server side is a :class:`FrameServer`: one request + one
    response per connection, so a SIGKILL'd worker leaves no half-open
    session state behind -- only a lease that will expire.

    **Crash durability.**  When the execution context carries a
    journal hook (``ctx.journal_append``), every lease grant is written
    through the run journal *before* the reply leaves this process,
    alongside the commits the runner already journals.  A SIGKILLed
    coordinator therefore leaves a complete account of its dispatch
    state: on restart (``ScenarioRunner.resume``) the committed cells
    are replayed without recomputation, and every lease that was in
    flight at the kill (``ctx.replayed_grants``) is treated as expired
    -- charged one attempt and re-dispatched through the sweep's
    :class:`~repro.sim.retry.RetryPolicy`, or finally failed if its
    budget is spent.  Surviving workers re-attach and re-deliver
    results by cell index, so first-commit-wins dedupe holds across
    the crash exactly as within one run.
    """

    def __init__(
        self,
        cells: Sequence[Any],
        ctx: ExecutionContext,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = 30.0,
        steal_after_s: Optional[float] = None,
        max_connections: int = 64,
        read_deadline_s: float = 10.0,
    ) -> None:
        self._cells = {cell.index: cell for cell in cells}
        self._order = [cell.index for cell in cells]
        self._ctx = ctx
        self.host = host
        self.port = port
        self.lease_timeout_s = lease_timeout_s
        self.steal_after_s = (steal_after_s if steal_after_s is not None
                              else lease_timeout_s / 2.0)
        self.stats = DistStats()

        self._lock = threading.Lock()
        #: (not-before monotonic, index) dispatch queue, spec order
        #: preserved among equally-ready cells.
        self._ready: List[Tuple[float, int]] = [
            (0.0, index) for index in self._order]
        self._leases: Dict[str, _Lease] = {}
        #: index -> number of live leases (1 normally, 2 when stolen).
        self._active: Dict[int, int] = {}
        #: index -> failed attempts (expired leases) so far.
        self._failed: Dict[int, int] = {}
        self._done: Dict[int, CellItem] = {}
        self._workers: Dict[str, float] = {}
        self._ever_attached = False
        #: Backoff waits of retries scheduled since the last drain; the
        #: executor thread accounts them on SimStats/obs, off the
        #: handler threads.
        self._retry_waits: List[float] = []
        #: Chaos injection: the next n grants leave the cell queued,
        #: so a second worker receives the *same* lease content.
        self._chaos_duplicate_leases = 0

        self._frames = FrameServer(
            handler=self._dispatch, host=host, port=port,
            name="sweep-coordinator", max_connections=max_connections,
            read_deadline_s=read_deadline_s)

        self._recover_replayed_grants()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in a daemon thread; returns address."""
        self.host, self.port = self._frames.start()
        return self.host, self.port

    def stop(self) -> None:
        self._frames.stop()
        self._sync_frame_stats()

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def frame_stats(self) -> "FrameServerStats":
        return self._frames.stats

    def _sync_frame_stats(self) -> None:
        frames = self._frames.stats
        self.stats.auth_failures = frames.auth_failures
        self.stats.protocol_errors = frames.protocol_errors
        self.stats.connections_shed = frames.connections_shed

    # -- journal / crash recovery --------------------------------------
    def _journal_locked(self, rtype: str, data: Dict[str, Any]) -> None:
        """Write one coordinator-state record through the run journal.

        Called under the coordinator lock *before* the state change is
        visible to any peer, so the journal is a true write-ahead log:
        a grant a worker ever saw has a durable record.
        """
        if self._ctx.journal_append is None:
            return
        self._ctx.journal_append(rtype, data)
        self.stats.journal_records += 1

    def _recover_replayed_grants(self) -> None:
        """Expire leases inherited from a crashed coordinator.

        ``ctx.replayed_grants`` maps cell index -> dispatch episodes a
        previous coordinator journalled without a matching commit.
        Each such cell was in flight (or about to be) at the crash:
        charge the attempts exactly like a lease that expired
        in-process.  Runs in the constructor, before the server
        accepts connections.
        """
        now = time.monotonic()
        for index, grants in sorted(self._ctx.replayed_grants.items()):
            if index not in self._cells or grants <= 0:
                continue
            self.stats.recovered_leases += grants
            self.stats.lease_expiries += grants
            self._ready = [(nb, i) for nb, i in self._ready if i != index]
            self._charge_locked(
                index, grants, now,
                "across coordinator restarts (retry budget spent before "
                "the crash)")

    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "attach":
            return self._op_attach(str(message["worker"]))
        if op == "detach":
            return self._op_detach(str(message["worker"]))
        if op == "request":
            return self._op_request(str(message["worker"]))
        if op == "renew":
            return self._op_renew(str(message["lease"]))
        if op == "result":
            return self.deliver(str(message["lease"]),
                                _as_item(message["item"]),
                                worker=str(message["worker"]))
        if op == "status":
            return {"op": "status", **self.snapshot()}
        raise ProtocolError(f"unknown op {op!r}")

    # -- protocol ops --------------------------------------------------
    def _mark_seen_locked(self, worker: str) -> None:
        """Refresh a worker's liveness stamp.

        A worker we are not currently tracking -- never attached, or
        pruned as silent by :meth:`reap` -- counts as a (re-)attach,
        so attach/detach accounting stays exactly paired no matter how
        often a loaded host makes a live worker look dead.
        """
        if worker not in self._workers:
            self.stats.worker_attaches += 1
            self._ever_attached = True
        self._workers[worker] = time.monotonic()

    def _op_attach(self, worker: str) -> Dict[str, Any]:
        with self._lock:
            self._mark_seen_locked(worker)
        return {"op": "ok", "poll_s": IDLE_POLL_S,
                "lease_timeout_s": self.lease_timeout_s}

    def _op_detach(self, worker: str) -> Dict[str, Any]:
        with self._lock:
            self._detach_locked(worker)
        return {"op": "ok"}

    def _detach_locked(self, worker: str) -> None:
        if self._workers.pop(worker, None) is not None:
            self.stats.worker_detaches += 1

    def _op_request(self, worker: str) -> Dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            self._mark_seen_locked(worker)
            self._reap_locked(now)
            lease = self._lease_locked(worker, now)
            if lease is None:
                if len(self._done) == len(self._cells):
                    self._detach_locked(worker)
                    return {"op": "done"}
                return {"op": "idle", "wait_s": IDLE_POLL_S}
        # The reply (cell included) is pickled outside the lock.
        return {
            "op": "grant",
            "lease": lease.lease_id,
            "lease_timeout_s": self.lease_timeout_s,
            "call": timed_cell_kwargs(self._cells[lease.index], self._ctx),
        }

    def _op_renew(self, lease_id: str) -> Dict[str, Any]:
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"op": "ok", "ok": False}
            lease.deadline_monotonic = (time.monotonic()
                                        + self.lease_timeout_s)
            self._mark_seen_locked(lease.worker)
            return {"op": "ok", "ok": True}

    # -- core state transitions (all _locked) --------------------------
    def _lease_locked(self, worker: str, now: float) -> Optional[_Lease]:
        """Lease the next ready cell to ``worker``, or None.

        A remote worker facing an empty ready queue steals (a
        duplicate lease on the oldest slow cell); the executor's local
        fallback never steals, never takes a chaos duplicate, and gets
        a generous deadline -- the parent cannot SIGKILL itself out
        from under the lease, the deadline just keeps :meth:`reap`
        honest.
        """
        remote = worker != _LOCAL_WORKER
        index = self._pop_ready_locked(now)
        steal = index is None and remote
        if steal:
            index = self._steal_candidate_locked(now)
        if index is None:
            return None
        self.stats.steals += int(steal)
        timeout = (self.lease_timeout_s if remote
                   else max(self.lease_timeout_s, 3600.0))
        lease = _Lease(
            lease_id=uuid.uuid4().hex,
            index=index,
            worker=worker,
            granted_monotonic=now,
            deadline_monotonic=now + timeout,
            duplicate=steal,
        )
        self._leases[lease.lease_id] = lease
        self._active[index] = self._active.get(index, 0) + 1
        self.stats.leases_granted += 1
        # WAL: the grant is durable before the worker ever sees it, so
        # a coordinator crash can never lose track of in-flight work.
        # Duplicates (steals) are flagged: they are not a fresh
        # dispatch episode and recovery must not double-charge them.
        self._journal_locked("lease_grant", {
            "index": index, "lease": lease.lease_id, "worker": worker,
            "duplicate": steal})
        self._ctx.started(index)
        if self._chaos_duplicate_leases > 0 and remote and not steal:
            # Chaos: leave the cell in the queue too, so another
            # worker is handed the same cell concurrently.
            self._chaos_duplicate_leases -= 1
            self._ready.append((now, index))
        return lease

    def _pop_ready_locked(self, now: float) -> Optional[int]:
        """The first dispatchable queue entry (spec order among ready)."""
        for pos, (not_before, index) in enumerate(self._ready):
            if index in self._done:
                # Committed while a duplicate sat queued: drop it.
                self._ready.pop(pos)
                return self._pop_ready_locked(now)
            if not_before <= now:
                self._ready.pop(pos)
                return index
        return None

    def _steal_candidate_locked(self, now: float) -> Optional[int]:
        """The oldest lease past the steal age with no duplicate yet."""
        best: Optional[_Lease] = None
        for lease in self._leases.values():
            if lease.index in self._done:
                continue
            if now - lease.granted_monotonic < self.steal_after_s:
                continue
            if self._active.get(lease.index, 0) >= 2:
                continue  # already duplicated; don't pile on
            if best is None or lease.granted_monotonic < best.granted_monotonic:
                best = lease
        return best.index if best is not None else None

    def _reap_locked(self, now: float) -> None:
        """Reclaim expired leases and charge their cells."""
        expired = [lease for lease in self._leases.values()
                   if lease.deadline_monotonic < now]
        for lease in expired:
            self._leases.pop(lease.lease_id, None)
            index = lease.index
            self._active[index] = max(0, self._active.get(index, 0) - 1)
            if index in self._done:
                continue
            self.stats.lease_expiries += 1
            if self._active.get(index, 0) > 0:
                # A duplicate of this cell is still running; its own
                # fate decides the cell.
                continue
            self._charge_locked(
                index, 1, now,
                f"worker lost or stalled past {self.lease_timeout_s} s")

    def _charge_locked(self, index: int, attempts: int, now: float,
                       why: str) -> None:
        """Charge ``attempts`` expired leases to ``index``'s budget.

        Requeues the cell after the retry policy's backoff (with its
        deterministic jitter), or -- once the budget is spent -- commits
        a ``LeaseExpiredError`` failure.
        """
        failed = self._failed[index] = self._failed.get(index, 0) + attempts
        cell = self._cells[index]
        if self._ctx.retry.allows(failed):
            wait = self._ctx.retry.wait_s(failed, token=cell.label)
            self.stats.retries += 1
            self.stats.backoff_wait_s += wait
            self._retry_waits.append(wait)
            self._ready.append((now + wait, index))
            return
        failure = CellFailure(
            label=cell.label,
            error_type="LeaseExpiredError",
            message=f"lease expired {failed} times ({why})",
            attempts=failed,
        )
        self._commit_locked((index, failure, 0.0, 0), adjust_attempts=False)

    def _commit_locked(self, item: CellItem,
                       adjust_attempts: bool = True) -> bool:
        """Idempotently record a final outcome; True if it won."""
        index, outcome = item[0], item[1]
        if index not in self._cells or index in self._done:
            # Not in the table: after a coordinator restart it holds
            # only the *pending* cells, so a surviving worker
            # re-delivering a cell committed before the crash lands
            # here.  Same verdict as any duplicate: discarded, counted,
            # harmless.
            self.stats.duplicate_results += 1
            return False
        attempts = self._failed.get(index, 0)
        # A reported failure consumed one attempt on top of the
        # expired ones; an expiry-created failure already carries its
        # full count.
        if adjust_attempts and isinstance(outcome, CellFailure) and attempts:
            outcome = dataclasses.replace(outcome, attempts=attempts + 1)
            item = (index, outcome, item[2], item[3])
        self._done[index] = item
        # Every lease on this cell (steals, chaos duplicates) is now
        # moot; late results hit the duplicate branch above.
        for lease_id in [lid for lid, lease in self._leases.items()
                         if lease.index == index]:
            self._leases.pop(lease_id)
        self._active.pop(index, None)
        self._ctx.finalise(index, outcome)
        return True

    # -- executor-side API ---------------------------------------------
    def inject_duplicate_leases(self, n: int) -> None:
        """Chaos hook: duplicate-deliver the next ``n`` leases."""
        with self._lock:
            self._chaos_duplicate_leases += int(n)

    def reap(self) -> None:
        """Expire stale leases and prune silent workers (executor tick)."""
        now = time.monotonic()
        with self._lock:
            self._reap_locked(now)
            # A live worker renews within every lease timeout, so one
            # silent for longer is gone.
            stale = [worker for worker, seen in self._workers.items()
                     if now - seen > self.lease_timeout_s]
            for worker in stale:
                self._workers.pop(worker, None)
                self.stats.worker_detaches += 1

    def claim_local(self) -> Optional[Tuple[str, Any]]:
        """Lease one ready cell to the in-process fallback executor."""
        with self._lock:
            lease = self._lease_locked(_LOCAL_WORKER, time.monotonic())
        if lease is None:
            return None
        return lease.lease_id, self._cells[lease.index]

    def deliver(self, lease_id: str, item: CellItem,
                worker: str = _LOCAL_WORKER) -> Dict[str, Any]:
        """Commit a leased cell's outcome; the ``result`` reply.

        The one commit path for worker results and the local
        fallback's: first result per cell wins, later ones are counted
        duplicates.  ``committed`` says whether this one won, ``done``
        whether the sweep is now complete (which also detaches a
        remote worker).
        """
        remote = worker != _LOCAL_WORKER
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            committed = self._commit_locked(item)
            if committed and remote:
                self.stats.remote_cells += 1
                self._ctx.collect_telemetry(item[1])
            elif committed:
                self.stats.local_fallback_cells += 1
            done = len(self._done) == len(self._cells)
            if remote and done:
                self._detach_locked(worker)
            elif remote and lease is not None:
                self._workers[lease.worker] = time.monotonic()
        return {"op": "ok", "committed": committed, "done": done}

    def drain_retry_waits(self) -> List[float]:
        with self._lock:
            waits, self._retry_waits = self._retry_waits, []
            return waits

    @property
    def finished(self) -> bool:
        with self._lock:
            return len(self._done) == len(self._cells)

    @property
    def live_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def ever_attached(self) -> bool:
        with self._lock:
            return self._ever_attached

    def results(self) -> List[CellItem]:
        with self._lock:
            if len(self._done) != len(self._cells):
                raise RuntimeError(
                    f"coordinator has {len(self._done)}/{len(self._cells)} "
                    f"results")
            return [self._done[index] for index in self._order]

    def snapshot(self) -> Dict[str, Any]:
        self._sync_frame_stats()
        with self._lock:
            return {
                "cells": len(self._cells),
                "done": len(self._done),
                "ready": len(self._ready),
                "leases": len(self._leases),
                "workers": len(self._workers),
                "stats": self.stats.as_dict(),
            }


def _as_item(item: Any) -> CellItem:
    """``item`` if it is an ``(index, outcome, seconds, steps)`` tuple."""
    if not (isinstance(item, tuple) and len(item) == 4
            and isinstance(item[0], int) and isinstance(item[2], float)
            and isinstance(item[3], int)):
        raise ProtocolError(
            "result item is not an (index, outcome, seconds, steps) tuple")
    return item


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """What one worker did before the coordinator said ``done``."""

    cells: int = 0
    failures_reported: int = 0
    results_discarded: int = 0
    reconnects: int = 0
    #: Coordinator outages ridden out (unreachable past the per-call
    #: budget, then reachable again before the reconnect window closed).
    outages_survived: int = 0
    #: Successful re-attaches after an outage.
    reattaches: int = 0
    #: Computed results delivered only after riding out an outage --
    #: work a pre-failover worker would have thrown away by exiting.
    results_redelivered: int = 0


class _LeaseRenewer(threading.Thread):
    """Renews one lease on its own connection while a cell computes."""

    def __init__(self, address: Tuple[str, int], lease_id: str,
                 interval_s: float) -> None:
        super().__init__(name=f"lease-renew-{lease_id[:8]}", daemon=True)
        self._address = address
        self._lease_id = lease_id
        self._interval_s = max(0.05, interval_s)
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                reply = rpc(self._address,
                            {"op": "renew", "lease": self._lease_id},
                            timeout_s=5.0)
                if not reply.get("ok", False):
                    return  # lease reclaimed; stop renewing
            except (ConnectionError, OSError):
                continue  # transient partition: keep trying until told

    def stop(self) -> None:
        self._stop.set()


class SweepWorker:
    """One elastic worker process: attach, lease, compute, report, loop.

    Runs cells on its main thread, so the hard SIGALRM per-cell
    timeout applies exactly as in a local pool worker.  Connection
    loss inside one RPC is retried with the worker's own backoff;
    a coordinator unreachable past that budget raises
    :class:`CoordinatorUnreachableError` -- which the main loop treats
    as an *outage*, not as the sweep ending.  The worker then probes
    the address with seeded jittered backoff for up to
    ``reconnect_timeout_s`` (a coordinator SIGKILLed mid-sweep and
    restarted from its journal re-adopts its surviving fleet this
    way), re-attaches, and -- crucially -- re-delivers any result it
    had computed during the outage, so in-flight work survives the
    crash without recomputation.  Only an explicit ``done`` reply, or
    an outage that outlives the reconnect window, ends the worker.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        rpc_timeout_s: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        reconnect_timeout_s: float = 30.0,
    ) -> None:
        self.address = address
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.rpc_timeout_s = rpc_timeout_s
        #: Connection retry schedule (not cell retries -- those are the
        #: coordinator's job).
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=8, backoff_base_s=0.05, backoff_factor=2.0,
            backoff_max_s=2.0, jitter=0.5, seed=hash(self.worker_id) & 0xffff)
        #: How long an attached worker keeps probing an unreachable
        #: coordinator before giving up on the sweep.
        self.reconnect_timeout_s = reconnect_timeout_s
        #: Jittered probe schedule during an outage; the seed derives
        #: from the worker id so a restarted coordinator's surviving
        #: fleet staggers its reconnects instead of thundering back in
        #: lockstep.
        self.reconnect_retry = RetryPolicy(
            max_attempts=1 << 30, backoff_base_s=0.1, backoff_factor=1.5,
            backoff_max_s=1.0, jitter=0.5,
            seed=hash(self.worker_id) & 0xffff)
        self.stats = WorkerStats()
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current cell (detaches)."""
        self._stop.set()

    def _rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """RPC with connection retries.

        Transient blips are absorbed by the retry schedule; a
        coordinator unreachable past the whole budget raises
        :class:`CoordinatorUnreachableError` so callers can tell "the
        host is down right now" from any protocol-level reply -- the
        two used to share a ``None`` return, which made a worker
        silently exit a live sweep on a long blip.
        """
        attempts = 0
        while True:
            try:
                return rpc(self.address, message,
                           timeout_s=self.rpc_timeout_s)
            except (ConnectionError, OSError) as exc:
                attempts += 1
                if not self.retry.allows(attempts):
                    raise CoordinatorUnreachableError(
                        f"coordinator {self.address[0]}:{self.address[1]} "
                        f"unreachable after {attempts} attempts "
                        f"({type(exc).__name__}: {exc})") from exc
                self.stats.reconnects += 1
                self.retry.sleep(attempts, token=message.get("op", ""))

    def _ride_out_outage(self) -> bool:
        """Probe an unreachable coordinator until it answers an attach.

        Returns True once re-attached (the caller resumes where it
        was), False when ``reconnect_timeout_s`` elapses or the worker
        was asked to stop -- only then is the sweep abandoned.
        """
        started = time.monotonic()
        attempt = 0
        while time.monotonic() - started < self.reconnect_timeout_s:
            if self._stop.is_set():
                return False
            attempt += 1
            # Cap the exponent so the schedule saturates at its
            # ceiling instead of overflowing on a long outage.
            self.reconnect_retry.sleep(min(attempt, 64),
                                       token="reconnect")
            try:
                rpc(self.address,
                    {"op": "attach", "worker": self.worker_id},
                    timeout_s=self.rpc_timeout_s)
            except (ConnectionError, OSError):
                continue
            self.stats.outages_survived += 1
            self.stats.reattaches += 1
            return True
        return False

    def run(self, max_cells: Optional[int] = None) -> WorkerStats:
        """Work until the coordinator reports the sweep done."""
        try:
            self._rpc({"op": "attach", "worker": self.worker_id})
        except CoordinatorUnreachableError:
            # Never managed to attach at all: nothing to ride out.
            return self.stats
        # A ``done`` answer already detached this worker.
        done = False
        try:
            while not self._stop.is_set():
                if max_cells is not None and self.stats.cells >= max_cells:
                    break
                try:
                    reply = self._rpc({"op": "request",
                                       "worker": self.worker_id})
                except CoordinatorUnreachableError:
                    if not self._ride_out_outage():
                        break
                    continue
                if reply.get("op") == "done":
                    done = True
                    break
                if reply.get("op") == "idle":
                    time.sleep(float(reply.get("wait_s", IDLE_POLL_S)))
                    continue
                if reply.get("op") != "grant":
                    break
                if self._execute_grant(reply):
                    done = True
                    break
        finally:
            if not done:
                try:
                    self._rpc({"op": "detach", "worker": self.worker_id})
                except CoordinatorUnreachableError:
                    pass
        return self.stats

    def _execute_grant(self, grant: Dict[str, Any]) -> bool:
        """Run one leased cell and deliver it; True when the sweep is done."""
        lease_id = grant["lease"]
        renewer = _LeaseRenewer(
            self.address, lease_id,
            interval_s=float(grant["lease_timeout_s"]) / 3.0)
        renewer.start()
        try:
            item = timed_cell(**grant["call"])
        finally:
            renewer.stop()
        if isinstance(item[1], CellFailure):
            self.stats.failures_reported += 1
        # Deliver the result across outages: a coordinator that died
        # while this cell computed is restarting from its journal, and
        # this exact payload is what spares it the recomputation.  The
        # restarted coordinator commits by cell index, so an unknown
        # lease id is fine -- first commit wins, duplicates are
        # discarded, exactly as within one run.
        redelivery = False
        while True:
            try:
                reply = self._rpc({
                    "op": "result",
                    "lease": lease_id,
                    "worker": self.worker_id,
                    "item": item,
                })
                break
            except CoordinatorUnreachableError:
                if not self._ride_out_outage():
                    return False  # result undeliverable; the lease expires
                redelivery = True
        if redelivery:
            self.stats.results_redelivered += 1
        self.stats.cells += 1
        if not reply.get("committed", False):
            self.stats.results_discarded += 1
        return bool(reply.get("done", False))


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class DistributedExecutor(SweepExecutor):
    """Sweep backend that coordinates networked lease workers.

    Parameters
    ----------
    host / port:
        Bind address of the coordinator (port 0 picks a free one; the
        bound port is on :attr:`coordinator`).
    lease_timeout_s:
        Lease deadline; workers renew at a third of this, so worker
        loss is detected within one lease timeout of the last renewal.
    steal_after_s:
        Age after which an outstanding lease may be duplicated by an
        idle worker (default: half the lease timeout).
    spawn_workers:
        Convenience: launch this many local worker subprocesses for
        the duration of each sweep (their PIDs are on
        :meth:`worker_pids` -- the chaos harness kills them).
    workers_grace_s:
        How long to wait for at least one worker before degrading to
        in-process execution (when ``local_fallback``).
    local_fallback:
        When True (default) the parent's own process executes ready
        cells whenever no live workers exist past the grace period --
        an empty or fully-dead cluster degrades to exactly the serial
        path instead of hanging.
    max_connections / read_deadline_s:
        Coordinator admission cap and per-connection read deadline
        (see :class:`FrameServer`).
    """

    name = "distributed"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = 30.0,
        steal_after_s: Optional[float] = None,
        spawn_workers: int = 0,
        workers_grace_s: float = 2.0,
        local_fallback: bool = True,
        max_connections: int = 64,
        read_deadline_s: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.lease_timeout_s = lease_timeout_s
        self.steal_after_s = steal_after_s
        self.spawn_workers = spawn_workers
        self.workers_grace_s = workers_grace_s
        self.local_fallback = local_fallback
        self.max_connections = max_connections
        self.read_deadline_s = read_deadline_s
        self.coordinator: Optional[SweepCoordinator] = None
        self.stats: DistStats = DistStats()
        self._procs: List[subprocess.Popen] = []
        #: Chaos request carried into the next run's coordinator.
        self._pending_duplicate_leases = 0

    # -- chaos hooks ---------------------------------------------------
    def inject_duplicate_leases(self, n: int) -> None:
        """Duplicate-deliver the next ``n`` leases (live or queued)."""
        if self.coordinator is not None:
            self.coordinator.inject_duplicate_leases(n)
        else:
            self._pending_duplicate_leases += int(n)

    def worker_pids(self) -> List[int]:
        """PIDs of the spawned worker subprocesses still running."""
        return [proc.pid for proc in self._procs if proc.poll() is None]

    # -- SweepExecutor -------------------------------------------------
    def run(self, cells: Sequence[Any],
            ctx: ExecutionContext) -> List[CellItem]:
        coordinator = SweepCoordinator(
            cells, ctx, host=self.host, port=self.port,
            lease_timeout_s=self.lease_timeout_s,
            steal_after_s=self.steal_after_s,
            max_connections=self.max_connections,
            read_deadline_s=self.read_deadline_s,
        )
        if self._pending_duplicate_leases:
            coordinator.inject_duplicate_leases(
                self._pending_duplicate_leases)
            self._pending_duplicate_leases = 0
        self.coordinator = coordinator
        coordinator.start()
        started = time.monotonic()
        try:
            self._spawn_local_workers(coordinator.address)
            while not coordinator.finished:
                coordinator.reap()
                self._count_retries(coordinator, ctx)
                if self._should_fall_back(coordinator, started):
                    claimed = coordinator.claim_local()
                    if claimed is not None:
                        lease_id, cell = claimed
                        coordinator.deliver(
                            lease_id,
                            timed_cell(**timed_cell_kwargs(cell, ctx)))
                        continue
                time.sleep(EXECUTOR_POLL_S)
            self._count_retries(coordinator, ctx)
            items = coordinator.results()
            coordinator._sync_frame_stats()
            self.stats = coordinator.stats
            self._export_counters()
            return items
        finally:
            self._reap_local_workers()
            coordinator.stop()

    # -- internals -----------------------------------------------------
    def _should_fall_back(self, coordinator: SweepCoordinator,
                          started: float) -> bool:
        if not self.local_fallback:
            return False
        if coordinator.live_workers > 0:
            return False
        grace = self.workers_grace_s
        if coordinator.ever_attached:
            # Workers existed and all went away: degrade immediately
            # once their leases have been reaped.
            return True
        return time.monotonic() - started >= grace

    @staticmethod
    def _count_retries(coordinator: SweepCoordinator,
                       ctx: ExecutionContext) -> None:
        for wait in coordinator.drain_retry_waits():
            ctx.count_retry(wait)

    def _export_counters(self) -> None:
        ob = obs.session()
        if ob is None:
            return
        reg = ob.registry
        for name, value in self.stats.as_dict().items():
            if value:
                reg.counter(f"dist.{name}").inc(value)

    def _spawn_local_workers(self, address: Tuple[str, int]) -> None:
        if not self.spawn_workers:
            return
        host, port = address
        env = dict(os.environ)
        src_root = _repro_src_root()
        env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_root)
        for _ in range(self.spawn_workers):
            self._procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.sim.distributed", "worker",
                 "--connect", f"{host}:{port}"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ))

    def _reap_local_workers(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
        self._procs = []


def _repro_src_root() -> str:
    """The sys.path root that makes ``import repro`` work in workers."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sim.distributed worker --connect HOST:PORT``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.sim.distributed",
        description="Distributed sweep protocol endpoints")
    sub = parser.add_subparsers(dest="command", required=True)
    worker = sub.add_parser(
        "worker", help="attach to a coordinator and execute leased cells")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    worker.add_argument("--id", default=None, help="worker identity")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after this many cells (default: run "
                             "until the sweep completes)")
    worker.add_argument("--reconnect-timeout", type=float, default=30.0,
                        help="seconds to keep retrying an unreachable "
                             "coordinator before giving up (default: 30)")
    status = sub.add_parser("status", help="print a coordinator snapshot")
    status.add_argument("--connect", required=True, metavar="HOST:PORT")
    args = parser.parse_args(argv)

    address = _parse_address(args.connect)
    if args.command == "worker":
        stats = SweepWorker(
            address, worker_id=args.id,
            reconnect_timeout_s=args.reconnect_timeout,
        ).run(max_cells=args.max_cells)
        print(f"worker done: {stats.cells} cells "
              f"({stats.failures_reported} failures, "
              f"{stats.results_discarded} discarded duplicates, "
              f"{stats.reconnects} reconnects)")
        return 0
    reply = rpc(address, {"op": "status", "worker": "cli"})
    for key, value in reply.items():
        if key != "op":
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
