"""Span recorder and call-site patching for the traced benchmark run.

The traced run times calls into each layer's public functions from
outside the program: :func:`install` replaces each target callable
with a wrapper *wherever the program looks it up* -- the class
attribute for methods, and for module-level functions every ``repro``
module that bound the function by name at import time (``value_iteration``
is imported by name into ``core/online.py``, ``core/abstraction.py``
and ``fleet/capman.py``; ``send_msg``/``rpc`` into the cache server).

Each wrapped call records one span ``(id, name, start, end, parent,
run_id, self_s)`` in memory.  Self time is the span's duration minus
the time its direct child spans cover, accumulated on a per-thread
stack as spans close.  A span with no parent on its thread opens a new
run ID (``label:thread:n``) that its whole subtree shares.  Spans are written out only when
the run ends (:meth:`Recorder.dump`), so the hot path does no I/O.

Nothing here is imported by the program; the untraced run never loads
this module's patches.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(span name, module, qualified attribute, merge re-entrant calls)``.
#: A merged target records only its outermost call when it re-enters
#: itself (``ScenarioRunner.run_or_resume`` -> ``run``), so its call
#: count means "sweeps", not "entry points crossed".
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("battery.pack_draw", "repro.battery.pack", "BigLittlePack.draw", False),
    ("battery.pack_draw", "repro.battery.pack", "SingleBatteryPack.draw",
     False),
    ("thermal.rc_step", "repro.thermal.rc_network", "ThermalNetwork.step",
     False),
    ("device.phone_step", "repro.device.phone", "Phone.step", False),
    ("sim.discharge", "repro.sim.discharge", "run_discharge_cycle", False),
    ("capman.build_mdp", "repro.capman.profiler",
     "PowerProfiler.build_decision_mdp", False),
    ("core.value_iteration", "repro.core.solver", "value_iteration", False),
    ("core.similarity_solve", "repro.core.similarity",
     "StructuralSimilarity.solve", False),
    ("core.scheduler_decide", "repro.core.online", "OnlineScheduler.decide",
     False),
    ("fleet.build", "repro.fleet.spec", "FleetSpec.build", False),
    ("fleet.run", "repro.fleet.simulator", "FleetSimulator.run", False),
    ("sweep.run", "repro.sim.sweep", "ScenarioRunner.run", True),
    ("sweep.run", "repro.sim.sweep", "ScenarioRunner.resume", True),
    ("sweep.run", "repro.sim.sweep", "ScenarioRunner.run_or_resume", True),
    ("sweep.cache_get", "repro.sim.sweep", "SweepCache.get", False),
    ("sweep.cache_put", "repro.sim.sweep", "SweepCache.put", False),
    ("durability.journal_append", "repro.durability.journal",
     "RunJournal.append", False),
    ("dist.send_msg", "repro.sim.distributed", "send_msg", False),
    ("dist.rpc", "repro.sim.distributed", "rpc", False),
    ("service.result_blobs", "repro.service.jobs", "JobStore.result_blobs",
     False),
)

#: Modules whose policy classes get a ``capman.decide`` span on their
#: own ``decide_battery`` (every policy the workloads can construct).
POLICY_MODULES = ("repro.capman.baselines", "repro.capman.controller",
                  "repro.testing")

#: Span names whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("core.scheduler_decide",)

#: Bytes of the ``CD1`` frame header (magic, length, tag) per message.
_FRAME_HEADER_BYTES = 15


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self, label: str) -> None:
        self.label = label
        #: ``(id, name, start, end, parent_id, run_id, self_s)``.
        self.spans: List[Tuple[int, str, float, float, int, str, float]] = []
        #: Payload bytes per span name (send_msg only).
        self.bytes: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, merge: bool = False) -> Callable:
        """``fn`` wrapped to record one span per call."""
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        runs = self._runs
        stack_of = self._stack
        label = self.label

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack:
                parent = stack[-1]
                if merge and parent[0] == name:
                    return fn(*args, **kwargs)
                parent_id, run_id = parent[1], parent[2]
            else:
                parent_id = 0
                run_id = (f"{label}:{threading.current_thread().name}:"
                          f"{next(runs)}")
            frame = [name, next(ids), run_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][3] += duration
                spans.append((frame[1], name, start, end, parent_id, run_id,
                              duration - frame[3]))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_send(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, plus the frame bytes each message put on
        the wire (counted after the span closes, so the re-pickle that
        sizes the message is not charged to the transport layer)."""
        traced = self.wrap(name, fn)
        sizes = self.bytes

        def send(sock: Any, message: Any, *args: Any, **kwargs: Any) -> Any:
            result = traced(sock, message, *args, **kwargs)
            sizes[name] += (len(pickle.dumps(message, protocol=4))
                            + _FRAME_HEADER_BYTES)
            return result

        send.__wrapped__ = fn  # type: ignore[attr-defined]
        return send

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span (gzip JSON lines; first line: byte totals)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"label": self.label,
                                 "bytes": dict(self.bytes)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> Tuple[List[tuple], Dict[str, int]]:
    """Spans and byte totals written by :meth:`Recorder.dump`."""
    with gzip.open(path, "rt") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return spans, head.get("bytes", {})


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _resolve(module: str, qualname: str) -> Tuple[Any, str, Any]:
    obj = sys.modules[module]
    parts = qualname.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1], getattr(obj, parts[-1])


def _policy_classes() -> Iterable[type]:
    from repro.sim.discharge import SchedulingPolicy

    for module in POLICY_MODULES:
        for value in vars(sys.modules[module]).values():
            if (isinstance(value, type) and issubclass(value, SchedulingPolicy)
                    and "decide_battery" in vars(value)):
                yield value


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target; returns a callable that restores them."""
    import importlib

    for module in set(m for _, m, _, _ in TARGETS) | set(POLICY_MODULES):
        importlib.import_module(module)
    import repro.sim.cache_server  # noqa: F401  (binds send_msg/rpc)
    import repro.fleet.capman  # noqa: F401  (binds value_iteration)
    import repro.core.abstraction  # noqa: F401  (binds value_iteration)

    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapped: Callable) -> None:
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    for name, module, qualname, merge in TARGETS:
        owner, attr, original = _resolve(module, qualname)
        if name == "dist.send_msg":
            wrapped = recorder.wrap_send(name, original)
        else:
            wrapped = recorder.wrap(name, original, merge=merge)
        patch(owner, attr, wrapped)
        if not isinstance(owner, type):
            # A module-level function: rebind it in every module that
            # imported it by name.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("repro") and mod is not owner
                        and getattr(mod, attr, None) is original):
                    patch(mod, attr, wrapped)
    for cls in _policy_classes():
        patch(cls, "decide_battery",
              recorder.wrap("capman.decide", vars(cls)["decide_battery"]))

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


class Ledger:
    """Per-name aggregates over spans from one or more processes."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.bytes: Dict[str, int] = defaultdict(int)
        #: Inclusive ``device.phone_step`` time directly under ``fleet.run``
        #: (the fleet engine's scalar fallback replay).
        self.fallback_s = 0.0
        #: Inclusive time of root spans, per thread name.
        self.root_s: Dict[str, float] = defaultdict(float)

    def add(self, spans: Sequence[tuple], sizes: Dict[str, int],
            window: Optional[Tuple[float, float]] = None) -> None:
        """Fold spans in; ``window`` keeps only spans starting inside it."""
        names = {span[0]: span[1] for span in spans}
        for sid, name, start, end, parent, run_id, self_time in spans:
            if window is not None and not window[0] <= start <= window[1]:
                continue
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += self_time
            if name in KEEP_DURATIONS:
                self.durations[name].append(end - start)
            if name == "device.phone_step" and names.get(parent) == "fleet.run":
                self.fallback_s += end - start
            if not parent:
                self.root_s[run_id.split(":")[-2]] += end - start
        for name, value in sizes.items():
            self.bytes[name] += value

    def unattributed(self, wall_s: float, threads: Sequence[str]) -> float:
        """Share of the named threads' wall time that no layer span
        covers (a root span's time is its subtree's self time)."""
        busy = wall_s * len(threads)
        covered = sum(self.root_s[t] for t in threads)
        return max(0.0, busy - covered) / busy if busy > 0 else 0.0
