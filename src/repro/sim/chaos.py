"""Chaos sweeps: cross fault scenarios with the evaluation grids.

The evaluation sweeps answer "which policy lasts longest when nothing
breaks".  A chaos sweep asks the production question: *how gracefully
does each policy degrade when the hardware misbehaves?*  It crosses a
set of named :class:`FaultScenario`\\ s with the usual policy x trace
grid (each policy wrapped in a
:class:`~repro.faults.supervisor.SupervisedPolicy`), runs the product
through the crash-proof :class:`~repro.sim.sweep.ScenarioRunner`, and
reports survival/degradation metrics per cell against the nominal
(fault-free) scenario: time-to-empty delta, thermal-violation seconds,
degraded-mode transitions and the structured fault-event counts.

Determinism: scenarios are seeded fault schedules, so a chaos grid is
exactly reproducible (and cacheable) like any other sweep.

This module also hosts the **backend chaos** harness
(:class:`BackendChaos` / :func:`run_backend_chaos`): where the fault
scenarios above break the *simulated hardware*, backend chaos breaks
the *sweep infrastructure itself* -- SIGKILLing distributed workers
mid-cell, partitioning the networked cache server, duplicate-
delivering leases -- and then audits the run journal to prove the
robustness contract: the final :class:`~repro.sim.sweep.SweepResult`
is byte-identical to a serial run, no cell is lost, and no cell is
committed twice.
"""

from __future__ import annotations

import math
import os
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..device.profiles import NEXUS, PhoneProfile
from ..durability.journal import RunJournal
from ..faults.schedule import FaultSchedule, FaultTrigger, SensorFault, SwitchFault, TecFault
from ..workload.traces import Trace
from .discharge import DischargeResult, SchedulingPolicy
from .sweep import CellFailure, ScenarioRunner, SweepResult, SweepSpec

__all__ = [
    "FaultScenario",
    "NOMINAL_SCENARIO",
    "standard_scenarios",
    "ChaosSpec",
    "ChaosRow",
    "ChaosReport",
    "run_chaos",
    "BackendChaos",
    "BackendChaosReport",
    "run_backend_chaos",
    "journal_commit_counts",
    "journal_lease_grants",
]

#: Separator between policy and scenario in the sweep's policy keys.
_KEY_SEP = "@"


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded fault schedule -- one chaos-grid axis value."""

    name: str
    schedule: FaultSchedule

    def __post_init__(self) -> None:
        if _KEY_SEP in self.name:
            raise ValueError(f"scenario names must not contain {_KEY_SEP!r}")


#: The fault-free reference every chaos grid is scored against.
NOMINAL_SCENARIO = FaultScenario("nominal", FaultSchedule())


def standard_scenarios(start_s: float = 600.0, seed: int = 0) -> List[FaultScenario]:
    """The canonical chaos trio: stuck switch, dead TEC, dropped sensor.

    ``start_s`` delays each fault so the controller first reaches its
    learned steady state, making the degradation visible as a *delta*.
    """
    window = FaultTrigger(start_s=start_s)
    return [
        FaultScenario("switch-stuck", FaultSchedule(
            faults=(SwitchFault(trigger=window, stuck=True),),
            seed=seed, name="switch-stuck")),
        FaultScenario("tec-dead", FaultSchedule(
            faults=(TecFault(trigger=window, stuck_off=True),),
            seed=seed, name="tec-dead")),
        FaultScenario("sensor-dropout", FaultSchedule(
            faults=(
                SensorFault(channel="cpu_temp", trigger=window,
                            dropout_probability=0.7, nan_probability=0.1),
                SensorFault(channel="soc_little", trigger=window,
                            dropout_probability=0.5),
            ),
            seed=seed, name="sensor-dropout")),
    ]


@dataclass
class ChaosSpec:
    """A chaos grid: fault scenarios x policies x traces (x the rest).

    Thin declarative layer over :class:`~repro.sim.sweep.SweepSpec`:
    ``to_sweep`` wraps every policy in a supervised fault harness per
    scenario and mangles the policy axis to ``"<policy>@<scenario>"``.
    The nominal scenario is always included (it is the baseline the
    degradation deltas are computed against).
    """

    policies: Mapping[str, SchedulingPolicy]
    traces: Mapping[str, Trace]
    scenarios: Sequence[FaultScenario] = field(default_factory=standard_scenarios)
    profiles: Mapping[str, PhoneProfile] = field(
        default_factory=lambda: {"Nexus": NEXUS})
    control_dts: Sequence[float] = (2.0,)
    ambients_c: Sequence[float] = (25.0,)
    max_duration_s: float = 3.0 * 3600.0
    record_every: int = 1
    supervise: bool = True

    def all_scenarios(self) -> List[FaultScenario]:
        """The scenario axis with the nominal baseline prepended."""
        scenarios = list(self.scenarios)
        if not any(s.name == NOMINAL_SCENARIO.name for s in scenarios):
            scenarios.insert(0, NOMINAL_SCENARIO)
        return scenarios

    def to_sweep(self) -> SweepSpec:
        """The equivalent plain sweep over supervised policy wrappers."""
        # Imported lazily: supervisor -> sim.discharge -> this package.
        from ..faults.supervisor import SupervisedPolicy

        wrapped: Dict[str, SchedulingPolicy] = {}
        for scenario in self.all_scenarios():
            for key, policy in self.policies.items():
                wrapped[f"{key}{_KEY_SEP}{scenario.name}"] = SupervisedPolicy(
                    inner=policy,
                    schedule=scenario.schedule,
                    supervise=self.supervise,
                    name=f"{policy.name}{_KEY_SEP}{scenario.name}",
                )
        return SweepSpec(
            policies=wrapped,
            traces=dict(self.traces),
            profiles=dict(self.profiles),
            control_dts=tuple(self.control_dts),
            ambients_c=tuple(self.ambients_c),
            kind="discharge",
            max_duration_s=self.max_duration_s,
            record_every=self.record_every,
        )


@dataclass(frozen=True)
class ChaosRow:
    """Survival/degradation metrics for one (policy, trace, scenario)."""

    policy: str
    trace: str
    scenario: str
    #: The cell produced a result (its worker survived and nothing raised).
    survived: bool
    service_time_s: float
    #: Time-to-empty delta vs. the nominal scenario (negative = lost life).
    service_delta_s: float
    time_above_threshold_s: float
    #: Thermal-violation delta vs. nominal (positive = ran hotter).
    thermal_delta_s: float
    switch_count: int
    mode_transitions: int
    fault_event_count: int
    final_mode: str
    #: Failure description for non-survivors ("" otherwise).
    error: str = ""


@dataclass
class ChaosReport:
    """All chaos rows plus the underlying sweep result."""

    rows: List[ChaosRow]
    sweep: SweepResult
    #: Observability blob of the underlying sweep (None unless obs is
    #: enabled); out-of-band of the report, excluded from equality.
    telemetry: Optional[obs.RunTelemetry] = field(
        default=None, repr=False, compare=False)

    def row(self, policy: str, trace: str, scenario: str) -> ChaosRow:
        """The unique row for one grid point."""
        for r in self.rows:
            if (r.policy, r.trace, r.scenario) == (policy, trace, scenario):
                return r
        raise KeyError(f"no chaos row for {(policy, trace, scenario)}")

    def by_scenario(self, scenario: str) -> List[ChaosRow]:
        """All rows of one fault scenario."""
        return [r for r in self.rows if r.scenario == scenario]

    @property
    def survival_rate(self) -> float:
        """Fraction of grid cells that produced a result."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.survived) / len(self.rows)

    def summary(self) -> str:
        """A human-readable table of the grid."""
        header = (f"{'policy':<12} {'trace':<10} {'scenario':<16} "
                  f"{'svc[s]':>8} {'dsvc[s]':>9} {'hot[s]':>7} "
                  f"{'modes':>5} {'events':>6}  mode")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if not r.survived:
                lines.append(
                    f"{r.policy:<12} {r.trace:<10} {r.scenario:<16} "
                    f"{'FAILED':>8}  {r.error}")
                continue
            delta = ("" if math.isnan(r.service_delta_s)
                     else f"{r.service_delta_s:+9.0f}")
            lines.append(
                f"{r.policy:<12} {r.trace:<10} {r.scenario:<16} "
                f"{r.service_time_s:8.0f} {delta:>9} "
                f"{r.time_above_threshold_s:7.1f} "
                f"{r.mode_transitions:5d} {r.fault_event_count:6d}  "
                f"{r.final_mode}")
        return "\n".join(lines)


def run_chaos(spec: ChaosSpec,
              runner: Optional[ScenarioRunner] = None) -> ChaosReport:
    """Execute a chaos grid and score it against the nominal scenario."""
    runner = runner or ScenarioRunner(workers=1)
    sweep = runner.run(spec.to_sweep())

    # First pass: index the nominal baselines.
    nominal: Dict[Tuple[str, str, str, float, float], DischargeResult] = {}
    for cell, outcome in sweep:
        policy, scenario = cell.policy_key.split(_KEY_SEP, 1)
        if scenario == NOMINAL_SCENARIO.name and not isinstance(outcome, CellFailure):
            nominal[(policy, cell.trace_key, cell.profile_key,
                     cell.control_dt, cell.ambient_c)] = outcome

    rows: List[ChaosRow] = []
    for cell, outcome in sweep:
        policy, scenario = cell.policy_key.split(_KEY_SEP, 1)
        base = nominal.get((policy, cell.trace_key, cell.profile_key,
                            cell.control_dt, cell.ambient_c))
        if isinstance(outcome, CellFailure):
            rows.append(ChaosRow(
                policy=policy, trace=cell.trace_key, scenario=scenario,
                survived=False, service_time_s=float("nan"),
                service_delta_s=float("nan"),
                time_above_threshold_s=float("nan"),
                thermal_delta_s=float("nan"), switch_count=0,
                mode_transitions=0, fault_event_count=0,
                final_mode="unknown", error=str(outcome)))
            continue
        result: DischargeResult = outcome
        delta = (result.service_time_s - base.service_time_s
                 if base is not None else float("nan"))
        thermal_delta = (result.time_above_threshold_s
                         - base.time_above_threshold_s
                         if base is not None else float("nan"))
        rows.append(ChaosRow(
            policy=policy, trace=cell.trace_key, scenario=scenario,
            survived=True,
            service_time_s=result.service_time_s,
            service_delta_s=delta,
            time_above_threshold_s=result.time_above_threshold_s,
            thermal_delta_s=thermal_delta,
            switch_count=result.switch_count,
            mode_transitions=result.mode_transitions,
            fault_event_count=len(result.fault_events),
            final_mode=result.final_mode,
        ))
    return ChaosReport(rows=rows, sweep=sweep, telemetry=sweep.telemetry)


# ----------------------------------------------------------------------
# Backend chaos: break the infrastructure, audit the contract
# ----------------------------------------------------------------------
@dataclass
class BackendChaos:
    """Fault plan for one distributed sweep's *infrastructure*.

    All timings are relative to the start of the chaotic run.  The
    harness injects exactly this plan -- nothing is randomised -- so a
    chaos run is as reproducible as any other test.
    """

    #: SIGKILL this many of the executor's spawned workers (oldest
    #: first), ``kill_interval_s`` apart starting at ``kill_after_s``.
    kill_workers: int = 0
    kill_after_s: float = 0.3
    kill_interval_s: float = 0.3
    #: Partition the cache server this long in (None = never).
    partition_cache_after_s: Optional[float] = None
    #: Heal it this long in (None = stays partitioned to the end).
    heal_cache_after_s: Optional[float] = None
    #: Duplicate-deliver this many leases (idempotent-commit check).
    duplicate_leases: int = 0


@dataclass
class BackendChaosReport:
    """What the chaotic run produced, plus the audited invariants."""

    result: SweepResult
    #: Worker PIDs the harness actually SIGKILLed.
    killed_pids: List[int] = field(default_factory=list)
    #: Whether the cache server was partitioned (and healed) on plan.
    cache_partitioned: bool = False
    cache_healed: bool = False
    #: Lease duplications injected into the coordinator.
    duplicated_leases: int = 0
    #: Result slots holding a CellFailure -- for a grid whose cells all
    #: succeed deterministically, any entry here is a cell the
    #: infrastructure lost.
    lost_cells: int = 0
    #: Journal indices with more than one cell_commit record (must be
    #: zero: the coordinator's first-commit-wins dedupe guarantees it).
    double_commits: int = 0
    #: Coordinator counters (lease expiries, steals, retries, ...).
    dist_stats: Dict[str, float] = field(default_factory=dict)


def journal_commit_counts(path: Union[str, Path]) -> Dict[int, int]:
    """``cell_commit`` records per cell index in a run journal.

    The durability contract says every value is exactly 1 for a
    completed sweep -- chaos (duplicate leases, stolen work, worker
    loss) must never produce a second commit for the same cell.
    """
    counts: Dict[int, int] = {}
    for record in RunJournal.replay(path, recover=False):
        if record["type"] != "cell_commit":
            continue
        index = int(record["data"]["index"])
        counts[index] = counts.get(index, 0) + 1
    return counts


def journal_lease_grants(path: Union[str, Path],
                         include_duplicates: bool = False) -> Dict[int, int]:
    """``lease_grant`` records per cell index in a run journal.

    The distributed coordinator journals every grant before the lease
    leaves the process, so a grant count exceeding the commit count
    for an index is exactly the dispatch state a restarted coordinator
    must reclaim.  Steal/duplicate grants are flagged in the record
    and excluded by default -- they do not charge the cell's failure
    budget on recovery.
    """
    counts: Dict[int, int] = {}
    for record in RunJournal.replay(path, recover=False):
        if record["type"] != "lease_grant":
            continue
        data = record["data"]
        if data.get("duplicate", False) and not include_duplicates:
            continue
        index = int(data["index"])
        counts[index] = counts.get(index, 0) + 1
    return counts


class _BackendChaosMonkey(threading.Thread):
    """Executes a :class:`BackendChaos` plan against a live sweep."""

    def __init__(self, chaos: BackendChaos, executor: Any,
                 cache_server: Any = None) -> None:
        super().__init__(name="backend-chaos", daemon=True)
        self.chaos = chaos
        self.executor = executor
        self.cache_server = cache_server
        self.killed_pids: List[int] = []
        self.cache_partitioned = False
        self.cache_healed = False
        # Named _halt: threading.Thread owns a private _stop() method.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)

    def run(self) -> None:
        chaos = self.chaos
        started = time.monotonic()
        kills_left = chaos.kill_workers
        next_kill = started + chaos.kill_after_s
        partition_at = (started + chaos.partition_cache_after_s
                        if chaos.partition_cache_after_s is not None
                        else None)
        heal_at = (started + chaos.heal_cache_after_s
                   if chaos.heal_cache_after_s is not None else None)
        while not self._halt.wait(0.02):
            now = time.monotonic()
            if kills_left > 0 and now >= next_kill:
                if self._kill_one_worker():
                    kills_left -= 1
                    next_kill = now + chaos.kill_interval_s
                # No live worker yet: retry on the next tick.
            if (partition_at is not None and now >= partition_at
                    and not self.cache_partitioned
                    and self.cache_server is not None):
                self.cache_server.partition()
                self.cache_partitioned = True
            if (heal_at is not None and now >= heal_at
                    and self.cache_partitioned and not self.cache_healed):
                self.cache_server.heal()
                self.cache_healed = True
            if (kills_left == 0 and (partition_at is None
                                     or self.cache_partitioned)
                    and (heal_at is None or self.cache_healed)):
                return  # plan fully delivered

    def _kill_one_worker(self) -> bool:
        pids = self.executor.worker_pids()
        coordinator = self.executor.coordinator
        if not pids or coordinator is None:
            return False
        snap = coordinator.snapshot()
        if snap["workers"] == 0 or snap["leases"] == 0:
            # Nobody has attached / nothing is leased yet: killing now
            # would miss the interesting window.  Wait for work to be
            # genuinely in flight so the SIGKILL lands mid-cell.
            return False
        pid = pids[0]
        try:
            os.kill(pid, signal_module.SIGKILL)
        except OSError:
            return False
        self.killed_pids.append(pid)
        return True


def run_backend_chaos(spec: SweepSpec, runner: ScenarioRunner,
                      chaos: BackendChaos,
                      cache_server: Any = None) -> BackendChaosReport:
    """Run one sweep while sabotaging its infrastructure on plan.

    ``runner`` must use a
    :class:`~repro.sim.distributed.DistributedExecutor` (worker kills
    and lease duplication act on it); ``cache_server`` is only needed
    when the plan partitions the cache.  Returns the sweep result plus
    the audited invariants -- callers assert ``lost_cells == 0``,
    ``double_commits == 0`` and byte-equality against a serial run.
    """
    executor = runner.executor
    if executor is None or not hasattr(executor, "worker_pids"):
        raise ValueError(
            "run_backend_chaos needs a runner with a DistributedExecutor")
    if chaos.duplicate_leases:
        executor.inject_duplicate_leases(chaos.duplicate_leases)
    monkey = _BackendChaosMonkey(chaos, executor, cache_server)
    monkey.start()
    try:
        result = runner.run_or_resume(spec)
    finally:
        monkey.stop()

    report = BackendChaosReport(
        result=result,
        killed_pids=list(monkey.killed_pids),
        cache_partitioned=monkey.cache_partitioned,
        cache_healed=monkey.cache_healed,
        duplicated_leases=chaos.duplicate_leases,
        lost_cells=sum(1 for r in result.results
                       if isinstance(r, CellFailure)),
        dist_stats=dict(executor.stats.as_dict()),
    )
    if runner.journal is not None and runner.journal.exists():
        counts = journal_commit_counts(runner.journal)
        report.double_commits = sum(1 for c in counts.values() if c > 1)
    return report
