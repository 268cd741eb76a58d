"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of the ``--seed`` argument: traces,
the fleet row mix and the service job list.  Trace content comes from
the repo's workload generators, whose own seeds are drawn from
``range(VARIANTS)`` by a ``random.Random`` keyed on the run seed, so
the set of distinct cells any seed can produce is finite and every one
of them has a committed result digest (``digests.json``).

Each cell carries a readable *key* (``workload/policy/trace#variant/
profile``) that names it in the digest file, independent of the
program's own cache keys (which change with every code edit).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Generator seeds available to each trace type.
VARIANTS = 8

#: Control step of every workload (s).
CONTROL_DT = 2.0

# -- paper_grid ---------------------------------------------------------
#: Per-cell capacity: small enough that every cell discharges to empty.
PAPER_CELL_MAH = 200.0
PAPER_TRACE_S = 1800.0
PAPER_WINDOW_S = 4.0 * 3600.0
PAPER_POLICIES = ("Practice", "Dual", "Heuristic", "CAPMAN", "Oracle")
PAPER_TRACES = ("Geekbench", "PCMark", "Video", "eta-50%")

# -- fleet_mixed --------------------------------------------------------
FLEET_ROWS = 1024
FLEET_TRACE_S = 600.0
FLEET_WINDOW_S = 1800.0
FLEET_RECORD_EVERY = 50
FLEET_POLICIES = ("CAPMAN", "Dual")
FLEET_TRACES = ("Geekbench", "PCMark", "Video", "eta-20%", "eta-50%",
                "eta-80%")
#: The depleting class: these rows empty mid-window and leave the
#: regular vectorised regime (partial serves, failovers).
FLEET_SMALL_MAH = 150.0
FLEET_SMALL_ROWS = 128
FLEET_LARGE_MAH = (600.0, 1200.0)

# -- service_mixed ------------------------------------------------------
SERVICE_JOBS = 400
SERVICE_TRACE_S = 300.0
SERVICE_WINDOW_S = 1800.0
#: Sorted, so a policy subset has one spelling as a tuple.
SERVICE_POLICIES = ("capman", "dual", "heuristic", "practice")
SERVICE_WORKLOADS = ("geekbench", "pcmark", "video", "eta_static")
SERVICE_MAH = (60.0, 80.0, 100.0)
#: Per block of ten jobs: fresh grids, grids sharing cells with an
#: earlier job, and exact resubmissions of an earlier job.
SERVICE_BLOCK = ("fresh",) * 5 + ("overlap",) * 3 + ("resubmit",) * 2

# -- dist_grid ----------------------------------------------------------
DIST_TRACE_S = 300.0
DIST_WINDOW_S = 900.0
DIST_POLICIES = ("Practice", "Dual", "Heuristic")
DIST_MAH = (40.0, 60.0, 80.0, 100.0)
DIST_TRACES = ("Video", "eta-50%")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _workload_gen(trace: str, variant: int):
    from repro.workload.generators import (EtaStaticWorkload,
                                           GeekbenchWorkload, PCMarkWorkload,
                                           VideoWorkload)

    if trace.startswith("eta-"):
        return EtaStaticWorkload(int(trace[4:-1]) / 100.0, seed=variant)
    return {"Geekbench": GeekbenchWorkload, "PCMark": PCMarkWorkload,
            "Video": VideoWorkload}[trace](seed=variant)


def record(trace: str, variant: int, duration_s: float):
    """One trace of the named type and generator seed."""
    from repro.workload.traces import Trace, record_trace

    recorded = record_trace(_workload_gen(trace, variant), duration_s)
    return Trace(recorded.segments, name=f"{trace}#{variant}")


def make_policy(kind: str, mah: float):
    """A fresh policy; Practice's single battery holds both cells."""
    from repro.capman.baselines import (DualPolicy, HeuristicPolicy,
                                        OraclePolicy, PracticePolicy)
    from repro.capman.controller import CapmanPolicy

    if kind == "Practice":
        return PracticePolicy(capacity_mah=2 * mah)
    return {"Dual": DualPolicy, "Heuristic": HeuristicPolicy,
            "CAPMAN": CapmanPolicy, "Oracle": OraclePolicy}[kind](
                capacity_mah=mah)


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
def paper_variants(seed: int) -> Dict[str, int]:
    rng = _rng("paper_grid", seed)
    return {trace: rng.randrange(VARIANTS) for trace in PAPER_TRACES}


def paper_spec(variants: Dict[str, int]):
    """The Fig. 12/15 grid: 5 policies x 4 traces x 3 phones."""
    from repro.device.profiles import PHONES
    from repro.sim.sweep import SweepSpec

    return SweepSpec(
        policies={p: make_policy(p, PAPER_CELL_MAH) for p in PAPER_POLICIES},
        traces={t: record(t, v, PAPER_TRACE_S) for t, v in variants.items()},
        profiles=dict(PHONES),
        control_dts=(CONTROL_DT,),
        max_duration_s=PAPER_WINDOW_S,
    )


def sweep_cell_key(workload: str, cell) -> str:
    return f"{workload}/{cell.policy_key}/{cell.trace.name}/{cell.profile_key}"


# ----------------------------------------------------------------------
# fleet_mixed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetRow:
    policy: str
    mah: float
    trace: str
    variant: int
    profile: str

    @property
    def key(self) -> str:
        return (f"fleet_mixed/{self.policy}{self.mah:g}/{self.trace}"
                f"#{self.variant}/{self.profile}")


def fleet_rows(seed: int) -> List[FleetRow]:
    """1024 rows: CAPMAN/Dual x 6 traces x 3 phones, cycled, with a
    fixed minority in the depleting capacity class; the seed picks the
    trace variants and shuffles the row order."""
    rng = _rng("fleet_mixed", seed)
    variants = {trace: rng.randrange(VARIANTS) for trace in FLEET_TRACES}
    combos = list(itertools.product(FLEET_POLICIES, FLEET_TRACES,
                                    ("Nexus", "Honor", "Lenovo")))
    rows = []
    for i in range(FLEET_ROWS):
        policy, trace, profile = combos[i % len(combos)]
        mah = (FLEET_SMALL_MAH if i < FLEET_SMALL_ROWS
               else FLEET_LARGE_MAH[i // len(combos) % len(FLEET_LARGE_MAH)])
        rows.append(FleetRow(policy, mah, trace, variants[trace], profile))
    rng.shuffle(rows)
    return rows


def fleet_devices(rows: List[FleetRow]):
    """``DeviceSpec`` per row; rows sharing a trace share its object."""
    from repro.device.profiles import PHONES
    from repro.fleet import DeviceSpec

    traces = {}
    for row in rows:
        if (row.trace, row.variant) not in traces:
            traces[row.trace, row.variant] = record(row.trace, row.variant,
                                                    FLEET_TRACE_S)
    return [DeviceSpec(policy=make_policy(row.policy, row.mah),
                       trace=traces[row.trace, row.variant],
                       profile=PHONES[row.profile], control_dt=CONTROL_DT,
                       max_duration_s=FLEET_WINDOW_S,
                       record_every=FLEET_RECORD_EVERY)
            for row in rows]


def fleet_scalar(row: FleetRow):
    """The scalar oracle run of one fleet row's configuration."""
    from repro.device.profiles import PHONES
    from repro.sim.discharge import run_discharge_cycle

    return run_discharge_cycle(
        make_policy(row.policy, row.mah),
        record(row.trace, row.variant, FLEET_TRACE_S),
        profile=PHONES[row.profile], control_dt=CONTROL_DT,
        max_duration_s=FLEET_WINDOW_S, record_every=FLEET_RECORD_EVERY)


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
@dataclass
class ServiceJob:
    kind: str  # "fresh" | "overlap" | "resubmit"
    shape: Tuple[str, int, str, float]  # workload, variant, profile, mAh
    policies: Tuple[str, ...]
    body: Dict[str, Any] = field(repr=False, default_factory=dict)

    @property
    def cell_keys(self) -> List[str]:
        workload, variant, profile, mah = self.shape
        return [f"service_mixed/{p}{mah:g}/{workload}#{variant}/{profile}"
                for p in self.policies]


def service_body(shape: Tuple[str, int, str, float],
                 policies: Tuple[str, ...]) -> Dict[str, Any]:
    """The JSON grid a client POSTs: 2-4 policies on one trace/phone."""
    workload, variant, profile, mah = shape
    trace: Dict[str, Any] = {"workload": workload, "seed": variant,
                             "duration_s": SERVICE_TRACE_S}
    if workload == "eta_static":
        trace["eta"] = 0.5
    return {
        "policies": {
            f"{p}{mah:g}": {"type": p, "capacity_mah":
                            2 * mah if p == "practice" else mah}
            for p in policies},
        "traces": {f"{workload}#{variant}": trace},
        "profiles": [profile],
        "max_duration_s": SERVICE_WINDOW_S,
    }


def service_jobs(seed: int) -> List[ServiceJob]:
    """The replayed job list, in blocks of ten with a fixed mix.

    Fresh grids cycle through workloads, phones, capacities and policy
    subsets, and an overlapping grid adds exactly one new policy to an
    earlier trace/phone, so every prefix of the list has the same
    composition; the seed picks the trace variants, which earlier jobs
    are revisited and the order inside each block.
    """
    rng = _rng("service_mixed", seed)
    fresh = _fresh_grids(rng)
    used: Dict[Tuple, set] = {}
    jobs: List[ServiceJob] = []
    while len(jobs) < SERVICE_JOBS:
        block = list(SERVICE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            grown = _grow(rng, jobs, used) if kind == "overlap" else None
            if kind == "resubmit" and jobs:
                earlier = rng.choice(jobs)
                shape, policies = earlier.shape, earlier.policies
            elif grown is not None:
                shape, policies = grown
            else:
                kind = "fresh"
                shape, policies = next(fresh)
            used.setdefault(shape, set()).update(policies)
            jobs.append(ServiceJob(kind, shape, policies,
                                   service_body(shape, policies)))
    return jobs[:SERVICE_JOBS]


def _fresh_grids(rng: random.Random):
    """Endless distinct ``(shape, policies)`` grids in a balanced cycle."""
    variants = {}
    for workload in SERVICE_WORKLOADS:
        order = list(range(VARIANTS))
        rng.shuffle(order)
        variants[workload] = itertools.cycle(order)
    subsets = {}
    for size in (2, 3, 4):
        combos = list(itertools.combinations(SERVICE_POLICIES, size))
        rng.shuffle(combos)
        subsets[size] = itertools.cycle(combos)
    profiles = ("Nexus", "Honor", "Lenovo")
    for i in itertools.count():
        workload = SERVICE_WORKLOADS[i % len(SERVICE_WORKLOADS)]
        turn = i // len(SERVICE_WORKLOADS)
        shape = (workload, next(variants[workload]), profiles[turn % 3],
                 SERVICE_MAH[turn // 3 % len(SERVICE_MAH)])
        yield shape, next(subsets[(2, 3, 4)[i % 3]])


def _grow(rng: random.Random, jobs: List[ServiceJob],
          used: Dict[Tuple, set]):
    """An earlier trace/phone's policies plus one new policy: every
    cell but one was submitted before (cache hits once computed)."""
    shapes = sorted({job.shape for job in jobs
                     if len(used[job.shape]) < len(SERVICE_POLICIES)})
    if not shapes:
        return None
    shape = rng.choice(shapes)
    extra = rng.choice(sorted(set(SERVICE_POLICIES) - used[shape]))
    return shape, tuple(sorted(used[shape] | {extra}))


# ----------------------------------------------------------------------
# dist_grid
# ----------------------------------------------------------------------
def dist_variants(seed: int) -> Dict[str, int]:
    rng = _rng("dist_grid", seed)
    return {trace: rng.randrange(VARIANTS) for trace in DIST_TRACES}


def dist_spec(variants: Dict[str, int]):
    """Many short cells: 3 baselines x 4 capacities x 2 traces x 3 phones."""
    from repro.device.profiles import PHONES
    from repro.sim.sweep import SweepSpec

    return SweepSpec(
        policies={f"{p}{mah:g}": make_policy(p, mah)
                  for p in DIST_POLICIES for mah in DIST_MAH},
        traces={t: record(t, v, DIST_TRACE_S) for t, v in variants.items()},
        profiles=dict(PHONES),
        control_dts=(CONTROL_DT,),
        max_duration_s=DIST_WINDOW_S,
    )
