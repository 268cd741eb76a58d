"""Per-layer benchmark: the value-iteration solve of an MDP rebuild.

Times the compiled solver (``repro.core.solver``) against the dict-keyed
oracle (``tests/solver_oracle.py``) on two inputs:

* the decision MDPs a CAPMAN profiler builds while observing recorded
  traces -- the 6-state class the fleet re-solves at every replan;
* ``random_mdp(34, 2, 3)``, the largest graph of the solver-scaling
  benchmark.

Prints the table, asserts byte-identical solutions on every input, and
asserts the acceptance bar: at decision size the compiled solver is at
least 3x faster.
"""

import pickle
import sys
import time
from pathlib import Path

_TESTS = Path(__file__).resolve().parents[1] / "tests"
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

import solver_oracle  # noqa: E402  (from tests/)

from repro.analysis.reporting import format_table  # noqa: E402
from repro.capman.profiler import PowerProfiler  # noqa: E402
from repro.core.mdp import random_mdp  # noqa: E402
from repro.core.solver import value_iteration  # noqa: E402
from repro.device.phone import Phone  # noqa: E402
from repro.workload.generators import PCMarkWorkload, VideoWorkload  # noqa: E402
from repro.workload.traces import record_trace  # noqa: E402

RHO = 0.9
#: Timing rounds per solver; the fastest round is reported.
ROUNDS = 5
#: Build a decision MDP after every this many observations.
BUILD_EVERY = 8


def _decision_mdps():
    mdps = []
    for workload in (VideoWorkload(seed=1), PCMarkWorkload(seed=1)):
        segs = list(record_trace(workload, 1800.0))
        prof, phone = PowerProfiler(), Phone()
        for n, (a, b) in enumerate(zip(segs, segs[1:]), start=1):
            prof.record_dwell(a.demand, a.duration_s)
            prof.observe(a, b, measured_power_w=phone.demand_power_w(b.demand))
            if n % BUILD_EVERY == 0:
                mdp = prof.build_decision_mdp()
                if mdp.n_states == 6:
                    mdps.append(mdp)
    return mdps


def _timed(mdps):
    """Fastest of ``ROUNDS`` rounds per solver, the rounds interleaved
    so a drifting CPU clock hits both solvers alike."""
    solvers = {"oracle": solver_oracle.value_iteration,
               "compiled": value_iteration}
    best = dict.fromkeys(solvers, float("inf"))
    solutions = {}
    for _ in range(ROUNDS):
        for name, solve in solvers.items():
            started = time.perf_counter()
            solutions[name] = [solve(mdp, RHO) for mdp in mdps]
            best[name] = min(best[name], time.perf_counter() - started)
    return solutions, best


def _rows():
    rows = []
    for name, mdps in (
        ("decision (6 states)", _decision_mdps()),
        ("random_mdp(34, 2, 3)", [random_mdp(34, 2, 3)]),
    ):
        solutions, best = _timed(mdps)
        got, want = solutions["compiled"], solutions["oracle"]
        rows.append({
            "name": name,
            "mdps": len(mdps),
            "sweeps": sum(sol.iterations for sol in got) / len(got),
            "oracle_s": best["oracle"],
            "compiled_s": best["compiled"],
            "speedup": best["oracle"] / best["compiled"],
            "identical": all(pickle.dumps(g) == pickle.dumps(w)
                             for g, w in zip(got, want)),
        })
    return rows


def test_mdp_solve(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["input", "MDPs", "mean sweeps", "oracle (s)", "compiled (s)",
             "speedup", "identical"],
            [[r["name"], r["mdps"], r["sweeps"], r["oracle_s"],
              r["compiled_s"], r["speedup"], r["identical"]] for r in rows],
            title="Value iteration -- dict oracle vs compiled tables",
        )
    )

    for r in rows:
        assert r["identical"], r
    decision = rows[0]
    assert decision["mdps"] >= 20, decision
    assert decision["speedup"] >= 3.0, decision
