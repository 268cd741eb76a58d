#!/usr/bin/env python3
"""The MDP machinery end to end: profile, solve, approximate, bound.

1. Profiles a mixed workload into the paper-style syscall MDP.
2. Solves it exactly (value iteration) and runs the Algorithm 1
   structural-similarity recursion.
3. Verifies the Eq. (10) competitiveness bound
   ``|V*_u - V*_v| <= delta_S*(u, v) / (1 - rho)`` on every state pair.
4. Measures the modelled per-decision overhead across a rho sweep
   (the Figure 16 trade-off).

Run:  python examples/mdp_playground.py
"""

from repro.analysis.reporting import format_series, format_table
from repro.capman import PowerProfiler, RuntimeCalibrator
from repro.core import (
    MDPGraph,
    StructuralSimilarity,
    value_iteration,
    verify_value_bound,
)
from repro.device.phone import Phone
from repro.workload import EtaStaticWorkload, record_trace

RHO = 0.9


def main() -> None:
    # 1. Profile.
    trace = record_trace(EtaStaticWorkload(0.5, seed=7), duration_s=1200.0)
    profiler = PowerProfiler()
    phone = Phone()
    segments = list(trace)
    for prev, nxt in zip(segments, segments[1:]):
        profiler.observe(prev, nxt,
                         measured_power_w=phone.demand_power_w(nxt.demand))
    mdp = profiler.build_syscall_mdp()
    print(f"Profiled MDP: {mdp.n_states} states, {mdp.n_actions} actions, "
          f"{len(mdp.transitions)} transitions")

    # 2. Solve exactly and run Algorithm 1.
    solution = value_iteration(mdp, rho=RHO)
    graph = MDPGraph(mdp)
    similarity = StructuralSimilarity(
        graph, c_s=1.0, c_a=RHO, tol=1e-4, max_iter=50).solve()
    print(f"Algorithm 1 converged in {similarity.iterations} iterations "
          f"(residual {similarity.residual:.2e}, "
          f"{similarity.elapsed_s * 1000:.0f} ms)")

    # Show the most similar pair of distinct states.
    best = None
    for i, u in enumerate(graph.state_nodes):
        v, sim = similarity.most_similar_state(u)
        if best is None or sim > best[2]:
            best = (u, v, sim)
    u, v, sim = best
    print(f"Most similar states: {u} ~ {v}  (sigma_S = {sim:.3f}); "
          f"value gap {abs(solution.value(u) - solution.value(v)):.4f} "
          f"<= bound {(1 - sim) / (1 - RHO):.4f}")

    # 3. Verify the Eq. (10) bound everywhere.
    check = verify_value_bound(mdp, solution, similarity, RHO, tolerance=1e-3)
    print(f"Eq. (10) bound check: {check.pairs_checked} pairs, "
          f"{check.violations} violations, worst slack {-check.worst_gap:.4f}")
    assert check.holds

    # 4. Overhead sweep (Figure 16).
    calibrator = RuntimeCalibrator(profiler.build_decision_mdp())
    points = calibrator.sweep((0.05, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99),
                              n_decisions=48)
    print()
    print(format_series("decision overhead (rho, us)",
                        [(p.rho, p.mean_latency_us) for p in points]))
    budget_us = 200.0
    rec = calibrator.recommend(budget_us)
    print(format_table(
        ["latency budget (us)", "recommended rho", "mean latency (us)"],
        [[budget_us, rec.rho if rec else "none",
          rec.mean_latency_us if rec else "-"]],
    ))


if __name__ == "__main__":
    main()
