"""Simulated statistics of one ``paper_grid`` pass beside the paper.

UNVALIDATED: these are simulator outputs at benchmark scale (100 mAh
cells, reduced so every cell empties in about an hour), compared with
figures the paper measured on hardware at 2500 mAh.  They carry no
error figure and say nothing about the hardware; they show that the
benchmark runs the same experiment the paper reports, and they move
if a change alters the simulated outcome.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Paper gains of CAPMAN per trace (EXPERIMENTS.md, Fig. 12), as
#: printed there; None where the paper gives no figure.
PAPER_GAIN: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    # trace: (vs Practice, vs Dual)
    "Geekbench": ("+50%", "~0% (similar to Dual)"),
    "PCMark": (None, "+21.3%"),
    "Video": ("+67%", "+55%"),
    "eta-50%": ("+76-114% (eta mixes)", None),
}

#: Fig. 16: decision overhead on the Nexus at the default rho.
PAPER_DECIDE_US = 300.0


def _trace_type(name: str) -> str:
    return name.split("#", 1)[0]


def paper_report(cells: List[Tuple[object, object]]) -> List[str]:
    """Lines: mean service time per policy, CAPMAN gains per trace."""
    by_policy: Dict[str, List[float]] = defaultdict(list)
    by_cell: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for cell, result in cells:
        service = result.service_time_s
        by_policy[cell.policy_key].append(service)
        by_cell[cell.policy_key, _trace_type(cell.trace.name)].append(service)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    lines = ["paper_grid simulated statistics (UNVALIDATED against hardware "
             "at benchmark scale; no error figure)",
             "  mean service time per policy (s): " + ", ".join(
                 f"{p} {mean(v):.0f}" for p, v in by_policy.items())]
    lines.append(f"  {'trace':<10} {'CAPMAN vs Practice':>19} {'paper':>22}"
                 f" {'CAPMAN vs Dual':>15} {'paper':>22}")
    for trace, (paper_practice, paper_dual) in PAPER_GAIN.items():
        capman = mean(by_cell["CAPMAN", trace])
        vs_practice = capman / mean(by_cell["Practice", trace]) - 1.0
        vs_dual = capman / mean(by_cell["Dual", trace]) - 1.0
        lines.append(f"  {trace:<10} {vs_practice:>+18.1%} "
                     f"{paper_practice or '-':>22} {vs_dual:>+15.1%} "
                     f"{paper_dual or '-':>22}")
    return lines


def decide_report(p50_us: float) -> str:
    return (f"core.scheduler_decide.p50_us = {p50_us:.1f} us (host time, "
            f"traced) beside the paper's ~{PAPER_DECIDE_US:.0f} us on the "
            f"Nexus (Fig. 16); UNVALIDATED, different hardware")
