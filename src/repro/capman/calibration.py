"""Runtime calibration: picking the discount factor per device.

Paper Figure 16: the decision overhead grows steeply as ``rho``
approaches 1 (about 300 microseconds on the Nexus), at which point
millisecond-scale battery control becomes unstable -- so each device
must be calibrated to the largest ``rho`` it can afford.  This module
holds that overhead model: each decision it times is the runtime
policy lookup preceded by a local Bellman refinement of the decided
state, whose sweep count grows as ``ln(1/precision) / (1 - rho)``
(more discounting horizon, more sweeps for the same precision).  It
measures those latencies across a ``rho`` sweep and recommends a
configuration under a latency budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.mdp import MDP, State
from ..core.online import OnlineScheduler

__all__ = ["CalibrationPoint", "RuntimeCalibrator"]

#: Refinement sweeps per decision never exceed this, however close
#: ``rho`` is to 1.
_MAX_SWEEPS = 5000


def _sweep_count(rho: float, precision: float, compute_speed: float) -> int:
    """Bellman sweeps per decision implied by (rho, precision).

    Value iteration needs about ``ln(1/eps) / (1 - rho)`` sweeps to
    reach precision eps; divided by the device's compute speed.  This
    is the knob behind the Figure 16 overhead curve.
    """
    sweeps = math.log(1.0 / precision) / max(1.0 - rho, 1e-6)
    return min(_MAX_SWEEPS, max(1, int(math.ceil(sweeps / compute_speed))))


def _refinement_sweeps(mdp: MDP, rho: float, values: Dict[State, float],
                       state: State, sweeps: int) -> None:
    """Run one decision's local Bellman refinement on ``values`` in place."""
    acts = mdp.available_actions(state)
    if not acts:
        return
    for _ in range(sweeps):
        best = -math.inf
        for a in acts:
            # Left to right, as in core/solver.py: float sum() became
            # compensated summation in Python 3.12.
            q = 0.0
            for sp, p in mdp.transitions[(state, a)].items():
                q += p * (mdp.reward(state, a, sp) + rho * values.get(sp, 0.0))
            if q > best:
                best = q
        values[state] = best


@dataclass(frozen=True)
class CalibrationPoint:
    """Measured overhead at one discount factor."""

    rho: float
    mean_latency_us: float
    p95_latency_us: float
    sweeps_per_decision: int


class RuntimeCalibrator:
    """Measures decision overhead as a function of ``rho``.

    Parameters
    ----------
    mdp:
        The decision MDP to schedule over.
    compute_speed:
        Relative device speed (1.0 = Nexus); faster devices do the
        same refinement in less time, separating the Figure 16 curves.
    precision:
        Refinement precision target of each decision.
    """

    def __init__(
        self,
        mdp: MDP,
        compute_speed: float = 1.0,
        precision: float = 1e-2,
    ) -> None:
        if compute_speed <= 0:
            raise ValueError("compute_speed must be positive")
        self.mdp = mdp
        self.compute_speed = compute_speed
        self.precision = precision

    def measure(self, rho: float, n_decisions: int = 64, seed: int = 0) -> CalibrationPoint:
        """Time ``n_decisions`` decisions at a given ``rho``.

        Every decision pays its full refinement budget: calibration
        quantifies the *worst-case* (cold) per-decision overhead that
        Figure 16 plots.  The refinements accumulate in a copy of the
        solved values, in decision order.
        """
        scheduler = OnlineScheduler(self.mdp, rho)
        sweeps = _sweep_count(rho, self.precision, self.compute_speed)
        values = dict(scheduler.solution.values)
        rng = np.random.default_rng(seed)
        live_states = [s for s in self.mdp.states if self.mdp.available_actions(s)]
        if not live_states:
            raise ValueError("MDP has no schedulable states")
        latencies = []
        for _ in range(n_decisions):
            state = live_states[int(rng.integers(len(live_states)))]
            started = time.perf_counter()
            _refinement_sweeps(self.mdp, rho, values, state, sweeps)
            scheduler.decide(state)
            latencies.append((time.perf_counter() - started) * 1e6)
        return CalibrationPoint(
            rho=rho,
            mean_latency_us=float(np.mean(latencies)),
            p95_latency_us=float(np.percentile(latencies, 95)),
            sweeps_per_decision=sweeps,
        )

    def sweep(
        self,
        rhos: Sequence[float] = (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99),
        n_decisions: int = 64,
        seed: int = 0,
    ) -> List[CalibrationPoint]:
        """Measure a whole ``rho`` sweep (the Figure 16 x-axis)."""
        return [self.measure(r, n_decisions, seed) for r in rhos]

    def recommend(
        self,
        budget_us: float,
        rhos: Sequence[float] = (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99),
        n_decisions: int = 32,
        seed: int = 0,
    ) -> Optional[CalibrationPoint]:
        """Largest ``rho`` whose mean latency fits the budget.

        Returns None when even the smallest candidate busts the budget.
        """
        best: Optional[CalibrationPoint] = None
        for point in self.sweep(rhos, n_decisions, seed):
            if point.mean_latency_us <= budget_us:
                if best is None or point.rho > best.rho:
                    best = point
        return best
