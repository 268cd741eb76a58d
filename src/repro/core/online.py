"""The online approximation scheduler (paper Sections III-C/III-D).

Solving the full MDP graph per decision is too slow for circuit-level
battery switching (micro/millisecond granularity).  CAPMAN instead:

1. solves the MDP and the structural-similarity recursion *offline /
   in the background* (when the device is idle), producing a similarity
   index over known states;
2. answers online decisions by table lookup for known states, or by
   reusing the decision of the *most similar* known state for novel or
   stale states -- with Eq. (10) bounding the value loss by
   ``delta_S/(1-rho)``, i.e. ``O(1/(1-rho))`` competitiveness;
3. spends a per-decision refinement budget that grows with ``rho``
   (more discounting horizon means more Bellman sweeps for the same
   precision), which is exactly the overhead curve of paper Figure 16.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..durability.state import pack_state, unpack_state
from .graph import MDPGraph
from .mdp import MDP, Action, State
from .similarity import SimilarityResult, StructuralSimilarity
from .solver import Solution, value_iteration

__all__ = ["DecisionRecord", "OnlineScheduler", "SchedulerStats",
           "compile_decision_table"]


def compile_decision_table(
    policy_map: Mapping[State, Action],
    state_code: Callable[[State], int],
    n_states: int,
    action_code: Mapping[Action, int],
    default: int = -1,
) -> np.ndarray:
    """Flatten a solved policy into a dense ``(n_states,)`` int8 table.

    ``state_code`` maps each MDP state to its integer slot and
    ``action_code`` each action to its entry value.  Slots whose state
    is absent from ``policy_map`` -- and states whose action has no
    code -- keep ``default``, which plays the role of "the policy has
    no opinion" (callers route such lookups to their fallback rule,
    exactly as :meth:`OnlineScheduler.decide` callers treat a state
    missing from ``solution.policy``).  After compilation a decision
    is one fancy-indexing gather, which is what lets the fleet engine
    answer a whole batch of scheduler lookups per step.
    """
    table = np.full(n_states, default, dtype=np.int8)
    for state, action in policy_map.items():
        code = action_code.get(action)
        if code is not None:
            table[state_code(state)] = code
    return table


@dataclass
class SchedulerStats:
    """Hit/miss counters and per-phase timing of the online path."""

    #: Decisions answered from the O(1) decision cache.
    cache_hits: int = 0
    #: Decisions that ran the full lookup/similarity/fallback path.
    cache_misses: int = 0
    #: Seconds spent in per-decision Bellman refinement sweeps.
    refine_s: float = 0.0
    #: Seconds spent resolving decisions (lookup, similarity, fallback).
    lookup_s: float = 0.0
    #: Seconds spent in background work (similarity index, re-solves).
    background_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of decisions served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class DecisionRecord:
    """One online decision with provenance and measured latency."""

    state: State
    action: Optional[Action]
    #: "exact" (known state), "similar" (borrowed), "fallback".
    source: str
    #: The state whose decision was borrowed, when source == "similar".
    surrogate: Optional[State]
    #: Structural distance to the surrogate (0 for exact decisions).
    delta_s: float
    #: Wall-clock decision latency in microseconds.
    latency_us: float


class OnlineScheduler:
    """Similarity-indexed online decision engine.

    Parameters
    ----------
    mdp:
        The (profiled) decision MDP.
    rho:
        Discount factor; also instantiates the similarity discounts as
        the bound requires (``C_S = 1``, ``C_A = rho``).
    precision:
        Target precision of the per-decision refinement; the sweep
        count scales as ``ln(1/precision) / (1 - rho)``.
    compute_speed:
        Relative device speed (divides the refinement budget's work,
        modelling the Nexus/Honor/Lenovo differences of Figure 16).
    decision_cache:
        Memoise resolved decisions so repeated states answer in O(1)
        without re-running the refinement budget (default on).  The
        cache is invalidated by :meth:`mark_stale`, :meth:`recompute`
        and :meth:`build_similarity_index`.  Disable it to measure the
        raw per-decision overhead (the Figure 16 calibration does).
    """

    def __init__(
        self,
        mdp: MDP,
        rho: float = 0.9,
        precision: float = 1e-2,
        compute_speed: float = 1.0,
        similarity_tol: float = 1e-3,
        similarity_max_iter: int = 25,
        decision_cache: bool = True,
    ) -> None:
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if compute_speed <= 0:
            raise ValueError("compute_speed must be positive")
        self.mdp = mdp
        self.rho = rho
        self.precision = precision
        self.compute_speed = compute_speed
        self.graph = MDPGraph(mdp)
        self.solution: Solution = value_iteration(mdp, rho)
        self.similarity: Optional[SimilarityResult] = None
        self._similarity_tol = similarity_tol
        self._similarity_max_iter = similarity_max_iter
        self._stale: set = set()
        self.decisions: List[DecisionRecord] = []
        self.stats = SchedulerStats()
        self._cache_enabled = decision_cache
        #: state -> (action, source, surrogate, delta_s) of a resolved decision.
        self._decision_cache: Dict[State, Tuple[Optional[Action], str, Optional[State], float]] = {}

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------
    def build_similarity_index(self) -> SimilarityResult:
        """Run Algorithm 1 in the background (bound instantiation)."""
        ob = obs.session()
        span = (ob.tracer.start("scheduler.build_similarity_index")
                if ob is not None else None)
        started = time.perf_counter()
        solver = StructuralSimilarity(
            self.graph,
            c_s=1.0,
            c_a=max(self.rho, 1e-6),
            tol=self._similarity_tol,
            max_iter=self._similarity_max_iter,
        )
        self.similarity = solver.solve()
        self._decision_cache.clear()
        elapsed = time.perf_counter() - started
        self.stats.background_s += elapsed
        if span is not None:
            span.finish()
            ob.registry.counter("scheduler.background_s").inc(elapsed)
        return self.similarity

    def mark_stale(self, state: State) -> None:
        """Flag a state whose statistics changed since the last solve."""
        self._stale.add(state)
        # Conservative: surrogate decisions may reference the stale
        # state, so the whole memo goes, not just this entry.
        self._decision_cache.clear()

    def recompute(self) -> None:
        """Full background refresh: re-solve values, clear staleness."""
        ob = obs.session()
        span = (ob.tracer.start("scheduler.recompute")
                if ob is not None else None)
        started = time.perf_counter()
        self.solution = value_iteration(self.mdp, self.rho)
        self._stale.clear()
        self._decision_cache.clear()
        elapsed = time.perf_counter() - started
        self.stats.background_s += elapsed
        if span is not None:
            span.finish()
            ob.registry.counter("scheduler.background_s").inc(elapsed)

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def decide(self, state: State) -> DecisionRecord:
        """Return the scheduled action for ``state``, measured.

        Known fresh states answer from the solved policy; stale or
        unknown states borrow from the most similar known state when a
        similarity index exists, falling back to a one-step greedy
        choice otherwise.  With the decision cache on, a state seen
        before answers in O(1) from the memo.
        """
        ob = obs.session()
        started = time.perf_counter()

        if self._cache_enabled:
            cached = self._decision_cache.get(state)
            if cached is not None:
                action, source, surrogate, delta = cached
                self.stats.cache_hits += 1
                latency_us = (time.perf_counter() - started) * 1e6
                if ob is not None:
                    reg = ob.registry
                    reg.counter("scheduler.cache_hits").inc()
                    reg.histogram("scheduler.decide_s").observe(latency_us * 1e-6)
                record = DecisionRecord(state, action, source, surrogate, delta, latency_us)
                self.decisions.append(record)
                return record
        self.stats.cache_misses += 1

        self._refinement_sweeps(state)
        refined = time.perf_counter()
        self.stats.refine_s += refined - started

        source = "exact"
        surrogate: Optional[State] = None
        delta = 0.0
        action: Optional[Action]

        known = state in self.solution.policy
        fresh = state not in self._stale
        if known and fresh:
            action = self.solution.policy[state]
        elif self.similarity is not None and state in self.similarity.graph._state_index:
            surrogate, sim = self.similarity.most_similar_state(state)
            delta = 1.0 - sim
            action = self.solution.policy.get(surrogate)
            if action is not None and action not in self.mdp.available_actions(state):
                action = self._greedy(state)
                source = "fallback"
            else:
                source = "similar"
        else:
            action = self._greedy(state)
            source = "fallback"

        if self._cache_enabled:
            self._decision_cache[state] = (action, source, surrogate, delta)

        now = time.perf_counter()
        self.stats.lookup_s += now - refined
        latency_us = (now - started) * 1e6
        if ob is not None:
            reg = ob.registry
            reg.counter("scheduler.cache_misses").inc()
            reg.counter("scheduler.refine_s").inc(refined - started)
            reg.counter("scheduler.lookup_s").inc(now - refined)
            reg.histogram("scheduler.decide_s").observe(latency_us * 1e-6)
        record = DecisionRecord(state, action, source, surrogate, delta, latency_us)
        self.decisions.append(record)
        return record

    def mean_latency_us(self) -> float:
        """Average measured decision latency (Figure 16's y-axis)."""
        if not self.decisions:
            return 0.0
        return sum(d.latency_us for d in self.decisions) / len(self.decisions)

    def refinement_sweep_count(self) -> int:
        """Bellman sweeps per decision implied by (rho, precision).

        Value iteration needs about ``ln(1/eps) / (1 - rho)`` sweeps to
        reach precision eps; divided by the device's compute speed.
        This is the knob behind the Figure 16 overhead curve.
        """
        sweeps = math.log(1.0 / self.precision) / max(1.0 - self.rho, 1e-6)
        return max(1, int(math.ceil(sweeps / self.compute_speed)))

    def compile_action_table(
        self,
        state_code: Callable[[State], int],
        n_states: int,
        action_code: Mapping[Action, int],
        default: int = -1,
    ) -> np.ndarray:
        """Export the solved policy as a dense action table.

        Equivalent to answering :meth:`decide` for every known fresh
        state up front: known states always resolve to
        ``solution.policy[state]`` (refinement sweeps touch values,
        never the solved policy), so the table reproduces the online
        path's action for every state it covers and leaves ``default``
        where ``decide`` would take the similarity/greedy fallback.
        """
        return compile_decision_table(self.solution.policy, state_code,
                                      n_states, action_code, default)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """All mutable solver state, isolated from later mutation.

        The solution values (mutated by refinement sweeps), the
        similarity index, staleness set, decision log/stats and the
        decision memo are deep-copied via pickle so the checkpoint is a
        true snapshot, not a live alias.  Static configuration (mdp,
        rho, precision, ...) is identity, not state.
        """
        blob = pickle.dumps({
            "solution": self.solution,
            "similarity": self.similarity,
            "stale": self._stale,
            "decisions": self.decisions,
            "stats": self.stats,
            "decision_cache": self._decision_cache,
        }, protocol=4)
        return pack_state(self, self._STATE_VERSION, {"pickle": blob})

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        data = pickle.loads(payload["pickle"])
        self.solution = data["solution"]
        self.similarity = data["similarity"]
        self._stale = data["stale"]
        self.decisions = data["decisions"]
        self.stats = data["stats"]
        self._decision_cache = data["decision_cache"]

    # ------------------------------------------------------------------
    def _greedy(self, state: State) -> Optional[Action]:
        acts = self.mdp.available_actions(state)
        if not acts:
            return None
        return max(acts, key=lambda a: self.mdp.expected_reward(state, a))

    def _refinement_sweeps(self, state: State) -> None:
        """Run the per-decision local Bellman refinement budget."""
        sweeps = self.refinement_sweep_count()
        sweeps = min(sweeps, 5000)
        values = self.solution.values
        acts = self.mdp.available_actions(state)
        if not acts:
            return
        for _ in range(sweeps):
            best = -math.inf
            for a in acts:
                # Left to right, as in core/solver.py: float sum() became
                # compensated summation in Python 3.12.
                q = 0.0
                for sp, p in self.mdp.transitions[(state, a)].items():
                    q += p * (self.mdp.reward(state, a, sp)
                              + self.rho * values.get(sp, 0.0))
                if q > best:
                    best = q
            values[state] = best
