"""The online scheduler (paper Sections III-C/III-D): a solved policy.

Solving the MDP per decision is too slow for circuit-level battery
switching, so CAPMAN solves the decision MDP at each replan (in the
background, between decisions) and answers every control step by
looking the current state up in the solved policy.  A state the
policy does not cover yields ``None``; callers route it to their own
fallback rule.

Algorithm 1 (:mod:`repro.core.similarity`) and the Eq. (10) bound
(:mod:`repro.core.bounds`) are analysis modules: no runtime decision
borrows through them, because the states the learned policy lacks are
not states of its MDP either, so a similarity index over MDP states
has no surrogate for them.  The per-decision refinement overhead that
paper Figure 16 plots is modelled by
:mod:`repro.capman.calibration`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from .mdp import MDP, Action, State
from .solver import Solution, value_iteration

__all__ = ["OnlineScheduler", "compile_decision_table"]


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
    exactly as they treat a ``None`` from
    :meth:`OnlineScheduler.decide`).  After compilation a decision is
    one fancy-indexing gather, which is what lets the fleet engine
    answer a whole batch of scheduler lookups per step.
    """
    table = np.full(n_states, default, dtype=np.int8)
    for state, action in policy_map.items():
        code = action_code.get(action)
        if code is not None:
            table[state_code(state)] = code
    return table


class OnlineScheduler:
    """A decision MDP, solved once, answering decisions by lookup.

    ``rho`` is the discount factor of the solve; it must lie in
    ``[0, 1)``.  Nothing mutates the scheduler after construction, so
    a pickled instance is its own checkpoint.
    """

    def __init__(self, mdp: MDP, rho: float = 0.9) -> None:
        self.solution: Solution = value_iteration(mdp, rho)

    def decide(self, state: State) -> Optional[Action]:
        """The solved policy's action for ``state``, or None if it has none."""
        return self.solution.policy.get(state)
