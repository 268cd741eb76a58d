"""Dict-keyed reference MDP solvers: the test oracle for core/solver.py.

These are the straightforward Bellman loops over the ``MDP``'s own
dictionaries -- every backup looks successors and rewards up by state
label.  ``repro.core.solver`` compiles the MDP to integer-indexed
tables instead and must reproduce these results bit for bit, including
dict orders (see tests/test_solver_oracle.py).

Every accumulation is an explicit left-to-right loop from ``0.0``.
From Python 3.12 ``sum()`` of floats uses compensated summation, so a
``sum()``-based oracle would drift by ulps between Python versions.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.core.mdp import MDP, Action, State
from repro.core.solver import Solution


def _backup(mdp: MDP, s: State, a: Action, values: Mapping[State, float],
            rho: float) -> float:
    q = 0.0
    for sp, p in mdp.transitions[(s, a)].items():
        q += p * (mdp.reward(s, a, sp) + rho * values[sp])
    return q


def q_from_values(
    mdp: MDP, values: Mapping[State, float], rho: float
) -> Dict[Tuple[State, Action], float]:
    q: Dict[Tuple[State, Action], float] = {}
    for (s, a) in mdp.transitions:
        q[(s, a)] = _backup(mdp, s, a, values, rho)
    return q


def value_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Solution:
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        residual = 0.0
        new_values = dict(values)
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if not acts:
                continue
            best = -math.inf
            for a in acts:
                q = _backup(mdp, s, a, values, rho)
                if q > best:
                    best = q
            new_values[s] = best
            residual = max(residual, abs(best - values[s]))
        values = new_values
        if residual < tol:
            break
    q = q_from_values(mdp, values, rho)
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = max(acts, key=lambda a: q[(s, a)])
    return Solution(values, q, policy, it, residual)


def policy_evaluation(
    mdp: MDP,
    policy: Mapping[State, Action],
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Dict[State, float]:
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    for _ in range(max_iter):
        residual = 0.0
        for s in mdp.states:
            a = policy.get(s)
            if a is None:
                continue
            v = _backup(mdp, s, a, values, rho)
            residual = max(residual, abs(v - values[s]))
            values[s] = v
        if residual < tol:
            break
    return values


def policy_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 1_000,
) -> Solution:
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = acts[0]
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    it = 0
    for it in range(1, max_iter + 1):
        values = policy_evaluation(mdp, policy, rho, tol)
        q = q_from_values(mdp, values, rho)
        stable = True
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if not acts:
                continue
            best = max(acts, key=lambda a: q[(s, a)])
            if q[(s, best)] > q[(s, policy[s])] + tol:
                policy[s] = best
                stable = False
        if stable:
            break
    q = q_from_values(mdp, values, rho)
    return Solution(values, q, dict(policy), it, 0.0)
