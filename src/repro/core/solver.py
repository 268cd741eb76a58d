"""Exact MDP solvers: value iteration, policy iteration, evaluation.

These implement the Bellman machinery of paper Eqs. (6)-(9): state
values ``V``, action values ``Q`` (the paper's ``P_a``), the optimal
policy, and policy evaluation for the competitiveness experiments.

Every solve first compiles its ``mdp`` into integer-indexed tables
(:func:`_compile`) and runs its sweeps over those, so no state label is
hashed inside a Bellman backup.  The tables are rebuilt per call, never
cached on the mutable :class:`~repro.core.mdp.MDP`.  Each backup
accumulates ``q += p * (r + rho * v[j])`` left to right from ``0.0``
(an explicit loop, not ``sum()``, whose float algorithm changed in
Python 3.12), and every argmax keeps the first maximum in
``mdp.transitions`` order.  ``tests/solver_oracle.py`` holds the
dict-keyed reference these must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .mdp import MDP, Action, State

__all__ = ["Solution", "value_iteration", "policy_evaluation", "policy_iteration"]

#: One (s, a) pair's successor row: ``(p, r, j)`` per successor, in the
#: successor dict's order; ``j`` indexes ``mdp.states``.
Row = Tuple[Tuple[float, float, int], ...]


@dataclass(frozen=True)
class Solution:
    """An MDP solution: optimal values, action values and policy."""

    values: Dict[State, float]
    q_values: Dict[Tuple[State, Action], float]
    policy: Dict[State, Action]
    iterations: int
    residual: float

    def value(self, state: State) -> float:
        """V*(s); absorbing states have value 0."""
        return self.values.get(state, 0.0)

    def action(self, state: State) -> Optional[Action]:
        """The optimal action, or None for absorbing states."""
        return self.policy.get(state)


class _Tables(NamedTuple):
    """An MDP compiled to integer-indexed tables."""

    #: ``mdp.states``; list positions are the state indices.
    states: List[State]
    #: The ``(s, a)`` keys of ``mdp.transitions``, in insertion order.
    pairs: List[Tuple[State, Action]]
    #: ``rows[k]`` is the successor row of ``pairs[k]``.
    rows: List[Row]
    #: Per live state in ``states`` order: its index and the indices
    #: into ``pairs`` of its actions, in ``mdp.transitions`` order.
    live: List[Tuple[int, List[int]]]


def _compile(mdp: MDP) -> _Tables:
    index = {s: i for i, s in enumerate(mdp.states)}
    rewards = mdp.rewards
    pairs: List[Tuple[State, Action]] = []
    rows: List[Row] = []
    by_state: List[List[int]] = [[] for _ in index]
    for k, (pair, dist) in enumerate(mdp.transitions.items()):
        s, a = pair
        pairs.append(pair)
        rows.append(tuple(
            (p, rewards.get((s, a, sp), 0.0), index[sp])
            for sp, p in dist.items()
        ))
        by_state[index[s]].append(k)
    live = [(i, ks) for i, ks in enumerate(by_state) if ks]
    return _Tables(mdp.states, pairs, rows, live)


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")


def _q_list(tables: _Tables, v: Sequence[float], rho: float) -> List[float]:
    """Q(s, a) for every pair, in ``tables.pairs`` order."""
    q: List[float] = []
    for row in tables.rows:
        acc = 0.0
        for p, r, j in row:
            acc += p * (r + rho * v[j])
        q.append(acc)
    return q


def _argmax(ks: List[int], q: Sequence[float]) -> int:
    """The first ``k`` in ``ks`` with the largest ``q[k]``."""
    best = ks[0]
    for k in ks:
        if q[k] > q[best]:
            best = k
    return best


def _solution(tables: _Tables, v: List[float], q: List[float],
              choice: Mapping[int, int], iterations: int,
              residual: float) -> Solution:
    states, pairs = tables.states, tables.pairs
    return Solution(
        dict(zip(states, v)),
        dict(zip(pairs, q)),
        {states[i]: pairs[choice[i]][1] for i, _ in tables.live},
        iterations,
        residual,
    )


def _evaluate(plan: List[Tuple[int, Row]], n: int, rho: float, tol: float,
              max_iter: int) -> List[float]:
    """Gauss-Seidel evaluation: each row's value is written in place,
    in ``plan`` order, and read by the rows after it."""
    v = [0.0] * n
    for _ in range(max_iter):
        residual = 0.0
        for i, row in plan:
            acc = 0.0
            for p, r, j in row:
                acc += p * (r + rho * v[j])
            d = abs(acc - v[i])
            if d > residual:
                residual = d
            v[i] = acc
        if residual < tol:
            break
    return v


def value_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Solution:
    """Solve the Bellman optimality equations by fixed-point iteration.

    ``rho`` is the discount factor of Eq. (6); convergence is geometric
    at rate ``rho`` (the contraction the paper's bound leans on).
    """
    _check_rho(rho)
    tables = _compile(mdp)
    plan = [(i, [tables.rows[k] for k in ks]) for i, ks in tables.live]
    v = [0.0] * len(tables.states)
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        residual = 0.0
        new = v[:]
        for i, rows in plan:
            best = -math.inf
            for row in rows:
                q = 0.0
                for p, r, j in row:
                    q += p * (r + rho * v[j])
                if q > best:
                    best = q
            new[i] = best
            d = abs(best - v[i])
            if d > residual:
                residual = d
        v = new
        if residual < tol:
            break
    q_all = _q_list(tables, v, rho)
    choice = {i: _argmax(ks, q_all) for i, ks in tables.live}
    return _solution(tables, v, q_all, choice, it, residual)


def policy_evaluation(
    mdp: MDP,
    policy: Mapping[State, Action],
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Dict[State, float]:
    """Value of a fixed policy (Eq. 6 under pi instead of pi*)."""
    _check_rho(rho)
    tables = _compile(mdp)
    pair_index = {pair: k for k, pair in enumerate(tables.pairs)}
    plan: List[Tuple[int, Row]] = []
    for i, s in enumerate(tables.states):
        a = policy.get(s)
        if a is not None:
            plan.append((i, tables.rows[pair_index[(s, a)]]))
    v = _evaluate(plan, len(tables.states), rho, tol, max_iter)
    return dict(zip(tables.states, v))


def policy_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 1_000,
) -> Solution:
    """Howard policy iteration; converges in few sweeps on our MDPs."""
    _check_rho(rho)
    tables = _compile(mdp)
    n = len(tables.states)
    choice = {i: ks[0] for i, ks in tables.live}
    v = [0.0] * n
    it = 0
    for it in range(1, max_iter + 1):
        plan = [(i, tables.rows[choice[i]]) for i, _ in tables.live]
        v = _evaluate(plan, n, rho, tol, 100_000)
        q = _q_list(tables, v, rho)
        stable = True
        for i, ks in tables.live:
            best = _argmax(ks, q)
            if q[best] > q[choice[i]] + tol:
                choice[i] = best
                stable = False
        if stable:
            break
    return _solution(tables, v, _q_list(tables, v, rho), choice, it, 0.0)
