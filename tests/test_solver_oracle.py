"""The compiled solvers against the dict-keyed oracle, bit for bit.

``repro.core.solver`` sweeps integer-indexed tables; ``solver_oracle``
sweeps the MDP's own dicts.  Every output must pickle to the same bytes
-- values, Q-values and policy with their dict orders, iteration count
and residual -- because schedulers mutate ``Solution.values`` in place
and checkpoints pickle whole solutions.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_oracle as oracle
from repro.capman.profiler import PowerProfiler
from repro.core.mdp import MDP, random_mdp
from repro.core.solver import policy_evaluation, policy_iteration, value_iteration
from repro.device.phone import Phone
from repro.workload.generators import GeekbenchWorkload, VideoWorkload
from repro.workload.traces import record_trace

rhos = st.floats(0.0, 0.99, exclude_max=True)
tols = st.sampled_from([1e-3, 1e-8, 1e-12])
caps = st.one_of(st.integers(0, 30), st.just(100_000))


@st.composite
def random_mdps(draw):
    n_states = draw(st.integers(1, 8))
    return random_mdp(
        n_states,
        draw(st.integers(1, 4)),
        branching=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 10_000)),
        absorbing=draw(st.integers(0, n_states - 1)),
    )


def _with_twin(base: MDP, first: bool, bump: int) -> MDP:
    """``base`` plus an action ``"twin"`` copying ``a0`` at every live
    state, listed just before ``a0`` when ``first``.  ``bump`` (-1, 0
    or 1) moves the twin's first reward one ulp down or up; 0 leaves an
    exact tie."""
    transitions, rewards = {}, dict(base.rewards)
    for (s, a), dist in base.transitions.items():
        if a == "a0":
            pairs = [((s, "twin"), dict(dist)), ((s, a), dist)]
            transitions.update(pairs if first else pairs[::-1])
            for sp in dist:
                rewards[(s, "twin", sp)] = base.rewards[(s, a, sp)]
        else:
            transitions[(s, a)] = dist
    if bump:
        key = next(k for k in rewards if k[1] == "twin")
        rewards[key] = math.nextafter(rewards[key], 1.0 if bump > 0 else 0.0)
    return MDP(base.states, base.actions + ["twin"], transitions, rewards)


def _assert_same(got, want):
    assert pickle.dumps(got.values) == pickle.dumps(want.values)
    assert pickle.dumps(got.q_values) == pickle.dumps(want.q_values)
    assert pickle.dumps(got.policy) == pickle.dumps(want.policy)
    assert got.iterations == want.iterations
    assert pickle.dumps(got.residual) == pickle.dumps(want.residual)
    assert pickle.dumps(got) == pickle.dumps(want)


class TestValueIteration:
    @settings(max_examples=150, deadline=None)
    @given(mdp=random_mdps(), rho=rhos, tol=tols, max_iter=caps)
    def test_random_mdps(self, mdp, rho, tol, max_iter):
        _assert_same(value_iteration(mdp, rho, tol, max_iter),
                     oracle.value_iteration(mdp, rho, tol, max_iter))

    @pytest.mark.parametrize("max_iter", [0, 1, 7])
    def test_iteration_cap_hit(self, max_iter):
        mdp = random_mdp(6, 3, branching=3, seed=5, absorbing=1)
        got = value_iteration(mdp, 0.95, 1e-12, max_iter)
        assert got.iterations == max_iter and not got.residual < 1e-12
        _assert_same(got, oracle.value_iteration(mdp, 0.95, 1e-12, max_iter))

    @settings(max_examples=60, deadline=None)
    @given(mdp=random_mdps(), first=st.booleans(), rho=rhos)
    def test_exact_ties_take_first_action(self, mdp, first, rho):
        tied = _with_twin(mdp, first, 0)
        got = value_iteration(tied, rho)
        _assert_same(got, oracle.value_iteration(tied, rho))
        for s, a in got.policy.items():
            if a in ("a0", "twin"):
                assert a == ("twin" if first else "a0")

    @settings(max_examples=60, deadline=None)
    @given(mdp=random_mdps(), first=st.booleans(), rho=rhos,
           bump=st.sampled_from([-1, 1]))
    def test_near_ties(self, mdp, first, rho, bump):
        tied = _with_twin(mdp, first, bump)
        _assert_same(value_iteration(tied, rho),
                     oracle.value_iteration(tied, rho))


@pytest.fixture(scope="module")
def decision_mdps():
    """Decision MDPs CAPMAN profilers build while observing traces."""
    mdps = []
    for workload in (VideoWorkload(seed=3), GeekbenchWorkload(seed=3)):
        segs = list(record_trace(workload, 600.0))
        prof, phone = PowerProfiler(), Phone()
        for n, (a, b) in enumerate(zip(segs, segs[1:])):
            prof.record_dwell(a.demand, a.duration_s)
            prof.observe(a, b, measured_power_w=phone.demand_power_w(b.demand))
            if n < 2 or n % 10 == 9:
                mdps.append(prof.build_decision_mdp())
    return mdps


def test_decision_mdps(decision_mdps):
    assert len({mdp.n_states for mdp in decision_mdps}) > 1
    for mdp in decision_mdps:
        _assert_same(value_iteration(mdp, 0.9),
                     oracle.value_iteration(mdp, 0.9))
        _assert_same(policy_iteration(mdp, 0.9),
                     oracle.policy_iteration(mdp, 0.9))


class TestPolicySolvers:
    @settings(max_examples=80, deadline=None)
    @given(mdp=random_mdps(), rho=rhos, tol=tols, max_iter=caps,
           picks=st.lists(st.integers(-1, 4), min_size=8, max_size=8))
    def test_policy_evaluation(self, mdp, rho, tol, max_iter, picks):
        """Any partial policy (pick -1 leaves a state out), Gauss-Seidel
        order included."""
        policy = {}
        for s, pick in zip(mdp.states, picks):
            acts = mdp.available_actions(s)
            if acts and pick >= 0:
                policy[s] = acts[pick % len(acts)]
        got = policy_evaluation(mdp, policy, rho, tol, max_iter)
        want = oracle.policy_evaluation(mdp, policy, rho, tol, max_iter)
        assert pickle.dumps(got) == pickle.dumps(want)

    @settings(max_examples=60, deadline=None)
    @given(mdp=random_mdps(), rho=rhos, tol=tols,
           max_iter=st.integers(0, 6), first=st.booleans())
    def test_policy_iteration(self, mdp, rho, tol, max_iter, first):
        tied = _with_twin(mdp, first, 0)
        _assert_same(policy_iteration(tied, rho, tol, max_iter),
                     oracle.policy_iteration(tied, rho, tol, max_iter))

    def test_unknown_pair_raises_like_oracle(self):
        mdp = random_mdp(4, 2, seed=1, absorbing=1)
        bad = {"s3": "a0"}
        with pytest.raises(KeyError):
            oracle.policy_evaluation(mdp, bad)
        with pytest.raises(KeyError):
            policy_evaluation(mdp, bad)
