"""Tests for value iteration / policy iteration / policy evaluation."""

import pytest

from repro.core.mdp import MDP, random_mdp
from repro.core.solver import policy_evaluation, policy_iteration, value_iteration


def _chain_mdp():
    """s0 -a-> s1 -a-> s2 (absorbing), reward 1 on the last hop."""
    return MDP(
        states=["s0", "s1", "s2"],
        actions=["a"],
        transitions={("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s2": 1.0}},
        rewards={("s1", "a", "s2"): 1.0},
    )


def _choice_mdp():
    """One state, two self-loop actions with rewards 0.2 / 0.9."""
    return MDP(
        states=["s"],
        actions=["lo", "hi"],
        transitions={("s", "lo"): {"s": 1.0}, ("s", "hi"): {"s": 1.0}},
        rewards={("s", "lo", "s"): 0.2, ("s", "hi", "s"): 0.9},
    )


class TestValueIteration:
    def test_chain_values(self):
        sol = value_iteration(_chain_mdp(), rho=0.5, tol=1e-10)
        assert sol.value("s2") == 0.0
        assert sol.value("s1") == pytest.approx(1.0)
        assert sol.value("s0") == pytest.approx(0.5)

    def test_picks_better_action(self):
        sol = value_iteration(_choice_mdp(), rho=0.9)
        assert sol.policy["s"] == "hi"
        assert sol.value("s") == pytest.approx(0.9 / (1 - 0.9), rel=1e-4)

    def test_value_bounded_by_geometric_series(self):
        mdp = random_mdp(10, 3, seed=2)
        rho = 0.8
        sol = value_iteration(mdp, rho=rho)
        vmax = 1.0 / (1.0 - rho)
        assert all(0.0 <= v <= vmax + 1e-6 for v in sol.values.values())

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            value_iteration(_chain_mdp(), rho=1.0)

    def test_residual_below_tolerance(self):
        sol = value_iteration(random_mdp(8, 2, seed=1), rho=0.9, tol=1e-9)
        assert sol.residual < 1e-9

    def test_absorbing_states_have_no_policy_entry(self):
        sol = value_iteration(_chain_mdp(), rho=0.9)
        assert sol.action("s2") is None

    def test_q_consistent_with_v(self):
        mdp = random_mdp(8, 3, seed=4)
        sol = value_iteration(mdp, rho=0.85, tol=1e-10)
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if acts:
                assert sol.value(s) == pytest.approx(
                    max(sol.q_values[(s, a)] for a in acts), abs=1e-6
                )


class TestPolicyEvaluation:
    def test_matches_optimal_for_optimal_policy(self):
        mdp = random_mdp(8, 3, seed=7)
        sol = value_iteration(mdp, rho=0.9, tol=1e-10)
        values = policy_evaluation(mdp, sol.policy, rho=0.9, tol=1e-10)
        for s in mdp.states:
            assert values[s] == pytest.approx(sol.value(s), abs=1e-6)

    def test_suboptimal_policy_valued_lower(self):
        mdp = _choice_mdp()
        bad = {"s": "lo"}
        values = policy_evaluation(mdp, bad, rho=0.9, tol=1e-10)
        sol = value_iteration(mdp, rho=0.9, tol=1e-10)
        assert values["s"] < sol.value("s")


class TestPolicyIteration:
    def test_agrees_with_value_iteration(self):
        mdp = random_mdp(10, 3, seed=11)
        vi = value_iteration(mdp, rho=0.9, tol=1e-10)
        pi = policy_iteration(mdp, rho=0.9, tol=1e-10)
        for s in mdp.states:
            assert pi.value(s) == pytest.approx(vi.value(s), abs=1e-5)

    def test_policies_equally_good(self):
        mdp = random_mdp(9, 2, seed=13)
        vi = value_iteration(mdp, rho=0.85, tol=1e-10)
        pi = policy_iteration(mdp, rho=0.85, tol=1e-10)
        # The argmax may tie; compare achieved values instead.
        v_pi = policy_evaluation(mdp, pi.policy, rho=0.85, tol=1e-10)
        for s in mdp.states:
            assert v_pi[s] == pytest.approx(vi.value(s), abs=1e-5)

    def test_converges_in_few_iterations(self):
        pi = policy_iteration(random_mdp(8, 2, seed=17), rho=0.9)
        assert pi.iterations < 20


class TestPythonVersionParity:
    """Pinned bits: every Python version must produce these exact floats.

    Each backup accumulates left to right in an explicit loop, so the
    result does not depend on ``sum()``, whose float algorithm became
    compensated summation in Python 3.12.  On this MDP a compensated
    sum would change every value and Q-value below.
    """

    STATES = ["s0", "s1", "s2"]
    PROBS = {
        ("s0", "x"): (0.7, 0.2, 0.1), ("s0", "y"): (0.7, 0.1, 0.2),
        ("s1", "x"): (0.4, 0.2, 0.4), ("s1", "y"): (0.2, 0.1, 0.7),
        ("s2", "x"): (0.3, 0.2, 0.5), ("s2", "y"): (0.6, 0.2, 0.2),
    }
    REWARDS = {
        ("s0", "x"): (0.05, 0.33, 0.65), ("s0", "y"): (1.0, 0.38, 0.61),
        ("s1", "x"): (0.64, 0.17, 0.36), ("s1", "y"): (0.79, 0.32, 0.68),
        ("s2", "x"): (0.12, 0.93, 0.09), ("s2", "y"): (0.71, 0.12, 0.45),
    }

    def test_value_iteration_bits(self):
        mdp = MDP(
            self.STATES,
            ["x", "y"],
            {k: dict(zip(self.STATES, ps)) for k, ps in self.PROBS.items()},
            {(s, a, sp): r for (s, a), rs in self.REWARDS.items()
             for sp, r in zip(self.STATES, rs)},
        )
        sol = value_iteration(mdp, rho=0.9, tol=1e-10)
        assert [v.hex() for v in sol.values.values()] == [
            "0x1.e997d7591160cp+2", "0x1.d30c4d46a885ep+2",
            "0x1.d31585cd2bc7ep+2",
        ]
        assert [v.hex() for v in sol.q_values.values()] == [
            "0x1.bd2c83ecccf77p+2", "0x1.e997d75929acfp+2",
            "0x1.c83f99f08020ap+2", "0x1.d30c4d46c0d22p+2",
            "0x1.bb88dd5a2e892p+2", "0x1.d31585cd44143p+2",
        ]
        assert sol.policy == {"s0": "y", "s1": "y", "s2": "y"}
        assert sol.iterations == 217
        assert sol.residual.hex() == "0x1.aff6000000000p-34"
