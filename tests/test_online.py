"""Tests for the online scheduler (a solved-policy lookup)."""

import pytest

from repro.core.mdp import random_mdp
from repro.core.online import OnlineScheduler
from repro.core.solver import value_iteration


@pytest.fixture
def mdp():
    return random_mdp(8, 3, branching=2, seed=21, absorbing=1)


class TestDecisions:
    def test_known_state_gets_optimal_action(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        optimal = value_iteration(mdp, rho=0.8).policy
        for s in mdp.states:
            if mdp.available_actions(s):
                assert sched.decide(s) == optimal[s]

    def test_absorbing_state_gets_none(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        absorbing = [s for s in mdp.states if mdp.is_absorbing(s)][0]
        assert sched.decide(absorbing) is None

    def test_state_outside_the_mdp_gets_none(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        assert sched.decide(("never", "seen")) is None
