"""Tests for the online approximation scheduler."""

import pytest

from repro.core.mdp import MDP, random_mdp
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
                rec = sched.decide(s)
                assert rec.source == "exact"
                # The refinement sweeps may flip exact ties; verify the
                # chosen action's Q is optimal.
                q = sched.solution.q_values
                best = max(q[(s, a)] for a in mdp.available_actions(s))
                assert q[(s, rec.action)] == pytest.approx(best, abs=1e-6)

    def test_absorbing_state_gets_none(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        absorbing = [s for s in mdp.states if mdp.is_absorbing(s)][0]
        assert sched.decide(absorbing).action is None

    def test_latency_measured(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        rec = sched.decide(mdp.states[0])
        assert rec.latency_us > 0.0
        assert sched.mean_latency_us() > 0.0

    def test_stale_state_borrows_from_similar(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        sched.build_similarity_index()
        live = [s for s in mdp.states if mdp.available_actions(s)]
        sched.mark_stale(live[0])
        rec = sched.decide(live[0])
        assert rec.source in ("similar", "fallback")
        if rec.source == "similar":
            assert rec.surrogate is not None
            assert 0.0 <= rec.delta_s <= 1.0

    def test_recompute_clears_staleness(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        live = [s for s in mdp.states if mdp.available_actions(s)]
        sched.mark_stale(live[0])
        sched.recompute()
        assert sched.decide(live[0]).source == "exact"

    def test_fallback_without_similarity_index(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        live = [s for s in mdp.states if mdp.available_actions(s)]
        sched.mark_stale(live[0])
        rec = sched.decide(live[0])
        assert rec.source == "fallback"
        assert rec.action in mdp.available_actions(live[0])


class TestOverheadModel:
    def test_sweeps_grow_with_rho(self, mdp):
        low = OnlineScheduler(mdp, rho=0.1).refinement_sweep_count()
        high = OnlineScheduler(mdp, rho=0.99).refinement_sweep_count()
        assert high > low * 10

    def test_faster_device_does_fewer_sweeps(self, mdp):
        slow = OnlineScheduler(mdp, rho=0.9, compute_speed=1.0)
        fast = OnlineScheduler(mdp, rho=0.9, compute_speed=2.0)
        assert fast.refinement_sweep_count() < slow.refinement_sweep_count()

    def test_latency_grows_with_rho(self, mdp):
        """The Figure 16 effect, measured in real microseconds."""
        def mean_latency(rho):
            sched = OnlineScheduler(mdp, rho=rho)
            for s in mdp.states[:5]:
                for _ in range(10):
                    sched.decide(s)
            return sched.mean_latency_us()

        assert mean_latency(0.99) > mean_latency(0.2)

    def test_invalid_params(self, mdp):
        with pytest.raises(ValueError):
            OnlineScheduler(mdp, rho=1.0)
        with pytest.raises(ValueError):
            OnlineScheduler(mdp, rho=0.5, compute_speed=0.0)


class TestDecisionCache:
    def test_repeat_decisions_hit_cache(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        state = mdp.states[0]
        first = sched.decide(state)
        second = sched.decide(state)
        assert sched.stats.cache_misses == 1
        assert sched.stats.cache_hits == 1
        assert sched.stats.hit_rate == pytest.approx(0.5)
        assert second.action == first.action
        assert second.source == first.source

    def test_cached_decision_skips_refinement_time(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.99)
        state = mdp.states[0]
        sched.decide(state)
        refine_after_miss = sched.stats.refine_s
        for _ in range(5):
            sched.decide(state)
        assert sched.stats.refine_s == refine_after_miss

    def test_cache_matches_uncached_actions(self, mdp):
        cached = OnlineScheduler(mdp, rho=0.8)
        cold = OnlineScheduler(mdp, rho=0.8, decision_cache=False)
        for s in mdp.states:
            for _ in range(3):
                assert cached.decide(s).action == cold.decide(s).action
        assert cached.stats.cache_hits > 0
        assert cold.stats.cache_hits == 0

    def test_mark_stale_invalidates(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        sched.build_similarity_index()
        live = [s for s in mdp.states if mdp.available_actions(s)]
        sched.decide(live[0])
        sched.mark_stale(live[0])
        rec = sched.decide(live[0])
        # Stale state re-resolves (borrowing, not the cached "exact").
        assert rec.source in ("similar", "fallback")
        assert sched.stats.cache_misses == 2

    def test_recompute_invalidates(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        state = mdp.states[0]
        sched.decide(state)
        sched.recompute()
        sched.decide(state)
        assert sched.stats.cache_misses == 2
        assert sched.stats.background_s > 0.0

    def test_build_similarity_index_invalidates(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        state = mdp.states[0]
        sched.decide(state)
        sched.build_similarity_index()
        sched.decide(state)
        assert sched.stats.cache_misses == 2

    def test_cache_can_be_disabled(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8, decision_cache=False)
        state = mdp.states[0]
        sched.decide(state)
        sched.decide(state)
        assert sched.stats.cache_hits == 0
        assert sched.stats.cache_misses == 2

    def test_phase_timing_accumulates(self, mdp):
        sched = OnlineScheduler(mdp, rho=0.8)
        for s in mdp.states:
            sched.decide(s)
        assert sched.stats.refine_s >= 0.0
        assert sched.stats.lookup_s > 0.0


class TestPythonVersionParity:
    """Pinned bits: the refinement sweeps must give these exact floats
    on every Python version.

    Each backup accumulates left to right in an explicit loop; a
    ``sum()`` would switch to compensated summation on Python 3.12,
    which changes the refined value of ``s0`` on this MDP in its last
    bit.
    """

    STATES = ["s0", "s1", "s2"]
    PROBS = {
        ("s0", "x"): (0.3, 0.5, 0.2), ("s0", "y"): (0.2, 0.3, 0.5),
        ("s1", "x"): (0.2, 0.4, 0.4), ("s1", "y"): (0.8, 0.1, 0.1),
        ("s2", "x"): (0.7, 0.1, 0.2), ("s2", "y"): (0.2, 0.4, 0.4),
    }
    REWARDS = {
        ("s0", "x"): (0.03, 0.84, 0.43), ("s0", "y"): (0.76, 0.0, 0.45),
        ("s1", "x"): (0.72, 0.23, 0.95), ("s1", "y"): (0.9, 0.03, 0.03),
        ("s2", "x"): (0.54, 0.94, 0.38), ("s2", "y"): (0.22, 0.42, 0.03),
    }

    def test_refined_values_bits(self):
        mdp = MDP(
            self.STATES,
            ["x", "y"],
            {k: dict(zip(self.STATES, ps)) for k, ps in self.PROBS.items()},
            {(s, a, sp): r for (s, a), rs in self.REWARDS.items()
             for sp, r in zip(self.STATES, rs)},
        )
        sched = OnlineScheduler(mdp, rho=0.9)
        assert sched.refinement_sweep_count() == 47
        sched.decide("s0")
        assert [v.hex() for v in sched.solution.values.values()] == [
            "0x1.74081831185c4p+2", "0x1.7e0f6808cb0b4p+2",
            "0x1.728888b12012dp+2",
        ]
