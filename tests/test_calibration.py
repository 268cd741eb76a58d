"""Tests for the runtime calibration (rho sweep of Figure 16)."""

import pytest

from repro.capman.calibration import (
    RuntimeCalibrator,
    _refinement_sweeps,
    _sweep_count,
)
from repro.core.mdp import MDP, random_mdp
from repro.core.solver import value_iteration


@pytest.fixture(scope="module")
def mdp():
    return random_mdp(10, 3, branching=2, seed=51)


@pytest.fixture(scope="module")
def small_mdp():
    return random_mdp(8, 3, branching=2, seed=21, absorbing=1)


class TestMeasurement:
    def test_point_fields(self, mdp):
        point = RuntimeCalibrator(mdp).measure(0.5, n_decisions=16)
        assert point.rho == 0.5
        assert point.mean_latency_us > 0.0
        assert point.p95_latency_us >= point.mean_latency_us * 0.5
        assert point.sweeps_per_decision >= 1

    def test_overhead_grows_with_rho(self, mdp):
        """The Figure 16 trend: steep growth as rho approaches 1."""
        cal = RuntimeCalibrator(mdp)
        low = cal.measure(0.2, n_decisions=24)
        high = cal.measure(0.99, n_decisions=24)
        assert high.sweeps_per_decision > 10 * low.sweeps_per_decision
        assert high.mean_latency_us > low.mean_latency_us

    def test_faster_device_has_lower_overhead(self, mdp):
        """Nexus vs Honor vs Lenovo separation in Figure 16."""
        nexus = RuntimeCalibrator(mdp, compute_speed=1.0).measure(0.95, 24)
        lenovo = RuntimeCalibrator(mdp, compute_speed=1.7).measure(0.95, 24)
        assert lenovo.sweeps_per_decision < nexus.sweeps_per_decision

    def test_sweep_covers_requested_rhos(self, mdp):
        rhos = (0.1, 0.5, 0.9)
        points = RuntimeCalibrator(mdp).sweep(rhos, n_decisions=8)
        assert [p.rho for p in points] == list(rhos)


class TestRecommendation:
    def test_recommends_largest_rho_in_budget(self, mdp):
        cal = RuntimeCalibrator(mdp)
        sweep = cal.sweep((0.1, 0.9), n_decisions=16)
        generous = max(p.mean_latency_us for p in sweep) * 10.0
        rec = cal.recommend(generous, rhos=(0.1, 0.9), n_decisions=16)
        assert rec is not None
        assert rec.rho == 0.9

    def test_impossible_budget_returns_none(self, mdp):
        cal = RuntimeCalibrator(mdp)
        assert cal.recommend(1e-9, rhos=(0.5,), n_decisions=8) is None


class TestOverheadModel:
    def test_sweeps_grow_with_rho(self):
        low = _sweep_count(0.1, 1e-2, 1.0)
        high = _sweep_count(0.99, 1e-2, 1.0)
        assert high > low * 10

    def test_faster_device_does_fewer_sweeps(self):
        slow = _sweep_count(0.9, 1e-2, 1.0)
        fast = _sweep_count(0.9, 1e-2, 2.0)
        assert fast < slow

    def test_latency_grows_with_rho(self, small_mdp):
        """The Figure 16 effect, measured in real microseconds."""
        def mean_latency(rho):
            return RuntimeCalibrator(small_mdp).measure(rho, 50).mean_latency_us

        assert mean_latency(0.99) > mean_latency(0.2)

    def test_invalid_params(self, small_mdp):
        with pytest.raises(ValueError):
            RuntimeCalibrator(small_mdp).measure(1.0)
        with pytest.raises(ValueError):
            RuntimeCalibrator(small_mdp, compute_speed=0.0)


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
        sweeps = _sweep_count(0.9, 1e-2, 1.0)
        assert sweeps == 47
        values = dict(value_iteration(mdp, 0.9).values)
        _refinement_sweeps(mdp, 0.9, values, "s0", sweeps)
        assert [v.hex() for v in values.values()] == [
            "0x1.74081831185c4p+2", "0x1.7e0f6808cb0b4p+2",
            "0x1.728888b12012dp+2",
        ]
