"""Tests for the CAPMAN controller policy."""

import pytest

from repro.battery.pack import BigLittlePack
from repro.battery.switch import BatterySelection
from repro.capman.controller import CapmanPolicy
from repro.device.phone import DemandSlice, Phone
from repro.sim.discharge import PolicyContext, run_discharge_cycle
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


def _ctx(power=1.0, util=20.0, wifi=0.0, soc_big=0.9, soc_little=0.9,
         active=BatterySelection.BIG, temp=30.0, start=True, syscall=None):
    return PolicyContext(
        now_s=0.0,
        demand=DemandSlice(cpu_util=util, screen_on=True, wifi_kbps=wifi),
        syscall=syscall,
        predicted_power_w=power,
        cpu_temp_c=temp,
        surface_temp_c=temp - 5.0,
        soc_big=soc_big,
        soc_little=soc_little,
        active=active,
        segment_start=start,
    )


@pytest.fixture
def started_policy():
    pol = CapmanPolicy(capacity_mah=60.0)
    phone = Phone(pack=pol.build_pack())
    trace = record_trace(VideoWorkload(seed=23), 60.0)
    pol.on_cycle_start(trace, phone)
    return pol


class TestLifecycle:
    def test_requires_cycle_start(self):
        pol = CapmanPolicy()
        with pytest.raises(RuntimeError):
            pol.decide_battery(_ctx())

    def test_builds_big_little_pack(self):
        assert isinstance(CapmanPolicy().build_pack(), BigLittlePack)

    def test_uses_tec(self):
        assert CapmanPolicy().uses_tec

    def test_scheduler_absent_before_learning(self, started_policy):
        assert started_policy.scheduler is None

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.1, float("nan")])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # Caught at construction, not at the first replan mid-run.
        with pytest.raises(ValueError):
            CapmanPolicy(rho=rho)


class TestFallbackPhase:
    def test_burst_goes_little_before_model_exists(self, started_policy):
        choice = started_policy.decide_battery(_ctx(power=2.5, util=90.0))
        assert choice is BatterySelection.LITTLE

    def test_gentle_goes_big_before_model_exists(self, started_policy):
        choice = started_policy.decide_battery(_ctx(power=0.8, util=20.0))
        assert choice is BatterySelection.BIG


class TestLearning:
    def test_model_appears_after_enough_observations(self, started_policy):
        pol = started_policy
        for i in range(pol.min_observations + 2):
            util = 90.0 if i % 2 else 20.0
            pol.decide_battery(_ctx(util=util, power=1.0 + (i % 2)))
        assert pol.scheduler is not None
        assert pol.profiler.n_observations >= pol.min_observations

    def test_hot_spot_forces_little(self, started_policy):
        choice = started_policy.decide_battery(_ctx(power=0.5, temp=46.0))
        assert choice is BatterySelection.LITTLE

    def test_soc_guard_overrides(self, started_policy):
        choice = started_policy.decide_battery(
            _ctx(power=2.5, util=90.0, soc_little=0.01)
        )
        assert choice is BatterySelection.BIG


class TestEndToEnd:
    def test_capman_beats_dual_on_video(self):
        """At test scale, CAPMAN's split should match or beat LITTLE-first."""
        from repro.capman.baselines import DualPolicy

        trace = record_trace(VideoWorkload(seed=29), 300.0)
        capman = run_discharge_cycle(
            CapmanPolicy(capacity_mah=400.0, replan_interval=20),
            trace, control_dt=2.0, max_duration_s=10 * 3600.0)
        dual = run_discharge_cycle(
            DualPolicy(capacity_mah=400.0),
            trace, control_dt=2.0, max_duration_s=10 * 3600.0)
        assert capman.service_time_s >= dual.service_time_s * 0.98

    def test_capman_controls_temperature(self):
        """CAPMAN's thermostat keeps the die near the 45 C line."""
        from repro.workload.generators import GeekbenchWorkload

        trace = record_trace(GeekbenchWorkload(seed=31), 300.0)
        res = run_discharge_cycle(
            CapmanPolicy(capacity_mah=400.0),
            trace, control_dt=2.0, max_duration_s=2.0 * 3600.0)
        assert res.max_cpu_temp_c < 47.5
        assert res.tec_on_time_s > 0.0
