"""Property tests for the bit-identical checkpoint/restore contract.

The contract under test, for every stateful component: take a
component, advance it ``j`` steps, ``snapshot`` it, build a *fresh*
component from the same constructor arguments, ``restore`` the
snapshot into it, then advance both ``k`` more steps -- every
observable (and the full ``state_dict``) must be *bit-identical*, not
approximately equal.  Hypothesis drives the step counts and inputs;
pickled state dicts are the equality oracle because protocol-4 pickle
round-trips IEEE doubles exactly.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.cell import Cell
from repro.battery.chemistry import CHEMISTRIES, LMO, NCA
from repro.battery.pack import BigLittlePack
from repro.capman.baselines import DualPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.phone import DemandSlice, Phone
from repro.durability.budget import BudgetExceededError, RunBudget
from repro.durability.snapshot import Checkpointer, SimCheckpoint
from repro.durability.state import StateMismatchError
from repro.sim.discharge import run_discharge_cycle
from repro.sim.daily import run_days
from repro.thermal.rc_network import phone_thermal_network
from repro.workload.generators import PCMarkWorkload, VideoWorkload
from repro.workload.traces import record_trace

_CHEM = st.sampled_from(list(CHEMISTRIES.values()))


def _state_bytes(component) -> bytes:
    return pickle.dumps(component.state_dict(), protocol=4)


# ----------------------------------------------------------------------
# Cell (KiBaM wells + transient + aging throughput)
# ----------------------------------------------------------------------
class TestCellRestore:
    @settings(max_examples=40, deadline=None)
    @given(
        chem=_CHEM,
        powers=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
        split=st.integers(1, 11),
        dt=st.floats(0.5, 30.0),
    )
    def test_restore_then_run_is_bit_identical(self, chem, powers, split, dt):
        split = min(split, len(powers))
        prefix, suffix = powers[:split], powers[split:]

        original = Cell(chem, capacity_mah=80.0)
        for p in prefix:
            original.draw_power(p, dt)
        snapshot = original.state_dict()

        restored = Cell(chem, capacity_mah=80.0)
        restored.load_state_dict(snapshot)
        assert _state_bytes(restored) == pickle.dumps(snapshot, protocol=4)

        for p in suffix:
            a = original.draw_power(p, dt)
            b = restored.draw_power(p, dt)
            assert pickle.dumps(a) == pickle.dumps(b)
        assert _state_bytes(original) == _state_bytes(restored)

    def test_wrong_chemistry_still_loads_wells_not_config(self):
        """state_dict carries *state*; config mismatches surface as a
        class/shape mismatch only when there is one (same class here)."""
        a = Cell(NCA, capacity_mah=80.0)
        a.draw_power(1.0, 60.0)
        b = Cell(NCA, capacity_mah=80.0)
        b.load_state_dict(a.state_dict())
        assert b.charge_amp_s == a.charge_amp_s

    def test_cross_class_rejected(self):
        cell = Cell(NCA, capacity_mah=80.0)

        class NotACell:
            pass

        with pytest.raises(StateMismatchError):
            pack = BigLittlePack(big=Cell(NCA, 80.0), little=Cell(LMO, 80.0))
            pack.load_state_dict(cell.state_dict())


# ----------------------------------------------------------------------
# ThermalNetwork
# ----------------------------------------------------------------------
class TestThermalRestore:
    @settings(max_examples=30, deadline=None)
    @given(
        heats=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=10),
        split=st.integers(1, 9),
        dt=st.floats(0.5, 10.0),
    )
    def test_restore_then_step_is_bit_identical(self, heats, split, dt):
        split = min(split, len(heats) - 1)
        original = phone_thermal_network(ambient_c=25.0)
        for q in heats[:split]:
            original.step(dt, {"cpu": q})
        snapshot = original.state_dict()

        restored = phone_thermal_network(ambient_c=25.0)
        restored.load_state_dict(snapshot)

        for q in heats[split:]:
            ta = original.step(dt, {"cpu": q})
            tb = restored.step(dt, {"cpu": q})
            assert ta == tb  # exact float equality, no tolerance
        assert original.temperatures() == restored.temperatures()

    def test_node_set_mismatch_rejected(self):
        net = phone_thermal_network()
        from repro.thermal.rc_network import ThermalNetwork, ThermalNode

        other = ThermalNetwork()
        other.add_node(ThermalNode("cpu", 10.0, 25.0))
        with pytest.raises(StateMismatchError):
            other.load_state_dict(net.state_dict())


# ----------------------------------------------------------------------
# Phone (pack + thermal + TEC + FSM clock, composed)
# ----------------------------------------------------------------------
def _fresh_phone() -> Phone:
    pack = BigLittlePack(big=Cell(NCA, capacity_mah=60.0),
                         little=Cell(LMO, capacity_mah=60.0))
    return Phone(pack=pack, ambient_c=25.0)


class TestPhoneRestore:
    @settings(max_examples=20, deadline=None)
    @given(
        utils=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=10),
        split=st.integers(1, 9),
    )
    def test_restore_then_step_is_bit_identical(self, utils, split):
        split = min(split, len(utils) - 1)
        original = _fresh_phone()
        for u in utils[:split]:
            original.step(DemandSlice(cpu_util=u, screen_on=True), 2.0)
        snapshot = original.state_dict()

        restored = _fresh_phone()
        restored.load_state_dict(snapshot)

        for u in utils[split:]:
            demand = DemandSlice(cpu_util=u, screen_on=True,
                                 wifi_kbps=10.0 * (u % 7))
            a = original.step(demand, 2.0)
            b = restored.step(demand, 2.0)
            assert pickle.dumps(a) == pickle.dumps(b)
        assert _state_bytes(original) == _state_bytes(restored)


# ----------------------------------------------------------------------
# Workload generators (RNG state via seed + position fast-forward)
# ----------------------------------------------------------------------
class TestSegmentStreamRestore:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        prefix=st.integers(0, 30),
        suffix=st.integers(1, 20),
        cls=st.sampled_from([VideoWorkload, PCMarkWorkload]),
    )
    def test_restore_then_generate_is_bit_identical(self, seed, prefix,
                                                    suffix, cls):
        original = cls(seed=seed).stream()
        for _ in range(prefix):
            next(original)
        snapshot = original.state_dict()

        restored = cls(seed=seed).stream()
        restored.load_state_dict(snapshot)

        for _ in range(suffix):
            assert pickle.dumps(next(original)) == pickle.dumps(next(restored))

    def test_seed_mismatch_rejected(self):
        a = VideoWorkload(seed=1).stream()
        b = VideoWorkload(seed=2).stream()
        with pytest.raises(StateMismatchError):
            b.load_state_dict(a.state_dict())


# ----------------------------------------------------------------------
# Full harness: interrupt-at-k resume == uninterrupted run
# ----------------------------------------------------------------------
def _result_bytes(result) -> bytes:
    result.wall_time_s = 0.0  # the only nondeterministic field
    return pickle.dumps(result, protocol=4)


@pytest.fixture(scope="module")
def short_trace():
    return record_trace(VideoWorkload(seed=5), 120.0)


class TestDischargeResume:
    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(1, 120),
        policy_cls=st.sampled_from([DualPolicy, PracticePolicy, CapmanPolicy]),
    )
    def test_interrupted_resume_matches_uninterrupted(self, k, policy_cls,
                                                      short_trace):
        kwargs = dict(profile=None, control_dt=2.0, max_duration_s=900.0)
        kwargs.pop("profile")

        reference = run_discharge_cycle(
            policy_cls(capacity_mah=40.0), short_trace, **kwargs)

        ck = Checkpointer()
        try:
            run_discharge_cycle(
                policy_cls(capacity_mah=40.0), short_trace,
                checkpointer=ck, budget=RunBudget(max_steps=k), **kwargs)
        except BudgetExceededError as exc:
            resumed = run_discharge_cycle(
                policy_cls(capacity_mah=40.0), short_trace,
                resume_from=exc.checkpoint, **kwargs)
        else:
            # Budget larger than the whole run: nothing to resume.
            return
        assert _result_bytes(resumed) == _result_bytes(reference)

    def test_capman_resume_after_replan_matches_uninterrupted(self,
                                                              short_trace):
        """The checkpoint carries a live profiler and a solved scheduler."""
        kwargs = dict(control_dt=2.0, max_duration_s=900.0)
        reference = run_discharge_cycle(
            CapmanPolicy(capacity_mah=40.0), short_trace, **kwargs)

        policy = CapmanPolicy(capacity_mah=40.0)
        with pytest.raises(BudgetExceededError) as exc:
            run_discharge_cycle(policy, short_trace, checkpointer=Checkpointer(),
                                budget=RunBudget(max_steps=30), **kwargs)
        assert policy.scheduler is not None
        resumed = run_discharge_cycle(
            CapmanPolicy(capacity_mah=40.0), short_trace,
            resume_from=exc.value.checkpoint, **kwargs)
        assert _result_bytes(resumed) == _result_bytes(reference)

    def test_checkpoint_fingerprint_guards_config(self, short_trace):
        ck = Checkpointer()
        try:
            run_discharge_cycle(DualPolicy(capacity_mah=40.0), short_trace,
                                control_dt=2.0, max_duration_s=900.0,
                                checkpointer=ck, budget=RunBudget(max_steps=20))
        except BudgetExceededError as exc:
            ckpt = exc.checkpoint
        with pytest.raises(StateMismatchError):
            run_discharge_cycle(DualPolicy(capacity_mah=40.0), short_trace,
                                control_dt=4.0,  # different config
                                max_duration_s=900.0, resume_from=ckpt)

    def test_corrupt_checkpoint_rejected(self, short_trace, tmp_path):
        path = tmp_path / "cycle.ckpt"
        ck = Checkpointer(path)
        try:
            run_discharge_cycle(DualPolicy(capacity_mah=40.0), short_trace,
                                control_dt=2.0, max_duration_s=900.0,
                                checkpointer=ck, budget=RunBudget(max_steps=20))
        except BudgetExceededError:
            pass
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        assert SimCheckpoint.try_load(path) is None  # detected, not restored


class TestDailyResume:
    def test_interrupted_resume_matches_uninterrupted(self, short_trace):
        kwargs = dict(n_days=3, control_dt=2.0, max_cycle_s=3600.0)
        reference = run_days(DualPolicy(capacity_mah=40.0), short_trace,
                             **kwargs)

        ck = Checkpointer()
        steps_per_day = reference.step_count // 3
        try:
            run_days(DualPolicy(capacity_mah=40.0), short_trace,
                     checkpointer=ck,
                     budget=RunBudget(max_steps=steps_per_day + 1), **kwargs)
        except BudgetExceededError as exc:
            resumed = run_days(DualPolicy(capacity_mah=40.0), short_trace,
                               resume_from=exc.checkpoint, **kwargs)
        assert _result_bytes(resumed) == _result_bytes(reference)


class TestSupervisedChaosResume:
    def test_faulty_supervised_resume_matches_uninterrupted(self, short_trace):
        """The hardest composition: fault runtimes (RNG mid-stream),
        sensor taps, event log and the supervisor mode machine all
        restore together, bit-identically."""
        from repro.faults.schedule import (
            FaultSchedule, FaultTrigger, SensorFault, SwitchFault, TecFault,
        )
        from repro.faults.supervisor import SupervisedPolicy

        schedule = FaultSchedule(
            faults=(
                SwitchFault(trigger=FaultTrigger(start_s=30.0),
                            drop_probability=0.3),
                TecFault(trigger=FaultTrigger(start_s=60.0), stuck_off=True),
                SensorFault(trigger=FaultTrigger(start_s=20.0),
                            channel="cpu_temp", dropout_probability=0.2,
                            noise_std=0.5),
            ),
            seed=11, name="mix")

        def make_policy():
            return SupervisedPolicy(inner=DualPolicy(capacity_mah=40.0),
                                    schedule=pickle.loads(pickle.dumps(schedule)))

        kwargs = dict(control_dt=2.0, max_duration_s=900.0)
        reference = run_discharge_cycle(make_policy(), short_trace, **kwargs)
        assert reference.fault_events, "scenario must actually inject faults"

        ck = Checkpointer()
        try:
            run_discharge_cycle(make_policy(), short_trace, checkpointer=ck,
                                budget=RunBudget(max_steps=60), **kwargs)
        except BudgetExceededError as exc:
            resumed = run_discharge_cycle(make_policy(), short_trace,
                                          resume_from=exc.checkpoint, **kwargs)
        assert _result_bytes(resumed) == _result_bytes(reference)
        assert resumed.fault_events == reference.fault_events
        assert resumed.final_mode == reference.final_mode
