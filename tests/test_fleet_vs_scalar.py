"""Differential harness: the fleet batch vs the scalar oracle.

The contract is *bit-for-bit*, not approximate: a fleet of one must
reproduce :func:`repro.sim.discharge.run_discharge_cycle` exactly --
``pickle.dumps`` equality on the whole :class:`DischargeResult`
(wall-clock and telemetry masked, everything else compared byte for
byte, including every metrics sample).  The same holds for every row
of a heterogeneous batch, and for sweeps run on
``executor=FleetExecutor()`` -- journalled, resumed, or with cells the
batch hands to its counted scalar fallback.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings

import pytest

from repro import obs
from repro.capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.durability.journal import RunJournal, decode_blob
from repro.fleet import (DeviceSpec, FleetExecutor, FleetSpec,
                         UnsupportedDeviceError, supports_policy)
from repro.sim.chaos import journal_commit_counts
from repro.sim.discharge import run_discharge_cycle
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace

CONTROL_DT = 2.0
MAX_DURATION_S = 300.0
#: 40 mAh cells over a 120 s looped video trace: the pack depletes
#: inside the window, so the grid exercises partial serves, mid-step
#: failovers and death -- the fleet's irregular-row fallback path.
CAPACITY_MAH = 40.0
_TRACE = record_trace(VideoWorkload(seed=7), duration_s=120.0)

POLICIES = {
    "capman": lambda: CapmanPolicy(capacity_mah=CAPACITY_MAH),
    # Tight learning cadence at a surviving capacity: the window packs
    # many replan boundaries (first model after 3 observations, then a
    # re-solve every 5), so the compiled-table epoch machinery is
    # exercised well beyond the single warmup solve.
    "capman-replan": lambda: CapmanPolicy(capacity_mah=400.0,
                                          min_observations=3,
                                          replan_interval=5),
    "dual": lambda: DualPolicy(capacity_mah=CAPACITY_MAH),
    "heuristic": lambda: HeuristicPolicy(capacity_mah=CAPACITY_MAH),
}
PROFILES = {"nexus": NEXUS, "honor": HONOR}


def _frozen(result) -> bytes:
    """Byte-stable view: mask wall clock + telemetry, keep the rest."""
    return pickle.dumps(
        dataclasses.replace(result, wall_time_s=0.0, telemetry=None),
        protocol=4)


def _scalar(policy_key: str, profile_key: str):
    return run_discharge_cycle(
        POLICIES[policy_key](), _TRACE, profile=PROFILES[profile_key],
        control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S)


def _device(policy_key: str, profile_key: str) -> DeviceSpec:
    return DeviceSpec(
        policy=POLICIES[policy_key](), trace=_TRACE,
        profile=PROFILES[profile_key], control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S)


GRID = [
    pytest.param(policy, profile, id=f"{policy}-{profile}")
    for policy in POLICIES for profile in PROFILES
]


@pytest.mark.parametrize("policy,profile", GRID)
def test_batch_of_one_is_bit_identical_to_scalar(policy, profile):
    oracle = _scalar(policy, profile)
    sim = FleetSpec([_device(policy, profile)]).build()
    [mine] = sim.run()

    assert _frozen(mine) == _frozen(oracle)

    # Spot-check the fields the pickle equality already implies, so a
    # future divergence produces a readable failure instead of a blob
    # mismatch.
    assert mine.step_count == oracle.step_count
    assert mine.service_time_s == oracle.service_time_s
    assert mine.energy_delivered_j == oracle.energy_delivered_j
    assert mine.switch_count == oracle.switch_count
    assert mine.max_cpu_temp_c == oracle.max_cpu_temp_c
    for key in ("soc", "cpu_temp_c", "power_w", "voltage_v"):
        assert mine.metrics.series(key).times.tolist() == \
            oracle.metrics.series(key).times.tolist()
        assert mine.metrics.series(key).values.tolist() == \
            oracle.metrics.series(key).values.tolist()


def test_heterogeneous_batch_matches_scalar_rowwise():
    """One batch mixing both policies and both profiles: every row must
    still equal its own scalar run exactly."""
    cases = [(p, pr) for p in POLICIES for pr in PROFILES]
    sim = FleetSpec([_device(p, pr) for p, pr in cases]).build()
    results = sim.run()
    assert len(results) == len(cases)
    for (policy, profile), mine in zip(cases, results):
        assert _frozen(mine) == _frozen(_scalar(policy, profile)), \
            f"{policy}-{profile} diverged inside the batch"


def test_capman_hot_spot_lean_matches_scalar():
    """A 43 degC ambient drives the CPU past the 45 degC hot-spot
    threshold, so the vectorised LITTLE-lean mask must fire -- and the
    whole decision chain must still match the scalar oracle exactly."""
    oracle = run_discharge_cycle(
        CapmanPolicy(capacity_mah=400.0), _TRACE, profile=NEXUS,
        control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S,
        ambient_c=43.0)
    # The scenario genuinely reaches the hot-spot regime.
    assert oracle.max_cpu_temp_c >= 45.0
    sim = FleetSpec([DeviceSpec(
        policy=CapmanPolicy(capacity_mah=400.0), trace=_TRACE,
        profile=NEXUS, control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S, ambient_c=43.0)]).build()
    [mine] = sim.run()
    assert _frozen(mine) == _frozen(oracle)


def test_depletion_stress_exercises_fallback_rows():
    """The dual cases deplete mid-window; the simulator must have taken
    its object-replay fallback path at least once and still matched."""
    sim = FleetSpec([_device("dual", "nexus"), _device("dual", "honor")]).build()
    results = sim.run()
    assert sim.fallback_steps > 0
    for profile, mine in zip(PROFILES, results):
        assert _frozen(mine) == _frozen(_scalar("dual", profile))


# ----------------------------------------------------------------------
# Capability gate
# ----------------------------------------------------------------------
def test_unsupported_pack_raises_at_build_time():
    dev = DeviceSpec(policy=PracticePolicy(capacity_mah=80.0), trace=_TRACE,
                     control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S)
    with pytest.raises(UnsupportedDeviceError):
        FleetSpec([dev]).build()


def test_supports_policy_probe():
    assert supports_policy(DualPolicy(capacity_mah=CAPACITY_MAH))
    assert supports_policy(CapmanPolicy(capacity_mah=CAPACITY_MAH))
    assert supports_policy(HeuristicPolicy(capacity_mah=CAPACITY_MAH))
    assert not supports_policy(PracticePolicy(capacity_mah=80.0))


def test_build_does_not_mutate_caller_policies():
    """FleetSpec clones policies; the caller's instances stay pristine
    and reusable for a scalar reference run afterwards."""
    policy = CapmanPolicy(capacity_mah=CAPACITY_MAH)
    before = pickle.dumps(policy, protocol=4)
    FleetSpec([DeviceSpec(policy=policy, trace=_TRACE,
                          control_dt=CONTROL_DT,
                          max_duration_s=MAX_DURATION_S)]).build().run()
    assert pickle.dumps(policy, protocol=4) == before


# ----------------------------------------------------------------------
# Sweep routing
# ----------------------------------------------------------------------
def _sweep_spec(**overrides) -> SweepSpec:
    fields = dict(
        policies={
            "capman": CapmanPolicy(capacity_mah=CAPACITY_MAH),
            "dual": DualPolicy(capacity_mah=CAPACITY_MAH),
            # Single-battery pack: fleet-unsupported, must take the
            # counted scalar fallback inside the same sweep.
            "practice": PracticePolicy(capacity_mah=2 * CAPACITY_MAH),
        },
        traces={"video": _TRACE},
        profiles={"Nexus": NEXUS, "Honor": HONOR},
        control_dts=(CONTROL_DT,),
        max_duration_s=MAX_DURATION_S,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


#: The reason ``fleet/spec.py`` gives for the practice policy's pack.
PRACTICE_REASON = "pack type SingleBatteryPack is not BigLittlePack"


@pytest.fixture(scope="module")
def scalar_sweep():
    return ScenarioRunner(workers=1).run(_sweep_spec())


def _raw(result) -> list:
    return [pickle.dumps(r, protocol=4) for r in result.results]


def _commit_blobs(journal) -> dict:
    return {record["data"]["index"]: decode_blob(record["data"]["result"])
            for record in RunJournal.replay(journal, recover=False)
            if record["type"] == "cell_commit"}


def test_sweep_fleet_backend_matches_scalar_backend(scalar_sweep):
    # workers=2 row-shards the batch and pools the fallback cells.
    for workers in (1, 2):
        fleet = ScenarioRunner(workers=workers,
                               executor=FleetExecutor()).run(_sweep_spec())

        assert len(fleet.results) == len(scalar_sweep.results) == 6
        for mine, theirs in zip(fleet.results, scalar_sweep.results):
            assert _frozen(mine) == _frozen(theirs)
        assert _raw(fleet) == _raw(scalar_sweep)
        assert fleet.stats.cells_computed == scalar_sweep.stats.cells_computed
        assert fleet.stats.steps_total == scalar_sweep.stats.steps_total
        assert fleet.stats.executor == "fleet"
        assert fleet.stats.fallback_cells == 2
        assert fleet.stats.fallback_reasons == {PRACTICE_REASON: 2}


def test_journalled_fleet_sweep_commits_each_row_once(tmp_path):
    fleet_journal = tmp_path / "fleet.journal"
    scalar_journal = tmp_path / "scalar.journal"
    runner = ScenarioRunner(workers=1, journal=fleet_journal,
                            executor=FleetExecutor())
    fleet = runner.run(_sweep_spec())
    ScenarioRunner(workers=1, journal=scalar_journal).run(_sweep_spec())

    assert fleet.stats.fallback_cells == 2  # only the practice cells
    assert journal_commit_counts(fleet_journal) == {i: 1 for i in range(6)}
    assert _commit_blobs(fleet_journal) == _commit_blobs(scalar_journal)
    assert set(runner.progress().cells.values()) == {"done"}


def test_fleet_resume_replays_committed_rows(tmp_path, scalar_sweep):
    journal = tmp_path / "fleet.journal"
    ScenarioRunner(workers=1, journal=journal,
                   executor=FleetExecutor()).run(_sweep_spec())
    # Keep the header, the cell starts and the first k commits: a crash
    # after k rows reached the journal.
    k, kept, commits = 2, [], 0
    for line in journal.read_bytes().splitlines(keepends=True):
        kept.append(line)
        if b'"type":"cell_commit"' in line:
            commits += 1
            if commits == k:
                break
    journal.write_bytes(b"".join(kept))

    resumed = ScenarioRunner(workers=1, journal=journal,
                             executor=FleetExecutor()).resume()
    assert resumed.stats.cells_resumed == k
    assert resumed.stats.cells_computed == 6 - k
    # The two practice cells fall back; every other pending row ran
    # through the fleet.
    assert resumed.stats.executor == "fleet"
    assert resumed.stats.fallback_reasons == {PRACTICE_REASON: 2}
    assert _raw(resumed) == _raw(scalar_sweep)
    assert journal_commit_counts(journal) == {i: 1 for i in range(6)}


@pytest.mark.parametrize("case", ["ineligible", "obs", "timeout", "error"])
def test_fleet_fallbacks_are_counted_with_reasons(case, monkeypatch,
                                                   scalar_sweep):
    spec = _sweep_spec()
    runner_kwargs = {}
    if case == "ineligible":
        # The harness default, passed explicitly: same physics, but
        # cells with extra run arguments are never batched.
        spec = _sweep_spec(extra={"brownout_limit": 3})
        expected = {"extra run arguments": 6}
    elif case == "obs":
        obs.configure(enabled=True)
        expected = {"obs": 6}
    elif case == "timeout":
        runner_kwargs["cell_timeout_s"] = 600.0
        expected = {"timeout": 6}
    else:
        def broken_build(self):
            raise RuntimeError("fleet build failed")

        monkeypatch.setattr(FleetSpec, "build", broken_build)
        expected = {"error:RuntimeError": 4, PRACTICE_REASON: 2}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fleet = ScenarioRunner(workers=1, executor=FleetExecutor(),
                                   **runner_kwargs).run(spec)
    finally:
        if case == "obs":
            obs.disable()

    assert fleet.stats.fallback_reasons == expected
    batch_warnings = [w for w in caught if "fleet batch" in str(w.message)]
    assert len(batch_warnings) == (case == "error")
    assert fleet.stats.fallback_cells == 6
    assert fleet.stats.cells_failed == 0
    if case == "obs":
        assert fleet.telemetry.counter("sweep.fallback_cells") == 6
    for mine, theirs in zip(fleet.results, scalar_sweep.results):
        assert _frozen(mine) == _frozen(theirs)
    if case != "obs":
        assert _raw(fleet) == _raw(scalar_sweep)
