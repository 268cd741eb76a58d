"""Tests for RetryPolicy, CircuitBreaker and their wiring into the
sweep engine."""

import pytest

from repro import obs
from repro.sim.distributed import SweepCoordinator
from repro.sim.executors import CellFailure, ExecutionContext
from repro.sim.retry import DEFAULT_RETRY, CircuitBreaker, RetryPolicy
from repro.sim.sweep import ScenarioRunner, SimStats


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_allows_caps_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(0)
        assert policy.allows(2)
        assert not policy.allows(3)

    def test_default_is_historic_behaviour(self):
        # One immediate retry, zero wait: exactly the old retries=1.
        assert DEFAULT_RETRY.max_attempts == 2
        assert DEFAULT_RETRY.wait_s(1, "anything") == 0.0

    def test_wait_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=10, backoff_base_s=1.0,
                             backoff_factor=2.0, backoff_max_s=5.0)
        assert policy.wait_s(1) == 1.0
        assert policy.wait_s(2) == 2.0
        assert policy.wait_s(3) == 4.0
        assert policy.wait_s(4) == 5.0  # capped
        assert policy.wait_s(0) == 0.0  # nothing failed yet

    def test_jitter_is_deterministic_and_decorrelated(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                             jitter=0.5, seed=7)
        a1 = policy.wait_s(1, token="cell-a")
        a2 = policy.wait_s(1, token="cell-a")
        b = policy.wait_s(1, token="cell-b")
        assert a1 == a2  # same (seed, token, attempt): same wait
        assert a1 != b  # different token: different wait
        assert 0.5 <= a1 <= 1.0  # full jitter downward only
        other_seed = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                                 jitter=0.5, seed=8)
        assert other_seed.wait_s(1, token="cell-a") != a1

    def test_sleep_uses_injected_sleeper_and_skips_zero(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.25)
        wait = policy.sleep(1, token="x", sleeper=slept.append)
        assert wait == 0.25 and slept == [0.25]
        slept.clear()
        assert DEFAULT_RETRY.sleep(1, sleeper=slept.append) == 0.0
        assert slept == []  # zero wait never calls the sleeper


class _FakeCell:
    """Just enough cell for coordinator dispatch accounting."""

    def __init__(self, index, label=None):
        self.index = index
        self.label = label or f"cell-{index}"


def _manual_clock():
    now = [0.0]
    return now, (lambda: now[0])


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.closed  # streak below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.stats.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.closed  # the streak must be *consecutive*

    def test_open_short_circuits_until_reset_timeout(self):
        now, clock = _manual_clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()  # inside the window: refused
        assert not breaker.allow()
        assert breaker.stats.short_circuits == 2
        now[0] = 10.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.stats.probes == 1

    def test_half_open_probe_success_closes(self):
        now, clock = _manual_clock()
        breaker = CircuitBreaker(reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.closed
        assert breaker.stats.closes == 1

    def test_half_open_probe_failure_rearms_full_window(self):
        now, clock = _manual_clock()
        breaker = CircuitBreaker(reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()  # opens at t=0
        now[0] = 5.0
        assert breaker.allow()  # probe at t=5
        breaker.record_failure()  # probe failed: re-open
        assert breaker.state == CircuitBreaker.OPEN
        now[0] = 9.9
        assert not breaker.allow()  # window restarted at t=5, not t=0
        now[0] = 10.0
        assert breaker.allow()
        # The re-open is not a fresh trip: one outage, one trip.
        assert breaker.stats.trips == 1

    def test_concurrent_callers_during_probe_are_refused(self):
        now, clock = _manual_clock()
        breaker = CircuitBreaker(reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        now[0] = 2.0
        assert breaker.allow()  # first caller becomes the probe
        assert not breaker.allow()  # second caller: no thundering herd
        assert breaker.stats.probes == 1
        assert breaker.stats.short_circuits == 1


class TestExhaustionPaths:
    """Satellite: RetryPolicy budgets actually running out, observably."""

    def test_lease_reclaim_exhausts_the_budget_to_a_failure(self):
        # Two journalled-but-uncommitted grants from a dead coordinator
        # against a 2-attempt budget: the restarted coordinator must
        # finally fail the cell instead of re-dispatching a third time.
        committed = []
        ctx = ExecutionContext(
            retry=RetryPolicy(max_attempts=2),
            on_final=lambda index, outcome: committed.append((index, outcome)),
            replayed_grants={0: 2})
        coordinator = SweepCoordinator([_FakeCell(0)], ctx)
        assert coordinator.finished  # failed terminally, never served
        (index, outcome), = committed
        assert index == 0
        assert isinstance(outcome, CellFailure)
        assert outcome.error_type == "LeaseExpiredError"
        assert outcome.attempts == 2
        assert coordinator.stats.recovered_leases == 2
        assert coordinator.stats.retries == 0

    def test_lease_reclaim_within_budget_requeues_with_backoff(self):
        committed = []
        ctx = ExecutionContext(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.2,
                              jitter=0.5, seed=11),
            on_final=lambda index, outcome: committed.append((index, outcome)),
            replayed_grants={0: 1})
        coordinator = SweepCoordinator([_FakeCell(0)], ctx)
        assert not committed  # still dispatchable
        assert coordinator.stats.recovered_leases == 1
        assert coordinator.stats.retries == 1
        assert coordinator.stats.backoff_wait_s == ctx.retry.wait_s(
            1, token="cell-0")  # the deterministic jittered wait, exactly

    def test_worker_reconnect_schedule_is_seeded_and_deterministic(self):
        from repro.sim.distributed import SweepWorker
        same_a = SweepWorker(("127.0.0.1", 1), worker_id="w-a")
        same_b = SweepWorker(("127.0.0.1", 1), worker_id="w-a")
        other = SweepWorker(("127.0.0.1", 1), worker_id="w-b")
        schedule = [same_a.reconnect_retry.wait_s(n, token="reconnect")
                    for n in range(1, 8)]
        assert schedule == [same_b.reconnect_retry.wait_s(n, token="reconnect")
                            for n in range(1, 8)]  # reproducible
        if other.reconnect_retry.seed != same_a.reconnect_retry.seed:
            # Distinct seeds (the overwhelmingly common case; the seed
            # is a 16-bit fold of the worker id) give distinct waits.
            assert schedule != [
                other.reconnect_retry.wait_s(n, token="reconnect")
                for n in range(1, 8)]
        assert all(w <= 1.0 for w in schedule)  # saturates at the ceiling

    def test_reconnect_budget_is_effectively_unbounded(self):
        # The reconnect window is bounded by wall clock, not attempts:
        # the policy itself must never run dry mid-outage.
        from repro.sim.distributed import SweepWorker
        worker = SweepWorker(("127.0.0.1", 1), worker_id="w")
        assert worker.reconnect_retry.allows(10_000_000)


class TestRunnerWiring:
    def test_runner_default_matches_legacy_retries(self):
        # No retry= means the historic one immediate retry.
        assert ScenarioRunner().retry == DEFAULT_RETRY

    def test_explicit_policy_wins(self):
        policy = RetryPolicy(max_attempts=7, backoff_base_s=0.5)
        assert ScenarioRunner(retry=policy).retry is policy

    def test_count_retry_updates_stats_and_obs(self):
        stats = SimStats()
        ctx = ExecutionContext(stats=stats)
        obs.configure(enabled=True)
        try:
            ctx.count_retry(0.75)
            ctx.count_retry(0.0)
            reg = obs.session().registry
            assert reg.counter("sweep.retries").value == 2
            assert reg.counter("sweep.backoff_wait_s").value == 0.75
        finally:
            obs.disable()
        assert stats.cell_retries == 2
        assert stats.backoff_wait_s == 0.75

    def test_count_retry_without_session_touches_stats_only(self):
        stats = SimStats()
        ctx = ExecutionContext(stats=stats)
        assert obs.session() is None
        ctx.count_retry(0.5)
        assert stats.cell_retries == 1
        assert stats.backoff_wait_s == 0.5
