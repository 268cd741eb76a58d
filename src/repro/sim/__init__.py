"""Simulation engine: control stepping, metrics, discharge cycles,
multi-day discharge/charge/aging runs, the parallel scenario-sweep
engine that drives the evaluation grids, and the chaos harness that
crosses those grids with fault scenarios."""

from .daily import DayRecord, MultiDayResult, run_days
from .discharge import (
    DischargeResult,
    PolicyContext,
    SchedulingPolicy,
    run_discharge_cycle,
)
from .engine import ControlStep, iter_control_steps
from .metrics import MetricsRecorder, TimeSeries
from .retry import RetryPolicy
from .sweep import (
    CellFailure,
    CellTimeoutError,
    ScenarioCell,
    ScenarioRunner,
    SimStats,
    SweepCache,
    SweepResult,
    SweepSpec,
)
from .executors import LocalProcessExecutor, SweepExecutor
from .distributed import DistributedExecutor, SweepCoordinator, SweepWorker
from .cache_server import CacheServer, NetworkSweepCache

# chaos depends on everything above; keep it last.
from .chaos import (
    BackendChaos,
    BackendChaosReport,
    ChaosReport,
    ChaosRow,
    ChaosSpec,
    FaultScenario,
    run_backend_chaos,
    run_chaos,
    standard_scenarios,
)

__all__ = [
    "DayRecord",
    "MultiDayResult",
    "run_days",
    "DischargeResult",
    "PolicyContext",
    "SchedulingPolicy",
    "run_discharge_cycle",
    "ControlStep",
    "iter_control_steps",
    "MetricsRecorder",
    "TimeSeries",
    "CellFailure",
    "CellTimeoutError",
    "RetryPolicy",
    "ScenarioCell",
    "ScenarioRunner",
    "SimStats",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "SweepExecutor",
    "LocalProcessExecutor",
    "DistributedExecutor",
    "SweepCoordinator",
    "SweepWorker",
    "CacheServer",
    "NetworkSweepCache",
    "BackendChaos",
    "BackendChaosReport",
    "run_backend_chaos",
    "ChaosReport",
    "ChaosRow",
    "ChaosSpec",
    "FaultScenario",
    "run_chaos",
    "standard_scenarios",
]
