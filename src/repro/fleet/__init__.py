"""Vectorised fleet simulation: N devices, one NumPy axis.

Public surface::

    spec = FleetSpec([DeviceSpec(policy, trace, profile), ...])
    sim = spec.build()
    results = sim.run()          # List[DischargeResult], scalar-identical
    ScenarioRunner(executor=FleetExecutor()).run(sweep)  # a sweep, batched

The scalar engine (:func:`repro.sim.discharge.run_discharge_cycle`)
remains the reference oracle: a fleet of one produces bit-for-bit the
same :class:`~repro.sim.discharge.DischargeResult` (enforced by
``tests/test_fleet_vs_scalar``).  Devices the batch path cannot model
exactly raise :class:`UnsupportedDeviceError` at build time; use
:func:`supports_policy` to route them to the scalar engine instead
(:class:`FleetExecutor` does so per sweep cell, counting each one).
"""

from .capman import VectorCapmanDriver
from .executor import FleetExecutor
from .policies import (VECTOR_DRIVERS, is_vectorisable,
                       register_vector_driver)
from .simulator import FleetSimulator
from .spec import DeviceSpec, FleetSpec, UnsupportedDeviceError, supports_policy
from .state import FleetState

__all__ = [
    "DeviceSpec",
    "FleetExecutor",
    "FleetSpec",
    "FleetSimulator",
    "FleetState",
    "UnsupportedDeviceError",
    "VectorCapmanDriver",
    "VECTOR_DRIVERS",
    "is_vectorisable",
    "register_vector_driver",
    "supports_policy",
]
