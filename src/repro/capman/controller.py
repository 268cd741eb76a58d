"""The CAPMAN scheduling policy (paper Sections III-IV).

``CapmanPolicy`` is the full framework wired together:

* a :class:`~repro.capman.profiler.PowerProfiler` accumulates device
  power-state transitions online (no future knowledge);
* every ``replan_interval`` observations the decision MDP is rebuilt
  and solved into an :class:`~repro.core.online.OnlineScheduler`, and
  each control step looks its (device state, active battery) up in the
  solved policy;
* before enough statistics exist, and for a state the learned policy
  does not cover, a conservative burst heuristic stands in --
  reproducing the paper's observation that CAPMAN "drains fast in the
  beginning" on PCMark and then improves as it learns;
* the TEC is driven by the 45 degC thermostat (harness side), and the
  policy leans LITTLE while the hot spot is active, since the TEC's
  power surge is exactly the short-burst demand the LITTLE battery is
  for (paper Section III-E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..battery.pack import BatteryPack, BigLittlePack
from ..battery.switch import BatterySelection
from ..battery.chemistry import pick_big_little
from ..core.online import OnlineScheduler
from ..device.phone import DemandSlice, Phone
from ..device.syscalls import Syscall
from ..sim.discharge import PolicyContext, SchedulingPolicy
from ..thermal.hotspot import HOT_SPOT_THRESHOLD_C
from ..workload.base import Segment
from ..workload.traces import Trace
from .profiler import PowerProfiler, device_key_of

__all__ = ["CapmanPolicy", "SOC_FLOOR"]

#: Reserve below which a cell is considered unavailable for selection.
#: Public because the fleet engine's batched CAPMAN driver must apply
#: the identical floor in its vectorised guard/lean masks.
SOC_FLOOR = 0.03
_SOC_FLOOR = SOC_FLOOR


@dataclass
class CapmanPolicy(SchedulingPolicy):
    """The CAPMAN framework as a scheduling policy.

    Parameters
    ----------
    capacity_mah:
        Per-cell capacity of the big.LITTLE pack.
    rho:
        MDP discount factor in ``[0, 1)``; trades decision quality
        against the decision overhead of Figure 16.
    replan_interval:
        Observations between MDP rebuild + re-solve passes (the
        background calibration cadence).
    min_observations:
        Observations required before trusting the learned model.
    fallback_threshold_w:
        Burst threshold of the stand-in heuristic used while learning.
    """

    capacity_mah: float = 2500.0
    rho: float = 0.9
    replan_interval: int = 40
    min_observations: int = 12
    fallback_threshold_w: float = 1.6
    name: str = "CAPMAN"
    uses_tec: bool = True

    _profiler: Optional[PowerProfiler] = field(init=False, default=None, repr=False)
    _scheduler: Optional[OnlineScheduler] = field(init=False, default=None, repr=False)
    _prev_demand: Optional[DemandSlice] = field(init=False, default=None, repr=False)
    _prev_syscall: Optional[Syscall] = field(init=False, default=None, repr=False)
    _since_replan: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        # Reject at construction what the first replan's solve would
        # reject mid-run (NaN fails the comparison too).
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")

    # ------------------------------------------------------------------
    def build_pack(self) -> BatteryPack:
        big_chem, little_chem = pick_big_little()
        return BigLittlePack.from_chemistries(big_chem, little_chem, self.capacity_mah)

    def on_cycle_start(self, trace: Trace, phone: Phone) -> None:
        from .profiler import BatteryCostModel

        self._profiler = PowerProfiler(
            phone.profile,
            cost_model=BatteryCostModel(capacity_mah=self.capacity_mah),
        )
        self._scheduler = None
        self._prev_demand = None
        self._prev_syscall = None
        self._since_replan = 0

    # ------------------------------------------------------------------
    def decide_battery(self, ctx: PolicyContext) -> Optional[BatterySelection]:
        profiler = self._profiler
        if profiler is None:
            raise RuntimeError("on_cycle_start was never called")

        # Occupancy statistics: control steps are uniform, so one unit
        # per step weights states by time correctly.
        profiler.record_dwell(ctx.demand, 1.0)
        if ctx.segment_start:
            self._learn(ctx)

        choice = self._model_choice(ctx)
        if choice is None:
            choice = self._fallback_choice(ctx)

        # The TEC surge is burst demand: lean LITTLE while hot (paper
        # Section III-E: "CAPMAN actually favors LITTLE battery due to
        # frequently wake TEC").  A non-finite temperature (sparking
        # sensor, unsupervised) must not trigger the lean.
        if (math.isfinite(ctx.cpu_temp_c)
                and ctx.cpu_temp_c >= HOT_SPOT_THRESHOLD_C
                and ctx.soc_little > _SOC_FLOOR):
            choice = BatterySelection.LITTLE

        return self._guard(choice, ctx)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _learn(self, ctx: PolicyContext) -> None:
        profiler = self._profiler
        assert profiler is not None
        if self._prev_demand is not None:
            profiler.observe(
                Segment(self._prev_demand, 1.0, self._prev_syscall),
                Segment(ctx.demand, 1.0, ctx.syscall),
                measured_power_w=ctx.predicted_power_w,
            )
            self._since_replan += 1
        self._prev_demand = ctx.demand
        self._prev_syscall = ctx.syscall

        enough = profiler.n_observations >= self.min_observations
        due = self._scheduler is None or self._since_replan >= self.replan_interval
        if enough and due:
            mdp = profiler.build_decision_mdp()
            self._scheduler = OnlineScheduler(mdp, rho=self.rho)
            self._since_replan = 0

    # ------------------------------------------------------------------
    # Decision paths
    # ------------------------------------------------------------------
    @staticmethod
    def decision_state(key, active: BatterySelection):
        """The decision-MDP state consulted for a (device key, battery).

        The single place the (key, active) pair is packed into the MDP
        state shape; the fleet's compiled-table driver mirrors it via
        :class:`~repro.capman.profiler.DecisionStateInterner`.
        """
        return (key, active.value)

    def _model_choice(self, ctx: PolicyContext) -> Optional[BatterySelection]:
        scheduler = self._scheduler
        if scheduler is None or self._profiler is None:
            return None
        key = device_key_of(ctx.demand, self._profiler.profile.wifi_model.threshold_kbps)
        action = scheduler.decide(self.decision_state(key, ctx.active))
        if action == "use_little":
            return BatterySelection.LITTLE
        if action == "use_big":
            return BatterySelection.BIG
        return None

    def _fallback_choice(self, ctx: PolicyContext) -> BatterySelection:
        if not math.isfinite(ctx.predicted_power_w):
            # A corrupt power estimate is no basis for burst routing;
            # the BIG battery is the conservative default.
            return BatterySelection.BIG
        if ctx.predicted_power_w > self.fallback_threshold_w:
            return BatterySelection.LITTLE
        return BatterySelection.BIG

    @staticmethod
    def _guard(choice: BatterySelection, ctx: PolicyContext) -> BatterySelection:
        """Never select an effectively empty (or unreadable) cell."""
        little_out = (not math.isfinite(ctx.soc_little)
                      or ctx.soc_little <= _SOC_FLOOR)
        big_out = not math.isfinite(ctx.soc_big) or ctx.soc_big <= _SOC_FLOOR
        if choice is BatterySelection.LITTLE and little_out:
            return BatterySelection.BIG
        if choice is BatterySelection.BIG and big_out:
            return BatterySelection.LITTLE
        return choice

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> Optional[OnlineScheduler]:
        """The live online scheduler (None while still learning)."""
        return self._scheduler

    @property
    def profiler(self) -> Optional[PowerProfiler]:
        """The live profiler (None before a cycle starts)."""
        return self._profiler
