"""Fleet batching as a sweep backend.

``ScenarioRunner(workers=n, executor=FleetExecutor())`` runs a sweep's
pending discharge cells as one vectorised :class:`FleetSpec` batch,
row-sharded across ``n`` processes (1 runs in-process), with results
byte-identical to the scalar engine's.  Every batched row goes through
``ctx.started`` / ``ctx.finalise``, so a journalled sweep commits each
row through the normal ``cell_commit`` path once the batch ends (rows
write no in-cell sidecar checkpoints; an interrupted row recomputes).

Every cell it does not batch runs on an inner
:class:`~repro.sim.executors.LocalProcessExecutor` and is counted, with
its reason, in ``SimStats.fallback_cells`` / ``fallback_reasons``: an
ineligible policy, kind or extra run arguments; obs on (telemetry is
harvested per cycle scope, which a batch lacks); a per-cell timeout
(a batch has no per-row budget); or a batch that raised
(``error:<ExcType>``).
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional, Sequence

from ..sim.executors import (CellItem, ExecutionContext, LocalProcessExecutor,
                             SweepExecutor)
from ..sim.sweep import ScenarioCell
from .spec import DeviceSpec, FleetSpec, unsupported_reason

__all__ = ["FleetExecutor"]


class FleetExecutor(SweepExecutor):
    """Batch eligible discharge cells through the vectorised fleet."""

    name = "fleet"

    def run(self, cells: Sequence[ScenarioCell],
            ctx: ExecutionContext) -> List[CellItem]:
        reasons = {cell.index: _fallback_reason(cell, ctx) for cell in cells}
        batch = [cell for cell in cells if reasons[cell.index] is None]
        items: Dict[int, CellItem] = {}
        if batch:
            try:
                computed = _run_batch(batch, ctx)
            except Exception as exc:
                warnings.warn(f"fleet batch of {len(batch)} cells raised "
                              f"{type(exc).__name__}: {exc}; running them "
                              f"on the scalar engine", RuntimeWarning)
                for cell in batch:
                    reasons[cell.index] = f"error:{type(exc).__name__}"
            else:
                for item in computed:
                    items[item[0]] = item
                    ctx.finalise(item[0], item[1])
        fallback = [cell for cell in cells if cell.index not in items]
        for cell in fallback:
            ctx.count_fallback(reasons[cell.index])  # type: ignore[arg-type]
        items.update((item[0], item) for item in
                     LocalProcessExecutor(ctx.workers).run(fallback, ctx))
        return [items[cell.index] for cell in cells]


def _fallback_reason(cell: ScenarioCell,
                     ctx: ExecutionContext) -> Optional[str]:
    """Why ``cell`` cannot join the batch, or None when it can."""
    if ctx.obs_enabled:
        return "obs"
    if (ctx.cell_timeout_s or 0) > 0:
        return "timeout"
    if cell.kind != "discharge":
        return f"kind={cell.kind}"
    if cell.extra:
        return "extra run arguments"
    return unsupported_reason(cell.policy)


def _run_batch(cells: Sequence[ScenarioCell],
               ctx: ExecutionContext) -> List[CellItem]:
    """One vectorised run; the wall time is amortised over its rows."""
    started = time.perf_counter()
    for cell in cells:
        ctx.started(cell.index)
    spec = FleetSpec([
        DeviceSpec(policy=cell.policy, trace=cell.trace,
                   profile=cell.profile, control_dt=cell.control_dt,
                   max_duration_s=cell.max_duration_s,
                   ambient_c=cell.ambient_c,
                   record_every=cell.record_every)
        for cell in cells])
    results = spec.build().run_sharded(ctx.workers)
    elapsed = (time.perf_counter() - started) / len(cells)
    return [(cell.index, result, elapsed, result.step_count)
            for cell, result in zip(cells, results)]
