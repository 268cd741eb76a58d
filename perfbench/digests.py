"""Regenerate ``digests.json``: one digest per cell any seed can produce.

Every cell is computed through the scalar engine (``ScenarioRunner``
over ``run_discharge_cycle``), never through the path a workload
measures, so the committed file is an independent reference for the
fleet, distributed and service paths.  Run it with
``python3 perfbench/run.py --write-digests`` after a change that is
meant to alter simulated results, and say why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import inputs
from workloads import frozen_digest

#: Pool size for regeneration (sized for 2 cores).
WORKERS = 2


def _sweep(workload: str, spec) -> Dict[str, str]:
    from repro.sim.sweep import ScenarioRunner

    result = ScenarioRunner(workers=WORKERS).run(spec)
    if result.failures:
        raise RuntimeError(f"{workload}: {result.failures[0]}")
    return {inputs.sweep_cell_key(workload, cell): frozen_digest(res)
            for cell, res in result}


def _paper() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for variant in range(inputs.VARIANTS):
        spec = inputs.paper_spec({t: variant for t in inputs.PAPER_TRACES})
        out.update(_sweep("paper_grid", spec))
    return out


def _fleet() -> Dict[str, str]:
    from repro.device.profiles import PHONES
    from repro.sim.sweep import SweepSpec

    mahs = (inputs.FLEET_SMALL_MAH,) + inputs.FLEET_LARGE_MAH
    spec = SweepSpec(
        policies={f"{p}{mah:g}": inputs.make_policy(p, mah)
                  for p in inputs.FLEET_POLICIES for mah in mahs},
        traces={f"{t}#{v}": inputs.record(t, v, inputs.FLEET_TRACE_S)
                for t in inputs.FLEET_TRACES
                for v in range(inputs.VARIANTS)},
        profiles=dict(PHONES),
        control_dts=(inputs.CONTROL_DT,),
        max_duration_s=inputs.FLEET_WINDOW_S,
        record_every=inputs.FLEET_RECORD_EVERY,
    )
    return _sweep("fleet_mixed", spec)


def _service() -> Dict[str, str]:
    from repro.service.schemas import parse_policy, parse_trace
    from repro.device.profiles import PHONES
    from repro.sim.sweep import SweepSpec

    policies = {}
    for mah in inputs.SERVICE_MAH:
        body = inputs.service_body(("video", 0, "Nexus", mah),
                                   inputs.SERVICE_POLICIES)
        for name, obj in body["policies"].items():
            policies[name] = parse_policy(name, obj)
    traces = {}
    for workload in inputs.SERVICE_WORKLOADS:
        for variant in range(inputs.VARIANTS):
            body = inputs.service_body((workload, variant, "Nexus", 60.0),
                                       inputs.SERVICE_POLICIES)
            (name, obj), = body["traces"].items()
            traces[name] = parse_trace(name, obj)
    spec = SweepSpec(policies=policies, traces=traces, profiles=dict(PHONES),
                     control_dts=(inputs.CONTROL_DT,),
                     max_duration_s=inputs.SERVICE_WINDOW_S)
    return _sweep("service_mixed", spec)


def _dist() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for variant in range(inputs.VARIANTS):
        spec = inputs.dist_spec({t: variant for t in inputs.DIST_TRACES})
        out.update(_sweep("dist_grid", spec))
    return out


def write(path: Path) -> None:
    digests: Dict[str, str] = {}
    for part in (_paper, _fleet, _service, _dist):
        digests.update(part())
        print(f"{part.__name__[1:]}: {len(digests)} digests so far",
              flush=True)
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
