"""The benchmark's vocabulary: workloads and metrics by name.

``BENCHMARK.json`` at the repo root is generated from this module
(``python3 perfbench/run.py --write-manifest``), and the self-tests
check that every name here is emitted and documented in README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

WORKLOADS: Dict[str, str] = {
    "paper_grid": "Fig. 12/15 grid, 60 cells serially through ScenarioRunner:"
                  " scalar physics, policy decisions and CAPMAN MDP rebuilds"
                  " do the work; orchestration, transport and HTTP do none",
    "fleet_mixed": "1024-device CAPMAN/Dual FleetSpec over 3 capacities x 6"
                   " traces x 3 phones: vectorised kernels, compiled-table"
                   " solves and scalar fallback replay; no cache, journal or"
                   " HTTP",
    "service_mixed": "python -m repro.service with two closed-loop clients"
                     " replaying fresh, overlapping and resubmitted jobs:"
                     " HTTP, WAL fsyncs, cache, result pickling, queue wait",
    "dist_grid": "72 short cells through DistributedExecutor with 2 TCP"
                 " workers and a run journal: the only path through CD1"
                 " frames, leases and result pickles",
}

#: ``(name, unit, better, bound)``; ``bound`` is the share of the
#: parent's median by which the metric may worsen.
#: The timing bounds are the contract's ceiling: on a shared 2-core
#: virtual machine the CPU speed itself drifted by 20% or more within
#: minutes (one paper_grid pass took 4.3 to 8.4 CPU seconds for
#: identical work), so a tighter bound would reject unchanged code.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_steps_per_s", "1/s", "higher", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_latency_p50_s", "s", "lower", 0.25),
    ("job_latency_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: ``(name, unit, better)`` of the traced run's per-layer metrics.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("battery.pack_draw.calls", "count", "lower"),
    ("battery.pack_draw.self_s", "s", "lower"),
    ("thermal.rc_step.self_s", "s", "lower"),
    ("device.phone_step.self_s", "s", "lower"),
    ("sim.discharge.self_s", "s", "lower"),
    ("capman.decide.self_s", "s", "lower"),
    ("capman.build_mdp.calls", "count", "lower"),
    ("capman.build_mdp.self_s", "s", "lower"),
    ("core.value_iteration.calls", "count", "lower"),
    ("core.value_iteration.self_s", "s", "lower"),
    ("core.similarity_solve.calls", "count", "lower"),
    ("core.similarity_solve.self_s", "s", "lower"),
    ("core.scheduler_decide.p50_us", "us", "lower"),
    ("core.scheduler_decide.p90_us", "us", "lower"),
    ("fleet.build_s", "s", "lower"),
    ("fleet.run.self_s", "s", "lower"),
    ("fleet.fallback.self_s", "s", "lower"),
    ("fleet.fallback_step_ratio", "ratio", "lower"),
    ("fleet.table_compiles", "count", "lower"),
    ("fleet.dedupe_ratio", "ratio", "higher"),
    ("sweep.run.self_s", "s", "lower"),
    ("sweep.cache_get.calls", "count", "lower"),
    ("sweep.cache_get.self_s", "s", "lower"),
    ("sweep.cache_put.calls", "count", "lower"),
    ("sweep.cache_put.self_s", "s", "lower"),
    ("sweep.cache_hit_ratio", "ratio", "higher"),
    ("durability.journal_append.calls", "count", "lower"),
    ("durability.journal_append.self_s", "s", "lower"),
    ("durability.journal_bytes", "bytes", "lower"),
    ("dist.send_msg.calls", "count", "lower"),
    ("dist.send_msg.bytes", "bytes", "lower"),
    ("dist.rpc.calls", "count", "lower"),
    ("dist.rpc.self_s", "s", "lower"),
    ("dist.leases_granted", "count", "lower"),
    ("dist.remote_cells", "count", "higher"),
    ("dist.local_fallback_cells", "count", "lower"),
    ("dist.duplicate_results", "count", "lower"),
    ("service.post_ack.p50_s", "s", "lower"),
    ("service.post_ack.p90_s", "s", "lower"),
    ("service.queue_wait.mean_s", "s", "lower"),
    ("service.job_exec.mean_s", "s", "lower"),
    ("service.http.jobs.submit.latency_mean_s", "s", "lower"),
    ("service.http.jobs.status.latency_mean_s", "s", "lower"),
    ("service.http.jobs.results.latency_mean_s", "s", "lower"),
    ("service.result_blobs.self_s", "s", "lower"),
    ("service.dedupe_ratio", "ratio", "higher"),
    ("service.cell_cache_hit_ratio", "ratio", "higher"),
    ("service.polls_per_job", "count", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
