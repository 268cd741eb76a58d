"""The repo benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repo root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-digests     # regenerate digests.json

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` runs one job untraced and the same job under the span recorder and
reports the per-layer metrics.  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check makes
``correct`` false and the exit code 1.  See README.md in this directory
for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"

#: Environment knobs that would change what the program runs.
PROGRAM_ENV = ("CAPMAN_DIST_SECRET", "CAPMAN_DIST_WORKERS",
               "CAPMAN_FLEET_SHARDS", "CAPMAN_SWEEP_WORKERS",
               "CAPMAN_SWEEP_CACHE", "CAPMAN_SWEEP_JOURNAL")


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}; run "
                         f"from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, outcome, setup: list) -> dict:
    import tracing

    latencies = [lat for lat, _ in outcome.jobs]
    steps = [n for _, n in outcome.jobs]
    if workload == "service_mixed":
        # Concurrent clients: delivered steps over the phase's wall.
        sim_rate = sum(steps) / outcome.wall_s
    else:
        sim_rate = median([n / lat for lat, n in outcome.jobs])
    return {
        "setup_s": median(setup),
        "sim_steps_per_s": sim_rate,
        "jobs_per_s": len(latencies) / outcome.wall_s,
        "job_latency_p50_s": tracing.percentile(latencies, 50),
        "job_latency_p90_s": tracing.percentile(latencies, 90),
        "peak_rss_mb": (outcome.self_rss_kb
                        + median(outcome.child_rss_kb)) / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run; prints its human-readable lines, returns the result."""
    import catalogue
    import report
    import workloads

    bench = workloads.WORKLOADS[workload]
    workdir = WORK / f"{workload}-{os.getpid()}"
    spans_dir = WORK / "spans"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    committed = workloads.committed_digests()
    args = (seed, seconds, committed)
    if workload in ("service_mixed", "dist_grid"):
        extra = {"workdir": workdir}
    else:
        extra = {}
    try:
        if trace:
            outcome = bench.traced(*args, spans_dir=spans_dir, **extra)
            metrics = outcome.layers
        else:
            outcome = bench.measure(*args, **extra)
            setup = workloads.setup_seconds(workload, seed, workdir)
            metrics = end_to_end(workload, outcome, setup)
            outcome.properties["setup_samples_s"] = [round(s, 4)
                                                     for s in setup]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {workload} seed={seed} trace={int(trace)}")
    print("inputs: " + json.dumps(outcome.properties, sort_keys=True))
    if outcome.jobs and not trace:
        print(f"jobs: {len(outcome.jobs)} in {outcome.wall_s:.2f}s "
              f"(latency and steps per job: "
              + ", ".join(f"{lat:.3f}s/{n}" for lat, n in outcome.jobs[:12])
              + (" ..." if len(outcome.jobs) > 12 else "") + ")")
    if workload == "paper_grid" and outcome.report_cells:
        for line in report.paper_report(outcome.report_cells):
            print(line)
        if trace:
            print(report.decide_report(
                metrics["core.scheduler_decide.p50_us"]))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {catalogue.UNITS[name]}")
    for error in outcome.errors[:20]:
        print(f"CHECK FAILED: {error}")
    expected = [m[0] for m in (catalogue.PER_LAYER if trace
                               else catalogue.END_TO_END)]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metric set mismatch: {sorted(metrics)}")
    return {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value),
                           "unit": catalogue.UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="paper_grid, fleet_mixed, service_mixed, "
                             "dist_grid or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from catalogue.py")
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute digests.json for every cell any "
                             "seed can produce")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    import catalogue
    import workloads

    if args.probe:
        workloads.probe_setup(args.probe, args.seed, Path(args.workdir))
        return 0
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(catalogue.manifest(), indent=2) + "\n")
        return 0
    if args.write_digests:
        import digests

        digests.write(HERE / "digests.json")
        return 0

    seconds = args.seconds or catalogue.RUN_SECONDS
    names = (list(catalogue.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in catalogue.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
