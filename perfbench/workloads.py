"""The four benchmark workloads: set-up, measured phase and checks.

Each workload exposes ``setup(seed)`` (what a set-up probe times),
``measure(...)`` (the untraced run: end-to-end numbers) and
``traced(...)`` (one untraced job, then the same job under the span
recorder: per-layer numbers and the tracing overhead).  A *job* is the
unit a user waits for: one pass over the figure grid, one fleet run,
one HTTP job, one distributed sweep.

Correctness is checked on every run, outside the timed region:
every cell's result digest (``wall_time_s`` and ``telemetry`` left
out) against ``digests.json`` and against every other computation of
the same cell in the run, plus the per-workload checks the docstrings
below name.  A mismatch is recorded in ``Outcome.errors``.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import http.client
import json
import os
import pickle
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Closed-loop clients and distributed workers (sized for 2 cores).
CLIENTS = 2
CLIENT_THREADS = tuple(f"client-{i}" for i in range(CLIENTS))
#: The thread whose timeline a sequential workload's job occupies.
MAIN = ("MainThread",)
DIST_WORKERS = 2
#: Client status-poll interval (s), and how long a job may take before
#: the client gives up on it and counts it as failed.
POLL_S = 0.01
JOB_DEADLINE_S = 60.0
#: Jobs served before the server's peak RSS is read.
RSS_AFTER_JOBS = 100
#: Service job-runner threads.  One, not the CLI's default two: two
#: runners share the store's ``SweepCache`` and with it one ``FileLock``
#: instance, which is not thread-safe -- a release racing an acquire
#: leaks or double-closes the lock's descriptor, so a job fails with
#: ``TypeError`` or deadlocks in ``SweepCache.put``.  Raise this to 2
#: once the lock is fixed.
JOB_RUNNERS = 1
#: Fresh service jobs re-run directly through ``ScenarioRunner``.
SERVICE_DIRECT_SAMPLES = 2
#: Fleet configurations re-run through the scalar oracle per run.
FLEET_ORACLE_SAMPLES = 4
#: Set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 3


def frozen_digest(result: Any) -> str:
    """Digest of a result's simulated outcome (wall time and telemetry
    are out of band)."""
    frozen = dataclasses.replace(result, wall_time_s=0.0, telemetry=None)
    return hashlib.sha256(pickle.dumps(frozen, protocol=4)).hexdigest()[:16]


def committed_digests() -> Dict[str, str]:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: ``(latency_s, simulated steps)`` per completed job.
    jobs: List[Tuple[float, int]] = field(default_factory=list)
    #: Wall time of the measured phase (s).
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    properties: Dict[str, Any] = field(default_factory=dict)
    #: Per job, the summed peak RSS of the workload's child processes
    #: (server, workers) in KiB.
    child_rss_kb: List[int] = field(default_factory=list)
    #: Peak RSS of this process at the end of the measured phase (KiB).
    self_rss_kb: int = 0
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``paper_grid`` results of the first pass, for the paper report.
    report_cells: List[Tuple[Any, Any]] = field(default_factory=list)


class Digests:
    """Per-cell digests of one run, checked as they are recorded."""

    def __init__(self, outcome: Outcome, committed: Optional[Dict[str, str]]):
        self.outcome = outcome
        self.committed = committed
        self.seen: Dict[str, str] = {}

    def check(self, key: str, result: Any) -> None:
        self.outcome.attempted += 1
        if not hasattr(result, "wall_time_s"):
            self.fail(f"{key}: cell failed: {result!r}"[:300])
            return
        digest = frozen_digest(result)
        previous = self.seen.setdefault(key, digest)
        if previous != digest:
            self.fail(f"{key}: digest {digest} differs from {previous} "
                      f"earlier in this run")
        elif self.committed is not None:
            want = self.committed.get(key)
            if want is None:
                self.fail(f"{key}: no committed digest")
            elif want != digest:
                self.fail(f"{key}: digest {digest} != committed {want}")

    def fail(self, message: str) -> None:
        self.outcome.failed += 1
        self.outcome.errors.append(message)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def launch(args: List[str], spans: Optional[Path] = None,
           stdout=subprocess.DEVNULL) -> subprocess.Popen:
    """``perfbench/launch.py`` in a child process."""
    cmd = [sys.executable, str(HERE / "launch.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    return subprocess.Popen(cmd + args, env=child_env(), stdout=stdout,
                            stderr=subprocess.DEVNULL, text=True)


def reap(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """Wait for ``proc`` (killing it past ``timeout_s``); its peak RSS
    in KiB."""
    if proc.returncode is not None:
        return 0
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.01)


def stop(proc: subprocess.Popen) -> int:
    """SIGTERM ``proc`` (a no-op on a zombie) and reap it; peak RSS."""
    if proc.returncode is None:
        os.kill(proc.pid, signal.SIGTERM)
    return reap(proc)


def peak_rss_kb(pid: int) -> int:
    """A live process's peak RSS so far (``VmHWM``, KiB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_loop(seconds: float, job: Callable[[], None]) -> None:
    """Run ``job`` once, then again until ``seconds`` have passed."""
    started = time.perf_counter()
    job()
    while time.perf_counter() - started < seconds:
        job()


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
class PaperGrid:
    """The Fig. 12/15 grid, serially through ``ScenarioRunner``.

    Checks: every cell's digest; ``sim.discharge`` span count equals
    the cells plus the Oracle's tuning pre-runs (traced runs).
    """

    name = "paper_grid"

    def setup(self, seed: int):
        return inputs.paper_spec(inputs.paper_variants(seed))

    def properties(self, spec) -> Dict[str, Any]:
        return {"cells": len(spec), "policies": len(spec.policies),
                "traces": {t.name: len(t.segments)
                           for t in spec.traces.values()},
                "profiles": len(spec.profiles)}

    def _pass(self, spec, outcome: Outcome, digests: Digests) -> List:
        from repro.sim.sweep import ScenarioRunner

        started = time.perf_counter()
        result = ScenarioRunner(workers=1).run(spec)
        wall = time.perf_counter() - started
        outcome.jobs.append((wall, result.stats.steps_total))
        for cell, res in result:
            digests.check(inputs.sweep_cell_key(self.name, cell), res)
        return list(result)

    def measure(self, seed: int, seconds: float, committed) -> Outcome:
        spec = self.setup(seed)
        outcome = Outcome(properties=self.properties(spec))
        digests = Digests(outcome, committed)

        def job():
            cells = self._pass(spec, outcome, digests)
            if not outcome.report_cells:
                outcome.report_cells = cells

        timed_loop(seconds, job)
        outcome.wall_s = sum(lat for lat, _ in outcome.jobs)
        outcome.self_rss_kb = self_rss_kb()
        outcome.properties["steps_per_pass"] = outcome.jobs[0][1]
        return outcome

    def traced(self, seed: int, seconds: float, committed,
               spans_dir: Path) -> Outcome:
        spec = self.setup(seed)
        outcome = Outcome(properties=self.properties(spec))
        digests = Digests(outcome, committed)
        outcome.report_cells = self._pass(spec, outcome, digests)
        recorder = tracing.Recorder(f"{self.name}-{os.getpid()}")
        restore = tracing.install(recorder)
        try:
            self._pass(spec, outcome, digests)
        finally:
            restore()
        recorder.dump(str(spans_dir / f"{self.name}.jsonl.gz"))
        ledger = tracing.Ledger()
        ledger.add(recorder.spans, recorder.bytes)
        (untraced, _), (traced, _) = outcome.jobs
        oracle_cells = sum(1 for cell, _ in outcome.report_cells
                           if cell.policy_key == "Oracle")
        from repro.capman.baselines import OraclePolicy

        expected = len(spec) + oracle_cells * len(
            OraclePolicy().candidate_thresholds_w)
        if ledger.calls["sim.discharge"] != expected:
            digests.fail(f"sim.discharge spans {ledger.calls['sim.discharge']}"
                         f" != {expected} cycles run")
        outcome.layers = layer_metrics(ledger, traced, untraced)
        outcome.layers["bench.unattributed_share"] = ledger.unattributed(
            traced, MAIN)
        return outcome


# ----------------------------------------------------------------------
# fleet_mixed
# ----------------------------------------------------------------------
class FleetMixed:
    """One heterogeneous ``FleetSpec`` through ``FleetSimulator.run``.

    Checks: every row's digest (rows of one configuration must agree
    with each other and with ``digests.json``); a seeded sample of
    configurations, always including a depleting one, re-run through
    the scalar ``run_discharge_cycle`` must match byte for byte; in the
    traced run ``core.value_iteration`` calls equal the simulator's
    own ``table_compiles``.
    """

    name = "fleet_mixed"

    def setup(self, seed: int):
        from repro.fleet import FleetSpec

        rows = inputs.fleet_rows(seed)
        spec = FleetSpec(inputs.fleet_devices(rows))
        return rows, spec, spec.build()

    def properties(self, rows) -> Dict[str, Any]:
        return {
            "rows": len(rows),
            "distinct_configs": len(set(rows)),
            "capman_rows": sum(r.policy == "CAPMAN" for r in rows),
            "depleting_rows_share": round(sum(
                r.mah == inputs.FLEET_SMALL_MAH for r in rows) / len(rows), 4),
            "traces": sorted({f"{r.trace}#{r.variant}" for r in rows}),
        }

    @staticmethod
    def _run(sim, outcome: Outcome) -> List:
        started = time.perf_counter()
        results = sim.run()
        outcome.jobs.append((time.perf_counter() - started, sim.steps_total))
        return results

    @staticmethod
    def _check_rows(rows, results, digests: Digests) -> None:
        for row, result in zip(rows, results):
            digests.check(row.key, result)

    def _oracle(self, rows, seed: int, digests: Digests) -> None:
        rng = random.Random(f"fleet-oracle:{seed}")
        distinct = sorted(set(rows), key=lambda r: r.key)
        small = [r for r in distinct if r.mah == inputs.FLEET_SMALL_MAH]
        sample = [rng.choice(small)] + rng.sample(
            distinct, FLEET_ORACLE_SAMPLES - 1)
        for row in sample:
            want = digests.seen.get(row.key)
            got = frozen_digest(inputs.fleet_scalar(row))
            digests.outcome.attempted += 1
            if got != want:
                digests.fail(f"{row.key}: fleet row {want} != scalar {got}")

    def measure(self, seed: int, seconds: float, committed) -> Outcome:
        from repro.fleet import FleetSpec

        rows, spec, sim = self.setup(seed)
        outcome = Outcome(properties=self.properties(rows))
        digests = Digests(outcome, committed)
        sims = [sim]

        def job():
            sim = sims.pop() if sims else spec.build()
            self._check_rows(rows, self._run(sim, outcome), digests)
            outcome.properties.update(self._counters(sim))

        timed_loop(seconds, job)
        outcome.wall_s = sum(lat for lat, _ in outcome.jobs)
        outcome.self_rss_kb = self_rss_kb()
        self._oracle(rows, seed, digests)
        return outcome

    @staticmethod
    def _counters(sim) -> Dict[str, Any]:
        return {"steps_per_run": sim.steps_total,
                "fallback_step_share": round(
                    sim.fallback_steps / max(sim.steps_total, 1), 5),
                "table_compiles": sim.table_compiles,
                "trajectory_dedupe_hits": sim.trajectory_dedupe_hits}

    def traced(self, seed: int, seconds: float, committed,
               spans_dir: Path) -> Outcome:
        from repro.fleet import FleetSpec

        rows, spec, sim = self.setup(seed)
        outcome = Outcome(properties=self.properties(rows))
        digests = Digests(outcome, committed)
        self._check_rows(rows, self._run(sim, outcome), digests)
        recorder = tracing.Recorder(f"{self.name}-{os.getpid()}")
        spec = FleetSpec(inputs.fleet_devices(rows))
        restore = tracing.install(recorder)
        try:
            started = time.perf_counter()
            sim = spec.build()
            results = self._run(sim, outcome)
            window_wall = time.perf_counter() - started
        finally:
            restore()
        self._check_rows(rows, results, digests)
        recorder.dump(str(spans_dir / f"{self.name}.jsonl.gz"))
        ledger = tracing.Ledger()
        ledger.add(recorder.spans, recorder.bytes)
        outcome.properties.update(self._counters(sim))
        if ledger.calls["core.value_iteration"] != sim.table_compiles:
            digests.fail(
                f"core.value_iteration spans "
                f"{ledger.calls['core.value_iteration']} != "
                f"table_compiles {sim.table_compiles}")
        (untraced, _), (traced, _) = outcome.jobs
        layers = layer_metrics(ledger, traced, untraced)
        layers.update({
            "bench.unattributed_share": ledger.unattributed(window_wall, MAIN),
            "fleet.fallback_step_ratio":
                sim.fallback_steps / max(sim.steps_total, 1),
            "fleet.table_compiles": sim.table_compiles,
            "fleet.dedupe_ratio": sim.trajectory_dedupe_hits / max(
                outcome.properties["capman_rows"], 1),
        })
        outcome.layers = layers
        return outcome


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
class Client:
    """One HTTP/1.1 call per connection, like ``curl`` would make."""

    def __init__(self, port: int, recorder: Optional[tracing.Recorder]):
        self.port = port
        self.requests = 0
        self.non_2xx = 0
        call = self._call
        if recorder is not None:
            self.post = recorder.wrap("service.client.post", call)
            self.status = recorder.wrap("service.client.status", call)
            self.results = recorder.wrap("service.client.results", call)
        else:
            self.post = self.status = self.results = call

    def _call(self, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read())
        finally:
            conn.close()
        self.requests += 1
        if not 200 <= response.status < 300:
            self.non_2xx += 1
        return response.status, data


@dataclass
class ServedJob:
    index: int
    latency_s: float
    ack_s: float
    polls: int
    status: Dict[str, Any]
    blobs: List[bytes]
    created: bool


class ServiceMixed:
    """``python -m repro.service`` in its own process, two closed-loop
    clients replaying the seeded job list.

    Checks: every job reaches ``done`` with every cell accounted for
    (computed + cache hits == cells, no failures); every served cell's
    digest; no cell committed twice in its job's run journal
    (``journal_commit_counts``); sampled fresh jobs byte-identical to a
    direct ``ScenarioRunner`` run; in the traced run
    ``sweep.cache_get`` calls equal the jobs' cache hits plus misses.
    """

    name = "service_mixed"

    def setup(self, seed: int, root: Path, spans: Optional[Path] = None):
        jobs = inputs.service_jobs(seed)
        server = launch(["service", "--root", str(root), "--port", "0",
                         "--job-runners", str(JOB_RUNNERS),
                         "--cell-workers", "1"],
                        spans=spans, stdout=subprocess.PIPE)
        line = server.stdout.readline()
        if not line.startswith("listening on"):
            server.kill()
            reap(server)
            raise RuntimeError(f"service did not start: {line!r}")
        return jobs, server, int(line.rsplit(":", 1)[1])

    def properties(self, jobs, served: List[ServedJob]) -> Dict[str, Any]:
        done = [jobs[s.index] for s in served]
        n = max(len(done), 1)
        return {
            "jobs": len(done),
            "cells": sum(len(j.policies) for j in done),
            "resubmit_share": round(
                sum(j.kind == "resubmit" for j in done) / n, 4),
            "overlap_share": round(
                sum(j.kind == "overlap" for j in done) / n, 4),
            "fresh_share": round(sum(j.kind == "fresh" for j in done) / n, 4),
        }

    def _clients(self, jobs, port: int, count: Optional[int],
                 deadline: Optional[float],
                 recorder: Optional[tracing.Recorder],
                 server: Optional[subprocess.Popen] = None):
        """Replay ``jobs`` until ``deadline`` (or the first ``count``).

        With ``server``, also returns the server's peak RSS (KiB) once
        ``RSS_AFTER_JOBS`` jobs are done, else None: the server keeps
        every job's results, so its memory grows with the jobs served
        and a fixed job count keeps the figure independent of speed.
        """
        served: List[ServedJob] = []
        hwm_kb: List[int] = []
        lock = threading.Lock()
        cursor = iter(range(count if count is not None else len(jobs)))
        clients = [Client(port, recorder) for _ in range(CLIENTS)]
        errors: List[str] = []

        def loop(client: Client) -> None:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    served_job = self._one(client, jobs[index], index)
                except Exception as exc:  # a failed job, counted below
                    with lock:
                        errors.append(f"job {index}: "
                                      f"{type(exc).__name__}: {exc}")
                    continue
                with lock:
                    served.append(served_job)
                    if server is not None and len(served) == RSS_AFTER_JOBS:
                        hwm_kb.append(peak_rss_kb(server.pid))

        threads = [threading.Thread(target=loop, args=(c,), name=name)
                   for c, name in zip(clients, CLIENT_THREADS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        served.sort(key=lambda s: s.index)
        return served, wall, clients, errors, (hwm_kb or [None])[0]

    def _one(self, client: Client, job, index: int) -> ServedJob:
        started = time.perf_counter()
        code, ack = client.post("POST", "/jobs", job.body)
        ack_s = time.perf_counter() - started
        if code not in (200, 201):
            raise RuntimeError(f"submit answered {code}: {ack}")
        job_id = ack["job_id"]
        polls = 0
        deadline = started + JOB_DEADLINE_S
        while True:
            code, status = client.status("GET", f"/jobs/{job_id}")
            polls += 1
            if code != 200:
                raise RuntimeError(f"status answered {code}: {status}")
            if status["state"] in ("done", "failed"):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"job {job_id} still {status['state']} "
                                   f"after {JOB_DEADLINE_S:.0f}s")
            time.sleep(POLL_S)
        if status["state"] != "done":
            raise RuntimeError(f"job {job_id} {status['state']}: "
                               f"{status.get('error')}")
        code, results = client.results("GET", f"/jobs/{job_id}/results")
        if code != 200:
            raise RuntimeError(f"results answered {code}: {results}")
        blobs = [base64.b64decode(cell) for cell in results["cells"]]
        return ServedJob(index, time.perf_counter() - started, ack_s, polls,
                         status, blobs, bool(ack["created"]))

    def _check(self, jobs, served: List[ServedJob], root: Path,
               outcome: Outcome, digests: Digests, seed: int) -> None:
        from repro.sim.chaos import journal_commit_counts

        for s in served:
            job = jobs[s.index]
            stats = s.status.get("stats") or {}
            accounted = (stats.get("cells_computed", 0)
                         - stats.get("cells_failed", 0)
                         + stats.get("cache_hits", 0)
                         + stats.get("cells_resumed", 0))
            if stats.get("cells_failed", 0) or accounted != len(job.policies):
                digests.fail(f"job {s.index}: cells lost or failed: {stats}")
            if len(s.blobs) != len(job.policies):
                digests.fail(f"job {s.index}: {len(s.blobs)} results for "
                             f"{len(job.policies)} cells")
            steps = 0
            for key, blob in zip(job.cell_keys, s.blobs):
                result = pickle.loads(blob)
                steps += result.step_count
                digests.check(key, result)
            outcome.jobs.append((s.latency_s, steps))
            journal = root / "jobs" / s.status["job_id"] / "run.journal"
            if journal.exists():
                doubled = [i for i, n in journal_commit_counts(journal).items()
                           if n > 1]
                if doubled:
                    digests.fail(f"job {s.index}: cells {doubled} committed "
                                 f"more than once")
        fresh = [s for s in served if jobs[s.index].kind == "fresh"]
        rng = random.Random(f"service-direct:{seed}")
        for s in rng.sample(fresh, min(SERVICE_DIRECT_SAMPLES, len(fresh))):
            self._direct(jobs[s.index], s, digests)

    @staticmethod
    def _direct(job, served: ServedJob, digests: Digests) -> None:
        from repro.service import parse_spec
        from repro.sim.sweep import ScenarioRunner

        direct = ScenarioRunner(workers=1).run(parse_spec(job.body))
        digests.outcome.attempted += 1
        if [pickle.dumps(r, protocol=4) for r in direct.results] \
                != served.blobs:
            digests.fail(f"job {served.index}: served bytes differ from a "
                         f"direct ScenarioRunner run")

    def _stop(self, server: subprocess.Popen) -> int:
        rss = stop(server)
        server.stdout.close()
        return rss

    def _account(self, outcome: Outcome, clients, errors) -> None:
        outcome.attempted += sum(c.requests for c in clients)
        outcome.failed += sum(c.non_2xx for c in clients) + len(errors)
        outcome.errors.extend(errors)

    def measure(self, seed: int, seconds: float, committed,
                workdir: Path) -> Outcome:
        root = workdir / "service"
        jobs, server, port = self.setup(seed, root)
        outcome = Outcome()
        digests = Digests(outcome, committed)
        try:
            served, wall, clients, errors, hwm_kb = self._clients(
                jobs, port, None, time.perf_counter() + seconds, None, server)
            outcome.self_rss_kb = self_rss_kb()
        finally:
            at_exit_kb = self._stop(server)
        outcome.child_rss_kb.append(hwm_kb or at_exit_kb)
        outcome.wall_s = wall
        self._account(outcome, clients, errors)
        outcome.properties = self.properties(jobs, served)
        self._check(jobs, served, root, outcome, digests, seed)
        return outcome

    def traced(self, seed: int, seconds: float, committed, spans_dir: Path,
               workdir: Path) -> Outcome:
        outcome = Outcome()
        digests = Digests(outcome, committed)
        # Untraced reference phase: the job-list prefix one third of the
        # run completes...
        root_a = workdir / "service-untraced"
        jobs, server, port = self.setup(seed, root_a)
        try:
            served_a, wall_a, clients, errors, _ = self._clients(
                jobs, port, None, time.perf_counter() + seconds / 3, None)
        finally:
            self._stop(server)
        self._account(outcome, clients, errors)
        self._check(jobs, served_a, root_a, outcome, digests, seed)
        # ...then exactly that prefix again, server and clients traced.
        root_b = workdir / "service-traced"
        server_spans = spans_dir / f"{self.name}-server.jsonl.gz"
        jobs, server, port = self.setup(seed, root_b, spans=server_spans)
        recorder = tracing.Recorder(f"{self.name}-client-{os.getpid()}")
        try:
            served_b, wall_b, clients, errors, _ = self._clients(
                jobs, port, len(served_a), None, recorder)
            _, metrics = Client(port, None)._call("GET", "/metrics")
        finally:
            self._stop(server)
        self._account(outcome, clients, errors)
        outcome.jobs.clear()
        self._check(jobs, served_b, root_b, outcome, digests, seed)
        outcome.properties = self.properties(jobs, served_b)
        recorder.dump(str(spans_dir / f"{self.name}-client.jsonl.gz"))

        client_ledger = tracing.Ledger()
        client_ledger.add(recorder.spans, recorder.bytes)
        ledger = tracing.Ledger()
        ledger.add(*tracing.load_spans(str(server_spans)))
        created = [s.status.get("stats") or {} for s in served_b
                   if s.created]
        hits = sum(stats.get("cache_hits", 0) for stats in created)
        lookups = hits + sum(stats.get("cache_misses", 0)
                             for stats in created)
        if ledger.calls["sweep.cache_get"] != lookups:
            digests.fail(f"sweep.cache_get spans "
                         f"{ledger.calls['sweep.cache_get']} != cache "
                         f"hits + misses {lookups}")
        layers = layer_metrics(ledger, wall_b, wall_a)
        layers["bench.unattributed_share"] = client_ledger.unattributed(
            wall_b, CLIENT_THREADS)
        layers.update(service_layers(served_b, jobs, metrics, root_b))
        layers["sweep.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        outcome.layers = layers
        return outcome


def service_layers(served: List[ServedJob], jobs, metrics: Dict[str, Any],
                   root: Path) -> Dict[str, float]:
    """Client-side and ``/metrics`` figures of the traced service phase."""
    acks = [s.ack_s for s in served]
    hist = metrics.get("histograms", {})
    counters = metrics.get("counters", {})

    def mean(name: str) -> float:
        h = hist.get(name) or {}
        return h.get("sum", 0.0) / h["count"] if h.get("count") else 0.0

    # Only created jobs execute; a resubmission is answered by dedupe.
    cells = sum(len(jobs[s.index].policies) for s in served if s.created)
    out = {
        "service.post_ack.p50_s": tracing.percentile(acks, 50),
        "service.post_ack.p90_s": tracing.percentile(acks, 90),
        "service.queue_wait.mean_s": mean("job.queue_wait_s"),
        "service.job_exec.mean_s": mean("job.exec_s"),
        "service.dedupe_ratio": sum(not s.created for s in served)
        / max(len(served), 1),
        "service.cell_cache_hit_ratio": counters.get("jobs.cache_hits", 0.0)
        / max(cells, 1),
        "service.polls_per_job": sum(s.polls for s in served)
        / max(len(served), 1),
    }
    for route in SERVICE_ROUTES:
        out[f"service.http.{route}.latency_mean_s"] = mean(
            f"http.{route}.latency_s")
    out["durability.journal_bytes"] = float(sum(
        p.stat().st_size for p in root.rglob("*.journal")))
    return out


#: HTTP routes the clients exercise (``/metrics`` route keys).
SERVICE_ROUTES = ("jobs.submit", "jobs.status", "jobs.results")


# ----------------------------------------------------------------------
# dist_grid
# ----------------------------------------------------------------------
class DistGrid:
    """A grid of short cells through ``DistributedExecutor`` with two
    TCP workers and a run journal.

    Checks: every cell's digest; every cell committed exactly once in
    the journal (``journal_commit_counts``); in the traced run
    ``durability.journal_append`` calls equal the journal's records.
    """

    name = "dist_grid"

    def setup(self, seed: int):
        from repro.sim.distributed import DistributedExecutor  # noqa: F401

        return inputs.dist_spec(inputs.dist_variants(seed))

    def properties(self, spec) -> Dict[str, Any]:
        return {"cells": len(spec), "policies": len(spec.policies),
                "traces": sorted(t.name for t in spec.traces.values()),
                "workers": DIST_WORKERS}

    def _sweep(self, spec, journal: Path, outcome: Outcome,
               digests: Digests, spans: Optional[List[Path]] = None):
        from repro.sim.chaos import journal_commit_counts
        from repro.sim.distributed import DistributedExecutor
        from repro.sim.sweep import ScenarioRunner

        port = free_port()
        executor = DistributedExecutor(port=port, workers_grace_s=10.0)
        runner = ScenarioRunner(executor=executor, journal=journal)
        started = time.perf_counter()
        workers = [launch(["dist-worker", "--connect", f"127.0.0.1:{port}",
                           "--reconnect-timeout", "10"],
                          spans=spans[i] if spans else None)
                   for i in range(DIST_WORKERS)]
        try:
            result = runner.run(spec)
            wall = time.perf_counter() - started
        finally:
            # Every cell is committed; a worker still polling a stopped
            # coordinator would otherwise ride out a long retry window.
            rss = sum(stop(w) for w in workers)
        outcome.child_rss_kb.append(rss)
        outcome.jobs.append((wall, result.stats.steps_total))
        for cell, res in result:
            digests.check(inputs.sweep_cell_key(self.name, cell), res)
        counts = journal_commit_counts(journal)
        if sorted(counts) != list(range(len(spec))) \
                or any(n != 1 for n in counts.values()):
            digests.fail(f"{journal.name}: commits not exactly once: "
                         f"{sorted(counts.items())[:8]}...")
        outcome.properties["local_fallback_cells"] = \
            executor.stats.local_fallback_cells
        return executor

    def measure(self, seed: int, seconds: float, committed,
                workdir: Path) -> Outcome:
        spec = self.setup(seed)
        outcome = Outcome(properties=self.properties(spec))
        digests = Digests(outcome, committed)
        sweeps = iter(range(1 << 30))
        timed_loop(seconds, lambda: self._sweep(
            spec, workdir / f"dist-{next(sweeps)}.journal", outcome, digests))
        outcome.wall_s = sum(lat for lat, _ in outcome.jobs)
        outcome.self_rss_kb = self_rss_kb()
        outcome.properties["steps_per_sweep"] = outcome.jobs[0][1]
        return outcome

    def traced(self, seed: int, seconds: float, committed, spans_dir: Path,
               workdir: Path) -> Outcome:
        spec = self.setup(seed)
        outcome = Outcome(properties=self.properties(spec))
        digests = Digests(outcome, committed)
        self._sweep(spec, workdir / "untraced.journal", outcome, digests)
        recorder = tracing.Recorder(f"{self.name}-{os.getpid()}")
        worker_spans = [spans_dir / f"{self.name}-worker{i}.jsonl.gz"
                        for i in range(DIST_WORKERS)]
        for path in worker_spans:
            path.unlink(missing_ok=True)
        journal = workdir / "traced.journal"
        restore = tracing.install(recorder)
        try:
            executor = self._sweep(spec, journal, outcome, digests,
                                   spans=worker_spans)
        finally:
            restore()
        recorder.dump(str(spans_dir / f"{self.name}.jsonl.gz"))
        parent = tracing.Ledger()
        parent.add(recorder.spans, recorder.bytes)
        records = sum(1 for _ in journal.open())
        if parent.calls["durability.journal_append"] != records:
            digests.fail(f"durability.journal_append spans "
                         f"{parent.calls['durability.journal_append']} != "
                         f"{records} journal records")
        ledger = tracing.Ledger()
        ledger.add(recorder.spans, recorder.bytes)
        for path in worker_spans:
            # A worker stopped before it finished starting up did no
            # work and wrote no spans.
            if path.exists():
                ledger.add(*tracing.load_spans(str(path)))
        (untraced, _), (traced, _) = outcome.jobs
        layers = layer_metrics(ledger, traced, untraced)
        layers["bench.unattributed_share"] = parent.unattributed(traced, MAIN)
        stats = executor.stats
        layers.update({
            "dist.leases_granted": stats.leases_granted,
            "dist.remote_cells": stats.remote_cells,
            "dist.local_fallback_cells": stats.local_fallback_cells,
            "dist.duplicate_results": stats.duplicate_results,
            "durability.journal_bytes": float(journal.stat().st_size),
        })
        outcome.layers = layers
        return outcome


WORKLOADS = {w.name: w for w in (PaperGrid(), FleetMixed(), ServiceMixed(),
                                 DistGrid())}


# ----------------------------------------------------------------------
# Per-layer metrics from a ledger
# ----------------------------------------------------------------------
def layer_metrics(ledger: tracing.Ledger, traced_s: float,
                  untraced_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics every workload reports; the
    workload-specific ones read 0 until the workload sets them."""
    calls, self_s = ledger.calls, ledger.self_s
    decide_us = [d * 1e6 for d in ledger.durations["core.scheduler_decide"]]
    gets = calls["sweep.cache_get"]
    out = {
        "battery.pack_draw.calls": calls["battery.pack_draw"],
        "battery.pack_draw.self_s": self_s["battery.pack_draw"],
        "thermal.rc_step.self_s": self_s["thermal.rc_step"],
        "device.phone_step.self_s": self_s["device.phone_step"],
        "sim.discharge.self_s": self_s["sim.discharge"],
        "capman.decide.self_s": self_s["capman.decide"],
        "capman.build_mdp.calls": calls["capman.build_mdp"],
        "capman.build_mdp.self_s": self_s["capman.build_mdp"],
        "core.value_iteration.calls": calls["core.value_iteration"],
        "core.value_iteration.self_s": self_s["core.value_iteration"],
        "core.similarity_solve.calls": calls["core.similarity_solve"],
        "core.similarity_solve.self_s": self_s["core.similarity_solve"],
        "core.scheduler_decide.p50_us": tracing.percentile(decide_us, 50),
        "core.scheduler_decide.p90_us": tracing.percentile(decide_us, 90),
        "fleet.build_s": ledger.total_s["fleet.build"],
        "fleet.run.self_s": self_s["fleet.run"],
        "fleet.fallback.self_s": ledger.fallback_s,
        "fleet.fallback_step_ratio": 0.0,
        "fleet.table_compiles": 0,
        "fleet.dedupe_ratio": 0.0,
        "sweep.run.self_s": self_s["sweep.run"],
        "sweep.cache_get.calls": gets,
        "sweep.cache_get.self_s": self_s["sweep.cache_get"],
        "sweep.cache_put.calls": calls["sweep.cache_put"],
        "sweep.cache_put.self_s": self_s["sweep.cache_put"],
        "sweep.cache_hit_ratio": 0.0,
        "durability.journal_append.calls": calls["durability.journal_append"],
        "durability.journal_append.self_s":
            self_s["durability.journal_append"],
        "durability.journal_bytes": 0.0,
        "dist.send_msg.calls": calls["dist.send_msg"],
        "dist.send_msg.bytes": ledger.bytes["dist.send_msg"],
        "dist.rpc.calls": calls["dist.rpc"],
        "dist.rpc.self_s": self_s["dist.rpc"],
        "dist.leases_granted": 0,
        "dist.remote_cells": 0,
        "dist.local_fallback_cells": 0,
        "dist.duplicate_results": 0,
        "service.post_ack.p50_s": 0.0,
        "service.post_ack.p90_s": 0.0,
        "service.queue_wait.mean_s": 0.0,
        "service.job_exec.mean_s": 0.0,
        "service.dedupe_ratio": 0.0,
        "service.cell_cache_hit_ratio": 0.0,
        "service.polls_per_job": 0.0,
        "service.result_blobs.self_s": self_s["service.result_blobs"],
        "bench.unattributed_share": 0.0,
        "bench.trace_overhead_ratio": traced_s / untraced_s - 1.0,
    }
    for route in SERVICE_ROUTES:
        out[f"service.http.{route}.latency_mean_s"] = 0.0
    return out


def probe_setup(workload: str, seed: int, workdir: Path) -> None:
    """Set up once, as the measured run does, and report readiness."""
    bench = WORKLOADS[workload]
    if workload == "service_mixed":
        _, server, _ = bench.setup(seed, workdir)
        print("ready", flush=True)
        bench._stop(server)
        return
    bench.setup(seed)
    print("ready", flush=True)


def setup_seconds(workload: str, seed: int, workdir: Path) -> List[float]:
    """Process start to ready, for ``SETUP_PROBES`` fresh processes."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{i}"
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", workload,
             "--seed", str(seed), "--workdir", str(probe_dir)],
            env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - started)
        proc.stdout.close()
        reap(proc, timeout_s=60.0)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"({line!r}, exit {proc.returncode})")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples
