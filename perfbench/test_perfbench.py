"""Tiny-size self-tests of the benchmark (``python3 -m pytest perfbench``).

Inputs are shrunk by patching the size constants of ``inputs.py``, so
no committed digest exists for them: these tests check that every
named metric is emitted, that every check passes, and that the traced
job's digests agree with the untraced job's, not the digest file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "PAPER_CELL_MAH": 10.0,
    "FLEET_ROWS": 48, "FLEET_WINDOW_S": 300.0, "FLEET_SMALL_ROWS": 12,
    "FLEET_SMALL_MAH": 10.0,
    "SERVICE_JOBS": 30, "SERVICE_MAH": (10.0,),
    "DIST_POLICIES": ("Dual",), "DIST_MAH": (10.0,),
    "DIST_TRACES": ("Video",),
}
E2E = sorted(m[0] for m in catalogue.END_TO_END)
LAYERS = sorted(m[0] for m in catalogue.PER_LAYER)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(inputs, name, value)
    return tmp_path


def _extra(name, tmp_path):
    return ({"workdir": tmp_path}
            if name in ("service_mixed", "dist_grid") else {})


@pytest.mark.parametrize("name", list(catalogue.WORKLOADS))
def test_untraced_emits_every_end_to_end_metric(name, tiny):
    bench = workloads.WORKLOADS[name]
    outcome = bench.measure(1, 0.5, None, **_extra(name, tiny))
    assert outcome.errors == [] and outcome.failed == 0
    assert outcome.attempted > 0 and outcome.jobs
    metrics = run.end_to_end(name, outcome, [0.5])
    assert sorted(metrics) == E2E
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", list(catalogue.WORKLOADS))
def test_traced_emits_every_layer_metric_and_digests_agree(name, tiny):
    bench = workloads.WORKLOADS[name]
    outcome = bench.traced(1, 0.5, None, spans_dir=tiny / "spans",
                           **_extra(name, tiny))
    # Digests.check compares every traced cell with its untraced twin;
    # a divergence (or a wrapper-vs-program count mismatch) is an error.
    assert outcome.errors == [] and outcome.failed == 0
    assert sorted(outcome.layers) == LAYERS
    assert 0.0 <= outcome.layers["bench.unattributed_share"] < 1.0


def test_setup_probe_reports_ready(tiny):
    samples = workloads.setup_seconds("paper_grid", 1, tiny)
    assert len(samples) == workloads.SETUP_PROBES
    assert all(s > 0 for s in samples)


def test_manifest_matches_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalogue.manifest()


def test_readme_documents_every_name():
    readme = (HERE / "README.md").read_text()
    for name in list(catalogue.WORKLOADS) + E2E + LAYERS:
        assert f"`{name}`" in readme or name in readme, name


def test_self_time_subtracts_children():
    recorder = tracing.Recorder("t")
    inner = recorder.wrap("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()
        return sum(range(20000))

    outer = recorder.wrap("outer", body)
    outer()
    ledger = tracing.Ledger()
    ledger.add(recorder.spans, recorder.bytes)
    assert ledger.calls == {"inner": 2, "outer": 1}
    total = ledger.total_s["outer"]
    assert ledger.self_s["outer"] == pytest.approx(
        total - ledger.total_s["inner"])
    assert ledger.unattributed(total, ["MainThread"]) == pytest.approx(0.0)
    (run_id,) = {span[5] for span in recorder.spans}
    assert run_id == "t:MainThread:1"


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
