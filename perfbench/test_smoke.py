"""Smoke test of the benchmark itself, at tiny sizes of each workload.

    python -m pytest perfbench/test_smoke.py

Checks that a run emits exactly the metrics BENCHMARK.json names, with
their units, that its output checks pass, and that the command fails
cleanly where there are no sources to benchmark.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result = harness.run_workload(WORKLOADS[name].tiny(), seed=3,
                                  seconds=0.01, trace=trace)
    assert result.correct, result.check_failures
    assert result.failed == 0, result.errors
    assert result.attempted > 0
    metrics = (harness.per_layer(result) if trace
               else harness.end_to_end(result))
    kind = "per_layer" if trace else "end_to_end"
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(kind)
    assert all(math.isfinite(v) for v, _ in metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())
    assert harness.quality(result)["failed_frac"][0] == 0.0


def test_error_is_counted_with_its_innermost_span(monkeypatch):
    import otsheaf.spectral

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(otsheaf.spectral, "project", broken)
    result = harness.run_workload(WORKLOADS["ascent_n40"].tiny(), seed=3,
                                  seconds=0.01, trace=True)
    assert result.failed == len(result.errors) == 2
    assert {(e["traced"], e["stage"], e["span"], e["type"])
            for e in result.errors} == {
        (False, "epoch", "training.train_epoch", "FloatingPointError"),
        (True, "epoch", "spectral.project", "FloatingPointError")}
    assert harness.quality(result)["failed_frac"][0] == 1.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ascent_n40",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
