"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402

# A few seconds of work that still passes through every layer: two SAN cells,
# all three SAN methods, zero-noise and noisy kriging, the numeric oracle
# (cold in the first cell, cached in the second).
SMOKE = bench.Workload("smoke", {"scenarios": ["san"], "san_budgets": [300, 1000],
                                 "alphas": [0.99], "macro_replications": 2},
                       threads=1)


def _originals():
    out = {}
    for module, path, _ in tracer.ENTRY_POINTS:
        owner, attr = tracer._resolve(module, path)
        out[(module, path)] = owner.__dict__[attr]
    for module, attr in tracer.SOLVERS:
        out[(module, attr)] = importlib.import_module(module).__dict__[attr]
    return out


def _declared(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One untraced CLI run and two traced in-process runs of the smoke config."""
    work = tmp_path_factory.mktemp("smoke")
    config = work / "config.json"
    config.write_text(json.dumps(dict(SMOKE.config, version=1, seed=3)))
    untraced = bench.run_child(
        [sys.executable, "-m", "evtkrig.cli", "run", "--config", str(config),
         "--out-dir", str(work / "plain"), "--threads", "1"],
        work / "plain.log", deadline=time.monotonic() + 120)
    traced = []
    for i in range(2):
        tr, wall, code = tracer.traced_run(str(config), str(work / f"traced{i}"))
        assert code == 0
        traced.append((tr, wall))
    return work, untraced, traced


def test_wrappers_restore_originals():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            assert _originals() != before
            with tr.span("outer"):
                raise RuntimeError("boom")
    assert _originals() == before
    with tracer.Tracer():
        pass
    assert _originals() == before


def test_traced_output_equals_untraced(smoke_runs):
    work, untraced, _ = smoke_runs
    assert untraced.code == 0
    plain = (work / "plain" / "results.csv").read_bytes()
    for i in range(2):
        assert (work / f"traced{i}" / "results.csv").read_bytes() == plain
    raw, mapes, empty = bench.check_results(SMOKE, work / "plain" / "results.csv")
    assert empty == 0 and sorted(mapes) == ["EMP-EMP", "ORD-KRG", "POT-EVT"]


def test_counts_repeat_and_spans_cover_the_run(smoke_runs):
    _, _, traced = smoke_runs
    metrics = [tracer.layer_metrics(tr.spans, wall) for tr, wall in traced]
    for key in bench.EXACT_COUNTS:
        assert metrics[0][key] == metrics[1][key], key
    assert metrics[0]["kriging.fit.lik_evals"] > 0
    assert metrics[0]["evt_risk.fit_gpd.optimizer_evals"] > 0
    assert metrics[0]["models.oracle.cache_hit_frac"] > 0
    for m in metrics:
        assert abs(m["trace.coverage"] - 1.0) < 0.05
    # Every span but the root sits inside its parent.
    spans = traced[0][0].spans
    assert spans[0].name == "cli.main" and spans[0].parent is None
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        assert s.cell is not None or s.name.startswith("harness.write")


def test_metric_names_match_benchmark_json(smoke_runs):
    work, untraced, traced = smoke_runs
    e2e = bench.end_to_end_metrics(SMOKE, [1.0], [untraced])
    assert set(e2e) == _declared("end_to_end")
    _, mapes, _ = bench.check_results(SMOKE, work / "plain" / "results.csv")
    summaries = [tracer.layer_metrics(tr.spans, wall) for tr, wall in traced]
    layers = bench.per_layer_metrics(SMOKE, summaries, untraced,
                                     [wall for _, wall in traced], mapes)
    assert set(layers) == _declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def test_record_count_check(tmp_path, smoke_runs):
    work, _, _ = smoke_runs
    lines = (work / "plain" / "results.csv").read_text().splitlines(keepends=True)
    assert len(lines) - 1 == SMOKE.expected_records() == 2 * 3 * 2
    (tmp_path / "results.csv").write_text("".join(lines[:-1]))
    with pytest.raises(bench.CheckFailed, match="records"):
        bench.check_results(SMOKE, tmp_path / "results.csv")


def test_expected_records_per_workload():
    counts = {name: w.expected_records() for name, w in bench.WORKLOADS.items()}
    assert counts == {"tail-fit": 2 * 2 * 3 * 1, "surface-fit": 1 * 2 * 3 * 2,
                      "san-grid": 3 * 3 * 3 * 2}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "san-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
