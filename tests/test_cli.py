"""End-to-end tests of the command-line interface."""

import contextlib
import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from evtkrig import cli, kriging as kg


@pytest.fixture(scope="module")
def exp_losses_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "losses.csv"
    rng = np.random.default_rng(0)
    vals = rng.exponential(size=100_000)
    path.write_text("loss\n" + "\n".join(format(v, ".17g") for v in vals) + "\n")
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


class TestFitGpd:
    def test_exponential_report(self, exp_losses_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run_cli("fit-gpd", "--input", exp_losses_csv, "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        assert abs(report["xi"]) < 0.05
        assert report["n_exceed"] == 10_000
        assert len(report["info"]) == 2
        assert report["loglik"] < 0

    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert run_cli("fit-gpd", "--input", p) == 1

    def test_constant_column(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("loss\n" + "\n".join(["7.5"] * 500) + "\n")
        assert run_cli("fit-gpd", "--input", p) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("fit-gpd", "--input", tmp_path / "nope.csv") == 1

    def test_bad_threshold_quantile_is_named(self, exp_losses_csv, capsys):
        assert run_cli("fit-gpd", "--input", exp_losses_csv, "--threshold-quantile", "1.0") == 1
        assert "error: threshold_quantile must lie in (0, 1), got 1.0" in capsys.readouterr().err
        assert run_cli("estimate", "--input", exp_losses_csv, "--alpha", "0.95",
                       "--method", "pot", "--threshold-quantile", "0") == 1
        assert "error: threshold_quantile must lie in (0, 1), got 0.0" in capsys.readouterr().err


class TestEstimate:
    def test_empirical_enumeration(self, tmp_path, capsys):
        p = tmp_path / "ten.csv"
        p.write_text("loss\n" + "\n".join(str(float(i)) for i in range(1, 11)) + "\n")
        rc = run_cli("estimate", "--input", p, "--alpha", "0.8")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(9.0)
        assert payload["method"] == "empirical"

    def test_pot_exponential(self, exp_losses_csv, capsys):
        rc = run_cli("estimate", "--input", exp_losses_csv, "--alpha", "0.95",
                     "--method", "pot")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(math.log(20) + 1, rel=2e-2)
        assert payload["variance"] > 0
        assert "gpd" in payload

    def test_spectral_method_rejected(self, exp_losses_csv, capsys):
        assert run_cli("estimate", "--input", exp_losses_csv, "--alpha", "0.95",
                       "--method", "spectral") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --method: invalid choice: 'spectral'" in err

    def test_alpha_out_of_range(self, exp_losses_csv, capsys):
        assert run_cli("estimate", "--input", exp_losses_csv, "--alpha", "1.5") == 1

    def test_threshold_quantile_out_of_range(self, exp_losses_csv, capsys):
        # The empirical route never reads the flag, but it is checked all the same.
        assert run_cli("estimate", "--input", exp_losses_csv, "--alpha", "0.95",
                       "--method", "empirical", "--threshold-quantile", "7") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "threshold_quantile must lie in (0, 1), got 7.0" in err

    def test_only_first_column_is_read(self, tmp_path, capsys):
        p = tmp_path / "labelled.csv"
        p.write_text("loss,label\n" + "\n".join(f"{i}.0,run{i}" for i in range(1, 11)) + "\n")
        assert run_cli("estimate", "--input", p, "--alpha", "0.8") == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(9.0)

    def test_blank_first_cell_is_not_dropped(self, tmp_path, capsys):
        # Only the first column is read, but the row is not blank: the empty
        # loss is an error, as it is when every column is read.
        p = tmp_path / "gap.csv"
        p.write_text("loss\n1.0\n,5\n3.0\n")
        assert run_cli("estimate", "--input", p, "--alpha", "0.5",
                       "--method", "empirical") == 1
        assert "empty cell on line 3" in capsys.readouterr().err

    def test_blank_rows_are_skipped(self, tmp_path, capsys):
        p = tmp_path / "spaced.csv"
        p.write_text("loss\n1.0\n\n , \n3.0\n")
        assert run_cli("estimate", "--input", p, "--alpha", "0.5",
                       "--method", "empirical") == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_header_after_blank_rows(self, tmp_path, capsys):
        # The header is the first row that is not blank, wherever it sits.
        p = tmp_path / "late-header.csv"
        p.write_text("\nloss\n1\n2\n3\n")
        assert run_cli("estimate", "--input", p, "--alpha", "0.5",
                       "--method", "empirical") == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3


class TestDesign:
    def test_lhs_quartiles(self, capsys):
        rc = run_cli("design", "--kind", "lhs", "--lower", "0", "--upper", "1",
                     "--count", "4", "--seed", "3")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1"
        vals = sorted(float(v) for v in lines[1:])
        assert [int(v * 4) for v in vals] == [0, 1, 2, 3]

    def test_grid(self, capsys):
        rc = run_cli("design", "--kind", "grid", "--lower", "0.3", "--upper", "2",
                     "--count", "7")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(v) for v in lines[1:]]
        assert vals[0] == 0.3 and vals[-1] == 2.0
        assert np.allclose(np.diff(vals), 1.7 / 6)

    def test_seed_zero_is_its_own_seed(self, capsys):
        outputs = {}
        for seed in (None, 0, 42):
            extra = () if seed is None else ("--seed", seed)
            assert run_cli("design", "--lower", "0,0", "--upper", "1,1",
                           "--count", "5", *extra) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs[0] != outputs[42]
        assert outputs[None] == outputs[42]

    def test_bad_bounds(self, capsys):
        assert run_cli("design", "--lower", "0,0", "--upper", "1", "--count", "3") == 1

    @pytest.mark.parametrize("kind", ["grid", "lhs"])
    @pytest.mark.parametrize("lower, upper", [
        ("0", "inf"), ("-inf", "0"), ("nan", "1"), ("0,0", "1,inf"), ("-1e308", "1e308"),
    ])
    def test_non_finite_domain_rejected(self, kind, lower, upper, capsys):
        rc = run_cli("design", "--kind", kind, f"--lower={lower}", f"--upper={upper}",
                     "--count", "3")
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert "finite" in err


class TestPredict:
    @pytest.fixture()
    def model_file(self, tmp_path):
        sites = [kg.DesignSite((0.0,), 1.0), kg.DesignSite((1.0,), 3.0),
                 kg.DesignSite((2.0,), 2.0)]
        model = kg.assemble(sites, tau2=2.0, theta=[1.0])
        p = tmp_path / "model.json"
        p.write_text(model.to_json())
        return p, model

    def test_sites_reproduced(self, model_file, tmp_path, capsys):
        p, model = model_file
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.0\n1.0\n2.0\n")
        rc = run_cli("predict", "--model", p, "--points", pts)
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1,mean,extrinsic_sd"
        means = [float(line.split(",")[1]) for line in lines[1:]]
        assert means == pytest.approx([1.0, 3.0, 2.0], abs=1e-9)

    def test_far_point_regresses_to_trend(self, model_file, tmp_path, capsys):
        p, model = model_file
        pts = tmp_path / "far.csv"
        pts.write_text("x1\n50.0\n")
        rc = run_cli("predict", "--model", p, "--points", pts)
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[1]) == pytest.approx(model.beta0, abs=1e-12)

    def test_two_site_closed_form(self, tmp_path, capsys):
        tau2, theta = 2.0, 1.0
        sites = [kg.DesignSite((0.0,), 1.0, 0.3), kg.DesignSite((1.0,), 3.0, 0.7)]
        model = kg.assemble(sites, tau2=tau2, theta=[theta])
        mp = tmp_path / "m.json"
        mp.write_text(model.to_json())
        pts = tmp_path / "p.csv"
        pts.write_text("x1\n0.3\n")
        rc = run_cli("predict", "--model", mp, "--points", pts)
        assert rc == 0
        got = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        r = math.exp(-theta)
        sigma = tau2 * np.array([[1, r], [r, 1]]) + np.diag([0.3, 0.7])
        inv = np.linalg.inv(sigma)
        ones, y = np.ones(2), np.array([1.0, 3.0])
        beta0 = (ones @ inv @ y) / (ones @ inv @ ones)
        v = tau2 * np.array([math.exp(-theta * 0.09), math.exp(-theta * 0.49)])
        assert got == pytest.approx(beta0 + v @ inv @ (y - beta0), abs=1e-12)

    def test_dimension_mismatch(self, model_file, tmp_path, capsys):
        p, _ = model_file
        pts = tmp_path / "bad.csv"
        pts.write_text("x1,x2\n0.0,1.0\n")
        assert run_cli("predict", "--model", p, "--points", pts) == 1

    @pytest.mark.parametrize("change", [
        [],
        {"sites": None},
        {"sites": [1]},
        {"sites": [{"location": "ab", "response": 1.0}]},
        {"sites": [{"location": [0.0], "response": None}]},
        {"tau2": "x"},
        {"tau2": None},
        {"theta": 1.0},
        {"theta": ["x"]},
        {"beta0": None},
        {"beta0": float("nan")},
        {"nugget": "0"},
        {"nugget": -1e-3},
        {"format_version": True},
        {"format_version": 1.0},
    ])
    def test_malformed_model_is_a_validation_error(self, model_file, tmp_path, capsys,
                                                    change):
        p, _ = model_file
        payload = change if isinstance(change, list) else {
            **json.loads(p.read_text()), **change}
        p.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.5\n")
        assert run_cli("predict", "--model", p, "--points", pts) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {p}: ")
        assert "Traceback" not in err

    def test_empty_cell_is_not_dropped(self, tmp_path, capsys):
        # A 3-column row with one empty cell must not be read as a 2-D point.
        sites = [kg.DesignSite((0.0, 0.0), 1.0), kg.DesignSite((1.0, 1.0), 3.0)]
        mp = tmp_path / "m.json"
        mp.write_text(kg.assemble(sites, tau2=1.0, theta=[1.0, 1.0]).to_json())
        pts = tmp_path / "p.csv"
        pts.write_text("x1,x2,x3\n0.1,,0.3\n")
        assert run_cli("predict", "--model", mp, "--points", pts) == 1
        assert "empty cell on line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected(self, model_file, tmp_path, capsys, cell):
        p, _ = model_file
        pts = tmp_path / "pts.csv"
        pts.write_text(f"x1\n0.5\n{cell}\n")
        assert run_cli("predict", "--model", p, "--points", pts) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{pts}: non-finite value on line 3" in err


SAN_CONFIG = {"version": 1, "scenarios": ["san"], "san_budgets": [1000],
              "alphas": [0.99], "macro_replications": 1, "seed": 5,
              "methods": ["POT-EVT", "EMP-EMP"]}
BENCHMARK_CONFIG = {"version": 1, "scenarios": ["pareto"], "allocations": [1],
                    "alphas": [0.99], "macro_replications": 1, "seed": 5}
DROP = object()

# One row per schema rule: (base config, changes, the key the error must name).
BAD_CONFIGS = [
    (SAN_CONFIG, {"typo_key": 1}, "typo_key"),
    (SAN_CONFIG, {"version": 2}, "version"),
    (SAN_CONFIG, {"version": True}, "version"),
    (SAN_CONFIG, {"scenarios": "san"}, "scenarios"),
    (SAN_CONFIG, {"scenarios": []}, "scenarios"),
    (SAN_CONFIG, {"scenarios": ["san", "san"]}, "scenarios"),
    (BENCHMARK_CONFIG, {"scenarios": ["mars"]}, "scenarios"),
    (BENCHMARK_CONFIG, {"allocations": DROP}, "allocations"),
    (BENCHMARK_CONFIG, {"allocations": []}, "allocations"),
    (SAN_CONFIG, {"allocations": [1]}, "allocations"),
    (BENCHMARK_CONFIG, {"allocations": [16]}, "allocations"),
    (BENCHMARK_CONFIG, {"allocations": [True]}, "allocations"),
    (BENCHMARK_CONFIG, {"allocations": [2.0]}, "allocations"),
    (BENCHMARK_CONFIG, {"allocations": [1, 1]}, "allocations"),
    (SAN_CONFIG, {"san_budgets": DROP}, "san_budgets"),
    (SAN_CONFIG, {"san_budgets": 1000}, "san_budgets"),
    (BENCHMARK_CONFIG, {"san_budgets": [1000]}, "san_budgets"),
    (SAN_CONFIG, {"san_budgets": [99]}, "san_budgets"),
    (SAN_CONFIG, {"san_budgets": [1000, 1000]}, "san_budgets"),
    (SAN_CONFIG, {"alphas": [1.5]}, "alphas"),
    (SAN_CONFIG, {"alphas": []}, "alphas"),
    (SAN_CONFIG, {"alphas": 0.99}, "alphas"),
    (SAN_CONFIG, {"alphas": [0.99, 0.99]}, "alphas"),
    (SAN_CONFIG, {"macro_replications": 0}, "macro_replications"),
    (SAN_CONFIG, {"macro_replications": True}, "macro_replications"),
    (SAN_CONFIG, {"seed": -1}, "seed"),
    (SAN_CONFIG, {"seed": False}, "seed"),
    (SAN_CONFIG, {"seed": "7"}, "seed"),
    (SAN_CONFIG, {"methods": ["KRIG-POT"]}, "methods"),
    (SAN_CONFIG, {"methods": []}, "methods"),
    (SAN_CONFIG, {"methods": ["EMP-EMP", "EMP-EMP"]}, "methods"),
    (BENCHMARK_CONFIG, {"test_points": 1}, "test_points"),
    (SAN_CONFIG, {"test_points": 8}, "test_points"),
    (SAN_CONFIG, {"threshold_quantile": 1.0}, "threshold_quantile"),
    (SAN_CONFIG, {"alphas": [0.95], "threshold_quantile": 0.99}, "alphas"),
    # POT-EMP is dropped at n = 1 (allocation 3), which would leave no method.
    (BENCHMARK_CONFIG, {"allocations": [3], "methods": ["POT-EMP"]}, "methods"),
]


class TestRun:
    @staticmethod
    def write_config(path, base=SAN_CONFIG, **overrides):
        cfg = dict(base, **overrides)
        path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not DROP}))
        return path

    @pytest.mark.parametrize("base, changes, key", BAD_CONFIGS, ids=[
        " ".join(f"{k}={'absent' if v is DROP else json.dumps(v)}" for k, v in ch.items())
        for _, ch, _ in BAD_CONFIGS])
    def test_bad_config_names_key(self, base, changes, key, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json", base, **changes)
        out = tmp_path / "x"
        assert run_cli("run", "--config", cfg, "--out-dir", out) == 1
        assert f"  - {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_written(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json")
        out = tmp_path / "results"
        rc = run_cli("run", "--config", cfg, "--out-dir", out)
        assert rc == 0
        for name in ("results.csv", "summary.csv", "boxplot.csv"):
            assert (out / name).exists()
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 methods x 1 alpha x 1 macro-rep
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "scenario,allocation,method,median_mape_0.99"

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out-dir", a) == 0
        assert run_cli("run", "--config", cfg, "--out-dir", b) == 0
        for name in ("results.csv", "summary.csv", "boxplot.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_environment_is_not_read(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_config(tmp_path / "cfg.json")
        clean, a, elsewhere = tmp_path / "clean", tmp_path / "a", tmp_path / "elsewhere"
        assert run_cli("run", "--config", cfg, "--out-dir", clean) == 0
        monkeypatch.setenv("EVTKRIG_SEED", "banana")
        monkeypatch.setenv("EVTKRIG_THREADS", "0")
        monkeypatch.setenv("EVTKRIG_OUT_DIR", str(elsewhere))
        assert run_cli("run", "--config", cfg, "--out-dir", a) == 0
        for name in ("results.csv", "summary.csv", "boxplot.csv"):
            assert (a / name).read_bytes() == (clean / name).read_bytes()
        assert not elsewhere.exists()
        # The seed is the config's alone; run has no --seed.
        assert run_cli("run", "--config", cfg, "--out-dir", a, "--seed", "99") == 1

    def test_unknown_allocation_id(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json", scenarios=["pareto"],
                                san_budgets=DROP, allocations=[16])
        rc = run_cli("run", "--config", cfg, "--out-dir", tmp_path / "x")
        assert rc == 1

    def test_schema_violations_listed_exhaustively(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 3, "scenarios": ["mars"],
                                 "macro_replications": 0, "typo_key": 1}))
        rc = run_cli("run", "--config", p, "--out-dir", tmp_path / "x")
        assert rc == 1
        err = capsys.readouterr().err
        for needle in ("typo_key", "version", "scenarios", "macro_replications"):
            assert needle in err

    def test_violations_deduplicated_across_cells(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json", san_budgets=[1000, 10000, 50],
                                seed=-1)
        assert run_cli("run", "--config", cfg, "--out-dir", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.count("  - seed: ") == 1
        assert err.count("  - san_budgets: ") == 1

    @pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
    def test_threads_below_one_rejected(self, flag, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json")
        out = tmp_path / "x"
        assert run_cli("run", "--config", cfg, "--out-dir", out, "--threads", flag) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_has_at_most_one_worker_per_macro_rep(self, tmp_path, capsys,
                                                       monkeypatch):
        # Stands in for the process pool, so no worker process is started.
        events = []

        class RecordingPool:
            def __init__(self, workers):
                events.append(("open", workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                events.append(("close",))

            def map(self, fn, *iterables):
                events.append(("map",))
                return map(fn, *iterables)

        monkeypatch.setattr(cli.harness, "process_pool", RecordingPool)
        cfg = self.write_config(tmp_path / "cfg.json", san_budgets=[300, 1000],
                                macro_replications=2, methods=["EMP-EMP"])
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out-dir", a, "--threads", "64") == 0
        # One pool for the whole run, sized by the cells' macro-replications,
        # serves both cells in turn and is closed before run returns.
        assert events == [("open", 2), ("map",), ("map",), ("close",)]
        assert run_cli("run", "--config", cfg, "--out-dir", b) == 0
        for name in ("results.csv", "summary.csv", "boxplot.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        events.clear()
        one = self.write_config(tmp_path / "one.json")  # a single macro-replication
        assert run_cli("run", "--config", one, "--out-dir", a, "--threads", "2") == 0
        assert events == []

    def test_in_process_run_leaves_the_collector_alone(self, tmp_path, capsys):
        # Only the program entry freezes the heap; tests and tracers call main.
        cfg = self.write_config(tmp_path / "cfg.json")
        before = gc.get_freeze_count()
        assert run_cli("run", "--config", cfg, "--out-dir", tmp_path / "x") == 0
        assert gc.get_freeze_count() == before

    def test_entry_freezes_the_imported_heap(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        assert cli.entry(["design", "--lower", "0", "--upper", "1", "--count", "3"]) == 0
        assert calls == ["freeze"]

    def test_threads_give_identical_output(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cfg.json", macro_replications=2)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out-dir", a) == 0
        assert run_cli("run", "--config", cfg, "--out-dir", b, "--threads", "2") == 0
        for name in ("results.csv", "summary.csv", "boxplot.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_shipped_configs_validate(self):
        import pathlib

        config_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        names = {p.name for p in config_dir.glob("*.json")}
        assert {"benchmark-1e5.json", "benchmark-1e6.json", "benchmark-1e7.json",
                "san.json", "smoke.json"} <= names
        for p in config_dir.glob("*.json"):
            cells = cli._load_config(str(p))
            assert cells and all(c.scenario for c in cells)
        grid = cli._load_config(str(config_dir / "benchmark-1e5.json"))
        assert {c.allocation_id for c in grid} == {1, 2, 3, 4, 5}
        assert len({c.scenario for c in grid}) == 3
        assert all(len(c.alphas) == 3 for c in grid)


class TestBadInput:
    # Each subcommand's own input checks, with the files they read: a .json or
    # .csv argument names a file under tmp_path; model.json is always a valid model.
    @pytest.mark.parametrize("argv, files, message", [
        ("run --config missing.json", {}, "cannot read config"),
        ("run --config cfg.json", {"cfg.json": "{"}, "is not valid JSON"),
        ("run --config cfg.json", {"cfg.json": "[]"}, "config must be a JSON object"),
        ("predict --model missing.json --points pts.csv", {"pts.csv": "x1\n0.5\n"},
         "cannot read model"),
        ("design --lower 0,x --upper 1,1 --count 3", {},
         "cannot parse bounds '0,x' as comma-separated floats"),
        ("fit-gpd --input losses.csv", {"losses.csv": "loss\n1.0\nabc\n2.0\n"},
         "losses.csv: non-numeric value on line 3"),
        ("predict --model model.json --points pts.csv", {"pts.csv": "x1\n0.5\n0.1,0.2\n"},
         "pts.csv: rows have inconsistent column counts"),
    ], ids=["config-missing", "config-not-json", "config-list", "model-missing",
            "bounds-not-numbers", "csv-non-numeric-row", "csv-ragged-rows"])
    def test_rejected_before_any_output(self, argv, files, message, tmp_path, capsys):
        model = kg.assemble([kg.DesignSite((0.0,), 1.0), kg.DesignSite((1.0,), 3.0)],
                            tau2=1.0, theta=[1.0])
        (tmp_path / "model.json").write_text(model.to_json())
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        args = [tmp_path / a if a.endswith((".json", ".csv")) else a for a in argv.split()]
        out = tmp_path / "out"
        assert run_cli(*args, "--out-dir" if args[0] == "run" else "--out", out) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert stdout == ""
        assert not out.exists()


def _proc_stat(pid):
    """(state, parent pid) of a process from /proc, or None once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"  # an unreaped zombie has exited


def _live_children(pid) -> list[int]:
    stats = {int(p.name): _proc_stat(p.name) for p in Path("/proc").iterdir()
             if p.name.isdigit()}
    return [c for c, stat in stats.items() if stat and stat[1] == pid and stat[0] != "Z"]


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or not hasattr(signal, "SIGKILL"),
                    reason="needs /proc and POSIX signals")
class TestWorkerLifetime:
    # About 20 s of CPU time, so the run is still going when it is killed.
    CONFIG = {"version": 1, "scenarios": ["normal"], "allocations": [5],
              "alphas": [0.95, 0.99, 0.995], "macro_replications": 100, "seed": 5}

    @pytest.mark.parametrize("sig", ["SIGKILL", "SIGTERM"])
    def test_workers_exit_with_a_killed_run(self, sig, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        run = subprocess.Popen(
            [sys.executable, "-m", "evtkrig.cli", "run", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out"), "--threads", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and run.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = _live_children(run.pid)
            assert len(workers) == 2 and run.poll() is None
            run.send_signal(getattr(signal, sig))
            run.wait(timeout=5)
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            run.kill()
            run.wait()
            for pid in filter(_alive, workers):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


class TestImportGraph:
    @staticmethod
    def scipy_modules(imports):
        """The scipy modules a fresh interpreter holds after ``import <imports>``."""
        probe = (f"import sys, {imports}; "
                 "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    def test_cli_imports_no_scipy_module_beyond_the_numeric_core(self):
        # scipy.stats alone took ~0.7 s and ~22 MB of every process start. The
        # baseline is measured, not listed, as its tree differs between releases.
        core = self.scipy_modules("numpy, scipy.optimize, scipy.linalg, scipy.special")
        assert self.scipy_modules("evtkrig.cli") - core == set()
