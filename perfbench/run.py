"""evtkrig benchmark: run `evtkrig run` on a generated workload and print metrics.

    python3 perfbench/run.py --workload tail-fit --seed 7 --seconds 30 --trace 0

The checkout is the directory above this file; the package is imported
from its ``src/``. With ``--trace 0`` the benchmark times fresh, untraced
``evtkrig run`` processes, one at a time (a closed loop with one client),
and reports the end-to-end metrics. With ``--trace 1`` it makes one untraced
run and then traced in-process runs (see ``tracer.py``) and reports the
per-layer metrics. Either way it checks the outputs, prints a table, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. It exits 1 when an output check
fails and 2 when the checkout holds no package to run.

Spans, the run record and any failing run's logs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# Every child process runs its linear algebra on one thread, so a --threads 2
# run uses at most two cores on a two-core machine.
THREAD_PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
# Seed kept out of every tuning run, so a later claim can be re-checked on
# inputs nobody looked at while writing it.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 3
# Wall-clock budget of one benchmark process; a run still going is killed.
HARD_LIMIT_S = 170.0
ALPHAS = [0.95, 0.99, 0.995]
# Budget catalog ids used below, as (k sites, n replications, N observations).
ALLOCATIONS = {1: (50, 10, 200), 5: (100, 1, 1000)}
SAN_SITES = 7
RESULTS_HEADER = ["scenario", "allocation", "allocation_id", "method", "alpha",
                  "macro_rep", "mape", "diagnostics"]
EXACT_COUNTS = ("evt_risk.fit_gpd.exceedances", "evt_risk.fit_gpd.optimizer_evals",
                "kriging.fit.lik_evals", "kriging.fit.cholesky",
                "kriging.fit.gflop_computed", "models.oracle.cache_hit_frac")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # `evtkrig run` config without the seed
    threads: int

    def cells(self) -> list[tuple[str, int]]:
        """(scenario, allocation id or SAN budget) per experiment cell."""
        out = []
        for scenario in self.config["scenarios"]:
            if scenario == "san":
                out += [("san", b) for b in self.config["san_budgets"]]
            else:
                out += [(scenario, a) for a in self.config["allocations"]]
        return out

    def methods(self, cell) -> list[str]:
        """The cell's method roster, worked out here rather than by the package,
        so that a roster bug shows up as a record-count mismatch."""
        scenario, alloc = cell
        roster = self.config.get("methods") or (
            ["ORD-KRG", "EMP-EMP", "POT-EVT"] if scenario == "san"
            else ["ORD-KRG", "POT-EMP", "EMP-EMP", "POT-EVT"])
        reps = 1 if scenario == "san" else ALLOCATIONS[alloc][1]
        return [m for m in roster if not (m == "POT-EMP" and reps < 2)]

    def expected_records(self) -> int:
        per_cell = len(self.config["alphas"]) * self.config["macro_replications"]
        return sum(len(self.methods(c)) * per_cell for c in self.cells())

    def observations(self) -> int:
        """Simulated observations per run: sum of k * n * N * macro-reps."""
        total = 0
        for scenario, alloc in self.cells():
            k, n, big_n = ((SAN_SITES, 1, alloc) if scenario == "san"
                           else ALLOCATIONS[alloc])
            total += k * n * big_n
        return total * self.config["macro_replications"]


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("tail-fit",
             {"scenarios": ["triangular", "pareto"], "allocations": [1],
              "alphas": ALPHAS, "macro_replications": 1,
              "methods": ["POT-EVT", "POT-EMP"]},
             threads=1),
    Workload("surface-fit",
             {"scenarios": ["normal"], "allocations": [5], "alphas": ALPHAS,
              "macro_replications": 2, "methods": ["EMP-EMP", "POT-EVT"]},
             threads=1),
    Workload("san-grid",
             {"scenarios": ["san"], "san_budgets": [1000, 10000, 100000],
              "alphas": ALPHAS, "macro_replications": 2},
             threads=2),
)}


class CheckFailed(Exception):
    """An output check failed; the run's records count as failed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


@dataclasses.dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run one child process to completion, with its rusage and its workers'.

    ``os.wait4`` reports the child's usage together with every process it
    waited for, so the pool workers' CPU time and peak RSS are included.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise CheckFailed("time budget spent before the run could start")
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def check_results(workload: Workload, path: Path) -> tuple[bytes, dict, int]:
    """Validate results.csv; return its bytes, MAPEs by method and the empty-MAPE count."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"no results.csv: {exc}")
    rows = list(csv.reader(io.StringIO(raw.decode())))
    if not rows or rows[0] != RESULTS_HEADER:
        raise CheckFailed("results.csv header differs from the expected columns")
    rows = rows[1:]
    if len(rows) != workload.expected_records():
        raise CheckFailed(f"{len(rows)} records, expected "
                          f"cells x methods x alphas x macro-reps = "
                          f"{workload.expected_records()}")
    expected_keys = {(m, a, r) for c in workload.cells() for m in workload.methods(c)
                     for a in workload.config["alphas"]
                     for r in range(workload.config["macro_replications"])}
    seen = {(row[3], float(row[4]), int(row[5])) for row in rows}
    if seen != {(m, float(a), r) for m, a, r in expected_keys}:
        raise CheckFailed("results.csv methods, alphas or macro-reps differ from the config")
    mapes: dict[str, list[float]] = {}
    empty = 0
    for row in rows:
        if row[6] == "":
            empty += 1
            continue
        value = float(row[6])
        if not math.isfinite(value) or value < 0.0:
            raise CheckFailed(f"MAPE {row[6]!r} is not a finite nonnegative number")
        mapes.setdefault(row[3], []).append(value)
    return raw, mapes, empty


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(workload: Workload, seed: int, trace: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"workload": workload.name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "trace": trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "thread_pin": THREAD_PIN,
            "threads": workload.threads, "loadavg_start": list(os.getloadavg()),
            "config": workload.config}


def end_to_end_metrics(workload: Workload, setup: list[float],
                       runs: list[Proc]) -> dict[str, float]:
    """Medians over the untraced runs that passed every check."""
    metrics = {"setup_s": statistics.median(setup)}
    if runs:
        run_s = statistics.median(p.wall_s for p in runs)
        metrics.update({
            "run_s": run_s,
            "obs_per_s": workload.observations() / run_s,
            "cpu_s": statistics.median(p.cpu_s for p in runs),
            "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
        })
    return metrics


def per_layer_metrics(workload: Workload, summaries: list[dict], untraced: Proc,
                      traced_walls: list[float], mapes: dict) -> dict[str, float]:
    """Medians of the traced runs' layer metrics, plus figures taken around them.

    ``harness.pool.util`` comes from the untraced run, because the traced
    run is serial by design. ``trace.overhead_frac`` compares the traced and
    untraced processes; it means something only for ``--threads 1`` workloads.
    """
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["harness.pool.util"] = untraced.cpu_s / (workload.threads * untraced.wall_s)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / untraced.wall_s - 1.0
    if "POT-EVT" in mapes:
        metrics["mape.POT-EVT"] = statistics.median(mapes["POT-EVT"])
    metrics["mape.all"] = statistics.median(v for vals in mapes.values() for v in vals)
    return metrics


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tag = f"{workload.name}-seed{seed}-trace{trace}"
        self.work = WORK_DIR / f"{self.tag}-{os.getpid()}"
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.runs: list[Proc] = []
        self.mapes: dict[str, list[float]] = {}

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        OUT_DIR.mkdir(exist_ok=True)
        config = dict(self.workload.config, version=1, seed=self.seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True))

    def _record(self, label: str, proc: Proc, out: Path) -> dict | None:
        """Check one run's outputs and count its records; return its MAPEs if it passed."""
        expected = self.workload.expected_records()
        self.attempted += expected
        try:
            if proc.code != 0:
                raise CheckFailed(f"exit code {proc.code}")
            raw, mapes, empty = check_results(self.workload, out / "results.csv")
            if self.reference is None:
                self.reference = raw
            elif raw != self.reference:
                raise CheckFailed("results.csv differs from the first run of this seed")
        except CheckFailed as exc:
            self.failed += expected
            self.problems.append(f"{label}: {exc}")
            return None
        self.failed += empty
        return mapes

    def untraced_run(self, index: int) -> Proc:
        out = self.work / f"run{index}"
        proc = run_child([sys.executable, "-m", "evtkrig.cli", "run",
                          "--config", str(self.config_path), "--out-dir", str(out),
                          "--threads", str(self.workload.threads)],
                         out.with_suffix(".log"), self.deadline)
        mapes = self._record(f"run {index}", proc, out)
        if mapes is not None:
            self.runs.append(proc)
            if not self.mapes:
                self.mapes = mapes
        return proc

    def traced_run(self, index: int) -> tuple[Proc, dict | None]:
        out = self.work / f"traced{index}"
        spans = OUT_DIR / f"spans-{self.tag}-{index}.jsonl"
        summary = self.work / f"summary{index}.json"
        proc = run_child([sys.executable, str(BENCH_DIR / "tracer.py"),
                          "--config", str(self.config_path), "--out-dir", str(out),
                          "--spans", str(spans), "--summary", str(summary)],
                         out.with_suffix(".log"), self.deadline)
        if self._record(f"traced run {index}", proc, out) is None:
            return proc, None
        return proc, json.loads(summary.read_text())

    def setup_times(self) -> list[float]:
        """Fresh processes that import the package, build the CLI parser and exit.

        Called after a first run has compiled the bytecode cache, which users
        pay once per install, not once per run.
        """
        argv = [sys.executable, "-c", "import evtkrig.cli as c; c.build_parser()"]
        times = []
        for _ in range(SETUP_SAMPLES):
            proc = run_child(argv, self.work / "setup.log", self.deadline)
            if proc.code != 0:
                raise CheckFailed(f"importing evtkrig failed with exit code {proc.code}")
            times.append(proc.wall_s)
        return times

    def time_left_for(self, durations: list[float]) -> bool:
        """True when one more run of the median length fits in --seconds."""
        elapsed = time.monotonic() - self.start
        return elapsed + statistics.median(durations) <= self.seconds

    def end_to_end(self) -> dict[str, float]:
        walls = [self.untraced_run(0).wall_s]
        setup = self.setup_times()
        while self.time_left_for(walls):
            walls.append(self.untraced_run(len(walls)).wall_s)
        return end_to_end_metrics(self.workload, setup, self.runs)

    def per_layer(self) -> dict[str, float]:
        untraced = self.untraced_run(0)
        walls: list[float] = []
        summaries: list[dict] = []
        while not walls or self.time_left_for(walls):
            proc, summary = self.traced_run(len(walls))
            walls.append(proc.wall_s)
            if summary is not None:
                summaries.append(summary["metrics"])
        if not summaries or not self.runs:
            return {}
        for key in EXACT_COUNTS:
            values = {s[key] for s in summaries}
            if len(values) > 1:
                self.problems.append(f"{key} differs across traced runs: {sorted(values)}")
        metrics = per_layer_metrics(self.workload, summaries, untraced, walls, self.mapes)
        coverage = metrics["trace.coverage"]
        if abs(coverage - 1.0) > 0.05:
            self.problems.append(f"layer self-times cover {coverage:.1%} of the traced wall")
        return metrics

    def finish(self, record: dict, metrics: dict) -> None:
        record["elapsed_s"] = time.monotonic() - self.start
        record["runs"] = [dataclasses.asdict(p) for p in self.runs]
        record["problems"] = self.problems
        record["metrics"] = metrics
        (OUT_DIR / f"record-{self.tag}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True))
        if self.problems:
            keep = OUT_DIR / f"failed-{self.tag}"
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(self.work, keep)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "evtkrig" / "cli.py").is_file():
        sys.stderr.write(f"error: no evtkrig sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2

    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    record = run_record(bench.workload, args.seed, args.trace)
    bench.setup()
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    except CheckFailed as exc:
        bench.problems.append(str(exc))
        values = {}
    declared = declared_metrics(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not bench.problems:
        bench.problems.append(f"no value for {missing}")
    bench.finish(record, values)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"records {bench.attempted}  failed {bench.failed}  "
          f"load {record['loadavg_start'][0]:.2f}")
    for m in declared:
        if m["name"] in values:
            print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not bench.problems, "attempted": max(bench.attempted, 1),
              "failed": bench.failed if bench.attempted else 1,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared if m["name"] in values}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
