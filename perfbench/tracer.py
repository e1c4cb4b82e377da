"""Traced, in-process `evtkrig run`, instrumented from outside the package.

The tracer replaces each layer's public entry points with timing wrappers
at the place the caller looks them up (module attributes, and the
``predict_many`` class attribute), records one span per call, and puts the
originals back when the run ends. Nothing under ``src/`` is edited.

Optimizer and factorization work is counted by wrapping the scipy solvers
the package calls (``scipy.optimize.minimize``, ``scipy.optimize.brentq``,
``scipy.linalg.cho_factor``); each count lands on the innermost open span.

Run one traced experiment in a fresh process:

    PYTHONPATH=src python3 perfbench/tracer.py --config CFG --out-dir DIR \
        --spans spans.jsonl --summary summary.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute path, span name). The harness, the CLI and the package
# itself reach every target through these attributes.
ENTRY_POINTS = (
    ("evtkrig.harness", "run_experiment", "harness.run_experiment"),
    ("evtkrig.harness", "estimate_site", "harness.estimate_site"),
    ("evtkrig.harness", "write_results_csv", "harness.write_csv"),
    ("evtkrig.harness", "write_summary_csv", "harness.write_csv"),
    ("evtkrig.harness", "write_boxplot_csv", "harness.write_csv"),
    ("evtkrig.evt_risk", "fit_gpd", "evt_risk.fit_gpd"),
    ("evtkrig.evt_risk", "delta_variance", "evt_risk.delta_variance"),
    ("evtkrig.evt_risk", "empirical_cvar", "evt_risk.empirical_cvar"),
    ("evtkrig.evt_risk", "pot_cvar_value", "evt_risk.pot_cvar_value"),
    ("evtkrig.kriging", "fit", "kriging.fit"),
    ("evtkrig.kriging", "KrigingModel.predict_many", "kriging.predict_many"),
    ("evtkrig.models", "benchmark_simulate", "models.simulate"),
    ("evtkrig.models", "san_simulate", "models.simulate"),
    ("evtkrig.models", "true_cvar_benchmark", "models.oracle"),
    ("evtkrig.models", "san_true_cvar", "models.oracle"),
)
SOLVERS = (
    ("scipy.optimize", "minimize"),
    ("scipy.optimize", "brentq"),
    ("scipy.linalg", "cho_factor"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    cell: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "cell": self.cell, "counts": self.counts}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and keeps spans in memory.

    On exit every wrapped attribute is restored to the original object,
    even when the traced code raised.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, cell: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.id if parent else None, cell)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _count(self, key: str, amount: float = 1) -> None:
        if self._stack:
            self._stack[-1].add(key, amount)

    # -- wrappers -----------------------------------------------------------

    def _layer_wrapper(self, name: str, original):
        observe = _OBSERVERS.get(name)
        cache_info = getattr(original, "cache_info", None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell = _cell_of(args[0]) if name == "harness.run_experiment" else None
            hits = cache_info().hits if cache_info else None
            span = self._open(name, cell)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.counts["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if cache_info:
                span.add("cache_hit", int(cache_info().hits > hits))
            if observe:
                observe(span, result)
            return result

        return wrapper

    def _solver_wrapper(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name == "cho_factor":
                n = np.shape(args[0] if args else kwargs["a"])[0]
                self._count("cholesky")
                self._count("cholesky_flop", n**3 / 3.0)
                try:
                    return original(*args, **kwargs)
                except Exception:
                    self._count("cholesky_failed")
                    raise
            result = original(*args, **kwargs)
            self._count(f"{name}_calls")
            if name == "minimize":
                self._count("minimize_nfev", int(result.nfev))
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name in ENTRY_POINTS:
                owner, attr = _resolve(module, path)
                self._patch(owner, attr, self._layer_wrapper(name, getattr(owner, attr)))
            for module, attr in SOLVERS:
                owner = importlib.import_module(module)
                self._patch(owner, attr, self._solver_wrapper(attr, getattr(owner, attr)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def _cell_of(config) -> str:
    return f"{config.scenario}:{config.allocation_label}"


def _observe_fit_gpd(span: Span, fit) -> None:
    span.add("exceedances", fit.n_exceed)
    span.add("boundary", int(fit.boundary))
    span.add("heavy", int(fit.xi >= 0.5))


def _observe_kriging_fit(span: Span, model) -> None:
    span.counts["zero_noise"] = int(not np.any(model.intrinsic > 0.0))
    span.add("nugget_nonzero", int(model.nugget > 0.0))


def _observe_simulate(span: Span, sample) -> None:
    span.add("obs", int(np.size(sample)))


_OBSERVERS = {
    "evt_risk.fit_gpd": _observe_fit_gpd,
    "kriging.fit": _observe_kriging_fit,
    "models.simulate": _observe_simulate,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one serial thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer totals, keyed by the names in BENCHMARK.json's per_layer list."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.id)

    def pick(name, pred=None):
        return [i for i in by_name.get(name, []) if pred is None or pred(spans[i])]

    def calls(name, pred=None):
        return len(pick(name, pred))

    def self_s(name, pred=None):
        return float(sum(selfs[i] for i in pick(name, pred)))

    def total_s(name):
        return float(sum(spans[i].end - spans[i].start for i in pick(name)))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in pick(name))

    def raised(name, error=None):
        return calls(name, lambda s: "raised" in s.counts
                     and error in (None, s.counts["raised"]))

    def durations(name):
        return [spans[i].end - spans[i].start for i in pick(name)]

    def frac(num, den):
        return num / den if den else 0.0

    gpd_calls = calls("evt_risk.fit_gpd")
    oracle_calls = calls("models.oracle")
    zero = lambda s: s.counts.get("zero_noise") == 1  # noqa: E731
    noisy = lambda s: s.counts.get("zero_noise") == 0  # noqa: E731
    krig_self = self_s("kriging.fit")
    return {
        "cli.main.s": total_s("cli.main"),
        "harness.run_experiment.calls": calls("harness.run_experiment"),
        "harness.run_experiment.s": total_s("harness.run_experiment"),
        "harness.self_s": self_s("harness.run_experiment"),
        "harness.estimate_site.calls": calls("harness.estimate_site"),
        "harness.estimate_site.self_s": self_s("harness.estimate_site"),
        "harness.write_csv.s": total_s("harness.write_csv"),
        "evt_risk.fit_gpd.calls": gpd_calls,
        "evt_risk.fit_gpd.self_s": self_s("evt_risk.fit_gpd"),
        "evt_risk.fit_gpd.p50_ms": _percentile_ms(durations("evt_risk.fit_gpd"), 50),
        "evt_risk.fit_gpd.p99_ms": _percentile_ms(durations("evt_risk.fit_gpd"), 99),
        "evt_risk.fit_gpd.exceedances": count("evt_risk.fit_gpd", "exceedances"),
        "evt_risk.fit_gpd.optimizer_evals": count("evt_risk.fit_gpd", "minimize_nfev"),
        "evt_risk.fit_gpd.boundary_frac":
            frac(count("evt_risk.fit_gpd", "boundary"), gpd_calls),
        "evt_risk.fit_gpd.heavy_frac": frac(count("evt_risk.fit_gpd", "heavy"), gpd_calls),
        "evt_risk.fit_gpd.errors": raised("evt_risk.fit_gpd"),
        "evt_risk.delta_variance.calls": calls("evt_risk.delta_variance"),
        "evt_risk.delta_variance.self_s": self_s("evt_risk.delta_variance"),
        "evt_risk.delta_variance.singular": raised("evt_risk.delta_variance",
                                                   "SingularInformationError"),
        "evt_risk.empirical_cvar.calls": calls("evt_risk.empirical_cvar"),
        "evt_risk.pot_cvar_value.calls": calls("evt_risk.pot_cvar_value"),
        "evt_risk.pot_cvar_value.self_s": self_s("evt_risk.pot_cvar_value"),
        "kriging.fit.calls": calls("kriging.fit"),
        "kriging.fit.self_s": krig_self,
        "kriging.fit.p50_ms": _percentile_ms(durations("kriging.fit"), 50),
        "kriging.fit.p99_ms": _percentile_ms(durations("kriging.fit"), 99),
        "kriging.fit_zero_noise.calls": calls("kriging.fit", zero),
        "kriging.fit_zero_noise.share": frac(self_s("kriging.fit", zero), krig_self),
        "kriging.fit_noisy.calls": calls("kriging.fit", noisy),
        "kriging.fit_noisy.self_s": self_s("kriging.fit", noisy),
        "kriging.fit.optimizer_starts": count("kriging.fit", "minimize_calls"),
        "kriging.fit.lik_evals": count("kriging.fit", "minimize_nfev"),
        "kriging.fit.cholesky": count("kriging.fit", "cholesky"),
        "kriging.fit.cholesky_failed": count("kriging.fit", "cholesky_failed"),
        "kriging.fit.gflop_computed": count("kriging.fit", "cholesky_flop") / 1e9,
        "kriging.fit.nugget_nonzero": count("kriging.fit", "nugget_nonzero"),
        "kriging.predict_many.calls": calls("kriging.predict_many"),
        "kriging.predict_many.self_s": self_s("kriging.predict_many"),
        "models.simulate.calls": calls("models.simulate"),
        "models.simulate.self_s": self_s("models.simulate"),
        "models.simulate.obs": count("models.simulate", "obs"),
        "models.oracle.calls": oracle_calls,
        "models.oracle.self_s": self_s("models.oracle"),
        "models.oracle.cache_hit_frac": frac(count("models.oracle", "cache_hit"), oracle_calls),
        "trace.coverage": frac(float(sum(selfs)), wall_s),
    }


def traced_run(config: str, out_dir: str) -> tuple[Tracer, float, int]:
    """Run `evtkrig run` serially in this process under a fresh tracer.

    Returns the tracer, the traced wall time and the CLI exit code. The
    numeric oracle's cache is cleared first so its cost matches a fresh
    process.
    """
    from evtkrig import cli, models

    models.san_true_cvar.cache_clear()
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        with tracer.span("cli.main"):
            code = cli.main(["run", "--config", config, "--out-dir", out_dir,
                             "--threads", "1"])
    return tracer, time.perf_counter() - t0, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", required=True, help="JSON-lines span file to write")
    parser.add_argument("--summary", required=True, help="JSON layer metrics to write")
    args = parser.parse_args(argv)
    tracer, wall, code = traced_run(args.config, args.out_dir)
    tracer.write_jsonl(args.spans)
    with open(args.summary, "w") as fh:
        json.dump({"exit_code": code, "wall_s": wall,
                   "metrics": layer_metrics(tracer.spans, wall)}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
