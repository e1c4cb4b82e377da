"""Command-line front end.

Subcommands
-----------
fit-gpd    fit a GPD tail to a CSV column of losses, emit a JSON report
estimate   one CVaR estimate (empirical / pot) from a CSV column
run        run the experiment grid a JSON config defines in full; emit result CSVs
predict    evaluate a serialized kriging model at points from a CSV
design     emit a Latin-hypercube or equally spaced design as CSV

Exit codes: 0 success, 1 validation error (arguments, config schema,
malformed input), 2 numerical failure (a tail fit or tail estimate failed,
or a kriging covariance would not factor).

Config schema (version 1): a JSON object whose ``version`` is 1. Three
list keys span the grid; each scenario with each of its allocations (or SAN
budgets) is one ``harness.ExperimentConfig`` cell:

    scenarios             required: list from {normal, triangular, pareto, san}
    allocations           budget catalog ids; given exactly with benchmark scenarios
    san_budgets           observations per design point; given exactly with "san"

The other keys set one field of every cell, and an absent key leaves the
field's default: alphas, macro_replications, seed, methods, test_points
(field ``n_test``) and threshold_quantile. ``ExperimentConfig.validate``
enforces every field rule. Unknown keys are rejected, and so is a list that
repeats a value, which would run one cell twice. Every schema violation of
every cell is reported before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evt_risk, harness, kriging
from .design import Domain, equally_spaced, lhs
from .harness import _distinct, _fmt
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

CONFIG_VERSION = 1
# Config keys and the ExperimentConfig field each one sets. A grid key holds a
# list, one cell per value; a cell key sets the same value in every cell.
_GRID_KEYS = {"scenarios": "scenario", "allocations": "allocation",
              "san_budgets": "san_budget"}
_CELL_KEYS = {"alphas": "alphas", "macro_replications": "macro_replications",
              "seed": "seed", "methods": "methods", "test_points": "n_test",
              "threshold_quantile": "threshold_quantile"}
_KEY_OF_FIELD = {field: key for key, field in {**_GRID_KEYS, **_CELL_KEYS}.items()}


class ValidationFailure(Exception):
    """Bad user input: arguments, config schema, or malformed CSV."""


def read_csv(path: str, columns: int | None = None) -> np.ndarray:
    """Read CSV rows as a 2-D float array, taking the first ``columns`` cells
    of each row (every cell by default).

    Rows whose cells are all blank are skipped. The first row that is not
    is a header if it does not parse. Any other blank cell, or a non-finite
    cell (nan, inf), is an error.
    """
    rows, first = [], True
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not any(map(str.strip, row)):
                    continue
                header_allowed, first = first, False
                cells = [c.strip() for c in row[:columns]]
                if not all(cells):
                    raise ValidationFailure(f"{path}: empty cell on line {line}")
                try:
                    values = [float(c) for c in cells]
                except ValueError:
                    if header_allowed:
                        continue  # header
                    raise ValidationFailure(f"{path}: non-numeric value on line {line}")
                if not all(map(math.isfinite, values)):
                    raise ValidationFailure(f"{path}: non-finite value on line {line}")
                rows.append(values)
    except OSError as exc:
        raise ValidationFailure(f"cannot read {path}: {exc}")
    if not rows:
        raise ValidationFailure(f"{path}: no numeric rows found")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValidationFailure(f"{path}: rows have inconsistent column counts")
    return np.asarray(rows, dtype=float)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fit_report(fit: evt_risk.GpdFit) -> dict:
    return {
        "threshold": fit.u,
        "threshold_quantile": fit.threshold_quantile,
        "n_total": fit.n_total,
        "n_exceed": fit.n_exceed,
        "zeta": fit.zeta,
        "xi": fit.xi,
        "beta": fit.beta,
        "info": [[fit.info[0, 0], fit.info[0, 1]], [fit.info[1, 0], fit.info[1, 1]]],
        "loglik": fit.loglik,
        "boundary": fit.boundary,
    }


def cmd_fit_gpd(args) -> int:
    losses = read_csv(args.input, columns=1)[:, 0]
    fit = evt_risk.fit_gpd(losses, args.threshold_quantile)
    _emit(json.dumps(_fit_report(fit), indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    losses = read_csv(args.input, columns=1)[:, 0]
    evt_risk._check_alpha(args.alpha)
    evt_risk._check_alpha(args.threshold_quantile, "threshold_quantile")
    payload: dict = {"alpha": args.alpha, "method": args.method, "n": int(losses.size)}
    if args.method == "empirical":
        est = evt_risk.empirical_cvar(losses, args.alpha)
    else:
        fit = evt_risk.fit_gpd(losses, args.threshold_quantile)
        payload["gpd"] = _fit_report(fit)
        est = evt_risk.pot_cvar(fit, args.alpha)
    payload["value"] = est.value
    payload["variance"] = est.variance
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _load_config(path: str) -> list[harness.ExperimentConfig]:
    """Expand a config file into its validated experiment cells."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationFailure("config must be a JSON object")

    problems = [f"{key}: unknown key"
                for key in sorted(set(raw) - {"version", *_GRID_KEYS, *_CELL_KEYS})]
    version = raw.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        problems.append(f"version: must be {CONFIG_VERSION}, got {version!r}")
    scenarios = raw.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append(f"scenarios: must be a non-empty list, got {scenarios!r}")
        scenarios = []
    grid = {}
    for key, used in (("allocations", any(s != "san" for s in scenarios)),
                      ("san_budgets", "san" in scenarios)):
        value = grid[key] = raw.get(key, [None])
        if key in raw and not used:
            problems.append(f"{key}: given, but no scenario in scenarios uses it")
        elif not isinstance(value, list) or not value:
            problems.append(f"{key}: must be a non-empty list, got {value!r}")
            grid[key] = []
    for key, values in (("scenarios", scenarios), *grid.items()):
        if isinstance(values, list) and not _distinct(values):
            problems.append(f"{key}: must not repeat a value, got {values!r}")

    shared = {field: tuple(raw[key]) if isinstance(raw[key], list) else raw[key]
              for key, field in _CELL_KEYS.items() if key in raw}
    cells = []
    for scenario in scenarios:
        key = "san_budgets" if scenario == "san" else "allocations"
        cells += [harness.ExperimentConfig(scenario=scenario, **{_GRID_KEYS[key]: value},
                                           **shared) for value in grid[key]]
    for cell in cells:
        try:
            cell.validate()
        except harness.ConfigError as exc:
            problems += [f"{_KEY_OF_FIELD[name]}: {message}" for name, message in exc.args]
    if problems:
        raise ValidationFailure("invalid config:\n  - "
                                + "\n  - ".join(dict.fromkeys(problems)))
    return cells


def cmd_run(args) -> int:
    if args.threads < 1:
        raise ValidationFailure(f"threads must be >= 1, got {args.threads}")
    cells = _load_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One pool serves every cell in turn; a cell's macro-replications are its tasks.
    workers = min(args.threads, max(cell.macro_replications for cell in cells))
    records = []
    with harness.process_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for cell in cells:
            records.extend(harness.run_experiment(cell, pool))
    harness.write_results_csv(records, out_dir / "results.csv")
    harness.write_summary_csv(records, out_dir / "summary.csv")
    harness.write_boxplot_csv(records, out_dir / "boxplot.csv")
    sys.stdout.write(f"wrote {len(records)} records to {out_dir}\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        model = kriging.KrigingModel.from_json(Path(args.model).read_text())
    except OSError as exc:
        raise ValidationFailure(f"cannot read model {args.model}: {exc}")
    except ValueError as exc:
        raise ValidationFailure(f"bad model file {args.model}: {exc}")
    points = read_csv(args.points)
    if points.shape[1] != model.dim:
        raise ValidationFailure(
            f"points have dimension {points.shape[1]}, model expects {model.dim}")
    means, sds = model.predict_many(points)
    lines = [",".join(f"x{i + 1}" for i in range(model.dim)) + ",mean,extrinsic_sd"]
    for p, m, s in zip(points, means, sds):
        lines.append(",".join(_fmt(c) for c in p) + f",{_fmt(m)},{_fmt(s)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_bounds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(c) for c in text.split(","))
    except ValueError:
        raise ValidationFailure(f"cannot parse bounds {text!r} as comma-separated floats")


def cmd_design(args) -> int:
    lower = _parse_bounds(args.lower)
    upper = _parse_bounds(args.upper)
    if len(lower) != len(upper):
        raise ValidationFailure("--lower and --upper must have the same dimension")
    try:
        domain = Domain(lower, upper)
        if args.kind == "lhs":
            pts = lhs(domain, args.count, RngStream(args.seed))
        else:
            pts = equally_spaced(domain, args.count)
    except ValueError as exc:
        raise ValidationFailure(str(exc))
    lines = [",".join(f"x{i + 1}" for i in range(domain.dim))]
    for p in pts:
        lines.append(",".join(_fmt(c) for c in p))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtkrig",
        description="Global CVaR estimation: POT tail fits plus stochastic kriging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-gpd", help="fit a GPD tail to a CSV column of losses")
    p.add_argument("--input", required=True, help="CSV with one numeric loss column")
    p.add_argument("--threshold-quantile", type=float, default=0.9)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_fit_gpd)

    p = sub.add_parser("estimate", help="estimate CVaR from a CSV column of losses")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("empirical", "pot"), default="empirical")
    p.add_argument("--threshold-quantile", type=float, default=0.9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="results")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("predict", help="evaluate a serialized kriging model")
    p.add_argument("--model", required=True, help="model JSON from the library")
    p.add_argument("--points", required=True, help="CSV of query points")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("design", help="emit an experiment design as CSV")
    p.add_argument("--kind", choices=("lhs", "grid"), default="lhs")
    p.add_argument("--lower", required=True, help="comma-separated lower bounds")
    p.add_argument("--upper", required=True, help="comma-separated upper bounds")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValidationFailure, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (evt_risk.RiskError, kriging.SingularDesignError) as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


def entry(argv=None) -> int:
    """Program entry (the ``evtkrig`` script and ``python -m evtkrig.cli``).

    Freezes the objects imported so far before running :func:`main`: the
    collector never scans them again, so forked workers keep sharing their
    pages and the process skips collecting them at exit. In-process callers
    use :func:`main`, which leaves the collector alone.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry())
