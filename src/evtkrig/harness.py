"""Two-phase experiment pipeline: simulate at designed points, estimate the
tail risk and its estimator variance per site, fit a kriging surface per
method, and score global predictions against the exact oracles.

Four estimation methods are compared on shared simulated data:

* ``ORD-KRG``  ordinary kriging; empirical CVaR responses, intrinsic
  variance ignored (set to zero);
* ``POT-EMP``  POT CVaR responses with the across-replication
  squared-deviation variance (needs n >= 2 replications);
* ``EMP-EMP``  empirical CVaR responses with the tail-average-transform
  variance; and
* ``POT-EVT``  POT CVaR responses with the delta-method asymptotic
  variance, which is well-defined from a single replication.

With n replications per design point, per-replication estimates are
averaged and their variances combined as Var(mean) = sum(V_j) / n^2.
Performance is the mean absolute percentage error (MAPE) of the fitted
surface over a fixed test set against the closed-form true CVaR of the
benchmark or activity-network model.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import threading
import warnings
import zlib
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait

import numpy as np
from scipy import special

from . import evt_risk, kriging, models
from .design import BudgetAllocation, Domain, allocation_by_id, equally_spaced, lhs
from .evt_risk import _in_unit, _is_int
from .rng import RngStream

__all__ = [
    "ORD_KRG",
    "POT_EMP",
    "EMP_EMP",
    "POT_EVT",
    "METHODS",
    "SiteEstimate",
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "estimate_site",
    "process_pool",
    "run_experiment",
    "wilcoxon_signed_rank",
    "compare_methods",
    "write_results_csv",
    "write_summary_csv",
    "write_boxplot_csv",
]

ORD_KRG = "ORD-KRG"
POT_EMP = "POT-EMP"
EMP_EMP = "EMP-EMP"
POT_EVT = "POT-EVT"
METHODS = (ORD_KRG, POT_EMP, EMP_EMP, POT_EVT)
# The methods whose response is the POT CVaR of a GPD tail fit.
_POT_METHODS = (POT_EVT, POT_EMP)

SAN_DESIGN_POINTS = 7
MAPE_TRUTH_FLOOR = 1e-9

# Stream key prefixes; the simulation stream is shared by every method, so
# all methods at a given (macro-rep, site, replication) see identical data.
_KEY_TEST = 0
_KEY_DESIGN = 1
_KEY_SIM = 2


@dataclass(frozen=True)
class SiteEstimate:
    """Aggregated response/variance for one design point, plus diagnostics."""

    response: float
    variance: float
    fallbacks: int = 0
    heavy_tails: int = 0
    boundary_fits: int = 0


def _reads_empirical(method: str, n: int) -> bool:
    """Whether ``method`` reads empirical estimates at n replications per site:
    ORD-KRG and EMP-EMP always, POT-EVT for its n = 1 fallback."""
    return method in (ORD_KRG, EMP_EMP) or (method == POT_EVT and n == 1)


class _Empirical:
    """Empirical CVaR estimates of k sites x n replications at each of ``alphas``.

    Each sample is added once (:meth:`add`) and not kept. ``values`` and
    ``variances`` have shape (levels, k, n), NaN where an estimate failed;
    ``errors`` holds each failed estimate's InsufficientTailError by (level
    index, site, replication), raised only when a consumer reads it (:meth:`at`).
    """

    def __init__(self, alphas, k: int, n: int):
        self.alphas = tuple(alphas)
        self.values = np.full((len(self.alphas), k, n), np.nan)
        self.variances = np.full((len(self.alphas), k, n), np.nan)
        self.errors = {}

    def add(self, site: int, rep: int, sample) -> None:
        values, variances, errors = evt_risk.empirical_cvar_levels(sample, self.alphas)
        self.values[:, site, rep], self.variances[:, site, rep] = values, variances
        self.errors.update(((a, site, rep), e) for a, e in enumerate(errors) if e is not None)

    def at(self, alpha: float, site: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Values and variances at ``alpha``: shape (k, n), or (n,) for one site.
        The first failed estimate among them in sample order raises."""
        a = self.alphas.index(alpha)
        failed = sorted(key for key in self.errors if key[0] == a and site in (None, key[1]))
        if failed:
            raise self.errors[failed[0]]
        rows = slice(None) if site is None else site
        return self.values[a, rows], self.variances[a, rows]


def estimate_site(method: str, samples, alpha: float,
                  threshold_quantile: float = 0.9,
                  gpd_fits=None) -> SiteEstimate:
    """Estimate (response, variance) at one design point from n replications.

    ``samples`` is a sequence of n loss samples (one per replication).
    ``gpd_fits`` optionally supplies pre-fitted tail models for the POT
    methods so a fit can be shared across tail levels; the samples are then
    read only for the n = 1 fallback. The rules are :func:`_site_estimates`'s.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    n = len(samples)
    if n < 1:
        raise ValueError("need at least one replication")
    if method == POT_EMP and n < 2:
        raise ValueError("POT-EMP needs n >= 2 replications to estimate a variance")
    if method in _POT_METHODS and gpd_fits is None:
        gpd_fits = [evt_risk.fit_gpd(s, threshold_quantile) for s in samples]
    if method in _POT_METHODS and len(gpd_fits) != n:
        raise ValueError("gpd_fits length must match the number of replications")
    empirical = None
    if _reads_empirical(method, n):
        empirical = _Empirical((alpha,), 1, n)
        for j, s in enumerate(samples):
            empirical.add(0, j, s)
    (response,), (variance,), *counts = _site_estimates(method, [gpd_fits], empirical, alpha)
    return SiteEstimate(float(response), float(variance), *counts)


def _site_estimates(method: str, fits, empirical: _Empirical | None, alpha: float):
    """One method's k site responses and variances at level ``alpha`` as arrays,
    and its fallback, heavy-tail (xi >= 1/2) and boundary-fit totals.

    ``fits[i]`` holds the tail fits of site i's n replications, which only
    the POT methods read, and ``empirical`` their empirical estimates, which
    ORD-KRG and EMP-EMP read and POT-EVT reads for its n = 1 fallback. No
    sample is read: each was dropped once its fit and estimates were taken.
    The response is the mean over replications of the empirical CVaR
    (ORD-KRG, EMP-EMP) or the POT CVaR (POT-EMP, POT-EVT). The variance of
    that mean is zero (ORD-KRG), the replications' squared deviation over n
    (POT-EMP), or sum(V_j) / n^2 over their tail-average-transform (EMP-EMP)
    or delta-method (POT-EVT) variances V_j. Where a POT-EVT fit's
    information is singular, its site falls back to the squared deviation
    for n >= 2 and to the transform variance of its one sample for n = 1;
    each such fit is a fallback. A failed empirical estimate raises only
    where it is read.
    """
    heavy = boundary = fallbacks = 0
    if method in _POT_METHODS:
        flat = [f for site in fits for f in site]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", evt_risk.HeavyTailWarning)
            values, variances, singular = (a.reshape(len(fits), -1)
                                           for a in evt_risk.pot_cvar_many(flat, alpha))
        heavy, boundary = sum(f.xi >= 0.5 for f in flat), sum(f.boundary for f in flat)
    else:
        values, variances = empirical.at(alpha)
    n = values.shape[1]
    if method == ORD_KRG:
        var = np.zeros(len(values))
    elif method == POT_EMP:
        var = values.var(axis=1, ddof=1) / n
    else:
        var = variances.sum(axis=1) / n**2
    if method == POT_EVT:
        fallbacks = int(singular.sum())
        for i in np.flatnonzero(singular.any(axis=1)):
            var[i] = values[i].var(ddof=1) / n if n >= 2 else empirical.at(alpha, i)[1][0]
    return values.mean(axis=1), var, fallbacks, heavy, boundary


# ---------------------------------------------------------------------------
# Experiment configuration and records
# ---------------------------------------------------------------------------

def _non_empty(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) > 0


def _distinct(values) -> bool:
    """No value of the sequence equals an earlier one (values need not hash)."""
    return all(v not in values[:i] for i, v in enumerate(values))


class ConfigError(ValueError):
    """The field rules an :class:`ExperimentConfig` breaks, one
    ``(field, message)`` pair per argument."""

    def __str__(self) -> str:
        return "invalid experiment config:" + "".join(
            f"\n  - {name}: {message}" for name, message in self.args)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell grid: a scenario at one budget allocation."""

    scenario: str  # "normal" | "triangular" | "pareto" | "san"
    allocation: BudgetAllocation | int | None = None  # catalog row or its id
    san_budget: int | None = None
    alphas: tuple[float, ...] = (0.95, 0.99, 0.995)
    macro_replications: int = 10
    seed: int = 42
    methods: tuple[str, ...] | None = None
    n_test: int = 200
    threshold_quantile: float = 0.9

    def validate(self) -> None:
        """Check every field; raise one :class:`ConfigError` listing each
        violation. Integer fields reject ``bool``. Once every field passes, the
        resolved roster must not be empty, and the POT methods need samples that
        :func:`evt_risk.fit_gpd` accepts and a floor on ``alphas``.
        A SAN test grid loses the point next to each design site, so it needs
        ``SAN_DESIGN_POINTS + 2`` points to keep two."""
        scenarios = models.NOISE_SCENARIOS + ("san",)
        min_test = SAN_DESIGN_POINTS + 2 if self.scenario == "san" else 2
        shape = self.allocation
        rules = (
            ("scenario", self.scenario in scenarios, f"one of {scenarios}"),
            ("san_budget", self.scenario != "san"
             or (_is_int(self.san_budget) and self.san_budget >= 100), "an integer >= 100"),
            ("allocation", not isinstance(shape, BudgetAllocation) or all(
                _is_int(v) and v >= low for v, low in ((shape.k, 2), (shape.n, 1),
                                                       (shape.n_obs, 2))),
             "a budget allocation of integers k >= 2, n >= 1 and N >= 2"),
            ("alphas", _non_empty(self.alphas) and all(_in_unit(a) for a in self.alphas)
             and _distinct(self.alphas), "a non-empty list of distinct levels in (0, 1)"),
            ("macro_replications",
             _is_int(self.macro_replications) and self.macro_replications >= 1,
             "an integer >= 1"),
            ("seed", _is_int(self.seed) and self.seed >= 0, "an integer >= 0"),
            ("methods", self.methods is None or (
                _non_empty(self.methods) and all(m in METHODS for m in self.methods)
                and _distinct(self.methods)),
             f"a non-empty list of distinct names from {METHODS}"),
            ("n_test", _is_int(self.n_test) and self.n_test >= min_test,
             f"an integer >= {min_test}"),
            ("threshold_quantile", _in_unit(self.threshold_quantile), "a number in (0, 1)"),
        )
        problems = [(name, f"must be {rule}, got {getattr(self, name)!r}")
                    for name, ok, rule in rules if not ok]
        if (self.scenario in models.NOISE_SCENARIOS
                and not isinstance(self.allocation, BudgetAllocation)):
            if not _is_int(self.allocation):
                problems.append(("allocation", "benchmark experiments need a budget "
                                 f"allocation or its catalog id, got {self.allocation!r}"))
            else:
                try:
                    allocation_by_id(self.allocation)
                except ValueError as exc:
                    problems.append(("allocation", str(exc)))
        if not problems and not self.resolved_methods():
            problems.append(("methods",
                             f"must not be POT-EMP alone at n = 1, got {self.methods!r}"))
        elif not problems and set(_POT_METHODS) & set(self.resolved_methods()):
            n = self.budget_allocation.n_obs
            try:
                level = evt_risk._threshold_rank(self.threshold_quantile, n) / n
                if min(self.alphas) < level:
                    problems.append(("alphas", f"must be >= {level:.6g}, the POT threshold "
                                     f"level of {n} observations, got {self.alphas!r}"))
            except evt_risk.InsufficientDataError as exc:
                problems.append(("allocation", f"the POT methods {exc}"))
        if problems:
            raise ConfigError(*problems)

    @property
    def budget_allocation(self) -> BudgetAllocation:
        """The cell's (k sites, n replications, N observations) shape: the
        catalog row of a benchmark cell, or ``SAN_DESIGN_POINTS`` sites of one
        replication of ``san_budget`` observations, with id ``san_budget``."""
        if self.scenario == "san":
            return BudgetAllocation(self.san_budget, SAN_DESIGN_POINTS, 1, self.san_budget,
                                    SAN_DESIGN_POINTS * self.san_budget)
        if isinstance(self.allocation, BudgetAllocation):
            return self.allocation
        return allocation_by_id(self.allocation)

    @property
    def allocation_id(self) -> int:
        return self.budget_allocation.id

    @property
    def allocation_label(self) -> str:
        return self.budget_allocation.label

    def resolved_methods(self) -> tuple[str, ...]:
        if self.methods is not None:
            roster = self.methods
        elif self.scenario == "san":
            roster = (ORD_KRG, EMP_EMP, POT_EVT)
        else:
            roster = METHODS
        # POT-EMP has no variance estimate from a single replication.
        return tuple(m for m in roster
                     if not (m == POT_EMP and self.budget_allocation.n < 2))


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    allocation: str
    allocation_id: int
    method: str
    alpha: float
    macro_rep: int
    mape: float | None
    diagnostics: str

    def sort_key(self):
        return (self.scenario, self.allocation_id, self.method, self.alpha, self.macro_rep)


def _benchmark_domain() -> Domain:
    return Domain(models.BENCHMARK_LOWER, models.BENCHMARK_UPPER)


def _san_test_points(design: np.ndarray, total: int) -> np.ndarray:
    """Equally spaced grid with the point nearest each design site removed."""
    grid = np.linspace(models.SAN_LOWER, models.SAN_UPPER, total)
    keep = np.ones(total, dtype=bool)
    for x in design[:, 0]:
        keep[np.argmin(np.abs(grid - x))] = False
    return grid[keep].reshape(-1, 1)


def _test_set(config: ExperimentConfig, design: np.ndarray) -> np.ndarray:
    if config.scenario == "san":
        return _san_test_points(design, config.n_test)
    return lhs(_benchmark_domain(), config.n_test,
               RngStream(config.seed, (_KEY_TEST,)))


def _truth(config: ExperimentConfig, points: np.ndarray, alpha: float) -> np.ndarray:
    if config.scenario == "san":
        return np.array([models.san_true_cvar(float(x[0]), alpha) for x in points])
    return np.array([models.true_cvar_benchmark(config.scenario, p, alpha)
                     for p in points])


def _simulate_site(config: ExperimentConfig, location: np.ndarray, macro_rep: int,
                   site_index: int) -> list[np.ndarray]:
    shape = config.budget_allocation
    streams = [RngStream(config.seed, (_KEY_SIM, macro_rep, site_index, j))
               for j in range(shape.n)]
    if config.scenario == "san":
        return [models.san_simulate(float(location[0]), shape.n_obs, s) for s in streams]
    return [models.benchmark_simulate(config.scenario, location, shape.n_obs, s)
            for s in streams]


def _mape(predictions: np.ndarray, truth: np.ndarray) -> float:
    mask = np.abs(truth) >= MAPE_TRUTH_FLOOR
    if not np.any(mask):
        raise ValueError("every test point has a near-zero true value; MAPE undefined")
    rel = np.abs(predictions[mask] - truth[mask]) / np.abs(truth[mask])
    return float(100.0 * rel.mean())


def _design_points(config: ExperimentConfig, macro_rep: int) -> np.ndarray:
    k = config.budget_allocation.k
    if config.scenario == "san":
        return equally_spaced(Domain((models.SAN_LOWER,), (models.SAN_UPPER,)), k)
    return lhs(_benchmark_domain(), k, RngStream(config.seed, (_KEY_DESIGN, macro_rep)))


def _sample_pass(config: ExperimentConfig, design: np.ndarray, macro_rep: int):
    """Simulate a macro-rep's samples one site at a time and take from each
    sample, as it is drawn, all that the roster reads.

    Each sample is folded into the crc32 digest of the macro-rep's data, in
    site and replication order; fit a GPD tail from the full sample if a POT
    method is on the roster, until the first fit fails; and given its
    empirical estimates at every level if a method reads them (see
    :func:`_reads_empirical`). A site's samples are dropped before the next
    site is drawn, the last site's on return. Returns (digest, fits, first
    fit error, empirical estimates or None).
    """
    roster = config.resolved_methods()
    shape = config.budget_allocation
    fits, fit_error, digest = [], None, 0
    pot = bool(set(_POT_METHODS) & set(roster))
    empirical = None
    if any(_reads_empirical(m, shape.n) for m in roster):
        empirical = _Empirical(config.alphas, len(design), shape.n)
    for i, x in enumerate(design):
        site = _simulate_site(config, x, macro_rep, i)
        for s in site:
            digest = zlib.crc32(s, digest)
        if pot and fit_error is None:
            try:
                fits.append([evt_risk.fit_gpd(s, config.threshold_quantile) for s in site])
            except evt_risk.RiskError as exc:
                fit_error = exc
        if empirical is not None:
            for j, s in enumerate(site):
                empirical.add(i, j, s)
    return digest, fits, fit_error, empirical


def _run_macro_rep(config: ExperimentConfig, macro_rep: int, test_points: np.ndarray,
                   truths: dict[float, np.ndarray]) -> list[ResultRecord]:
    """Every (method, alpha) record of one macro-replication. The records are
    built from :func:`_sample_pass`'s digest, fits and empirical estimates;
    no sample is alive by then.
    """
    design = _design_points(config, macro_rep)
    digest, fits, fit_error, empirical = _sample_pass(config, design, macro_rep)
    records = []
    for method in config.resolved_methods():
        for alpha in config.alphas:
            mape, diag = None, f"data={digest:08x}"
            try:
                if fit_error is not None and method in _POT_METHODS:
                    raise fit_error
                responses, variances, fallbacks, heavy, boundary = _site_estimates(
                    method, fits, empirical, alpha)
                model = kriging.fit([kriging.DesignSite(tuple(x), r, v)
                                     for x, r, v in zip(design, responses, variances)])
                preds, _ = model.predict_many(test_points)
                mape = _mape(preds, truths[alpha])
                diag += (f";nugget={model.nugget:.3g};fallbacks={fallbacks}"
                         f";heavy={heavy};boundary={boundary}")
            except (evt_risk.RiskError, kriging.SingularDesignError) as exc:
                diag += ";error=" + f"{type(exc).__name__}: {exc}".replace(";", ",")
            records.append(ResultRecord(config.scenario, config.allocation_label,
                                        config.allocation_id, method, alpha, macro_rep,
                                        mape, diag))
    return records


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as the process that started it
    is gone, so a killed run leaves no worker behind."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes for :func:`run_experiment`, each of which
    exits once its parent process does. Close it (``with``) when done."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)


def run_experiment(config: ExperimentConfig,
                   pool: Executor | None = None) -> list[ResultRecord]:
    """Run every (method, alpha, macro-rep) cell of one experiment.

    All methods consume the same simulated observations within a
    macro-replication, so method comparisons are paired. A numerical
    failure (``RiskError`` or ``SingularDesignError``) aborts only its own
    cell; it is recorded in the record's diagnostics with ``mape`` left
    empty. Any other exception propagates. The macro-replications run one
    after another in this process, or as one task each on ``pool`` (see
    :func:`process_pool`), which the caller opens, may share between
    experiments, and closes. Records come back sorted, so a fixed seed
    yields identical output with or without a pool of any size.
    """
    config.validate()
    probe = _design_points(config, 0)
    test_points = _test_set(config, probe)
    truths = {alpha: _truth(config, test_points, alpha) for alpha in config.alphas}

    reps = range(config.macro_replications)
    run = pool.map if pool is not None else map
    chunks = run(_run_macro_rep, [config] * len(reps), reps,
                 [test_points] * len(reps), [truths] * len(reps))
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=ResultRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank comparison
# ---------------------------------------------------------------------------

def wilcoxon_signed_rank(paired_a, paired_b, side: str = "greater") -> float:
    """One-sample signed-rank p-value for paired observations.

    ``side='greater'`` tests H1: a tends to exceed b (median difference
    > 0); ``side='less'`` the reverse; ``side='two-sided'`` doubles the
    smaller tail. Zero differences are dropped before ranking; the ranks are
    average ranks over the tie groups of equal absolute differences. The null
    distribution is exact (all 2^n sign assignments) up to n = 20 paired
    differences and a tie-corrected normal approximation with continuity
    correction beyond.
    """
    a = np.asarray(paired_a, dtype=float)
    b = np.asarray(paired_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length 1-D sequences")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("paired samples must be finite")
    if a.size < 5:
        raise ValueError("need at least 5 pairs")
    if side not in ("greater", "less", "two-sided"):
        raise ValueError(f"unknown side {side!r}")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise ValueError("all differences are zero; the test is degenerate")
    n = d.size
    _, group, tie_counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[group]
    w_plus = float(ranks[d > 0].sum())

    if n <= 20:
        # Average ranks are half-integers; doubling makes the walk integral.
        r2 = np.rint(2.0 * ranks).astype(int)
        counts = np.zeros(int(r2.sum()) + 1)
        counts[0] = 1.0
        for r in r2:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[:counts.size - r]
            counts += shifted
        total = 2.0**n
        w2 = int(round(2.0 * w_plus))
        p_ge = float(counts[w2:].sum()) / total
        p_le = float(counts[:w2 + 1].sum()) / total
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sd = math.sqrt(var)
        p_ge = float(special.ndtr(-(w_plus - mu - 0.5) / sd))
        p_le = float(special.ndtr((w_plus - mu + 0.5) / sd))

    if side == "greater":
        return p_ge
    if side == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))


def compare_methods(records, method_a: str = POT_EVT,
                    method_b: str = EMP_EMP) -> list[dict]:
    """Paired one-sided signed-rank comparisons of MAPE per experiment cell.

    Returns one row per (scenario, allocation, alpha) with p-values for
    "a <= b" (a has lower error) and "a >= b".
    """
    by_cell: dict[tuple, dict[str, dict[int, float]]] = {}
    for rec in records:
        if rec.mape is None or rec.method not in (method_a, method_b):
            continue
        cell = by_cell.setdefault((rec.scenario, rec.allocation, rec.allocation_id,
                                   rec.alpha), {method_a: {}, method_b: {}})
        cell[rec.method][rec.macro_rep] = rec.mape
    rows = []
    for (scenario, allocation, alloc_id, alpha), cell in sorted(by_cell.items()):
        shared = sorted(set(cell[method_a]) & set(cell[method_b]))
        if len(shared) < 5:
            continue
        a = [cell[method_a][m] for m in shared]
        b = [cell[method_b][m] for m in shared]
        if a == b:
            continue  # every difference is zero: the signed-rank test is degenerate
        p_le = wilcoxon_signed_rank(a, b, side="less")
        p_ge = wilcoxon_signed_rank(a, b, side="greater")
        rows.append({"scenario": scenario, "allocation": allocation,
                     "allocation_id": alloc_id, "alpha": alpha,
                     "n_pairs": len(shared), "p_le": p_le, "p_ge": p_ge})
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def write_results_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["scenario", "allocation", "allocation_id", "method", "alpha",
                      "macro_rep", "mape", "diagnostics"])
        for r in sorted(records, key=ResultRecord.sort_key):
            out.writerow([r.scenario, r.allocation, r.allocation_id, r.method,
                          _fmt(r.alpha), r.macro_rep, _fmt(r.mape), r.diagnostics])


def write_boxplot_csv(records, path) -> None:
    """Long-format rows (one per macro replication) for box plots."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["scenario", "allocation", "method", "alpha", "macro_rep", "mape"])
        for r in sorted(records, key=ResultRecord.sort_key):
            if r.mape is None:
                continue
            out.writerow([r.scenario, r.allocation, r.method, _fmt(r.alpha),
                          r.macro_rep, _fmt(r.mape)])


def write_summary_csv(records, path) -> None:
    """Median MAPE per (scenario, allocation, method), one column per alpha."""
    alphas = sorted({r.alpha for r in records})
    groups: dict[tuple, dict[float, list[float]]] = {}
    for r in records:
        key = (r.scenario, r.allocation_id, r.allocation, r.method)
        groups.setdefault(key, {})
        if r.mape is not None:
            groups[key].setdefault(r.alpha, []).append(r.mape)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["scenario", "allocation", "method"]
                     + [f"median_mape_{a}" for a in alphas])
        for (scenario, _, allocation, method), cells in sorted(groups.items()):
            meds = [(_fmt(float(np.median(cells[a]))) if cells.get(a) else "")
                    for a in alphas]
            out.writerow([scenario, allocation, method] + meds)
