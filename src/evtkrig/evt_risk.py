"""Tail-risk estimation: empirical CVaR, generalized Pareto peaks-over-
threshold fits, and delta-method variances.

The estimators operate on a single loss sample (1-D array of finite
reals). Two routes are provided for CVaR at level ``alpha``:

* empirical: tail average beyond the empirical quantile, with the
  tail-average-transform variance estimator; and
* peaks over threshold (POT): a generalized Pareto distribution (GPD) is
  fit by maximum likelihood to the exceedances over a high threshold, the
  quantile and tail mean are extrapolated from the fitted tail, and the
  estimator variance follows from the delta method through the empirical
  Fisher information of the GPD log-likelihood.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

__all__ = [
    "RiskEstimate",
    "GpdFit",
    "RiskError",
    "InsufficientDataError",
    "InsufficientTailError",
    "ConvergenceError",
    "SingularInformationError",
    "HeavyTailError",
    "TailOrderError",
    "HeavyTailWarning",
    "as_sample",
    "empirical_var",
    "empirical_cvar",
    "gpd_cdf",
    "gpd_logpdf",
    "gpd_score",
    "gpd_hessian",
    "fit_gpd",
    "fit_gpd_exceedances",
    "pot_var",
    "pot_cvar",
    "pot_cvar_value",
    "pot_cvar_many",
    "cvar_sensitivity",
    "delta_variance",
]

# Shape values this close to zero take the exponential (xi = 0) branch.
XI_ZERO_EPS = 1e-9
# The xi-partials lose ~xi^-2 digits to cancellation near zero; below this
# threshold they switch to series expansions in xi.
XI_SERIES_EPS = 1e-5
# Maximum-likelihood search box for the GPD shape.
XI_BOUNDS = (-0.49, 0.99)
# Scale search box spans log(beta0) +- LOG_BETA_SPAN around the mean exceedance.
LOG_BETA_SPAN = math.log(1e3)
MIN_EXCEEDANCES = 30
INFO_MAX_CONDITION = 1e12


class RiskError(RuntimeError):
    """Numerical or data-driven estimation failure (as opposed to bad input)."""


class InsufficientDataError(RiskError):
    """Sample too small to support the requested tail fit."""


class InsufficientTailError(RiskError):
    """Too few observations beyond the quantile/threshold."""


class ConvergenceError(RiskError):
    """Optimizer failed to reach a stationary point."""


class SingularInformationError(RiskError):
    """Empirical Fisher information is singular or not positive definite."""


class HeavyTailError(RiskError):
    """Fitted shape >= 1: the tail mean (and hence CVaR) is infinite."""


class TailOrderError(RiskError, ValueError):
    """Requested level lies below the threshold level of the fit.

    Ties at the threshold can leave a fit's exceedance fraction short of a
    level the configuration admits, so this is a :class:`RiskError` that
    fails only its own cell; it stays a ``ValueError`` for direct callers.
    """


class HeavyTailWarning(UserWarning):
    """Shape estimate >= 1/2: asymptotic variance theory is shaky."""


@dataclass(frozen=True)
class RiskEstimate:
    """Point estimate and estimator variance for one tail level."""

    value: float
    variance: float
    alpha: float
    method: str  # "empirical" | "pot"


@dataclass(frozen=True)
class GpdFit:
    """A fitted GPD tail model over exceedances of threshold ``u``.

    ``info`` is the empirical Fisher information: the negated average
    Hessian of the exceedance log-density at (xi, beta).  ``zeta`` is the
    exceedance fraction n_exceed / n_total.
    """

    u: float
    n_total: int
    n_exceed: int
    zeta: float
    xi: float
    beta: float
    info: np.ndarray
    loglik: float
    boundary: bool = False
    threshold_quantile: float | None = None


def as_sample(values) -> np.ndarray:
    """Validate and return a 1-D float sample (finite, length >= 1)."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size < 1:
        raise ValueError("sample must contain at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def _in_unit(value) -> bool:
    """A real number (not a bool or a string) strictly inside (0, 1)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 < value < 1.0)


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    if not _in_unit(alpha):
        raise ValueError(f"{name} must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def _order_index(alpha: float, n: int) -> int:
    """ceil(alpha n), clipped to [1, n]: the rank of the smallest of n >= 2
    order statistics at which the empirical CDF reaches alpha. A 1e-9 slack
    guards the ceiling against float representation of alpha at exact
    multiples.
    """
    if n < 2:
        raise ValueError("empirical quantile needs at least 2 observations")
    return min(max(math.ceil(alpha * n - 1e-9), 1), n)


def empirical_var(sample, alpha: float) -> float:
    """Smallest order statistic at which the empirical CDF reaches alpha:
    the :func:`_order_index`-th."""
    x = as_sample(sample)
    k = _order_index(_check_alpha(alpha), x.size)
    return float(np.partition(x, k - 1)[k - 1])


def empirical_cvar(sample, alpha: float) -> RiskEstimate:
    """Empirical CVaR (tail average) with its transform-based variance.

    With q the empirical quantile and m the count of observations at or
    beyond it, the tail-average transform W_i = q + (x_i - q)+ n / m has
    mean equal to the tail average, the value; the variance is
    sum((W_i - W_bar)^2) / (n (n - 1)).
    """
    x = as_sample(sample)
    alpha, n = _check_alpha(alpha), x.size
    k = _order_index(alpha, n)
    q = float(np.partition(x, k - 1)[k - 1])
    m = int(np.count_nonzero(x >= q))
    if m < 2:
        raise InsufficientTailError(
            f"only {m} observation(s) at or beyond the {alpha} quantile; need >= 2")
    w = q + np.maximum(x - q, 0.0) * (n / m)
    w_bar = float(w.mean())
    dev = w - w_bar
    return RiskEstimate(value=w_bar, variance=float(dev @ dev) / (n * (n - 1)),
                        alpha=alpha, method="empirical")


# ---------------------------------------------------------------------------
# Generalized Pareto distribution
# ---------------------------------------------------------------------------

def _check_gpd_args(xi: float, beta: float, z) -> np.ndarray:
    if beta <= 0.0:
        raise ValueError(f"scale must be positive, got {beta}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("GPD argument below the lower support endpoint 0")
    if xi < 0.0 and np.any(z > -beta / xi):
        raise ValueError(
            f"GPD argument beyond the upper support endpoint {-beta / xi:.6g} for xi={xi}")
    return z


def gpd_cdf(xi: float, beta: float, z):
    """GPD CDF: 1 - (1 + xi z / beta)^(-1/xi), exponential branch at xi = 0."""
    xi, beta = float(xi), float(beta)
    zz = _check_gpd_args(xi, beta, z)
    if abs(xi) < XI_ZERO_EPS:
        out = -np.expm1(-zz / beta)
    else:
        with np.errstate(divide="ignore"):
            out = -np.expm1(-np.log1p(xi * zz / beta) / xi)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def _gpd_terms(xi: float, beta: float, z, order: int) -> list:
    """[logpdf], then up to ``order`` its partials [d/dxi, d/dbeta] and
    [d2/dxi2, d2/dxidbeta, d2/dbeta2] at each z, from shared t = z / beta,
    log1p(xi t) and beta + xi z. The density takes the exponential branch below
    |xi| = XI_ZERO_EPS, the xi-partials their series below XI_SERIES_EPS; the
    beta-partials have no cancellation at any xi, xi = 0 included.
    """
    xi, beta = float(xi), float(beta)
    zz = _check_gpd_args(xi, beta, z)
    t = zz / beta
    if abs(xi) < XI_ZERO_EPS:
        out = [-math.log(beta) - t]
    else:
        with np.errstate(divide="ignore"):
            log_term = np.log1p(xi * t)
        out = [-math.log(beta) - (1.0 + 1.0 / xi) * log_term]
    if order == 0:
        return out
    series = abs(xi) < XI_SERIES_EPS
    denom = beta + xi * zz
    ratio = zz * (xi + 1.0) / denom
    if series:
        d_xi = (t * t / 2.0 - t) + xi * (t**2 - 2.0 * t**3 / 3.0) \
            + xi**2 * (0.75 * t**4 - t**3)
    else:
        d_xi = log_term / xi**2 - (1.0 / xi + 1.0) * zz / denom
    out += [d_xi, (ratio - 1.0) / beta]
    if order == 1:
        return out
    z2, denom2 = zz**2, denom**2
    if series:
        d_xx = t**2 - 2.0 * t**3 / 3.0 + xi * (1.5 * t**4 - 2.0 * t**3)
    else:
        d_xx = (-2.0 / xi**3 * log_term + 2.0 / xi**2 * zz / denom
                + (1.0 / xi + 1.0) * z2 / denom2)
    d_xb = (zz / denom - z2 * (xi + 1.0) / denom2) / beta
    d_bb = -(ratio - 1.0) / beta**2 - zz * (xi + 1.0) / (beta * denom2)
    return out + [d_xx, d_xb, d_bb]


def gpd_logpdf(xi: float, beta: float, z):
    """GPD log-density matching :func:`gpd_cdf` (−inf at a finite endpoint)."""
    out = _gpd_terms(xi, beta, z, 0)[0]
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def gpd_score(xi: float, beta: float, z):
    """First partials (d/dxi, d/dbeta) of the GPD log-density at each z."""
    return tuple(_gpd_terms(xi, beta, z, 1)[1:])


def gpd_hessian(xi: float, beta: float, z):
    """Second partials (d2/dxi2, d2/dxidbeta, d2/dbeta2) of the log-density."""
    return tuple(_gpd_terms(xi, beta, z, 2)[3:])


def _ray(tau: float, w: np.ndarray, b_lo: float, b_hi: float) -> tuple[float, float, float]:
    """The box optimum (xi, b) on the ray xi / beta = theta, and dF/dtau there.

    ``w`` holds the exceedances scaled by their maximum and ``tau`` is
    theta * z_max, so the support constraint reads tau > -1. On the ray the
    negative log-likelihood per exceedance is F(b) = log b + S + b_p / b in
    b = beta / z_max, with S = mean(log1p(tau w)) and Grimshaw's (1993)
    profile point xi = S, b_p = S / tau. The box cuts the ray to b in
    [b_lo, min(b_hi, xi_edge / tau)] (xi_edge: the shape face on the side
    of tau), so its optimum is b_p clipped there. Unclipped,
    dF/dtau = S'/S - 1/tau + S' with S' = mean(w / (1 + tau w)); below
    |tau| = 1e-4, where S'/S and 1/tau cancel, b_p and dF/dtau come from
    the series of h(u) = log1p(u) / u. On a clip dF/dtau holds the clipped
    coordinate fixed (xi on a shape face, b on a scale face); F is
    stationary in b at the clip, so dF/dtau is continuous across it.
    """
    u = tau * w
    n = w.size
    s = float(np.log1p(u).sum()) / n
    ds = float((w / (1.0 + u)).sum()) / n
    if abs(tau) < 1e-4:
        b_p = float(w @ (1.0 - u * (0.5 - u * (1.0 / 3.0 - 0.25 * u)))) / n
        grad = float((w * w) @ (-0.5 + u * (2.0 / 3.0 - 0.75 * u))) / (n * b_p) + ds
    else:
        b_p, grad = s / tau, ds / s - 1.0 / tau + ds
    xi_edge = XI_BOUNDS[1] if tau > 0.0 else XI_BOUNDS[0]
    b_shape = xi_edge / tau if tau != 0.0 else math.inf
    b = min(max(b_p, b_lo), b_hi, b_shape)
    if b == b_p:
        return s, b, grad
    if b == b_shape:
        return xi_edge, b, ds * (1.0 + 1.0 / xi_edge) - 1.0 / tau
    # grad - S' is b_p'(tau) / b_p.
    return tau * b, b, ds + (grad - ds) * b_p / b


def _slope_solve(fun, x0, bounds, **_) -> optimize.OptimizeResult:
    """Minimize a C^1 function F of one variable on [lo, hi], given F' alone.

    A custom ``method`` for :func:`scipy.optimize.minimize`, called with
    ``fun`` = F' (a float to float callable) and ``bounds=[(lo, hi)]``; the
    result holds ``x``, ``jac`` and ``nfev`` but no ``fun``. From x0 the
    solve steps downhill, by 1 and then doubling the step, until the slope
    turns, or it stops at the bound where the slope still points out of the
    interval. It then narrows the bracket [a, b], F'(a) < 0 < F'(b), by
    Illinois regula falsi (Dowell & Jarratt 1971), bisecting whenever four
    steps in a row fail to halve it, until |F'| <= 1e-10 or a and b are
    adjacent floats. Every bracket holds a change of F' from - to +, a
    minimum.

    ``models.san_var`` calls it directly. ``fit_gpd_exceedances`` goes through
    ``minimize`` only so that the benchmark tracer, which counts optimizer work
    at ``minimize``, reads the true ``nfev``, until the package counts its own.
    """
    (lo, hi), = bounds
    nfev = 0

    def slope(x: float) -> float:
        nonlocal nfev
        nfev += 1
        return fun(x)

    def done(x: float, g: float) -> optimize.OptimizeResult:
        return optimize.OptimizeResult(x=np.array([x]), jac=np.array([g]), nfev=nfev,
                                       success=True, status=0)

    x = float(x0[0])
    g = slope(x)
    step = 1.0 if g < 0.0 else -1.0
    edge = hi if step > 0.0 else lo
    while True:
        if abs(g) <= 1e-10 or x == edge:
            return done(x, g)
        x_new = min(max(x + step, lo), hi)
        g_new = slope(x_new)
        if g_new * step > 0.0:
            break
        x, g, step = x_new, g_new, 2.0 * step
    ends = sorted([(x, g), (x_new, g_new)])
    # Illinois: an end kept twice in a row enters the secant with half its slope.
    g_eff = [ends[0][1], ends[1][1]]
    x, g = x_new, g_new
    last, widths = -1, [math.inf] * 4
    while abs(g) > 1e-10:
        (a, _), (b, _) = ends
        if b <= math.nextafter(a, math.inf):
            return done(*min(ends, key=lambda e: abs(e[1])))
        x = b - g_eff[1] * (b - a) / (g_eff[1] - g_eff[0])
        if not a < x < b or b - a > 0.5 * widths[0]:
            x = 0.5 * (a + b)
        widths = widths[1:] + [b - a]
        g = slope(x)
        side = 0 if g < 0.0 else 1
        ends[side], g_eff[side] = (x, g), g
        if side == last:
            g_eff[1 - side] *= 0.5
        last = side
    return done(x, g)


def fit_gpd_exceedances(z, n_total: int | None = None, u: float = 0.0,
                        threshold_quantile: float | None = None) -> GpdFit:
    """Maximum-likelihood GPD fit to raw exceedances (threshold already removed).

    The search box is XI_BOUNDS for the shape and LOG_BETA_SPAN around
    log(mean(z)) for the scale; the support constraint
    1 + xi * z_max / beta > 0 holds throughout. Grimshaw's (1993)
    reduction turns the search into one dimension: every point of the box
    lies on one ray xi / beta = theta, and the best point on each ray is
    the profile point clipped to the box (see :func:`_ray`). The clipped
    profile F is C^1 in s = log1p(theta z_max) on closed-form bounds, so
    one bracketed solve of dF/ds = 0 on its slope alone (see
    :func:`_slope_solve`), started at s = 0 and ended at |dF/ds| <= 1e-10
    or on a bound, covers the interior and every face of the box.

    ``n_total`` (default: the number of exceedances) must be an integer no
    smaller than the number of exceedances, ``u`` a finite number, and
    ``threshold_quantile`` None or a number in (0, 1).
    Fits within 1e-6 of the box edge are flagged ``boundary``; interior
    fits must pass a gradient check on the full (xi, beta) score.
    """
    z = as_sample(z)
    if np.any(z < 0.0):
        raise ValueError("exceedances must be nonnegative")
    if n_total is None:
        n_total = z.size
    if (not isinstance(n_total, numbers.Integral) or isinstance(n_total, bool)
            or n_total < z.size):
        raise ValueError(f"n_total must be an integer >= the {z.size} exceedances, "
                         f"got {n_total!r}")
    if not (isinstance(u, numbers.Real) and math.isfinite(u)):
        raise ValueError(f"threshold u must be a finite number, got {u!r}")
    if threshold_quantile is not None:
        threshold_quantile = _check_alpha(threshold_quantile, "threshold_quantile")
    if z.size < MIN_EXCEEDANCES:
        raise InsufficientTailError(
            f"{z.size} exceedances below the floor of {MIN_EXCEEDANCES}")
    n_u = z.size
    z_max = float(z.max())
    beta0 = float(z.mean())
    if beta0 <= 0.0:
        raise InsufficientTailError("exceedances are all zero; no tail to fit")
    lbeta_lo, lbeta_hi = math.log(beta0) - LOG_BETA_SPAN, math.log(beta0) + LOG_BETA_SPAN

    w = z / z_max
    b_lo, b_hi = math.exp(lbeta_lo) / z_max, math.exp(lbeta_hi) / z_max

    def slope(s: float) -> float:
        return _ray(math.expm1(s), w, b_lo, b_hi)[2] * math.exp(s)

    # A ray meets the box iff tau <= XI_BOUNDS[1] / b_lo; b_lo <= 1e-3, so the
    # support tau > -1 is the lower end.
    res = optimize.minimize(slope, [0.0], method=_slope_solve,
                            bounds=[(math.log(1e-12), math.log1p(XI_BOUNDS[1] / b_lo))])
    xi_hat, b_hat, _ = _ray(math.expm1(float(res.x[0])), w, b_lo, b_hi)
    beta_hat = z_max * b_hat

    boundary = (xi_hat - XI_BOUNDS[0] < 1e-6 or XI_BOUNDS[1] - xi_hat < 1e-6
                or math.log(beta_hat) - lbeta_lo < 1e-6 or lbeta_hi - math.log(beta_hat) < 1e-6)
    loglik, s_xi, s_beta, h_xx, h_xb, h_bb = _gpd_terms(xi_hat, beta_hat, z, 2)
    grad_norm = math.hypot(float(s_xi.sum()), float(s_beta.sum()))
    if not boundary and grad_norm > 1e-6 * n_u:
        raise ConvergenceError(
            f"GPD likelihood gradient norm {grad_norm:.3g} exceeds tolerance "
            f"{1e-6 * n_u:.3g} at an interior point")

    info = -np.array([[h_xx.mean(), h_xb.mean()], [h_xb.mean(), h_bb.mean()]])
    if not np.all(np.isfinite(info)) or _condition(info) > INFO_MAX_CONDITION:
        raise SingularInformationError(
            "empirical Fisher information is numerically singular "
            f"(condition number > {INFO_MAX_CONDITION:.0e})")

    return GpdFit(u=float(u), n_total=int(n_total), n_exceed=n_u,
                  zeta=n_u / float(n_total), xi=xi_hat, beta=beta_hat, info=info,
                  loglik=float(loglik.sum()), boundary=boundary,
                  threshold_quantile=threshold_quantile)


def fit_gpd(sample, threshold_quantile: float = 0.9) -> GpdFit:
    """Threshold a sample at an empirical quantile and fit the GPD tail.

    The threshold is the min(ceil(q N), N - 30)-th of the N order statistics
    (q defaults to 0.9; see :func:`_order_index`), so at least 30 exceedances
    are left unless ties sit at the threshold. Samples under 60 observations
    are rejected outright.
    """
    x = as_sample(sample)
    threshold_quantile = _check_alpha(threshold_quantile, "threshold_quantile")
    n = x.size
    if n < 2 * MIN_EXCEEDANCES:
        raise InsufficientDataError(
            f"need at least {2 * MIN_EXCEEDANCES} observations for a tail fit, got {n}")
    k = min(_order_index(threshold_quantile, n), n - MIN_EXCEEDANCES)
    u = float(np.partition(x, k - 1)[k - 1])
    z = x[x > u] - u
    if z.size < MIN_EXCEEDANCES:
        raise InsufficientTailError(
            f"only {z.size} strict exceedances available after lowering the "
            f"threshold (ties at the threshold?)")
    return fit_gpd_exceedances(z, n_total=n, u=u, threshold_quantile=threshold_quantile)


# ---------------------------------------------------------------------------
# POT quantile / CVaR and the delta-method variance
# ---------------------------------------------------------------------------

def _log_ratio(zeta, alpha: float, xi=None) -> np.ndarray:
    """log(zeta / (1 - alpha)) per fit; nonnegative iff alpha covers the threshold.

    A level that misses the threshold level 1 - zeta only by round-off
    (1e-12 in the log) is treated as the threshold level itself. The fits
    are checked in order and the first that fails raises: HeavyTailError if
    its shape ``xi`` (when given) is >= 1, else TailOrderError if alpha lies
    below its threshold level.
    """
    alpha = _check_alpha(alpha)
    zeta = np.asarray(zeta, dtype=float)
    big_l = np.log(zeta / (1.0 - alpha))
    heavy = np.zeros(big_l.shape, bool) if xi is None else np.asarray(xi) >= 1.0
    failed = heavy | (big_l < -1e-12)
    if failed.any():
        i = int(np.argmax(failed))
        if heavy.flat[i]:
            raise HeavyTailError(f"xi={float(np.asarray(xi).flat[i])} >= 1: CVaR is infinite")
        raise TailOrderError(
            f"alpha={alpha} lies below the threshold level {1.0 - zeta.flat[i]:.6g}")
    return np.maximum(big_l, 0.0)


def pot_var(fit: GpdFit, alpha: float) -> float:
    """Tail-extrapolated quantile u + (beta/xi) [ (zeta/(1-alpha))^xi - 1 ]."""
    big_l = float(_log_ratio(fit.zeta, alpha))
    if abs(fit.xi) < XI_ZERO_EPS:
        return fit.u + fit.beta * big_l
    return fit.u + fit.beta * math.expm1(fit.xi * big_l) / fit.xi


def _excess_factor(xi, big_l) -> np.ndarray:
    """B(xi, L) = (e^(xi L) / (1 - xi) - 1) / xi, so that CVaR = u + beta B
    at L = log(zeta / (1 - alpha)).

    Evaluated as expm1(xi L) / (xi (1 - xi)) + 1 / (1 - xi), which stays
    stable near xi = 0; the limit there is L + 1. Takes arrays, with every
    xi < 1.
    """
    near = np.abs(xi) < XI_ZERO_EPS
    x = np.where(near, 0.5, xi)
    return np.where(near, big_l + 1.0,
                    np.expm1(x * big_l) / (x * (1.0 - x)) + 1.0 / (1.0 - x))


def _excess_factor_dxi(xi, big_l) -> np.ndarray:
    """d/dxi of :func:`_excess_factor`; series below |xi| = 1e-4.

    The series is B = sum_n d_n xi^n with d_0 = L + 1 and
    d_n = d_(n-1) + L^(n+1) / (n+1)!, cut after the xi^3 term of the
    derivative.
    """
    d = [big_l + 1.0]
    for n in range(1, 5):
        d.append(d[-1] + big_l ** (n + 1) / math.factorial(n + 1))
    near = np.abs(xi) < 1e-4
    x = np.where(near, 0.5, xi)
    one = 1.0 - x
    return np.where(near, d[1] + 2.0 * xi * d[2] + 3.0 * xi**2 * d[3] + 4.0 * xi**3 * d[4],
                    big_l * np.exp(x * big_l) / (x * one)
                    - np.expm1(x * big_l) * (1.0 - 2.0 * x) / (x * one) ** 2
                    + 1.0 / one**2)


def _fit_columns(fits, *names: str) -> list[np.ndarray]:
    return [np.array([getattr(f, name) for f in fits], dtype=float) for name in names]


def _condition(info: np.ndarray) -> np.ndarray:
    """2-norm condition number |lambda|max / |lambda|min of each finite
    symmetric 2x2 matrix [[a, b], [b, c]] in ``info``: (|m| + r)^2 / |det| with
    m = (a + c) / 2 and r = hypot((a - c) / 2, b); inf if singular. Each matrix
    is first scaled by a power of two, exactly, so no product overflows.
    """
    _, e = np.frexp(np.abs(info).max(axis=(-2, -1), initial=0.0))
    a, b, c = (np.ldexp(info[..., i, j], -e) for i, j in ((0, 0), (1, 0), (1, 1)))
    big = np.abs(0.5 * (a + c)) + np.hypot(0.5 * (a - c), b)
    det = np.abs(a * c - b * b)
    return np.divide(big * big, det, out=np.full(det.shape, math.inf), where=det > 0.0)


def _quad_form(fits, g_xi, g_beta) -> tuple[np.ndarray, np.ndarray]:
    """grad' I^-1 grad / n_exceed per fit, with the flags of :func:`pot_cvar_many`.

    The form is the sum of squares of L^-1 grad (L: the Cholesky factor of
    the information I), so round-off cannot drive it negative. Warns when a
    fit has xi >= 1/2, where the asymptotic normality of the MLE fails.
    """
    xi, n_exceed = _fit_columns(fits, "xi", "n_exceed")
    if np.any(xi >= 0.5):
        warnings.warn(f"delta-method variance with xi={xi[xi >= 0.5][0]:.3f} >= 0.5 "
                      "is unreliable", HeavyTailWarning, stacklevel=3)
    info = np.array([f.info if np.shape(f.info) == (2, 2) else np.full((2, 2), np.nan)
                     for f in fits], dtype=float).reshape(-1, 2, 2)
    ok = np.isfinite(info).all(axis=(1, 2))
    info[~ok] = np.eye(2)
    a, b, c = info[:, 0, 0], info[:, 1, 0], info[:, 1, 1]
    ok &= np.abs(info[:, 0, 1] - b) <= 1e-8 * (1.0 + np.abs(info[:, 0, 1]))
    ok &= _condition(info) <= INFO_MAX_CONDITION
    with np.errstate(divide="ignore", invalid="ignore"):
        l11 = np.sqrt(a)
        l21 = b / l11
        l22 = np.sqrt(c - l21 * l21)
        h1 = g_xi / l11
        h2 = (g_beta - l21 * h1) / l22
        ok &= (a > 0.0) & (l22 > 0.0)
        return np.where(ok, (h1 * h1 + h2 * h2) / n_exceed, np.nan), ~ok


def pot_cvar_many(fits, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """POT CVaR values, delta-method variances and singular flags of fits at one level.

    Entry i is :func:`pot_cvar` of ``fits[i]``, except that a fit is flagged,
    with variance NaN, unless its information is a finite symmetric
    positive-definite 2x2 matrix with condition number at most
    INFO_MAX_CONDITION. The first fit with xi >= 1 or a level below its
    threshold level raises as :func:`pot_cvar` would.
    """
    xi, beta, u, zeta = _fit_columns(fits, "xi", "beta", "u", "zeta")
    g_xi, g_beta = cvar_sensitivity(xi, beta, u, zeta, alpha)
    variance, singular = _quad_form(fits, g_xi, g_beta)
    return u + beta * g_beta, variance, singular


def pot_cvar_value(fit: GpdFit, alpha: float) -> float:
    """POT CVaR point estimate: the extrapolated quantile plus the GPD mean
    excess above it, q + (beta + xi (q - u)) / (1 - xi). Requires xi < 1
    for a finite tail mean."""
    return fit.u + fit.beta * cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, alpha)[1]


def pot_cvar(fit: GpdFit, alpha: float) -> RiskEstimate:
    """POT CVaR with its delta-method variance (see :func:`delta_variance`)."""
    value, variance, singular = pot_cvar_many([fit], alpha)
    if singular[0]:
        raise SingularInformationError(
            "information matrix is not a finite, symmetric, positive-definite 2x2 "
            f"matrix with condition number <= {INFO_MAX_CONDITION:.0e}")
    return RiskEstimate(value=float(value[0]), variance=float(variance[0]),
                        alpha=float(alpha), method="pot")


def cvar_sensitivity(xi: float, beta: float, u: float, zeta: float,
                     alpha: float) -> tuple[float, float]:
    """Gradient (d/dxi, d/dbeta) of the POT CVaR in the GPD parameters.

    The extrapolated quantile is itself a function of (xi, beta), so the
    gradient carries both the quantile and the mean-excess dependence:
    with B(xi) = (e^(xi L)/(1-xi) - 1)/xi and L = log(zeta/(1-alpha)),
    CVaR = u + beta B(xi), d/dbeta = B, d/dxi = beta B'(xi). Given arrays
    (one entry per fit) it returns arrays; the first fit with xi >= 1 or a
    level below its threshold level raises (see :func:`_log_ratio`).
    """
    big_l = _log_ratio(zeta, alpha, xi)
    g_xi, g_beta = beta * _excess_factor_dxi(xi, big_l), _excess_factor(xi, big_l)
    return (float(g_xi), float(g_beta)) if np.ndim(xi) == 0 else (g_xi, g_beta)


def delta_variance(fit: GpdFit, alpha: float) -> float:
    """Asymptotic CVaR variance: grad' I^-1 grad / n_exceed.

    ``I`` is the empirical Fisher information of the fitted tail and the
    gradient is :func:`cvar_sensitivity`. Raises SingularInformationError
    where :func:`pot_cvar_many` flags a fit. Warns when xi >= 1/2, where the
    asymptotic normality of the MLE becomes unreliable.
    """
    return pot_cvar(fit, alpha).variance
