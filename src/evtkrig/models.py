"""Simulation test beds with exact tail-risk oracles.

Two models are provided:

* a two-dimensional benchmark surface ``f(x1, x2) = x1*sin(pi*x2) +
  x2*sin(pi*x1)`` on ``[-pi, pi]^2`` observed under one of three additive
  noise families (normal, symmetric triangular, Pareto), each with an
  analytic closed form for the true conditional value-at-risk; and
* a five-activity stochastic activity network whose completion time is
  ``L(x) = max(T1+T2, T1+T3(x), T4+T5)`` with exponential activity
  durations, where the true CVaR is obtained numerically from the exact
  completion-time CDF.

CVaR here always means the upper-tail conditional expectation at level
``alpha``: the mean of outcomes beyond the ``alpha`` quantile.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.stats import norm

from .evt_risk import _check_alpha
from .rng import RngStream

BENCHMARK_LOWER = (-math.pi, -math.pi)
BENCHMARK_UPPER = (math.pi, math.pi)
SAN_LOWER = 0.3
SAN_UPPER = 2.0

NOISE_SCENARIOS = ("normal", "triangular", "pareto")

# Pareto noise family: shape a = 2, scale 2 + sqrt(x1^2 + x2^2).
PARETO_SHAPE = 2.0

_SAN_SURVIVAL_FLOOR = 1e-14


class OracleConvergenceError(RuntimeError):
    """Numeric oracle (root find / quadrature) failed to converge."""


def _check_point(p) -> tuple[float, float]:
    # The experiment domain is [-pi, pi]^2, but the trend and noise formulas
    # are total on R^2 and the shared oracle arithmetic is exercised at a few
    # convenient points outside it, so coordinates are not range-checked.
    return float(p[0]), float(p[1])


def _check_scenario(scenario: str) -> str:
    if scenario not in NOISE_SCENARIOS:
        raise ValueError(f"unknown noise scenario {scenario!r}; "
                         f"expected one of {NOISE_SCENARIOS}")
    return scenario


def benchmark_mean(p) -> float:
    """Deterministic trend surface x1*sin(pi*x2) + x2*sin(pi*x1)."""
    x1, x2 = _check_point(p)
    return x1 * math.sin(math.pi * x2) + x2 * math.sin(math.pi * x1)


def _noise_scale(p) -> float:
    x1, x2 = _check_point(p)
    return math.hypot(x1, x2)


def sample_noise(scenario: str, p, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` i.i.d. additive-noise values at design point ``p``.

    normal:     N(0, sigma) with sigma = sqrt(x1^2 + x2^2)
    triangular: Triangular(0, mode=s/2, s) with s = sqrt(x1^2 + x2^2)
    pareto:     Pareto type I, shape 2, scale 2 + sqrt(x1^2 + x2^2)

    At the origin the normal and triangular families degenerate to a point
    mass at zero; that is returned as an all-zero sample, not an error.
    """
    _check_scenario(scenario)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    s = _noise_scale(p)
    g = rng.generator()
    if scenario == "normal":
        return g.normal(0.0, s, size=count)
    if scenario == "triangular":
        if s == 0.0:
            return np.zeros(count)
        return g.triangular(0.0, s / 2.0, s, size=count)
    # Pareto: x_m * exp(E / a) with E ~ Exp(1) has survival (x / x_m)^-a.
    x_m = 2.0 + s
    return x_m * np.exp(g.standard_exponential(count) / PARETO_SHAPE)


def benchmark_simulate(scenario: str, p, count: int, rng: RngStream) -> np.ndarray:
    """Simulate the noisy benchmark response: trend plus additive noise."""
    return benchmark_mean(p) + sample_noise(scenario, p, count, rng)


def noise_cvar(scenario: str, p, alpha: float) -> float:
    """Closed-form CVaR of the pure additive noise at level ``alpha``.

    normal:     sigma * pdf(ppf(alpha)) / (1 - alpha)
    triangular: s * (1 - sqrt(2 * (1 - alpha)) / 3)   (valid for alpha >= 1/2)
    pareto:     2 * (2 + s) / sqrt(1 - alpha)
    """
    _check_scenario(scenario)
    alpha = _check_alpha(alpha)
    s = _noise_scale(p)
    if scenario == "normal":
        return s * norm.pdf(norm.ppf(alpha)) / (1.0 - alpha)
    if scenario == "triangular":
        return s * (1.0 - math.sqrt(2.0 * (1.0 - alpha)) / 3.0)
    return PARETO_SHAPE / (PARETO_SHAPE - 1.0) * (2.0 + s) * (1.0 - alpha) ** (-1.0 / PARETO_SHAPE)


def true_cvar_benchmark(scenario: str, p, alpha: float) -> float:
    """True CVaR of the noisy benchmark response.

    CVaR is translation-equivariant, so the surface value is the trend plus
    the noise CVaR.
    """
    return benchmark_mean(p) + noise_cvar(scenario, p, alpha)


# ---------------------------------------------------------------------------
# Stochastic activity network
# ---------------------------------------------------------------------------

def _check_san_param(x: float) -> float:
    x = float(x)
    if not SAN_LOWER <= x <= SAN_UPPER:
        raise ValueError(f"activity-mean parameter {x} outside [{SAN_LOWER}, {SAN_UPPER}]")
    return x


def san_simulate(x: float, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` completion times L(x) = max(T1+T2, T1+T3, T4+T5).

    T1, T2, T4, T5 are Exp(mean 1); T3 is Exp(mean x); all independent.
    """
    x = _check_san_param(x)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    g = rng.generator()
    t = g.standard_exponential((5, count))
    t[2] *= x
    return np.maximum.reduce([t[0] + t[1], t[0] + t[2], t[3] + t[4]])


def san_cdf(t: float, x: float) -> float:
    """Exact CDF of the completion time L(x).

    The two paths through T1 are handled jointly by conditioning on T1:

        P(T1+T2 <= t, T1+T3 <= t)
            = int_0^t exp(-s) (1 - exp(-(t-s))) (1 - exp(-(t-s)/x)) ds,

    and the third path is independent with P(T4+T5 <= t) = 1 - (1+t)e^-t.
    """
    x = _check_san_param(x)
    t = float(t)
    if t <= 0.0:
        return 0.0

    def integrand(s: float) -> float:
        r = t - s
        return math.exp(-s) * (-math.expm1(-r)) * (-math.expm1(-r / x))

    joint, _ = integrate.quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-10, limit=200)
    erlang = 1.0 - (1.0 + t) * math.exp(-t)
    return joint * erlang


def _san_upper_bound(x: float, start: float) -> float:
    """Smallest probed t with survival below the truncation floor."""
    hi = max(start, 1.0)
    for _ in range(64):
        if 1.0 - san_cdf(hi, x) < _SAN_SURVIVAL_FLOOR:
            return hi
        hi *= 1.5
    raise OracleConvergenceError(
        f"survival of L({x}) never dropped below {_SAN_SURVIVAL_FLOOR} up to t={hi:.3g}")


def san_var(x: float, alpha: float) -> float:
    """Quantile of L(x) by bracketed root finding (abs tolerance 1e-9)."""
    x = _check_san_param(x)
    alpha = _check_alpha(alpha)
    hi = 1.0
    for _ in range(64):
        if san_cdf(hi, x) > alpha:
            break
        hi *= 2.0
    else:
        raise OracleConvergenceError(f"failed to bracket the {alpha} quantile of L({x})")
    try:
        return optimize.brentq(lambda t: san_cdf(t, x) - alpha, 0.0, hi, xtol=1e-9, maxiter=200)
    except RuntimeError as exc:  # pragma: no cover - brentq convergence failure
        raise OracleConvergenceError(f"quantile root find failed for x={x}, alpha={alpha}: {exc}")


def san_mean(x: float) -> float:
    """E[L(x)] via quadrature of the survival function."""
    x = _check_san_param(x)
    hi = _san_upper_bound(x, 10.0)
    val, _ = integrate.quad(lambda t: 1.0 - san_cdf(t, x), 0.0, hi,
                            epsabs=1e-10, epsrel=1e-8, limit=400)
    return val


@lru_cache(maxsize=4096)
def san_true_cvar(x: float, alpha: float) -> float:
    """True CVaR of L(x): quantile plus the scaled tail integral.

    CVaR_alpha = q_alpha + (1 - alpha)^-1 * int_q^inf (1 - F(t)) dt, with
    the tail integral truncated where the survival drops below 1e-14.
    Results are cached because experiment harnesses reuse a fixed test grid.
    """
    q = san_var(x, alpha)
    hi = _san_upper_bound(x, q + 10.0)
    tail, _ = integrate.quad(lambda t: 1.0 - san_cdf(t, x), q, hi,
                             epsabs=1e-12, epsrel=1e-8, limit=400)
    return q + tail / (1.0 - alpha)
