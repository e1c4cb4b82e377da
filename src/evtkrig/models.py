"""Simulation test beds with exact tail-risk oracles.

Two models are provided:

* a two-dimensional benchmark surface ``f(x1, x2) = x1*sin(pi*x2) +
  x2*sin(pi*x1)`` on ``[-pi, pi]^2`` observed under one of three additive
  noise families (normal, symmetric triangular, Pareto), each with an
  analytic closed form for the true conditional value-at-risk; and
* a five-activity stochastic activity network whose completion time is
  ``L(x) = max(T1+T2, T1+T3(x), T4+T5)`` with exponential activity
  durations, whose completion-time CDF and tail integral, and hence its
  true CVaR, are exact closed forms.

CVaR here always means the upper-tail conditional expectation at level
``alpha``: the mean of outcomes beyond the ``alpha`` quantile.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .evt_risk import _check_alpha, _slope_solve
from .rng import RngStream

BENCHMARK_LOWER = (-math.pi, -math.pi)
BENCHMARK_UPPER = (math.pi, math.pi)
SAN_LOWER = 0.3
SAN_UPPER = 2.0

NOISE_SCENARIOS = ("normal", "triangular", "pareto")

# Pareto noise family: shape a = 2, scale 2 + sqrt(x1^2 + x2^2).
PARETO_SHAPE = 2.0


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
        # scipy's normal density expression, taken on an array: numpy's exp of a
        # float64 scalar can differ from it in the last bit.
        z = np.array([special.ndtri(alpha)])
        return s * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi))[0] / (1.0 - alpha)
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
    # T1 + max(T2, T3) is max(T1+T2, T1+T3) bit for bit, as rounding is monotone.
    t[0] += np.maximum(t[1], t[2], out=t[1])
    return np.maximum(t[0], np.add(t[3], t[4], out=t[3]))


def _exp_gap(z: float, rate: float, gap: float) -> float:
    """(e^(-rate z) - e^(-(rate+gap) z)) / gap for z >= 0; exact as gap -> 0 and,
    taken at the smaller rate, free of overflow."""
    g = abs(gap)
    return math.exp(-min(rate, rate + gap) * z) * (z if g == 0.0 else -math.expm1(-g * z) / g)


def _moment(k: int, rate: float, q: float, gap: float | None = None) -> float:
    """int_q^inf t^k e^(-rate t) dt = e^(-rate q) sum_j c_j rate^-(j+1), k <= 2, or,
    given ``gap``, its divided difference in the rate by the product rule:
    ``_exp_gap`` for the exponential and (r^-m - s^-m) / (s - r) =
    sum_i r^-i s^-(m-1-i) / (r s) for each power, with s = rate + gap."""
    coeffs = ((1.0,), (q, 1.0), (q * q, 2.0 * q, 2.0))[k]
    r, e_r = rate, math.exp(-rate * q)
    if gap is None:
        return e_r * sum(c / r ** (j + 1) for j, c in enumerate(coeffs))
    s, e_gap = r + gap, _exp_gap(q, r, gap)
    return sum(c * (e_r * sum(r ** -i * s ** (i - j) for i in range(j + 1)) / (r * s)
                    + e_gap / s ** (j + 1)) for j, c in enumerate(coeffs))


def san_cdf(t: float, x: float) -> float:
    """Exact CDF of L(x): F = J E with, for a = 1 - 1/x,

        J(t) = P(T1+T2 <= t, T1+T3 <= t)   (conditioning on T1)
             = 1 - e^-t - t e^-t - e^-t expm1(a t)/a + x e^-t (1 - e^(-t/x)),
        E(t) = P(T4+T5 <= t) = 1 - (1+t) e^-t,

    where expm1(a t)/a -> t as a -> 0. Below t of about 1e-4 (F < 1e-20) the
    rounding of J's leading 1 can leave F slightly negative; 0 is returned.
    """
    x = _check_san_param(x)
    t = float(t)
    if t <= 0.0:
        return 0.0
    if t == math.inf:
        return 1.0
    e = math.exp(-t)
    joint = (1.0 - e * (1.0 + t - x) - x * math.exp(-t * (1.0 + 1.0 / x))
             - _exp_gap(t, 1.0 / x, 1.0 - 1.0 / x))
    return max(0.0, joint * (-math.expm1(-t) - t * e))


def _san_tail(q: float, x: float) -> float:
    """int_q^inf (1 - F(t)) dt for L(x), in closed form.

    The survival is S = P + Q - PQ, with Q = (1+t) e^-t the survival of T4+T5
    and P = 1 - J = e^-t (1+t-x) + x e^(-t(1+1/x)) + (e^(-t/x) - e^-t)/a.
    Expanded, S is a sum of terms c t^k e^(-rate t) with k <= 2 and of 1/a
    differences of two such terms; ``_moment`` integrates each.
    """
    u, a = 1.0 / x, 1.0 - 1.0 / x
    terms = ((2.0 - x, 0, 1.0), (2.0, 1, 1.0), (x, 0, 1.0 + u), (x - 1.0, 0, 2.0),
             (x - 2.0, 1, 2.0), (-1.0, 2, 2.0), (-x, 0, 2.0 + u), (-x, 1, 2.0 + u))
    gaps = ((1.0, 0, u), (-1.0, 0, 1.0 + u), (-1.0, 1, 1.0 + u))
    return (sum(c * _moment(k, r, q) for c, k, r in terms)
            + sum(c * _moment(k, r, q, a) for c, k, r in gaps))


def san_var(x: float, alpha: float) -> float:
    """Quantile of L(x), the minimizer of q + E(L - q)^+ / (1 - alpha) (Rockafellar & Uryasev
    2000), by ``_slope_solve`` on its slope scaled to (F(q) - alpha) / min(alpha, 1 - alpha), a
    relative stop in both tails, from q = 0 on [0, 100] (for x <= 2, 1 - F(100) < 1e-20)."""
    x = _check_san_param(x)
    alpha = _check_alpha(alpha)
    return float(_slope_solve(lambda t: (san_cdf(t, x) - alpha) / min(alpha, 1.0 - alpha),
                              [0.0], [(0.0, 100.0)]).x[0])


def san_mean(x: float) -> float:
    """E[L(x)] = int_0^inf (1 - F(t)) dt, in closed form."""
    return _san_tail(0.0, _check_san_param(x))


@lru_cache(maxsize=4096)
def san_true_cvar(x: float, alpha: float) -> float:
    """True CVaR of L(x), q + (1 - alpha)^-1 int_q^inf (1 - F) dt with q from ``san_var``
    and the integral from ``_san_tail``; cached as harnesses reuse one test grid."""
    q = san_var(x, alpha)
    return q + _san_tail(q, x) / (1.0 - alpha)
