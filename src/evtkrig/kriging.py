"""Stochastic kriging with a constant trend, Gaussian kernel, and known
heterogeneous intrinsic noise.

The surface model is a constant trend beta0 plus a stationary Gaussian
random field with covariance tau^2 * R(theta), observed at each design
site with independent noise of known variance (the site's
``intrinsic_variance``). Hyperparameters (tau^2, theta) are chosen by
maximizing the Gaussian log-likelihood with beta0 profiled out in closed
form; predictions use the cached Cholesky factorization of

    Sigma = tau^2 (R(theta) + nugget * I) + diag(intrinsic variances).

The likelihood search runs L-BFGS-B over psi = (log tau^2, log theta)
with the analytic gradient 1/2 tr((alpha alpha' - Sigma^-1) dSigma/dpsi),
alpha = Sigma^-1 (Y - beta0) (Rasmussen & Williams 2006, sec. 5.4.1); as
beta0 is profiled out, the gradient at fixed beta0 is exact. An evaluation
fills Sigma's lower triangle from correlations on the k(k-1)/2 site pairs,
factors it once, then solves and inverts with LAPACK ``dpotrs``/``dpotri``.
That one evaluation gives the search both its value and its gradient: they
reach L-BFGS-B as two callables, and the gradient callable returns what the
value call at the same psi computed. A fit keeps its evaluations at each
nugget, keyed by psi, so a psi that a search reaches again (most often the
box corner that many starts share) is not evaluated again. The searches
from ``N_STARTS`` start points run one after another, and a start stops
once it reaches an earlier start's path (multi-level single linkage,
Rinnooy Kan & Timmer 1987).

With all intrinsic variances and nugget zero this reduces to an ordinary
interpolating kriging model.

``fit`` has one nugget rule for noisy and zero-noise designs: the nugget
is 0 unless the fitted covariance cannot solve its own system
Sigma w = Y - beta0 to a relative accuracy of ``SOLVE_RTOL``; the nugget
then climbs ``NUGGET_LADDER`` until a fit passes that check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, optimize
from scipy.linalg import blas, lapack
from scipy.optimize import Bounds

from .design import Domain, lhs
from .rng import RngStream

__all__ = [
    "DesignSite",
    "KrigingModel",
    "SingularDesignError",
    "kernel",
    "assemble",
    "log_likelihood",
    "fit",
]

MODEL_FORMAT_VERSION = 1
# Nuggets tried in turn when the nugget-0 fit cannot solve its own system.
NUGGET_LADDER = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# A fit is usable when its weights reproduce the residuals Y - beta0 to this
# fraction of their largest magnitude (see fit()).
SOLVE_RTOL = 1e-8
# A start stops at an iterate within RETIRE_ATOL, in every coordinate of psi, of
# an earlier start's iterate at the same nugget whose objective is no higher.
RETIRE_ATOL = 1e-4
# Likelihood search: L-BFGS-B from N_STARTS Latin-hypercube starts drawn from
# RngStream(START_SEED), at most MAX_ITER iterations each.
N_STARTS = 10
START_SEED = 0
MAX_ITER = 200


class SingularDesignError(RuntimeError):
    """Covariance cannot be made positive definite (e.g. duplicate sites)."""


@dataclass(frozen=True)
class DesignSite:
    """One aggregated observation: location, response, and its estimator variance.

    Every value must be finite and the variance nonnegative (ValueError).
    """

    location: tuple[float, ...]
    response: float
    intrinsic_variance: float = 0.0

    def __post_init__(self):
        # Floats are checked directly, without building arrays; anything else
        # (ints, arrays, nested tuples) meets numpy's conversion in _site_arrays.
        loc, resp, var = self.location, self.response, self.intrinsic_variance
        coords = loc if type(loc) is tuple else (loc,)
        if not all(isinstance(v, float) for v in (*coords, resp, var)):
            _site_arrays([self])
            return
        for name, values in (("location", coords), ("response", (resp,)),
                             ("intrinsic_variance", (var,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"site {name} must be finite")
        if var < 0.0:
            raise ValueError("intrinsic variances must be nonnegative")


def kernel(a, b, theta) -> float:
    """Gaussian correlation exp(-sum_i theta_i (a_i - b_i)^2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if a.shape != b.shape or a.shape != theta.shape:
        raise ValueError("location/theta dimensions disagree")
    if np.any(theta <= 0.0):
        raise ValueError("kernel rates must be positive")
    d = a - b
    return float(_correlation(d * d, theta))


def _site_pairs(locs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Site pairs i > j as flat indices i + k j of a Fortran-ordered k x k array,
    and their squared differences, shape (k(k-1)/2, d)."""
    k = len(locs)
    rows, cols = np.tril_indices(k, -1)
    diff = locs[rows] - locs[cols]
    return rows + k * cols, diff * diff


def _correlation(sqdiff: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The Gaussian kernel on squared differences whose last axis is the coordinate."""
    return np.exp(-(sqdiff @ theta))


def _site_arrays(sites) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    locs = [np.atleast_1d(np.asarray(s.location, dtype=float)) for s in sites]
    # Checked before stacking: numpy rejects ragged locations with its own error.
    if not locs or any(v.ndim != 1 or v.shape != locs[0].shape for v in locs):
        raise ValueError("sites must share a common location dimension")
    locs = np.array(locs)
    resp = np.array([float(s.response) for s in sites])
    intr = np.array([float(s.intrinsic_variance) for s in sites])
    for name, values in (("location", locs), ("response", resp), ("intrinsic_variance", intr)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"site {name} must be finite")
    if np.any(intr < 0.0):
        raise ValueError("intrinsic variances must be nonnegative")
    return locs, resp, intr


@dataclass
class KrigingModel:
    """A fitted stochastic-kriging surface (immutable once built)."""

    beta0: float
    tau2: float
    theta: np.ndarray
    locations: np.ndarray
    responses: np.ndarray
    intrinsic: np.ndarray
    nugget: float
    loglik: float
    _chol: np.ndarray = field(repr=False)  # lower Cholesky factor of Sigma
    _weights: np.ndarray = field(repr=False)  # Sigma^-1 (Y - beta0)

    @property
    def k(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def predict_many(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Means and extrinsic standard deviations at query locations (m, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"query dimension {x.shape[1]} != design dimension {self.dim}")
        diff = x[:, None, :] - self.locations[None, :, :]
        cross = self.tau2 * _correlation(diff * diff, self.theta)
        mean = self.beta0 + cross @ self._weights
        solved, _ = lapack.dpotrs(self._chol, cross.T, lower=1)
        var = self.tau2 - np.einsum("ij,ji->i", cross, solved)
        return mean, np.sqrt(np.maximum(var, 0.0))

    def predict(self, x0) -> tuple[float, float]:
        mean, sd = self.predict_many(np.atleast_2d(np.asarray(x0, dtype=float)))
        return float(mean[0]), float(sd[0])

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "beta0": self.beta0,
            "tau2": self.tau2,
            "theta": list(map(float, self.theta)),
            "nugget": self.nugget,
            "sites": [
                {"location": list(map(float, loc)), "response": float(r),
                 "intrinsic_variance": float(v)}
                for loc, r, v in zip(self.locations, self.responses, self.intrinsic)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "KrigingModel":
        """Rebuild a model written by ``to_json``; ValueError on a malformed payload."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("model must be a JSON object")
        version = payload.get("format_version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        sites = payload.get("sites")
        if not isinstance(sites, list) or not all(isinstance(s, dict) for s in sites):
            raise ValueError("sites must be a list of site objects")
        sites = [DesignSite(tuple(_numbers(s.get("location"), "site location")),
                            _number(s.get("response"), "site response"),
                            _number(s.get("intrinsic_variance", 0.0),
                                    "site intrinsic_variance"))
                 for s in sites]
        return assemble(sites, tau2=_number(payload.get("tau2"), "tau2"),
                        theta=_numbers(payload.get("theta"), "theta"),
                        beta0=_number(payload.get("beta0"), "beta0"),
                        nugget=_number(payload.get("nugget", 0.0), "nugget"))


def _number(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a finite JSON number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _numbers(values, name: str) -> list[float]:
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(v, name) for v in values]


def _covariance(pairs, dpairs, intr, tau2, theta, nugget):
    """Sigma, Fortran-ordered with a zero upper triangle, and its entries at ``pairs``."""
    k = len(intr)
    lower = tau2 * _correlation(dpairs, theta)
    entries = np.zeros(k * k)
    entries[pairs] = lower
    entries[::k + 1] = tau2 * (1.0 + nugget) + intr
    return entries.reshape((k, k), order="F"), lower


def _trend_columns(resp: np.ndarray) -> np.ndarray:
    """The right-hand side [1, Y] of the profiled trend's solve, shape (k, 2)."""
    return np.array([np.ones_like(resp), resp]).T


def _profile_pieces(chol, columns, beta0=None):
    """beta0 (profiled when None), Sigma^-1 (Y - beta0) and the loglik from chol;
    ``columns`` is ``_trend_columns(Y)``."""
    resp = columns[:, 1]
    if beta0 is None:
        solved, _ = lapack.dpotrs(chol, columns, lower=1)
        beta0 = float(solved[:, 1].sum() / solved[:, 0].sum())
    resid = resp - beta0
    weights, _ = lapack.dpotrs(chol, resid, lower=1)
    logdet = 2.0 * float(np.log(chol.diagonal()).sum())
    ll = (-0.5 * len(resp) * math.log(2.0 * math.pi) - 0.5 * logdet
          - 0.5 * float(resid @ weights))
    return beta0, weights, ll


def log_likelihood(sites, tau2: float, theta, nugget: float = 0.0,
                   beta0: float | None = None) -> float:
    """Gaussian log-likelihood of the site responses for given hyperparameters.

    With ``beta0=None`` the trend constant is profiled out in closed form:
    beta0 = (1' Sigma^-1 Y) / (1' Sigma^-1 1).
    """
    return assemble(sites, tau2, theta, beta0=beta0, nugget=nugget).loglik


def assemble(sites, tau2: float, theta, beta0: float | None = None,
             nugget: float = 0.0) -> KrigingModel:
    """Build a model at fixed hyperparameters (profiling beta0 if omitted)."""
    locs, resp, intr = _site_arrays(sites)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (locs.shape[1],):
        raise ValueError("theta dimension must match the location dimension")
    if not (np.all(theta > 0.0) and tau2 > 0.0 and nugget >= 0.0):  # NaN fails too
        raise ValueError("tau2 and every theta must be positive, the nugget nonnegative")
    pairs, dpairs = _site_pairs(locs)
    sigma, _ = _covariance(pairs, dpairs, intr, float(tau2), theta, float(nugget))
    try:
        chol, _ = linalg.cho_factor(sigma, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise SingularDesignError(f"covariance not positive definite: {exc}")
    beta0, weights, ll = _profile_pieces(chol, _trend_columns(resp), beta0)
    return KrigingModel(beta0=beta0, tau2=float(tau2), theta=theta,
                        locations=locs, responses=resp, intrinsic=intr,
                        nugget=float(nugget), loglik=ll, _chol=chol, _weights=weights)


def _neg_profile_loglik(params, pairs, dpairs, resp, intr, nugget,
                        columns=None) -> tuple[float, np.ndarray]:
    """Negative profile log-likelihood at params = (log tau^2, log theta) and its
    gradient; (1e300, 0) when the covariance does not factor. Sigma is built on the
    ``_site_pairs`` and factored once; ``dpotrs`` solves and ``dpotri`` inverts it.
    ``columns`` is ``_trend_columns(resp)``, which ``fit`` builds once per site set;
    ``fit`` hands the value and the gradient of one call to L-BFGS-B as two
    callables, and calls this at most once per psi and nugget.

    With W = alpha alpha' - Sigma^-1, the log-likelihood gradient is
    1/2 tr(W dSigma/dpsi), where dSigma/dlog tau^2 = tau^2 (R + nugget I) and
    dSigma/dlog theta_j = -theta_j tau^2 R o D_j (D_j: squared differences in
    coordinate j). Off the diagonal tau^2 R equals Sigma; on it, tau^2 (1 + nugget).
    W and dSigma/dpsi are symmetric: off the diagonal the trace is twice the pair sum.
    """
    tau2, theta = math.exp(params[0]), np.exp(params[1:])
    sigma, lower = _covariance(pairs, dpairs, intr, tau2, theta, nugget)
    try:
        chol, _ = linalg.cho_factor(sigma, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError:
        return 1e300, np.zeros_like(params)
    _, alpha, ll = _profile_pieces(chol, _trend_columns(resp) if columns is None else columns)
    # -W = Sigma^-1 - alpha alpha', lower triangle: dpotri, then a rank-one update.
    neg_w, _ = lapack.dpotri(chol, lower=1, overwrite_c=1)
    neg_w = blas.dsyr(-1.0, alpha, lower=1, a=neg_w, overwrite_a=1)
    neg_off = neg_w.reshape(-1, order="F")[pairs] * lower
    grad = np.empty_like(params)
    grad[0] = neg_off.sum() + 0.5 * tau2 * (1.0 + nugget) * neg_w.diagonal().sum()
    grad[1:] = -theta * (neg_off @ dpairs)
    return -ll, grad


def _search_box(locs: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    widths = locs.max(axis=0) - locs.min(axis=0)
    widths = np.where(widths > 0.0, widths, 1.0)
    th_lo, th_hi = 1e-3 / widths**2, 1e3 / widths**2
    scale = max(float(np.var(resp)), 1e-12)
    t2_lo, t2_hi = 1e-6 * scale, 1e3 * scale
    lo = np.log(np.concatenate(([t2_lo], th_lo)))
    hi = np.log(np.concatenate(([t2_hi], th_hi)))
    return lo, hi


def fit(sites) -> KrigingModel:
    """Fit hyperparameters by profile-likelihood maximization.

    The search runs L-BFGS-B over (log tau^2, log theta) from ``N_STARTS``
    Latin-hypercube start points in the bound box, with the analytic
    gradient of the profile log-likelihood (``_neg_profile_loglik``). One
    evaluation serves both the value and the gradient that L-BFGS-B asks
    for at a point, and each psi is evaluated at most once per nugget: a
    point that a search reaches again is answered from the fit's own
    evaluations, which are dropped when the fit returns. A start stops at
    its first iterate that lies within ``RETIRE_ATOL``, in every
    coordinate, of an iterate that an earlier start reached at the same
    nugget with an objective no higher: from there it would retrace that
    start's path. The best start is the one with the lowest objective. One
    nugget rule holds for noisy and zero-noise designs alike: search at
    nugget 0 first, then at each nugget of ``NUGGET_LADDER`` in turn, and
    return the first model whose covariance factors and solves its own
    system, max|Sigma w - (Y - beta0)| <= ``SOLVE_RTOL`` * max|Y - beta0|.
    A Cholesky factor of a nearly singular covariance (e.g. nearly
    coincident zero-noise sites) can exist and still give weights that do
    not reproduce the data; the solve check rejects it. The nugget actually
    used is recorded on the model. When no nugget passes, the
    SingularDesignError names the check that failed at the last one.
    """
    sites = list(sites)
    locs, resp, intr = _site_arrays(sites)
    if len(locs) < 2:
        raise ValueError("need at least 2 design sites")
    # Exact duplicates with no intrinsic noise make Sigma singular at nugget 0
    # and non-informative at any nugget; reject explicitly.
    zero = locs[intr == 0.0]
    zero = zero[np.lexsort(zero.T)]
    same = np.flatnonzero((zero[1:] == zero[:-1]).all(axis=1))
    if same.size:
        raise SingularDesignError(f"duplicate design sites {tuple(map(float, zero[same[0]]))} "
                                  "with zero intrinsic variance")

    lo, hi = _search_box(locs, resp)
    starts = lhs(Domain(lo, hi), N_STARTS, RngStream(START_SEED))
    bounds = Bounds(lo, hi)

    pairs, dpairs = _site_pairs(locs)
    columns = _trend_columns(resp)
    for nugget in (0.0, *NUGGET_LADDER):
        evaluated = {}  # psi.tobytes() -> (objective, gradient) at this nugget

        def evaluate(psi):
            key = psi.tobytes()
            hit = evaluated.get(key)
            if hit is None:
                hit = evaluated[key] = _neg_profile_loglik(psi, pairs, dpairs, resp, intr,
                                                           nugget, columns)
            return hit

        def value(psi):
            return evaluate(psi)[0]

        def gradient(psi):
            return np.copy(evaluate(psi)[1])  # the search may keep what it is given

        best_x, best_f = None, math.inf
        # psi and objective of every iterate of the earlier starts at this nugget.
        seen_x, seen_f = np.empty((0, lo.size)), np.empty(0)
        for x0 in starts:
            path_x, path_f = [], []

            def retire(intermediate_result):
                x = intermediate_result.x.copy()  # SciPy reuses the iterate's array
                f = float(intermediate_result.fun)
                path_x.append(x)
                path_f.append(f)
                if ((np.abs(seen_x - x) <= RETIRE_ATOL).all(axis=1) & (seen_f <= f)).any():
                    raise StopIteration

            res = optimize.minimize(value, x0, jac=gradient, method="L-BFGS-B", bounds=bounds,
                                    options={"maxiter": MAX_ITER}, callback=retire)
            if res.fun < best_f:
                best_x, best_f = res.x, float(res.fun)
            seen_x, seen_f = np.vstack([seen_x, *path_x]), np.append(seen_f, path_f)
        if best_x is None or best_f >= 1e299:
            failed = "likelihood search failed at every start"
            continue
        try:
            model = assemble(sites, tau2=math.exp(best_x[0]), theta=np.exp(best_x[1:]),
                             nugget=nugget)
        except SingularDesignError:
            failed = "best covariance did not factor"
            continue
        sigma, _ = _covariance(pairs, dpairs, intr, model.tau2, model.theta, nugget)
        resid = resp - model.beta0
        # Row-major: at rounding level the summation order of Sigma w can decide a nugget.
        sigma = np.ascontiguousarray(sigma + np.tril(sigma, -1).T)
        if np.abs(sigma @ model._weights - resid).max() <= SOLVE_RTOL * np.abs(resid).max():
            return model
        failed = f"solve check failed (SOLVE_RTOL {SOLVE_RTOL:g})"
    raise SingularDesignError("no usable covariance after nugget escalation: "
                              f"{failed} at nugget {NUGGET_LADDER[-1]:g}")
