"""Tests for empirical CVaR, the GPD machinery, and the POT estimators."""

import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

from evtkrig import evt_risk as er


def ray_nll(tau, w, b_lo=0.0, b_hi=math.inf):
    """F: the negative log-likelihood per exceedance at the box point of ray tau.

    Taken from ``gpd_logpdf``, independently of the closed forms in ``_ray``;
    ``w`` is in units of its maximum, so beta is b.
    """
    xi, b, _ = er._ray(tau, w, b_lo, b_hi)
    return -float(np.mean(er.gpd_logpdf(xi, b, w)))


def gpd_draws(xi, beta, n, rng):
    """Inverse-transform GPD sampler (independent of the fitted code paths)."""
    v = 1.0 - rng.random(n)
    if xi == 0.0:
        return -beta * np.log(v)
    return beta / xi * (v**-xi - 1.0)


class TestEmpiricalVar:
    def test_one_to_ten(self):
        assert er.empirical_var(np.arange(1, 11.0), 0.8) == 8.0

    def test_constant_sample(self):
        assert er.empirical_var(np.full(50, 3.25), 0.9) == 3.25

    def test_one_to_hundred(self):
        assert er.empirical_var(np.arange(1, 101.0), 0.95) == 95.0

    def test_infimum_definition_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            x = rng.normal(size=n)
            alpha = float(rng.uniform(0.05, 0.99))
            q = er.empirical_var(x, alpha)
            ecdf_at_q = np.mean(x <= q)
            assert ecdf_at_q >= alpha - 1e-12
            below = x[x < q]
            if below.size:
                assert np.mean(x <= below.max()) < alpha

    def test_alpha_validated(self):
        # The one alpha check rejects what the config schema rejects: strings
        # and bools too, not only numbers outside (0, 1).
        for alpha in (0.0, 1.0, float("nan"), "0.5", True):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got "):
                er.empirical_var([1.0, 2.0], alpha)


def full_sample_cvar(x, alpha):
    """The full-sample formula of ``empirical_cvar`` in exact arithmetic.

    With q the empirical quantile and m the count of observations at or
    beyond it, the mean and the variance sum((W_i - W_bar)^2) / (n (n - 1))
    of the transform W_i = q + (x_i - q)+ n / m over every observation, as
    fractions; or m itself where m < 2.
    """
    n = len(x)
    q = sorted(x)[er._order_index(alpha, n) - 1]
    m = sum(v >= q for v in x)
    if m < 2:
        return m
    w = [Fraction(q) + max(Fraction(v) - Fraction(q), 0) * Fraction(n, m) for v in x]
    w_bar = sum(w) / n
    return w_bar, sum((v - w_bar) ** 2 for v in w) / (n * (n - 1))


# Small integers tie often; bounded floats rarely do.
EMPIRICAL_SAMPLES = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=40),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
    st.tuples(st.floats(-1e3, 1e3), st.integers(2, 40)).map(lambda c: [c[0]] * c[1]))
LEVELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestEmpiricalCvar:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(x=EMPIRICAL_SAMPLES, alphas=st.lists(LEVELS, min_size=1, max_size=4, unique=True))
    @example(x=[1.0, 2.0], alphas=[0.5, 0.6])  # n = 2: m = 2, then m = 1
    @example(x=[1.0, 2.0, 3.0, 4.0, 5.0], alphas=[0.8, 0.6])  # m = 2 at the higher level
    @example(x=[0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0], alphas=[0.3, 0.5, 0.95])  # ties at q
    @example(x=[2.5] * 9, alphas=[0.1, 0.99])  # constant: every level ties at q
    @example(x=[1.0, 2.0, 3.0, 3.0], alphas=[0.9])  # ties at the maximum: m = 2
    def test_levels_match_the_full_sample_formula(self, x, alphas):
        # One tail pass serves every level; each level must match the
        # full-sample formula, or fail with empirical_cvar's error.
        values, variances, errors = er.empirical_cvar_levels(x, alphas)
        scale = max(abs(v) for v in x)
        for alpha, value, variance, error in zip(alphas, values, variances, errors):
            ref = full_sample_cvar(x, alpha)
            if isinstance(ref, int):
                message = (f"only {ref} observation(s) at or beyond the {alpha} quantile; "
                           "need >= 2")
                assert isinstance(error, er.InsufficientTailError) and str(error) == message
                assert math.isnan(value) and math.isnan(variance)
                with pytest.raises(er.InsufficientTailError, match=f"^{re.escape(message)}$"):
                    er.empirical_cvar(x, alpha)
                continue
            assert error is None
            assert value == pytest.approx(float(ref[0]), rel=1e-12, abs=1e-12 * scale)
            assert variance == pytest.approx(float(ref[1]), rel=1e-12)
            assert er.empirical_cvar(x, alpha) == er.RiskEstimate(value, variance, alpha,
                                                                  "empirical")

    def test_one_to_ten(self):
        est = er.empirical_cvar(np.arange(1, 11.0), 0.8)
        assert est.value == pytest.approx(9.0)
        assert est.method == "empirical"

    def test_constant_sample_zero_variance(self):
        est = er.empirical_cvar(np.full(20, 4.0), 0.9)
        assert est.value == 4.0
        assert est.variance == 0.0

    def test_one_to_hundred_transform_identity(self):
        x = np.arange(1, 101.0)
        est = er.empirical_cvar(x, 0.95)
        assert est.value == pytest.approx(97.5)

    def test_tail_average_equals_transform_mean_randomized(self):
        # The rewritten tail-average form must reproduce the direct tail mean.
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(10, 500))
            x = rng.standard_t(df=3, size=n)
            alpha = float(rng.uniform(0.5, 0.95))
            q = er.empirical_var(x, alpha)
            direct = x[x >= q].mean()
            assert er.empirical_cvar(x, alpha).value == pytest.approx(direct, rel=1e-12)

    def test_insufficient_tail(self):
        with pytest.raises(er.InsufficientTailError):
            er.empirical_cvar(np.arange(1, 11.0), 0.99)


class TestGpdDistribution:
    def test_cdf_at_lower_endpoint(self):
        assert er.gpd_cdf(0.0, 1.0, 0.0) == 0.0

    def test_cdf_direct_value(self):
        assert er.gpd_cdf(0.5, 1.0, 1.0) == pytest.approx(5.0 / 9.0, rel=1e-14)

    def test_cdf_finite_right_endpoint(self):
        assert er.gpd_cdf(-0.5, 1.0, 2.0 - 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_support_errors(self):
        with pytest.raises(ValueError):
            er.gpd_cdf(0.1, 1.0, -0.5)
        with pytest.raises(ValueError):
            er.gpd_logpdf(-0.5, 1.0, 2.5)
        with pytest.raises(ValueError):
            er.gpd_cdf(0.1, -1.0, 0.5)

    def test_cdf_nondecreasing_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            xi = float(rng.uniform(-0.45, 0.95))
            beta = float(rng.uniform(0.1, 5.0))
            hi = 0.99 * (-beta / xi) if xi < 0 else 20.0 * beta
            z = np.sort(rng.uniform(0, hi, size=50))
            c = er.gpd_cdf(xi, beta, z)
            assert np.all(np.diff(c) >= -1e-14)
            assert np.all((c >= 0) & (c <= 1))

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi = float(rng.uniform(-0.45, 0.9))
            beta = float(rng.uniform(0.2, 3.0))
            if xi < 0:
                hi = -beta / xi * (1 - 1e-13)
            else:
                # Integrate out to survival 1e-12.
                hi = beta / xi * ((1e-12) ** -xi - 1.0) if xi > 0 else 30 * beta
            # Long tails concentrate mass near zero; guide the subdivision.
            pts = [p for p in (beta, 5 * beta, 50 * beta, 1000 * beta) if p < hi]
            total, _ = integrate.quad(lambda t: math.exp(er.gpd_logpdf(xi, beta, t)),
                                      0.0, hi, epsabs=1e-10, epsrel=1e-9, limit=400,
                                      points=pts or None)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestGpdPartials:
    """The five closed-form partials of the log-density vs finite differences."""

    @staticmethod
    def _cases(count, seed):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            xi = float(rng.uniform(-0.4, 0.9))
            if abs(xi) < 0.01:
                continue
            beta = float(rng.uniform(0.3, 4.0))
            zmax = 0.8 * (-beta / xi) if xi < 0 else 8.0 * beta
            z = float(rng.uniform(0.05 * beta, zmax))
            out.append((xi, beta, z))
        return out

    def test_first_partials(self):
        h = 1e-6
        for xi, beta, z in self._cases(100, 4):
            d_xi, d_beta = er.gpd_score(xi, beta, z)
            fd_xi = (er.gpd_logpdf(xi + h, beta, z) - er.gpd_logpdf(xi - h, beta, z)) / (2 * h)
            fd_beta = (er.gpd_logpdf(xi, beta + h * beta, z)
                       - er.gpd_logpdf(xi, beta - h * beta, z)) / (2 * h * beta)
            assert d_xi == pytest.approx(fd_xi, rel=1e-6, abs=1e-9)
            assert d_beta == pytest.approx(fd_beta, rel=1e-6, abs=1e-9)

    def test_second_partials(self):
        # Differencing the analytic first partials keeps the oracle accurate.
        h = 1e-6
        for xi, beta, z in self._cases(100, 5):
            d_xx, d_xb, d_bb = er.gpd_hessian(xi, beta, z)
            sxp, sbp = er.gpd_score(xi + h, beta, z)
            sxm, sbm = er.gpd_score(xi - h, beta, z)
            fd_xx = (sxp - sxm) / (2 * h)
            fd_xb = (sbp - sbm) / (2 * h)
            sxbp = er.gpd_score(xi, beta + h * beta, z)
            sxbm = er.gpd_score(xi, beta - h * beta, z)
            fd_bb = (sxbp[1] - sxbm[1]) / (2 * h * beta)
            fd_xb2 = (sxbp[0] - sxbm[0]) / (2 * h * beta)
            assert d_xx == pytest.approx(fd_xx, rel=1e-6, abs=1e-8)
            assert d_xb == pytest.approx(fd_xb, rel=1e-6, abs=1e-8)
            assert d_xb == pytest.approx(fd_xb2, rel=1e-5, abs=1e-8)
            assert d_bb == pytest.approx(fd_bb, rel=1e-6, abs=1e-8)

    def test_small_xi_limits_match_neighbourhood(self):
        # The xi~0 closed-form limits must agree with the general formulas
        # evaluated just outside the switch; the beta-partial is exact there.
        def exact_d_beta(xi, beta, z):
            with mpmath.workdps(30):
                xi, z = mpmath.mpf(xi), mpmath.mpf(z)
                return float(mpmath.diff(
                    lambda b: -mpmath.log(b) - (1 + 1 / xi) * mpmath.log1p(xi * z / b),
                    mpmath.mpf(beta)))

        for z in (0.3, 1.0, 2.7):
            near = er.gpd_score(1e-7, 1.3, z)
            limit = er.gpd_score(0.0, 1.3, z)
            assert near[0] == pytest.approx(limit[0], rel=1e-5, abs=1e-9)
            assert near[1] == pytest.approx(exact_d_beta(1e-7, 1.3, z), rel=1e-13)
            near_h = er.gpd_hessian(1e-7, 1.3, z)
            limit_h = er.gpd_hessian(0.0, 1.3, z)
            for a, b in zip(near_h, limit_h):
                assert a == pytest.approx(b, rel=1e-5, abs=1e-8)


class TestFitGpd:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(6)
        z = gpd_draws(0.25, 2.0, 100_000, rng)
        fit = er.fit_gpd_exceedances(z)
        assert fit.xi == pytest.approx(0.25, abs=0.05)
        assert fit.beta == pytest.approx(2.0, abs=0.10)
        assert fit.zeta == 1.0 and fit.u == 0.0

    def test_exponential_shape_is_zero(self):
        rng = np.random.default_rng(7)
        fit = er.fit_gpd(rng.exponential(size=100_000), 0.9)
        assert fit.xi == pytest.approx(0.0, abs=0.05)
        assert fit.n_exceed == 10_000
        assert fit.zeta == pytest.approx(0.1)

    def test_stationarity_at_interior_optimum(self):
        rng = np.random.default_rng(8)
        z = gpd_draws(0.2, 1.5, 20_000, rng)
        fit = er.fit_gpd_exceedances(z)
        assert not fit.boundary
        s_xi, s_beta = er.gpd_score(fit.xi, fit.beta, z)
        assert math.hypot(s_xi.sum(), s_beta.sum()) < 1e-6 * fit.n_exceed

    def test_too_few_exceedances(self):
        with pytest.raises(er.InsufficientTailError):
            er.fit_gpd_exceedances([1.0, 2.0])

    @pytest.mark.parametrize("n_total, u", [
        (0, 0.0), (5, 0.0), (39, 0.0), (40.5, 0.0), (-3, 0.0), (True, 0.0), ("40", 0.0),
        (None, math.nan), (None, math.inf), (400, -math.inf), (400, "1.5")])
    def test_n_total_and_threshold_validated(self, n_total, u):
        z = np.random.default_rng(11).exponential(size=40)
        with pytest.raises(ValueError, match=r"n_total must be an integer|threshold u"):
            er.fit_gpd_exceedances(z, n_total=n_total, u=u)
        fit = er.fit_gpd_exceedances(z, n_total=np.int64(400), u=np.float64(1.5))
        assert (fit.n_total, fit.zeta, fit.u) == (400, 0.1, 1.5)

    @pytest.mark.parametrize("q", [7.0, 0.0, 1.0, math.nan, "0.9", True])
    def test_threshold_quantile_validated(self, q):
        z = np.random.default_rng(11).exponential(size=40)
        with pytest.raises(ValueError, match="threshold_quantile must lie in"):
            er.fit_gpd_exceedances(z, threshold_quantile=q)
        assert er.fit_gpd_exceedances(z, threshold_quantile=0.9).threshold_quantile == 0.9

    def test_small_sample_rejected(self):
        with pytest.raises(er.InsufficientDataError):
            er.fit_gpd(np.arange(50.0), 0.9)

    def test_threshold_lowered_to_exceedance_floor(self):
        rng = np.random.default_rng(9)
        fit = er.fit_gpd(rng.exponential(size=100), 0.9)
        assert fit.n_exceed == 30  # floor engaged: 0.9 quantile left only 10

    def test_negative_shape_boundary_flagged(self):
        # Bounded-support data pushes the shape to the search-box edge.
        rng = np.random.default_rng(10)
        z = rng.triangular(0.0, 2.5, 5.0, size=50_000)
        fit = er.fit_gpd_exceedances(z)
        assert fit.boundary
        assert fit.xi == pytest.approx(er.XI_BOUNDS[0], abs=1e-6)

    def test_degenerate_tails_stay_in_the_box(self):
        # A point mass sits on the lower shape face; one far outlier over a
        # flat bulk drives the shape to the upper face.
        flat = er.fit_gpd_exceedances(np.full(40, 2.0))
        assert flat.boundary and flat.xi == pytest.approx(er.XI_BOUNDS[0], abs=1e-6)
        outlier = er.fit_gpd_exceedances(np.r_[np.ones(29), 1e6])
        assert outlier.boundary and outlier.xi == pytest.approx(er.XI_BOUNDS[1], abs=1e-6)
        with pytest.raises(er.SingularInformationError):
            er.fit_gpd_exceedances(np.r_[np.zeros(999), 1.0])

    def test_fit_next_to_the_exponential_passes_its_gradient_check(self):
        # The interior optimum sits at xi ~ -8e-6, inside the xi-series band;
        # the beta-partial of the score must keep its O(xi) term there.
        z = np.random.default_rng(0).exponential(size=100)
        z[np.argmax(z)] *= 1.23166
        fit = er.fit_gpd_exceedances(z)
        assert not fit.boundary
        assert abs(fit.xi) < er.XI_SERIES_EPS

    def test_profile_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(0.01, 1.0, size=200)
        w[0] = 1.0
        h = 1e-6
        # The series branch covers |tau| < 1e-4; the taus around +-1e-4 sit one
        # float either side of the switch.
        switch = [t for edge in (-1e-4, 1e-4)
                  for t in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2 * edge))]
        # With no scale faces only tau = -0.9 and 25 reach a shape face.
        for tau in (-0.9, -0.3, -1e-3, -5e-5, 0.0, 5e-5, 1e-3, 0.7, 25.0, *switch):
            xi, b, grad = er._ray(tau, w, 0.0, math.inf)
            fd = (ray_nll(tau + h, w) - ray_nll(tau - h, w)) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)
            # The point lies on its ray: xi = tau * beta.
            assert xi == pytest.approx(tau * b, rel=1e-12, abs=1e-15)
        # theta -> 0 limit: F'(0) = m1 - m2 / (2 m1) in the moments of w.
        m1, m2 = w.mean(), (w * w).mean()
        assert er._ray(0.0, w, 0.0, math.inf)[2] == pytest.approx(m1 - m2 / (2 * m1),
                                                                  rel=1e-12)
        # xi, b and dF/dtau are continuous where the series takes over; b, which
        # sets the fitted scale, to round-off.
        for inner, edge, outer in (switch[:3], switch[3:]):
            ref = er._ray(inner, w, 0.0, math.inf)
            for tau in (edge, outer):
                assert er._ray(tau, w, 0.0, math.inf) == pytest.approx(ref, rel=1e-10)
                assert er._ray(tau, w, 0.0, math.inf)[1] == pytest.approx(ref[1], rel=1e-14,
                                                                          abs=0.0)

    def test_box_profile_is_c1_across_every_clip(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(0.01, 1.0, size=200)
        w[0] = 1.0
        m = w.mean()
        neg, pos = (-1.0 + 1e-12, 0.0), (0.0, 1e3)

        def profile(t):
            # Grimshaw's unclipped profile point (xi, b) on the ray, b -> m at t = 0.
            s = float(np.log1p(t * w).sum()) / w.size
            return s, s / t if t else m

        def crossing(coord, edge, bracket):
            return optimize.brentq(lambda t: profile(t)[coord] - edge, *bracket)

        # (b_lo, b_hi, tau at the clip, +1 if the clip is above it, clipped coordinate, edge)
        upper_shape = (1e-3 * m, 1e3 * m, crossing(0, er.XI_BOUNDS[1], pos), 1, 0,
                       er.XI_BOUNDS[1])
        lower_shape = (1e-3 * m, 1e3 * m, crossing(0, er.XI_BOUNDS[0], neg), -1, 0,
                       er.XI_BOUNDS[0])
        lower_scale = (0.6 * m, 1e3 * m, crossing(1, 0.6 * m, pos), 1, 1, 0.6 * m)
        upper_scale = (1e-3 * m, 1.2 * m, crossing(1, 1.2 * m, neg), -1, 1, 1.2 * m)
        for b_lo, b_hi, tau_c, side, coord, edge in (upper_shape, lower_shape,
                                                     lower_scale, upper_scale):
            def box(t):
                return er._ray(t, w, b_lo, b_hi)

            def f(t):
                return ray_nll(t, w, b_lo, b_hi)

            step = 1e-3 * (1.0 + abs(tau_c))
            inside, clipped = box(tau_c - side * step), box(tau_c + side * step)
            assert inside[:2] == profile(tau_c - side * step)
            assert clipped[coord] == pytest.approx(edge, rel=1e-15)
            # Only the named coordinate is clipped.
            assert (b_lo < clipped[1] < b_hi if coord == 0
                    else er.XI_BOUNDS[0] < clipped[0] < er.XI_BOUNDS[1])
            for t in (tau_c - side * step, tau_c + side * step):
                h = 1e-6 * (1.0 + abs(t))
                fd = (f(t + h) - f(t - h)) / (2 * h)
                assert box(t)[2] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            # Value and derivative are continuous at the clip.
            delta = 1e-9 * (1.0 + abs(tau_c))
            below, above = box(tau_c - delta), box(tau_c + delta)
            assert f(tau_c + delta) == pytest.approx(
                f(tau_c - delta), abs=4 * delta * (1.0 + abs(below[2])))
            assert above[2] == pytest.approx(below[2], rel=1e-6, abs=1e-9)

    def test_face_fits_are_optimal_along_their_face(self):
        # Shapes far above XI_BOUNDS[1] put the fit on the upper shape face, on
        # the lower scale face (xi = 2, seed 3) or at the corner of the two.
        # Per exceedance, the score along a face must vanish; at the corner
        # both partials must point out of the box.
        seen = set()
        for xi in (2.0, 3.0, 5.0):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                z = gpd_draws(xi, 1.0, int(rng.integers(er.MIN_EXCEEDANCES, 501)), rng)
                try:
                    fit = er.fit_gpd_exceedances(z)
                except er.SingularInformationError:
                    continue
                s_xi, s_beta = er.gpd_score(fit.xi, fit.beta, z)
                s_xi, s_lbeta = s_xi.mean(), fit.beta * s_beta.mean()
                on_shape = er.XI_BOUNDS[1] - fit.xi < 1e-6
                on_scale = math.log(fit.beta / z.mean()) + er.LOG_BETA_SPAN < 1e-6
                assert fit.boundary and (on_shape or on_scale)
                if on_shape and on_scale:
                    seen.add("corner")
                    assert s_xi > -1e-8 and s_lbeta < 1e-8
                elif on_shape:
                    seen.add("shape")
                    assert abs(s_lbeta) < 1e-8, (xi, seed)
                else:
                    seen.add("scale")
                    assert abs(s_xi) < 1e-8, (xi, seed)
        assert seen == {"corner", "shape", "scale"}


class TestSlopeSolve:
    """The bracketed slope solve behind the GPD fit, on synthetic C^1 functions."""

    @staticmethod
    def solve(slope, lo, hi):
        """Run the solve through ``minimize``; return (result, slope calls)."""
        calls = []

        def fun(s):
            calls.append(s)
            return slope(s)

        res = optimize.minimize(fun, [0.0], method=er._slope_solve, bounds=[(lo, hi)])
        return res, len(calls)

    def test_positive_slope_ends_at_the_lower_bound(self):
        res, _ = self.solve(lambda s: 1.0 + 0.5 * math.cos(s), -27.6, 9.2)
        assert res.x[0] == -27.6

    def test_negative_slope_ends_at_the_upper_bound(self):
        res, _ = self.solve(lambda s: -math.exp(-s), -27.6, 9.2)
        assert res.x[0] == 9.2

    @pytest.mark.parametrize("target", [-20.0, -0.3, 1e-7, 2.5, 8.0])
    def test_interior_minimum_and_its_count(self, target):
        def slope(s):
            return math.expm1(s - target) + 0.1 * (s - target)

        res, calls = self.solve(slope, -27.6, 9.2)
        assert abs(slope(res.x[0])) <= 1e-10
        assert res.x[0] == pytest.approx(target, abs=1e-9)
        assert res.nfev == calls
        # Illinois steps converge superlinearly: a few more calls than the doubling.
        assert calls <= 25

    def test_adjacent_floats_end_the_solve(self):
        # F' = 2e6 (s - pi) + 3e-10 changes sign between two floats and is
        # larger than 1e-10 in size at both.
        def slope(s):
            return 2e6 * (s - math.pi) + 3e-10

        res, calls = self.solve(slope, -27.6, 9.2)
        assert res.x[0] == math.pi
        assert res.nfev == calls < 200

    @pytest.mark.parametrize("wells, hump", [((-0.5, 3.0), 1.2), ((0.25, 0.9), 0.6)])
    def test_double_well_ends_in_a_well(self, wells, hump):
        # F' = (s - w1)(s - hump)(s - w2). From s = 0 the first downhill step
        # brackets one well in the first case and both wells and the hump in
        # the second; the solve must end where F' turns from - to +.
        def slope(s):
            return (s - wells[0]) * (s - hump) * (s - wells[1])

        res, _ = self.solve(slope, -10.0, 10.0)
        x = res.x[0]
        assert abs(slope(x)) <= 1e-10
        assert min(abs(x - wells[0]), abs(x - wells[1])) < 1e-9
        assert slope(x - 1e-3) < 0.0 < slope(x + 1e-3)


def gpd_or_bounded_exceedances():
    """Exceedance sets from GPD tails and from bounded (triangular) tails.

    The triangular sets have a true shape of -1/2, outside the search box, so
    most of their fits land on the lower shape face. GPD shapes above
    XI_BOUNDS[1] have no interior profile optimum and test the upper face.
    """
    def draw(args):
        kind, xi, beta, n, seed = args
        rng = np.random.default_rng(seed)
        if kind == "triangular":
            return rng.triangular(0.0, 0.0, beta, size=n)
        # expm1 keeps the inverse transform exact for shapes near zero.
        log_v = np.log1p(-rng.random(n))
        return beta * np.expm1(-xi * log_v) / xi if xi != 0.0 else -beta * log_v

    return st.tuples(st.sampled_from(["gpd", "triangular"]),
                     st.floats(-0.45, 1.5), st.floats(0.1, 10.0),
                     st.integers(er.MIN_EXCEEDANCES, 400),
                     st.integers(0, 2**32 - 1)).map(draw)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


class TestFitGpdProperties:
    @PROPERTY_SETTINGS
    @given(z=gpd_or_bounded_exceedances(), log_c=st.floats(-3.0, 3.0))
    def test_scale_equivariance(self, z, log_c):
        c = 10.0**log_c
        fit, scaled = er.fit_gpd_exceedances(z), er.fit_gpd_exceedances(c * z)
        assert scaled.boundary == fit.boundary
        assert scaled.xi == pytest.approx(fit.xi, abs=1e-6)
        assert scaled.beta == pytest.approx(c * fit.beta, rel=1e-6)

    @PROPERTY_SETTINGS
    @given(z=gpd_or_bounded_exceedances(), seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, z, seed):
        fit = er.fit_gpd_exceedances(z)
        shuffled = er.fit_gpd_exceedances(np.random.default_rng(seed).permutation(z))
        assert shuffled.boundary == fit.boundary
        assert shuffled.xi == pytest.approx(fit.xi, abs=1e-8)
        assert shuffled.beta == pytest.approx(fit.beta, rel=1e-8)
        assert shuffled.loglik == pytest.approx(fit.loglik, rel=1e-12, abs=1e-9)

    @PROPERTY_SETTINGS
    @given(z=gpd_or_bounded_exceedances())
    def test_profile_identity_at_interior_fits(self, z):
        fit = er.fit_gpd_exceedances(z)
        if not fit.boundary:
            assert fit.xi == pytest.approx(
                float(np.log1p(fit.xi * z / fit.beta).mean()), abs=1e-8)

    @PROPERTY_SETTINGS
    @given(z=gpd_or_bounded_exceedances(),
           offsets=st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
                            min_size=1, max_size=8))
    def test_no_better_point_nearby(self, z, offsets):
        fit = er.fit_gpd_exceedances(z)
        lbeta0 = math.log(z.mean())
        compass = [(1e-3 * math.cos(a), 1e-3 * math.sin(a))
                   for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
        for d_xi, d_lbeta in compass + offsets:
            xi, lbeta = fit.xi + d_xi, math.log(fit.beta) + d_lbeta
            if not (er.XI_BOUNDS[0] <= xi <= er.XI_BOUNDS[1]
                    and abs(lbeta - lbeta0) <= er.LOG_BETA_SPAN):
                continue
            if xi < 0.0 and 1.0 + xi * z.max() / math.exp(lbeta) <= 0.0:
                continue
            loglik = float(np.sum(er.gpd_logpdf(xi, math.exp(lbeta), z)))
            assert loglik <= fit.loglik + 1e-9 * max(1.0, abs(fit.loglik))


    @PROPERTY_SETTINGS
    @given(z=gpd_or_bounded_exceedances())
    def test_fit_terms_match_the_partials(self, z):
        # The fit's one pass over z gives the same information, loglik and
        # score sums as the public log-density, score and Hessian.
        try:
            fit = er.fit_gpd_exceedances(z)
        except er.SingularInformationError:
            return
        h_xx, h_xb, h_bb = (float(np.mean(h)) for h in er.gpd_hessian(fit.xi, fit.beta, z))
        np.testing.assert_allclose(fit.info, -np.array([[h_xx, h_xb], [h_xb, h_bb]]),
                                   rtol=1e-12, atol=0.0)
        assert fit.loglik == pytest.approx(float(np.sum(er.gpd_logpdf(fit.xi, fit.beta, z))),
                                           rel=1e-12)
        terms = er._gpd_terms(fit.xi, fit.beta, z, 2)
        for got, want in zip(terms[1:3], er.gpd_score(fit.xi, fit.beta, z)):
            assert float(got.sum()) == pytest.approx(float(want.sum()), rel=1e-12, abs=1e-300)

def gpd_points(shapes):
    """(xi, beta, z): z holds GPD quantiles at levels 0.01-0.99 of (xi, beta).

    The levels keep the density away from zero and every z well inside the
    support, so central differences of width 1e-6 stay in it.
    """
    def build(args):
        xi, beta, levels = args
        big_l = -np.log1p(-np.asarray(levels))
        z = beta * (big_l if abs(xi) < er.XI_ZERO_EPS else np.expm1(xi * big_l) / xi)
        return xi, beta, z

    return st.tuples(shapes, st.floats(0.1, 10.0),
                     st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8)).map(build)


# Just outside |xi| < XI_SERIES_EPS the general xi-partials cancel terms of
# size z / (beta |xi|), and a difference quotient magnifies that rounding by
# 1/h. The parameter properties therefore draw |xi| >= 0.05, where it stays
# below the 1e-8 per-point tolerance.
REGULAR_SHAPES = st.one_of(st.floats(-0.45, -0.05), st.floats(0.05, 0.95))


class TestGpdDerivativeProperties:
    """gpd_cdf, gpd_logpdf, gpd_score and gpd_hessian agree by central differences."""

    H = 1e-6

    @PROPERTY_SETTINGS
    @given(point=gpd_points(st.floats(-0.45, 0.95)))
    def test_density_is_the_derivative_of_the_cdf(self, point):
        xi, beta, z = point
        h = self.H * beta
        fd = (er.gpd_cdf(xi, beta, z + h) - er.gpd_cdf(xi, beta, z - h)) / (2 * h)
        np.testing.assert_allclose(fd, np.exp(er.gpd_logpdf(xi, beta, z)), rtol=1e-6)

    @PROPERTY_SETTINGS
    @given(point=gpd_points(REGULAR_SHAPES))
    def test_score_is_the_gradient_of_the_loglik(self, point):
        xi, beta, z = point
        h = self.H

        def loglik(x, b):
            return float(np.sum(er.gpd_logpdf(x, b, z)))

        fd = [(loglik(xi + h, beta) - loglik(xi - h, beta)) / (2 * h),
              (loglik(xi, beta * (1 + h)) - loglik(xi, beta * (1 - h))) / (2 * h * beta)]
        score = [float(np.sum(s)) for s in er.gpd_score(xi, beta, z)]
        np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-8 * z.size)

    @PROPERTY_SETTINGS
    @given(point=gpd_points(REGULAR_SHAPES))
    def test_hessian_is_the_jacobian_of_the_score(self, point):
        xi, beta, z = point
        h = self.H

        def score(x, b):
            return np.array([np.sum(s) for s in er.gpd_score(x, b, z)])

        d_xi = (score(xi + h, beta) - score(xi - h, beta)) / (2 * h)
        d_beta = (score(xi, beta * (1 + h)) - score(xi, beta * (1 - h))) / (2 * h * beta)
        h_xx, h_xb, h_bb = (float(np.sum(v)) for v in er.gpd_hessian(xi, beta, z))
        np.testing.assert_allclose([[h_xx, h_xb], [h_xb, h_bb]],
                                   np.column_stack([d_xi, d_beta]),
                                   rtol=1e-6, atol=1e-8 * z.size)


def exact_exponential_fit(n=1000):
    info = np.array([[2.0, 1.0], [1.0, 1.0]])  # Fisher information at xi=0, beta=1
    return er.GpdFit(u=0.0, n_total=n, n_exceed=n, zeta=1.0, xi=0.0, beta=1.0,
                     info=info, loglik=0.0)


class TestPotVar:
    def test_exponential_quantile(self):
        assert er.pot_var(exact_exponential_fit(), 0.95) == pytest.approx(
            math.log(20), rel=1e-12)

    def test_plugin_value_and_cdf_inversion(self):
        fit = er.GpdFit(u=10.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.5,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        q = er.pot_var(fit, 0.99)
        assert q == pytest.approx(10 + 2 * (math.sqrt(10) - 1), rel=1e-12)
        # Inverting the exceedance CDF: zeta * (1 - G(q - u)) must equal 1 - alpha.
        assert fit.zeta * (1 - er.gpd_cdf(fit.xi, fit.beta, q - fit.u)) == pytest.approx(
            0.01, rel=1e-10)

    def test_alpha_at_threshold_level_returns_threshold(self):
        fit = er.GpdFit(u=3.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.2,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        assert er.pot_var(fit, 0.9) == pytest.approx(3.0, abs=1e-12)

    def test_alpha_below_threshold_level_rejected(self):
        fit = er.GpdFit(u=3.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.2,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        with pytest.raises(er.TailOrderError):
            er.pot_var(fit, 0.5)

    def test_xi_zero_branch_continuity(self):
        base = exact_exponential_fit()
        ref_q = er.pot_var(base, 0.95)
        ref_c = er.pot_cvar_value(base, 0.95)
        for xi in (1e-10, -1e-10):
            fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=1000, zeta=1.0, xi=xi,
                            beta=1.0, info=np.eye(2), loglik=0.0)
            assert er.pot_var(fit, 0.95) == pytest.approx(ref_q, rel=1e-6)
            assert er.pot_cvar_value(fit, 0.95) == pytest.approx(ref_c, rel=1e-6)


class TestPotCvar:
    def test_exponential_memorylessness(self):
        est = er.pot_cvar(exact_exponential_fit(), 0.95)
        assert est.value == pytest.approx(math.log(20) + 1, rel=1e-12)
        assert est.method == "pot"

    def test_heavy_shape_against_quadrature(self):
        fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=1000, zeta=1.0, xi=0.5,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        q = er.pot_var(fit, 0.95)
        assert q == pytest.approx(2 * (math.sqrt(20) - 1), rel=1e-12)
        got = er.pot_cvar_value(fit, 0.95)
        assert got == pytest.approx(q + (1 + 0.5 * q) / 0.5, rel=1e-12)
        # Independent oracle: average the quantile curve over the tail.
        oracle, _ = integrate.quad(lambda lam: er.pot_var(fit, lam), 0.95, 1.0,
                                   epsabs=1e-12, epsrel=1e-10)
        assert got == pytest.approx(oracle / 0.05, rel=1e-8)

    def test_infinite_tail_mean_rejected(self):
        fit = er.GpdFit(u=0.0, n_total=100, n_exceed=100, zeta=1.0, xi=1.0,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        with pytest.raises(er.HeavyTailError):
            er.pot_cvar(fit, 0.95)

    def test_heavy_shape_variance_warns(self):
        fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.6,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        with pytest.warns(er.HeavyTailWarning, match="xi=0.600 >= 0.5"):
            est = er.pot_cvar(fit, 0.99)
        assert est.variance == pytest.approx(32.25, rel=1e-3)

    def test_negative_shape_below_the_endpoint(self):
        # xi < 0 bounds the tail at u + beta / |xi| = 1 + 5 / 3.
        fit = er.GpdFit(u=1.0, n_total=2000, n_exceed=400, zeta=0.2, xi=-0.3,
                        beta=0.5, info=np.eye(2), loglik=0.0)
        q = er.pot_var(fit, 0.95)
        est = er.pot_cvar(fit, 0.95)
        assert est.value == pytest.approx(q + (fit.beta + fit.xi * (q - fit.u)) / (1 - fit.xi),
                                          rel=1e-12)
        assert q < est.value < fit.u + fit.beta / 0.3

    def test_level_below_threshold_rejected(self):
        fit = er.GpdFit(u=2.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.1,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        with pytest.raises(er.TailOrderError, match="below the threshold level 0.9"):
            er.pot_cvar(fit, 0.5)

    def test_cvar_dominates_var(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            xi = float(rng.uniform(-0.45, 0.95))
            fit = er.GpdFit(u=float(rng.uniform(0, 5)), n_total=1000, n_exceed=200,
                            zeta=0.2, xi=xi, beta=float(rng.uniform(0.2, 3)),
                            info=np.eye(2), loglik=0.0)
            alpha = float(rng.uniform(0.81, 0.999))
            assert er.pot_cvar_value(fit, alpha) >= er.pot_var(fit, alpha)


class TestDeltaVariance:
    def test_identity_information_quadratic_form(self):
        fit = er.GpdFit(u=1.0, n_total=1000, n_exceed=250, zeta=0.25, xi=0.2,
                        beta=1.5, info=np.eye(2), loglik=0.0)
        a, b = er.cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, 0.99)
        assert er.delta_variance(fit, 0.99) == pytest.approx(
            (a * a + b * b) / 250, rel=1e-12)

    def test_information_scaling_inverse_linearity(self):
        base = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.1,
                         beta=1.0, info=np.array([[2.0, 0.5], [0.5, 1.0]]), loglik=0.0)
        scaled = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.1,
                           beta=1.0, info=3.0 * base.info, loglik=0.0)
        assert er.delta_variance(scaled, 0.99) == pytest.approx(
            er.delta_variance(base, 0.99) / 3.0, rel=1e-12)

    def test_sensitivity_matches_finite_differences(self):
        for xi in (-0.3, -1e-5, 0.0, 1e-5, 0.3, 0.7):
            h = 1e-6
            g_xi, g_beta = er.cvar_sensitivity(xi, 1.3, 2.0, 0.2, 0.99)
            up = er.pot_cvar_value(er.GpdFit(2.0, 1000, 200, 0.2, xi + h, 1.3,
                                             np.eye(2), 0.0), 0.99)
            dn = er.pot_cvar_value(er.GpdFit(2.0, 1000, 200, 0.2, xi - h, 1.3,
                                             np.eye(2), 0.0), 0.99)
            assert g_xi == pytest.approx((up - dn) / (2 * h), rel=2e-5)
            upb = er.pot_cvar_value(er.GpdFit(2.0, 1000, 200, 0.2, xi, 1.3 + h,
                                              np.eye(2), 0.0), 0.99)
            dnb = er.pot_cvar_value(er.GpdFit(2.0, 1000, 200, 0.2, xi, 1.3 - h,
                                              np.eye(2), 0.0), 0.99)
            assert g_beta == pytest.approx((upb - dnb) / (2 * h), rel=2e-5)

    def test_halves_when_exceedances_double(self):
        rng = np.random.default_rng(12)
        z = gpd_draws(0.2, 1.0, 40_000, rng)
        v_half = er.delta_variance(er.fit_gpd_exceedances(z[:20_000]), 0.999)
        v_full = er.delta_variance(er.fit_gpd_exceedances(z), 0.999)
        assert v_half / v_full == pytest.approx(2.0, rel=0.35)

    def test_heavy_tail_warning(self):
        fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.6,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        with pytest.warns(er.HeavyTailWarning):
            er.delta_variance(fit, 0.99)

    def test_alpha_at_threshold_level_has_a_variance(self):
        # 1 - 0.95 rounds above zeta = 0.05, so log(zeta / (1 - alpha)) is a
        # hair below zero; value and variance must both accept the level.
        rng = np.random.default_rng(14)
        fit = er.fit_gpd(rng.exponential(size=600), 0.95)
        assert fit.zeta == 0.05
        value = er.pot_cvar_value(fit, 0.95)
        assert er.delta_variance(fit, 0.95) > 0.0
        assert value == pytest.approx(fit.u + fit.beta / (1.0 - fit.xi), rel=1e-12)
        assert er.cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, 0.95)[1] == \
            pytest.approx(1.0 / (1.0 - fit.xi), rel=1e-12)
        with pytest.raises(er.TailOrderError):
            er.cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, 0.9)

    def test_singular_information_rejected(self):
        fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.1,
                        beta=1.0, info=np.array([[1.0, 1.0], [1.0, 1.0]]), loglik=0.0)
        with pytest.raises(er.SingularInformationError):
            er.delta_variance(fit, 0.99)



def rotated(log_lam, log_ratio, sign, angle):
    """The symmetric 2x2 matrix R diag(l, s l r) R' with l = 10^log_lam, r = 10^log_ratio."""
    lam = 10.0**log_lam
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ np.diag([lam, sign * lam * 10.0**log_ratio]) @ rot.T
    return 0.5 * (m + m.T)


def symmetric_matrices(log_ratio):
    return st.builds(rotated, st.floats(-3.0, 3.0), log_ratio, st.sampled_from([1.0, -1.0]),
                     st.floats(0.0, math.pi))


# Shapes on the xi-series branch of the sensitivity, xi = 0 exactly, and the box.
BATCH_SHAPES = st.one_of(st.floats(-1e-4, 1e-4), st.just(0.0), st.floats(-0.49, 0.99))


def batch_fits(info):
    """(alpha, fits): fits whose threshold levels lie at or below alpha."""
    def build(args):
        alpha, rows = args
        return alpha, [er.GpdFit(u=u, n_total=10**6, n_exceed=n, zeta=(1 - alpha) + f * alpha,
                                 xi=xi, beta=beta, info=m, loglik=0.0)
                       for xi, beta, u, f, n, m in rows]

    row = st.tuples(BATCH_SHAPES, st.floats(0.1, 10.0), st.floats(-5.0, 5.0),
                    st.floats(0.0, 1.0), st.integers(er.MIN_EXCEEDANCES, 10_000), info)
    return st.tuples(st.floats(0.9, 0.999), st.lists(row, min_size=1, max_size=8)).map(build)


def spd_info():
    """Well-conditioned information matrices L L' (condition number below 1e4)."""
    return st.builds(lambda a, b, c: np.array([[a * a, a * b], [a * b, b * b + c * c]]),
                     st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(0.1, 10.0))


class TestPotCvarMany:
    @PROPERTY_SETTINGS
    @given(case=batch_fits(spd_info()))
    def test_matches_a_linalg_reference(self, case):
        alpha, fits = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", er.HeavyTailWarning)
            values, variances, singular = er.pot_cvar_many(fits, alpha)
        assert not singular.any()
        for fit, value, variance in zip(fits, values, variances):
            q = er.pot_var(fit, alpha)
            assert value == pytest.approx(q + (fit.beta + fit.xi * (q - fit.u)) / (1 - fit.xi),
                                          rel=1e-12, abs=1e-12)
            grad = np.array(er.cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, alpha))
            want = grad @ np.linalg.solve(fit.info, grad) / fit.n_exceed
            assert variance == pytest.approx(want, rel=1e-12)

    @PROPERTY_SETTINGS
    @given(case=batch_fits(symmetric_matrices(st.one_of(st.floats(-11.5, 0.0),
                                                        st.floats(-16.0, -12.5)))))
    def test_flags_where_linalg_fails(self, case):
        # log10 of the eigenvalue ratio stays 0.5 away from the 1e12 limit, where
        # np.linalg.cond is itself uncertain by about eps * 1e12.
        alpha, fits = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", er.HeavyTailWarning)
            _, variances, singular = er.pot_cvar_many(fits, alpha)
        for fit, variance, flag in zip(fits, variances, singular):
            try:
                np.linalg.cholesky(fit.info)
                failed = np.linalg.cond(fit.info) > er.INFO_MAX_CONDITION
            except np.linalg.LinAlgError:
                failed = True
            assert flag == failed
            assert math.isnan(variance) == failed

    def test_flags_bad_matrices_without_raising(self):
        base = dict(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.1, beta=1.0, loglik=0.0)
        infos = [np.eye(2), np.array([[1.0, np.inf], [np.inf, 1.0]]), np.eye(3),
                 np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0, 0.0], [0.0, 0.0]]),
                 np.array([[-1.0, 0.0], [0.0, -2.0]])]
        _, variances, singular = er.pot_cvar_many([er.GpdFit(info=m, **base) for m in infos],
                                                  0.99)
        assert singular.tolist() == [False, True, True, True, True, True]
        assert variances[0] > 0.0 and np.isnan(variances[1:]).all()

    def test_first_failing_fit_raises_the_scalar_error(self):
        base = dict(u=0.0, n_total=1000, n_exceed=100, beta=1.0, info=np.eye(2), loglik=0.0)
        ok = er.GpdFit(zeta=0.1, xi=0.1, **base)
        heavy = er.GpdFit(zeta=0.1, xi=1.2, **base)
        short = er.GpdFit(zeta=0.001, xi=0.1, **base)
        for fits, alpha in (([ok, heavy, short], 0.99), ([ok, short, heavy], 0.99)):
            first = next(f for f in fits if f is not ok)
            with pytest.raises(er.RiskError) as scalar:
                er.pot_cvar_value(first, alpha)
            with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
                er.pot_cvar_many(fits, alpha)

    def test_every_delta_variance_warns_on_heavy_tails(self):
        fit = er.GpdFit(u=0.0, n_total=1000, n_exceed=100, zeta=0.1, xi=0.6,
                        beta=1.0, info=np.eye(2), loglik=0.0)
        for estimate in (lambda: er.delta_variance(fit, 0.99),
                         lambda: er.pot_cvar(fit, 0.99),
                         lambda: er.pot_cvar_many([fit], 0.99)):
            with pytest.warns(er.HeavyTailWarning, match="xi=0.600"):
                estimate()

    def test_batch_of_one_is_the_scalar_route(self):
        fit = er.fit_gpd(np.random.default_rng(15).exponential(size=2000), 0.9)
        values, variances, singular = er.pot_cvar_many([fit, fit], 0.99)
        est = er.pot_cvar(fit, 0.99)
        assert values.tolist() == [est.value] * 2 == [er.pot_cvar_value(fit, 0.99)] * 2
        assert variances.tolist() == [est.variance] * 2 == [er.delta_variance(fit, 0.99)] * 2
        assert not singular.any()


class TestConditionNumber:
    @PROPERTY_SETTINGS
    @given(m=symmetric_matrices(st.floats(-4.0, 0.0)))
    def test_matches_linalg_cond(self, m):
        assert er._condition(m) == pytest.approx(np.linalg.cond(m), rel=1e-10)

    @PROPERTY_SETTINGS
    @given(m=symmetric_matrices(st.floats(-14.0, -4.0)))
    def test_matches_linalg_cond_near_singular(self, m):
        # Both routes lose about eps * cond of relative accuracy in the
        # smallest eigenvalue, so the tolerance grows with the condition.
        ref = np.linalg.cond(m)
        assert er._condition(m) == pytest.approx(ref, rel=max(1e-10, 1e-14 * ref))

    def test_singular_and_extreme_scales(self):
        assert er._condition(np.zeros((2, 2))) == math.inf
        assert er._condition(np.array([[1.0, 1.0], [1.0, 1.0]])) == math.inf
        for scale in (1e-300, 1e300):
            m = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
            assert er._condition(m) == pytest.approx(np.linalg.cond(m / scale), rel=1e-14)


def reference_cvar(fit, alpha, dps=30):
    """POT CVaR at ``alpha`` and its (xi, beta) partials in mpmath: the quantile
    curve averaged over [alpha, 1), the CVaR spectrum 1/(1 - alpha).

    The integral runs in t = -log(1 - lambda), where VaR grows like e^(xi t)
    against the weight e^-t: a plain quadrature in lambda misses the
    (1 - lambda)^-xi endpoint singularity by about 2% at xi = 0.95.
    """
    with mpmath.workdps(dps):
        xi, beta, u, alpha = (mpmath.mpf(v) for v in (fit.xi, fit.beta, fit.u, alpha))
        log_zeta = mpmath.log(mpmath.mpf(fit.zeta))

        def partials(t):
            big_l = log_zeta + t
            if xi == 0:
                return big_l, big_l**2 / 2
            g = mpmath.expm1(xi * big_l) / xi
            return g, big_l * mpmath.exp(xi * big_l) / xi - g / xi

        def weighted(pick):
            return lambda t: pick(t) * mpmath.exp(-t) / (1 - alpha)

        knots = [-mpmath.log1p(-alpha), mpmath.inf]
        value = weighted(lambda t: u + beta * partials(t)[0])
        d_xi = weighted(lambda t: beta * partials(t)[1])
        d_beta = weighted(lambda t: partials(t)[0])
        return [float(mpmath.quad(f, knots)) for f in (value, d_xi, d_beta)]


class TestSpectralReference:
    """POT CVaR, the spectral risk measure whose spectrum is 1/(1 - alpha) on
    [alpha, 1), and its gradient against a 30-digit quadrature."""

    SHAPES = (-0.3, 0.0, 5e-5, 2e-3, 0.5, 0.95)

    @pytest.mark.parametrize("xi", SHAPES)
    @pytest.mark.filterwarnings("ignore::evtkrig.evt_risk.HeavyTailWarning")
    def test_value_and_partials(self, xi):
        fit = er.GpdFit(u=1.5, n_total=5000, n_exceed=750, zeta=0.15, xi=xi, beta=0.8,
                        info=np.eye(2), loglik=0.0)
        value = er.pot_cvar_value(fit, 0.99)
        d_xi, d_beta = er.cvar_sensitivity(fit.xi, fit.beta, fit.u, fit.zeta, 0.99)
        ref = reference_cvar(fit, 0.99)
        assert value == pytest.approx(ref[0], rel=1e-12)
        assert d_xi == pytest.approx(ref[1], rel=1e-11)
        assert d_beta == pytest.approx(ref[2], rel=1e-12)
        assert er.pot_cvar(fit, 0.99).value == value
