"""Tests for the benchmark-surface and activity-network test beds."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtkrig import models
from evtkrig.evt_risk import empirical_cvar
from evtkrig.rng import RngStream


class TestBenchmarkMean:
    def test_origin(self):
        assert models.benchmark_mean((0.0, 0.0)) == 0.0

    def test_exact_sines(self):
        assert models.benchmark_mean((1.0, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_corner_against_high_precision(self):
        # Independent high-precision evaluation of 2*pi*sin(pi^2).
        import mpmath

        mpmath.mp.dps = 50
        expected = float(2 * mpmath.pi * mpmath.sin(mpmath.pi**2))
        got = models.benchmark_mean((math.pi, math.pi))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-2.7036622843164713, rel=1e-12)

    def test_total_outside_nominal_domain(self):
        # The trend formula is total; (3, 4) sits outside [-pi, pi]^2 but has
        # an exactly-zero trend, which the noise-oracle examples rely on.
        assert models.benchmark_mean((3.0, 4.0)) == pytest.approx(0.0, abs=1e-12)


class TestSampleNoise:
    def test_normal_origin_degenerates_to_zeros(self):
        s = models.sample_noise("normal", (0.0, 0.0), 5, RngStream(1))
        assert np.all(s == 0.0)

    def test_triangular_origin_degenerates_to_zeros(self):
        s = models.sample_noise("triangular", (0.0, 0.0), 5, RngStream(1))
        assert np.all(s == 0.0)

    def test_pareto_support_floor(self):
        s = models.sample_noise("pareto", (0.0, 0.0), 2000, RngStream(2))
        assert np.all(s >= 2.0)

    def test_triangular_support(self):
        s = models.sample_noise("triangular", (3.0, 4.0), 2000, RngStream(3))
        assert np.all(s >= 0.0) and np.all(s <= 5.0)

    def test_bitwise_reproducibility(self):
        a = models.sample_noise("pareto", (1.0, 2.0), 100, RngStream(9, (4, 5)))
        b = models.sample_noise("pareto", (1.0, 2.0), 100, RngStream(9, (4, 5)))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = models.sample_noise("normal", (1.0, 2.0), 100, RngStream(9, (0,)))
        b = models.sample_noise("normal", (1.0, 2.0), 100, RngStream(9, (1,)))
        assert not np.array_equal(a, b)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            models.sample_noise("cauchy", (0.0, 0.0), 5, RngStream(1))


class TestTrueCvarBenchmark:
    def test_pareto_origin(self):
        got = models.true_cvar_benchmark("pareto", (0.0, 0.0), 0.95)
        assert got == pytest.approx(2 * 2 / math.sqrt(0.05), rel=1e-12)
        assert got == pytest.approx(17.8885, abs=5e-4)

    def test_normal_origin_is_zero(self):
        assert models.true_cvar_benchmark("normal", (0.0, 0.0), 0.99) == 0.0

    def test_triangular_value(self):
        got = models.true_cvar_benchmark("triangular", (3.0, 4.0), 0.99)
        want = models.benchmark_mean((3.0, 4.0)) + 5 * (1 - math.sqrt(0.02) / 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert models.noise_cvar("triangular", (3.0, 4.0), 0.99) == pytest.approx(
            4.7643, abs=5e-4)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            models.true_cvar_benchmark("normal", (1.0, 1.0), 1.2)

    def test_translation_equivariance(self):
        # Surface oracle equals trend plus the standalone noise formula.
        for scenario in models.NOISE_SCENARIOS:
            for p in [(0.5, -1.0), (2.0, 3.0), (-3.0, 0.25)]:
                for alpha in (0.9, 0.99):
                    assert models.true_cvar_benchmark(scenario, p, alpha) == pytest.approx(
                        models.benchmark_mean(p) + models.noise_cvar(scenario, p, alpha),
                        rel=1e-13)


class TestNoiseOracleConsistency:
    """Empirical CVaR of large noise samples must match the closed forms."""

    def test_triangular(self):
        s = models.sample_noise("triangular", (3.0, 4.0), 1_000_000, RngStream(17))
        for alpha in (0.9, 0.95):
            emp = empirical_cvar(s, alpha).value
            want = models.noise_cvar("triangular", (3.0, 4.0), alpha)
            assert emp == pytest.approx(want, rel=5e-3)

    def test_pareto(self):
        s = models.sample_noise("pareto", (3.0, 4.0), 1_000_000, RngStream(23))
        emp = empirical_cvar(s, 0.95).value
        want = models.noise_cvar("pareto", (3.0, 4.0), 0.95)
        assert emp == pytest.approx(want, rel=2e-2)

    def test_normal(self):
        s = models.sample_noise("normal", (3.0, 4.0), 1_000_000, RngStream(29))
        emp = empirical_cvar(s, 0.95).value
        want = models.noise_cvar("normal", (3.0, 4.0), 0.95)
        assert emp == pytest.approx(want, rel=5e-3)


class _StubStream(RngStream):
    """Stream whose generator returns scripted exponential draws."""

    def __init__(self, table):
        super().__init__(0, ())
        object.__setattr__(self, "_table", np.asarray(table, dtype=float))

    def generator(self):
        table = self._table

        class _G:
            def standard_exponential(self, shape):
                return np.broadcast_to(table.reshape(-1, 1), shape).copy()

        return _G()


class TestSanSimulate:
    def test_all_zero_activities_give_zero(self):
        s = models.san_simulate(1.0, 3, _StubStream([0, 0, 0, 0, 0]))
        assert np.all(s == 0.0)

    def test_max_of_path_sums(self):
        # T = (1, 2, 3, 4, 5) with x=2 doubling T3: paths 3, 1+6=7, 9.
        s = models.san_simulate(2.0, 1, _StubStream([1, 2, 3, 4, 5]))
        assert s[0] == pytest.approx(9.0)
        # Dominant middle path: T = (5, 0, 4, 1, 1), x=2 -> max(5, 13, 2).
        s = models.san_simulate(2.0, 1, _StubStream([5, 0, 4, 1, 1]))
        assert s[0] == pytest.approx(13.0)

    def test_mean_matches_cdf_oracle(self):
        draws = models.san_simulate(1.0, 1_000_000, RngStream(31))
        assert draws.mean() == pytest.approx(models.san_mean(1.0), rel=1e-2)

    def test_param_validated(self):
        with pytest.raises(ValueError):
            models.san_simulate(0.1, 10, RngStream(1))


class TestSanOracle:
    def test_cdf_basic_shape(self):
        assert models.san_cdf(0.0, 1.0) == 0.0
        assert models.san_cdf(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0.1, 20, 40)
        vals = [models.san_cdf(t, 1.3) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_alpha_to_zero_limit_is_mean(self):
        assert models.san_true_cvar(1.0, 1e-6) == pytest.approx(
            models.san_mean(1.0), rel=1e-4)

    def test_monotone_in_alpha(self):
        for x in (0.3, 1.0, 2.0):
            assert models.san_true_cvar(x, 0.99) > models.san_true_cvar(x, 0.95)

    def test_var_inverts_cdf(self):
        q = models.san_var(1.0, 0.95)
        assert models.san_cdf(q, 1.0) == pytest.approx(0.95, abs=1e-8)

    def test_monte_carlo_agreement(self):
        draws = models.san_simulate(1.0, 1_000_000, RngStream(37))
        emp = empirical_cvar(draws, 0.95).value
        assert models.san_true_cvar(1.0, 0.95) == pytest.approx(emp, rel=1e-2)

    def test_cdf_is_exactly_one_far_out_and_at_infinity(self):
        assert models.san_cdf(800.0, 1.0) == 1.0
        for x in (0.3, 1.0, 2.0):
            assert models.san_cdf(math.inf, x) == 1.0

    def test_cdf_is_nonnegative_near_zero(self):
        # F(t) is about t^5 / (6x) here, far below the rounding of J's leading 1.
        for x in (0.3, 0.7, 1.0, 1.5, 2.0):
            for t in np.geomspace(1e-12, 1e-2, 200):
                assert 0.0 <= models.san_cdf(t, x) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(x=st.floats(0.3, 2.0), t1=st.floats(0.0, 1e3), t2=st.floats(0.0, 1e3))
    def test_cdf_is_a_distribution_function(self, x, t1, t2):
        lo, hi = sorted((t1, t2))
        f_lo, f_hi = models.san_cdf(lo, x), models.san_cdf(hi, x)
        assert 0.0 <= f_lo <= 1.0 and 0.0 <= f_hi <= 1.0
        # Nondecreasing up to rounding: where F is flat near 1 the closed form
        # can step down by an ulp.
        assert f_hi >= f_lo - 2.0**-51


SAN_REF_XS = (0.3, 0.5, 0.99960, 1.0 - 1e-6, 1.0, 1.3, 2.0)
SAN_REF_ALPHAS = (0.5, 0.95, 0.99, 0.995)
SAN_REF_DPS = 32


def _ref_san_cdf(t, x):
    """The closed-form CDF in mpmath; (e^(-t/x) - e^-t) / (1 - 1/x) is t e^-t at x = 1."""
    t, x = mp.mpf(t), mp.mpf(x)
    gap = t * mp.exp(-t) if x == 1 else (mp.exp(-t / x) - mp.exp(-t)) / (1 - 1 / x)
    joint = 1 - mp.exp(-t) * (1 + t - x) - x * mp.exp(-t * (1 + 1 / x)) - gap
    return joint * (1 - (1 + t) * mp.exp(-t))


def _ref_san_tail(q, x):
    """int_q^inf (1 - F) by one mpmath quadrature over [q, q + 200].

    The survival beyond q + 200 is of order e^-100 or less for every x <= 2.
    """
    return mp.quad(lambda t: 1 - _ref_san_cdf(t, x), [q, q + 5, q + 20, q + 60, q + 200])


class TestSanOracleReference:
    """The float oracle against a 32-digit mpmath reference, to 1e-12 relative."""

    def test_reference_cdf_is_the_conditioning_integral(self):
        with mp.workdps(SAN_REF_DPS):
            for x in (0.3, 1.0, 2.0):
                for t in (0.5, 3.0, 12.0):
                    tt, xx = mp.mpf(t), mp.mpf(x)
                    joint = mp.quad(lambda s: mp.exp(-s) * (1 - mp.exp(-(tt - s)))
                                    * (1 - mp.exp(-(tt - s) / xx)), [0, tt])
                    want = joint * (1 - (1 + tt) * mp.exp(-tt))
                    assert abs(_ref_san_cdf(t, x) - want) <= mp.mpf(10) ** -28 * want

    @pytest.mark.parametrize("x", SAN_REF_XS)
    def test_cdf_cvar_and_mean(self, x):
        with mp.workdps(SAN_REF_DPS):
            for alpha in SAN_REF_ALPHAS:
                q = mp.findroot(lambda t: _ref_san_cdf(t, x) - alpha, models.san_var(x, alpha))
                assert models.san_cdf(float(q), x) == pytest.approx(
                    float(_ref_san_cdf(float(q), x)), rel=1e-12)
                cvar = q + _ref_san_tail(q, x) / (1 - mp.mpf(alpha))
                assert models.san_true_cvar(x, alpha) == pytest.approx(float(cvar), rel=1e-12)
            assert models.san_mean(x) == pytest.approx(float(_ref_san_tail(0, x)), rel=1e-12)
