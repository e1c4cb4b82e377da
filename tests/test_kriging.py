"""Tests for the stochastic-kriging surface model."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtkrig import kriging as kg

AGREEMENT_FIXTURE = Path(__file__).parent / "fixtures" / "kriging_agreement.json"


def sine_sites(k=20):
    x = np.linspace(0, 2 * np.pi, k)
    return [kg.DesignSite((float(xi),), float(np.sin(xi))) for xi in x], x


def solve_residual(model):
    """max|Sigma w - (Y - beta0)| / max|Y - beta0| from a dense covariance."""
    diff = model.locations[:, None, :] - model.locations[None, :, :]
    corr = np.exp(-np.einsum("ijk,k->ij", diff**2, model.theta))
    sigma = (model.tau2 * (corr + model.nugget * np.eye(model.k))
             + np.diag(model.intrinsic))
    resid = model.responses - model.beta0
    return np.abs(sigma @ model._weights - resid).max() / np.abs(resid).max()


class TestKernel:
    def test_zero_distance(self):
        assert kg.kernel((1.0, 2.0), (1.0, 2.0), (3.0, 4.0)) == 1.0

    def test_unit_distance(self):
        assert kg.kernel((0.0,), (1.0,), (1.0,)) == pytest.approx(math.exp(-1))

    def test_additive_exponents(self):
        assert kg.kernel((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)) == pytest.approx(
            math.exp(-5))

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            th = rng.uniform(0.1, 3.0, size=3)
            assert kg.kernel(a, b, th) == pytest.approx(kg.kernel(b, a, th), rel=1e-15)
            assert 0.0 < kg.kernel(a, b, th) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kg.kernel((0.0,), (1.0, 2.0), (1.0, 1.0))


def _no_factor(*args, **kwargs):
    raise kg.SingularDesignError("covariance matrix is not positive definite")


class TestFit:
    def test_noiseless_interpolation(self):
        sites, x = sine_sites(20)
        model = kg.fit(sites)
        assert model.nugget == 0.0
        assert solve_residual(model) <= kg.SOLVE_RTOL
        for xi in x:
            assert model.predict((float(xi),))[0] == pytest.approx(
                np.sin(xi), abs=1e-8)

    def test_constant_responses(self):
        model = kg.fit([kg.DesignSite((0.0,), 2.5), kg.DesignSite((1.0,), 2.5)])
        assert model.nugget == 0.0
        assert model.beta0 == pytest.approx(2.5, rel=1e-9)
        for x0 in (0.2, 0.5, 0.9):
            assert model.predict((x0,))[0] == pytest.approx(2.5, rel=1e-9)

    @pytest.mark.parametrize("gap", [1e-9, 1e-7])
    def test_nearly_coincident_noiseless_sites_climb_the_ladder(self, gap):
        # At nugget 0 the covariance of these sites still factors, but its
        # weights do not reproduce the data; the fit must take a ladder nugget.
        sites = [kg.DesignSite((0.0,), 1.0), kg.DesignSite((gap,), 2.0),
                 kg.DesignSite((1.0,), 0.5)]
        model = kg.fit(sites)
        assert model.nugget in kg.NUGGET_LADDER
        assert solve_residual(model) <= kg.SOLVE_RTOL
        at_zero = kg.assemble(sites, tau2=model.tau2, theta=model.theta)
        assert solve_residual(at_zero) > kg.SOLVE_RTOL

    def test_grf_hyperparameter_recovery(self):
        # Draw from the model itself (known tau2=1, theta=4) with a small
        # known observation noise; the likelihood surface is flat, so the
        # tolerance is deliberately loose.
        rng = np.random.default_rng(3)
        locs = np.sort(rng.random(50))
        corr = np.exp(-4.0 * (locs[:, None] - locs[None, :]) ** 2)
        draw = np.linalg.cholesky(corr + 1e-12 * np.eye(50)) @ rng.standard_normal(50)
        noise_sd = 0.05
        y = draw + noise_sd * rng.standard_normal(50)
        sites = [kg.DesignSite((float(l),), float(v), noise_sd**2)
                 for l, v in zip(locs, y)]
        model = kg.fit(sites)
        assert abs(math.log(model.tau2) - 0.0) < 0.5
        assert abs(math.log(model.theta[0]) - math.log(4.0)) < 0.5

    def test_duplicate_noiseless_sites_rejected(self):
        sites = [kg.DesignSite((1.0,), 2.0), kg.DesignSite((1.0,), 3.0),
                 kg.DesignSite((2.0,), 4.0)]
        with pytest.raises(kg.SingularDesignError):
            kg.fit(sites)

    @pytest.mark.parametrize("noisy_at", [1, 3])
    def test_duplicate_noiseless_sites_rejected_whatever_the_order(self, noisy_at):
        # A noisy site at the same location must not hide the zero-noise pair,
        # whether or not it sorts between them.
        sites = [kg.DesignSite((0.0,), 1.0), kg.DesignSite((0.0,), 3.0),
                 kg.DesignSite((1.0,), 0.5)]
        sites.insert(noisy_at, kg.DesignSite((0.0,), 2.0, 0.1))
        with pytest.raises(kg.SingularDesignError, match=r"sites \(0\.0,\) with"):
            kg.fit(sites)

    def test_duplicate_sites_with_noise_allowed(self):
        sites = [kg.DesignSite((1.0,), 2.0, 0.5), kg.DesignSite((1.0,), 3.0, 0.5),
                 kg.DesignSite((2.0,), 4.0, 0.5)]
        kg.fit(sites)  # must not raise

    @pytest.mark.parametrize("field, bad", [
        ("location", (math.nan,)), ("location", (-math.inf,)), ("response", math.nan),
        ("response", math.inf), ("intrinsic_variance", math.nan),
        ("intrinsic_variance", math.inf), ("intrinsic_variance", -0.1)])
    def test_bad_site_values_rejected(self, field, bad):
        message = "nonnegative" if bad == -0.1 else f"site {field} must be finite"
        good = {"location": (0.5,), "response": 1.0, "intrinsic_variance": 0.1}
        with pytest.raises(ValueError, match=message):
            kg.DesignSite(**dict(good, **{field: bad}))
        # A site-like object that bypasses DesignSite meets the same check in fit.
        sites, _ = sine_sites(10)
        sites[3] = SimpleNamespace(**dict(good, **{field: bad}))
        with pytest.raises(ValueError, match=message):
            kg.fit(sites)

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            kg.fit([kg.DesignSite((0.0,), 1.0)])

    @pytest.mark.parametrize("attr, stand_in, cause", [
        ("SOLVE_RTOL", 0.0, "solve check failed (SOLVE_RTOL 0)"),
        ("_neg_profile_loglik", lambda *args: (1e300, 0),
         "likelihood search failed at every start"),
        ("assemble", _no_factor, "best covariance did not factor"),
    ], ids=["solve-check", "search", "factor"])
    def test_failed_ladder_names_its_cause(self, monkeypatch, attr, stand_in, cause):
        # The stand-in makes one of fit's three checks reject every nugget; the
        # error names that check at the top of the ladder.
        monkeypatch.setattr(kg, attr, stand_in)
        sites, _ = sine_sites(8)
        with pytest.raises(kg.SingularDesignError) as err:
            kg.fit(sites)
        assert str(err.value) == ("no usable covariance after nugget escalation: "
                                  f"{cause} at nugget 1e-06")

    @pytest.mark.parametrize("case", ["surface-fit-normal-5-1", "san-grid-san-1000-0"])
    def test_one_objective_evaluation_per_distinct_point(self, monkeypatch, case):
        # L-BFGS-B asks for a value and then a gradient at each point; one
        # evaluation answers both, and a point reached again is not evaluated again.
        rows = json.loads(AGREEMENT_FIXTURE.read_text())[case]["sites"]
        sites = [kg.DesignSite(tuple(row[:-2]), row[-2], row[-1]) for row in rows]
        points, requests = [], []
        objective, real_minimize = kg._neg_profile_loglik, kg.optimize.minimize

        def recorded(params, pairs, dpairs, resp, intr, nugget, *rest):
            points.append((params.tobytes(), nugget))
            return objective(params, pairs, dpairs, resp, intr, nugget, *rest)

        def counted(*args, **kwargs):
            result = real_minimize(*args, **kwargs)
            requests.append(result.nfev)
            return result

        monkeypatch.setattr(kg, "_neg_profile_loglik", recorded)
        monkeypatch.setattr(kg, "optimize", SimpleNamespace(minimize=counted))
        kg.fit(sites)
        repeats = len(points) - len(set(points))
        assert repeats == 0
        assert len(points) < sum(requests)


class TestStartRetirement:
    """A start stops once it reaches an earlier start's path at no lower objective."""

    @staticmethod
    def recorded_searches(monkeypatch, first_shift=0.0):
        """Fit noisy sine sites from two copies of one start; return both L-BFGS-B results.

        The first search sees the objective plus ``first_shift``, which moves
        no iterate but makes its path that much higher (or lower).
        """
        lhs, real_minimize = kg.lhs, kg.optimize.minimize
        monkeypatch.setattr(kg, "lhs", lambda *args: np.repeat(lhs(*args)[:1], 2, axis=0))
        results = []

        def minimize(fun, x0, **kwargs):
            shift = 0.0 if results else first_shift
            results.append(real_minimize(lambda params: fun(params) + shift, x0, **kwargs))
            return results[-1]

        monkeypatch.setattr(kg, "optimize", SimpleNamespace(minimize=minimize))
        sites = [kg.DesignSite(s.location, s.response, 0.01) for s in sine_sites(20)[0]]
        assert kg.fit(sites).nugget == 0.0 and len(results) == 2
        return results

    @pytest.mark.parametrize("first_shift", [0.0, -1.0])
    def test_duplicate_start_stops_at_its_first_iterate(self, monkeypatch, first_shift):
        first, second = self.recorded_searches(monkeypatch, first_shift)
        assert first.nit > 1
        assert second.nit == 1

    def test_start_below_the_earlier_path_runs_on(self, monkeypatch):
        # The earlier path is higher everywhere, so it must not retire the copy.
        first, second = self.recorded_searches(monkeypatch, first_shift=1.0)
        assert second.nit == first.nit > 1
        np.testing.assert_allclose(second.x, first.x, atol=1e-12)

    def test_fewer_evaluations_for_the_same_optimum(self, monkeypatch):
        case = json.loads(AGREEMENT_FIXTURE.read_text())["surface-fit-normal-5-1"]
        sites = [kg.DesignSite(tuple(row[:-2]), row[-2], row[-1]) for row in case["sites"]]
        assert len(sites) == 100
        calls = []
        objective = kg._neg_profile_loglik

        def counted(*args):
            calls.append(None)
            return objective(*args)

        monkeypatch.setattr(kg, "_neg_profile_loglik", counted)
        retired = kg.fit(sites)
        n_retired = len(calls)
        calls.clear()
        monkeypatch.setattr(kg, "RETIRE_ATOL", -1.0)  # no iterate is ever that close
        full = kg.fit(sites)
        assert n_retired <= 0.6 * len(calls)
        assert retired.loglik >= full.loglik - 1e-6
        assert retired.nugget == full.nugget == 0.0


class TestPredict:
    def test_two_site_closed_form(self):
        tau2, theta = 2.0, 1.0
        sites = [kg.DesignSite((0.0,), 1.0, 0.3), kg.DesignSite((1.0,), 3.0, 0.7)]
        model = kg.assemble(sites, tau2=tau2, theta=[theta])
        r = math.exp(-theta)
        sigma = tau2 * np.array([[1, r], [r, 1]]) + np.diag([0.3, 0.7])
        sig_inv = np.linalg.inv(sigma)
        ones, y = np.ones(2), np.array([1.0, 3.0])
        beta0 = (ones @ sig_inv @ y) / (ones @ sig_inv @ ones)
        for x0 in (0.0, 0.3, 0.75, 1.4):
            v = tau2 * np.array([math.exp(-theta * x0**2),
                                 math.exp(-theta * (x0 - 1) ** 2)])
            want = beta0 + v @ sig_inv @ (y - beta0)
            assert model.predict((x0,))[0] == pytest.approx(want, abs=1e-12)

    def test_noiseless_site_reproduced(self):
        sites = [kg.DesignSite((0.0,), 1.0), kg.DesignSite((1.0,), 3.0),
                 kg.DesignSite((2.0,), 2.0)]
        model = kg.assemble(sites, tau2=1.5, theta=[0.8])
        for s in sites:
            assert model.predict(s.location)[0] == pytest.approx(s.response, abs=1e-10)

    def test_regression_limit_far_from_design(self):
        # Huge kernel rate kills all correlation: prediction collapses to the
        # trend constant and the extrinsic sd to the process sd.
        sites = [kg.DesignSite((0.0,), 1.0, 0.1), kg.DesignSite((1.0,), 3.0, 0.1)]
        model = kg.assemble(sites, tau2=2.0, theta=[50.0])
        mean, sd = model.predict((40.0,))
        assert mean == pytest.approx(model.beta0, abs=1e-12)
        assert sd == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_shrinkage_toward_trend_with_noise(self):
        sites = [kg.DesignSite((0.0,), 1.0, 0.4), kg.DesignSite((1.0,), 3.0, 0.4)]
        model = kg.assemble(sites, tau2=1.0, theta=[1.0])
        for s in sites:
            pred = model.predict(s.location)[0]
            assert (pred - model.beta0) * (s.response - model.beta0) > 0
            assert abs(pred - model.beta0) < abs(s.response - model.beta0)

    def test_inflating_noise_moves_predictions_to_trend(self):
        base = [kg.DesignSite((0.0,), 1.0, 0.2), kg.DesignSite((1.0,), 3.0, 0.3)]
        inflated = [kg.DesignSite(s.location, s.response, 4.0 * s.intrinsic_variance)
                    for s in base]
        m_base = kg.assemble(base, tau2=1.0, theta=[1.0])
        m_more = kg.assemble(inflated, tau2=1.0, theta=[1.0])
        for x0 in (0.0, 0.25, 0.5, 1.0):
            lo = m_base.predict((x0,))[0]
            hi = m_more.predict((x0,))[0]
            assert abs(hi - m_more.beta0) <= abs(lo - m_more.beta0) + 1e-12

    def test_dimension_mismatch(self):
        sites, _ = sine_sites(5)
        model = kg.assemble(sites, tau2=1.0, theta=[1.0])
        with pytest.raises(ValueError):
            model.predict((0.0, 1.0))


class TestLikelihood:
    @staticmethod
    def _dense_loglik(sites, tau2, theta, beta0, nugget=0.0):
        locs = np.array([s.location for s in sites], dtype=float)
        y = np.array([s.response for s in sites])
        noise = np.array([s.intrinsic_variance for s in sites])
        diff = locs[:, None, :] - locs[None, :, :]
        corr = np.exp(-np.einsum("ijk,k->ij", diff**2, np.asarray(theta, float)))
        sigma = tau2 * (corr + nugget * np.eye(len(sites))) + np.diag(noise)
        resid = y - beta0
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        return (-0.5 * len(sites) * math.log(2 * math.pi) - 0.5 * logdet
                - 0.5 * resid @ np.linalg.inv(sigma) @ resid)

    def test_factorized_matches_dense(self):
        rng = np.random.default_rng(5)
        for k in (3, 6, 10):
            locs = rng.uniform(-1, 1, size=(k, 2))
            sites = [kg.DesignSite(tuple(l), float(rng.normal()),
                                   float(rng.uniform(0.05, 0.3))) for l in locs]
            tau2 = float(rng.uniform(0.5, 2.0))
            theta = rng.uniform(0.3, 2.0, size=2)
            beta0 = float(rng.normal())
            got = kg.log_likelihood(sites, tau2, theta, beta0=beta0)
            want = self._dense_loglik(sites, tau2, theta, beta0)
            assert got == pytest.approx(want, rel=1e-8)

    def test_profiled_trend_is_optimal(self):
        rng = np.random.default_rng(6)
        locs = rng.uniform(0, 1, size=(8, 1))
        sites = [kg.DesignSite(tuple(l), float(rng.normal()), 0.2) for l in locs]
        model = kg.assemble(sites, tau2=1.0, theta=[1.5])
        best = kg.log_likelihood(sites, 1.0, [1.5], beta0=model.beta0)
        for delta in (-1e-3, 1e-3):
            assert kg.log_likelihood(sites, 1.0, [1.5],
                                     beta0=model.beta0 + delta) <= best

    @pytest.mark.parametrize("tau2, theta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                             (1.0, -2.0)])
    def test_nonpositive_hyperparameters_rejected(self, tau2, theta):
        sites = [kg.DesignSite((0.0,), 1.0, 0.2), kg.DesignSite((1.0,), 3.0, 0.2)]
        with pytest.raises(ValueError):
            kg.log_likelihood(sites, tau2, [theta])


# Small designs, and designs as large as the benchmark's k = 50 site sets.
DESIGN_SIZES = st.integers(2, 12) | st.integers(40, 60)


def noisy_designs():
    """Sites, fixed hyperparameters and query points of random noisy designs.

    Every intrinsic variance is at least 1e-3 * tau2, so the covariance stays
    well conditioned and a 1e-9 tolerance measures rounding only.
    """
    def build(args):
        k, d, seed = args
        rng = np.random.default_rng(seed)
        tau2 = float(10.0 ** rng.uniform(-1.0, 1.0))
        theta = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        y = rng.normal(0.0, 3.0, size=k)
        noise = tau2 * 10.0 ** rng.uniform(-3.0, 0.0, size=k)
        sites = [kg.DesignSite(tuple(map(float, loc)), float(v), float(n))
                 for loc, v, n in zip(rng.random((k, d)), y, noise)]
        return sites, tau2, theta, rng.random((6, d))

    return st.tuples(DESIGN_SIZES, st.integers(1, 3), st.integers(0, 2**32 - 1)).map(build)


def separated_designs():
    """Sites, fixed hyperparameters and query points of random zero-noise designs.

    The sites sit one to a cell of a jittered grid of n cells per axis, at least
    0.5 / n apart in some coordinate, and every rate is at least 2 n^2, so
    neighbouring sites correlate at most exp(-1/2) and the covariance stays
    well conditioned at any ladder nugget, 0 included.
    """
    def build(args):
        k, d, seed = args
        rng = np.random.default_rng(seed)
        n = math.ceil(k ** (1.0 / d))
        cells = np.array(np.unravel_index(rng.permutation(n**d)[:k], (n,) * d)).T
        locs = (cells + rng.uniform(0.25, 0.75, size=(k, d))) / n
        tau2 = float(10.0 ** rng.uniform(-1.0, 1.0))
        theta = 2.0 * n**2 * 10.0 ** rng.uniform(0.0, 1.0, size=d)
        y = rng.normal(0.0, 3.0, size=k)
        sites = [kg.DesignSite(tuple(map(float, loc)), float(v)) for loc, v in zip(locs, y)]
        return sites, tau2, theta, rng.random((6, d))

    return st.tuples(DESIGN_SIZES, st.integers(1, 3), st.integers(0, 2**32 - 1)).map(build)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


class TestAssembleProperties:
    @PROPERTY_SETTINGS
    @given(design=noisy_designs(), seed=st.integers(0, 2**32 - 1))
    def test_site_permutation_invariance(self, design, seed):
        sites, tau2, theta, query = design
        perm = np.random.default_rng(seed).permutation(len(sites))
        model = kg.assemble(sites, tau2, theta)
        shuffled = kg.assemble([sites[i] for i in perm], tau2, theta)
        assert shuffled.loglik == pytest.approx(model.loglik, rel=1e-9)
        assert shuffled.beta0 == pytest.approx(model.beta0, rel=1e-9, abs=1e-12)
        (mean, sd), (s_mean, s_sd) = model.predict_many(query), shuffled.predict_many(query)
        np.testing.assert_allclose(s_mean, mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(s_sd, sd, rtol=1e-9, atol=1e-12)

    @PROPERTY_SETTINGS
    @given(design=noisy_designs(), c=st.floats(-100.0, 100.0))
    def test_response_shift_moves_only_the_trend(self, design, c):
        sites, tau2, theta, query = design
        shifted_sites = [kg.DesignSite(s.location, s.response + c, s.intrinsic_variance)
                         for s in sites]
        model = kg.assemble(sites, tau2, theta)
        shifted = kg.assemble(shifted_sites, tau2, theta)
        atol = 1e-12 * (1.0 + abs(c))
        assert shifted.beta0 == pytest.approx(model.beta0 + c, rel=1e-9, abs=atol)
        assert shifted.loglik == pytest.approx(model.loglik, rel=1e-9)
        (mean, sd), (s_mean, s_sd) = model.predict_many(query), shifted.predict_many(query)
        np.testing.assert_allclose(s_mean, mean + c, rtol=1e-9, atol=atol)
        np.testing.assert_allclose(s_sd, sd, rtol=1e-9, atol=1e-12)


# Site fields as callers pass them: floats (nan and +-inf included), numpy
# floats and ints; locations as scalars, tuples of 1-3 coordinates and nested tuples.
SITE_VALUES = st.floats() | st.floats().map(np.float64) | st.integers(-3, 3)
SITE_LOCATIONS = (SITE_VALUES | st.lists(SITE_VALUES, min_size=1, max_size=3).map(tuple)
                  | st.lists(st.lists(SITE_VALUES, max_size=2).map(tuple),
                             min_size=1, max_size=2).map(tuple))


class TestSiteChecks:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(location=SITE_LOCATIONS, response=SITE_VALUES, variance=SITE_VALUES)
    def test_site_rejects_what_fit_rejects(self, location, response, variance):
        # DesignSite checks its own fields; fit checks site-like objects with
        # _site_arrays. Both must accept the same sites and name the same fault.
        def outcome(check):
            try:
                check()
            except ValueError as exc:
                return str(exc)
            return None

        fields = dict(location=location, response=response, intrinsic_variance=variance)
        expected = outcome(lambda: kg._site_arrays([SimpleNamespace(**fields)]))
        assert outcome(lambda: kg.DesignSite(**fields)) == expected

    def test_mixed_dimensions_rejected(self):
        # Each site is valid alone; together they have no common dimension.
        with pytest.raises(ValueError, match="^sites must share a common location dimension$"):
            kg.fit([kg.DesignSite((0.0,), 1.0), kg.DesignSite((0.0, 1.0), 2.0),
                    kg.DesignSite((1.0,), 0.5)])
        sites = [kg.DesignSite((0.0, 1.0), 1.0, 0.1), kg.DesignSite((1.0, 0.5), 3.0, 0.2)]
        payload = json.loads(kg.assemble(sites, tau2=1.0, theta=[1.0, 1.0]).to_json())
        payload["sites"][1]["location"] = [1.0]
        with pytest.raises(ValueError, match="^sites must share a common location dimension$"):
            kg.KrigingModel.from_json(json.dumps(payload))


class TestLikelihoodGradient:
    """The search objective returns the exact gradient of the profile likelihood."""

    @PROPERTY_SETTINGS
    @given(design=st.one_of(noisy_designs(), separated_designs()),
           nugget=st.sampled_from((0.0, *kg.NUGGET_LADDER)))
    def test_gradient_matches_central_differences(self, design, nugget):
        sites, tau2, theta, _ = design
        locs, resp, intr = kg._site_arrays(sites)
        psi = np.log(np.concatenate(([tau2], theta)))
        value, grad = kg._neg_profile_loglik(psi, *kg._site_pairs(locs), resp, intr, nugget)

        def loglik(p):
            return kg.log_likelihood(sites, math.exp(p[0]), np.exp(p[1:]), nugget=nugget)

        assert value == pytest.approx(-loglik(psi), rel=1e-12)
        h = 1e-4
        central = np.array([(loglik(psi + h * e) - loglik(psi - h * e)) / (2.0 * h)
                            for e in np.eye(psi.size)])
        assert np.abs(grad + central).max() <= 1e-6 * np.abs(grad).max()

    def test_unfactorable_covariance(self):
        # Duplicate zero-noise sites at tau2 = 1: Sigma is exactly singular.
        sites = [kg.DesignSite((1.0,), 2.0), kg.DesignSite((1.0,), 3.0),
                 kg.DesignSite((2.0,), 4.0)]
        locs, resp, intr = kg._site_arrays(sites)
        value, grad = kg._neg_profile_loglik(np.zeros(2), *kg._site_pairs(locs), resp, intr,
                                             0.0)
        assert value == 1e300
        assert grad.shape == (2,) and np.all(np.isfinite(grad))


class TestSerialization:
    def test_round_trip(self):
        sites = [kg.DesignSite((0.0, 1.0), 1.0, 0.1), kg.DesignSite((1.0, 0.5), 3.0, 0.2),
                 kg.DesignSite((0.4, 0.2), 2.0, 0.05)]
        model = kg.fit(sites)
        clone = kg.KrigingModel.from_json(model.to_json())
        assert clone.beta0 == pytest.approx(model.beta0, rel=1e-15)
        assert clone.tau2 == pytest.approx(model.tau2, rel=1e-15)
        for x0 in ((0.1, 0.1), (0.7, 0.9)):
            assert clone.predict(x0)[0] == pytest.approx(model.predict(x0)[0], rel=1e-12)
            assert clone.predict(x0)[1] == pytest.approx(model.predict(x0)[1], rel=1e-9)

    def test_version_checked(self):
        with pytest.raises(ValueError):
            kg.KrigingModel.from_json('{"format_version": 99, "sites": []}')

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer(self, version):
        sites = [kg.DesignSite((0.0,), 1.0, 0.1), kg.DesignSite((1.0,), 3.0, 0.2)]
        payload = json.loads(kg.assemble(sites, tau2=1.0, theta=[1.0]).to_json())
        with pytest.raises(ValueError, match="format version"):
            kg.KrigingModel.from_json(json.dumps(dict(payload, format_version=version)))

    def test_negative_or_nan_hyperparameters_rejected(self):
        sites = [kg.DesignSite((0.0,), 1.0, 0.1), kg.DesignSite((1.0,), 3.0, 0.2)]
        for tau2, theta, nugget in ((1.0, 1.0, -1e-3), (math.nan, 1.0, 0.0),
                                    (1.0, math.nan, 0.0), (1.0, 1.0, math.nan)):
            with pytest.raises(ValueError, match="nugget"):
                kg.assemble(sites, tau2=tau2, theta=[theta], nugget=nugget)
        payload = json.loads(kg.assemble(sites, tau2=1.0, theta=[1.0]).to_json())
        with pytest.raises(ValueError, match="nugget"):
            kg.KrigingModel.from_json(json.dumps(dict(payload, nugget=-1e-3)))
