"""Tests for site estimation, the experiment pipeline, and the signed-rank test."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from evtkrig import evt_risk as er
from evtkrig import harness as hn
from evtkrig import kriging as kg
from evtkrig import models
from evtkrig.design import BudgetAllocation, Domain, allocation_by_id, lhs
from evtkrig.rng import RngStream


def exp_samples(n_reps, n_obs, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.exponential(size=n_obs) for _ in range(n_reps)]


class TestEstimateSite:
    def test_single_replication_pot_evt_is_identity(self):
        (sample,) = exp_samples(1, 5000)
        fit = er.fit_gpd(sample, 0.9)
        est = hn.estimate_site(hn.POT_EVT, [sample], 0.99)
        assert est.response == pytest.approx(er.pot_cvar_value(fit, 0.99), rel=1e-12)
        assert est.variance == pytest.approx(er.delta_variance(fit, 0.99), rel=1e-12)
        assert est.fallbacks == 0

    def test_identical_replications_zero_squared_deviation(self):
        sample = np.random.default_rng(1).exponential(size=2000)
        est = hn.estimate_site(hn.POT_EMP, [sample, sample.copy(), sample.copy()], 0.99)
        assert est.variance == pytest.approx(0.0, abs=1e-20)

    def test_emp_emp_two_replication_aggregation(self):
        s1, s2 = exp_samples(2, 3000, seed=2)
        v1 = er.empirical_cvar(s1, 0.95).variance
        v2 = er.empirical_cvar(s2, 0.95).variance
        est = hn.estimate_site(hn.EMP_EMP, [s1, s2], 0.95)
        assert est.variance == pytest.approx((v1 + v2) / 4, rel=1e-12)
        want = (er.empirical_cvar(s1, 0.95).value + er.empirical_cvar(s2, 0.95).value) / 2
        assert est.response == pytest.approx(want, rel=1e-12)

    def test_ord_krg_zero_variance(self):
        s1, s2 = exp_samples(2, 3000, seed=3)
        est = hn.estimate_site(hn.ORD_KRG, [s1, s2], 0.95)
        assert est.variance == 0.0
        emp = hn.estimate_site(hn.EMP_EMP, [s1, s2], 0.95)
        assert est.response == pytest.approx(emp.response, rel=1e-12)

    def test_pot_emp_needs_two_replications(self):
        (sample,) = exp_samples(1, 2000)
        with pytest.raises(ValueError):
            hn.estimate_site(hn.POT_EMP, [sample], 0.95)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hn.estimate_site("KRIG-POT", exp_samples(1, 200), 0.95)

    def test_delta_fallback_single_replication(self):
        # A singular information matrix forces the tail-transform fallback.
        (sample,) = exp_samples(1, 5000, seed=4)
        fit = er.fit_gpd(sample, 0.9)
        bad = er.GpdFit(u=fit.u, n_total=fit.n_total, n_exceed=fit.n_exceed,
                        zeta=fit.zeta, xi=fit.xi, beta=fit.beta,
                        info=np.array([[1.0, 1.0], [1.0, 1.0]]), loglik=fit.loglik)
        est = hn.estimate_site(hn.POT_EVT, [sample], 0.99, gpd_fits=[bad])
        assert est.fallbacks == 1
        assert est.variance == pytest.approx(
            er.empirical_cvar(sample, 0.99).variance, rel=1e-12)
        assert est.response == pytest.approx(er.pot_cvar_value(bad, 0.99), rel=1e-12)

    def test_delta_fallback_multi_replication_uses_squared_deviation(self):
        samples = exp_samples(3, 5000, seed=5)
        fits = [er.fit_gpd(s, 0.9) for s in samples]
        bad0 = er.GpdFit(u=fits[0].u, n_total=fits[0].n_total,
                         n_exceed=fits[0].n_exceed, zeta=fits[0].zeta,
                         xi=fits[0].xi, beta=fits[0].beta,
                         info=np.array([[1.0, 1.0], [1.0, 1.0]]), loglik=0.0)
        est = hn.estimate_site(hn.POT_EVT, samples, 0.99, gpd_fits=[bad0] + fits[1:])
        values = [er.pot_cvar_value(f, 0.99) for f in [bad0] + fits[1:]]
        assert est.fallbacks == 1
        assert est.variance == pytest.approx(np.var(values, ddof=1) / 3, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_k_sites_equal_one_site_at_a_time(self, n):
        # One macro-rep's sites through the run's k-site path and through
        # estimate_site one site at a time; a singular fit at site 2 makes
        # POT-EVT fall back. n = 1 drops POT-EMP, n = 3 keeps all four methods.
        cfg = hn.ExperimentConfig(scenario="pareto",
                                  allocation=BudgetAllocation(0, 6, n, 300, 1800 * n))
        data = [hn._simulate_site(cfg, x, 0, i)
                for i, x in enumerate(hn._design_points(cfg, 0))]
        fits = [[er.fit_gpd(s, cfg.threshold_quantile) for s in site] for site in data]
        fits[2][0] = dataclasses.replace(fits[2][0], info=np.ones((2, 2)))
        empirical = hn._Empirical((0.95, 0.99), len(data), n)
        for i, site in enumerate(data):
            for j, s in enumerate(site):
                empirical.add(i, j, s)
        assert len(cfg.resolved_methods()) == (3 if n == 1 else 4)
        for method, alpha in itertools.product(cfg.resolved_methods(), (0.95, 0.99)):
            batch = hn._site_estimates(method, fits, empirical, alpha)
            assert batch == [hn.estimate_site(method, site, alpha, gpd_fits=site_fits)
                             for site, site_fits in zip(data, fits)]
            assert [e.fallbacks for e in batch] == [
                int(method == hn.POT_EVT and i == 2) for i in range(6)]


class TestExperimentConfig:
    def test_pot_emp_dropped_for_single_replication(self):
        cfg = hn.ExperimentConfig(scenario="pareto", allocation=allocation_by_id(3))
        assert hn.POT_EMP not in cfg.resolved_methods()
        cfg2 = hn.ExperimentConfig(scenario="pareto", allocation=allocation_by_id(1))
        assert hn.POT_EMP in cfg2.resolved_methods()

    def test_san_default_roster(self):
        cfg = hn.ExperimentConfig(scenario="san", san_budget=1000)
        assert cfg.resolved_methods() == (hn.ORD_KRG, hn.EMP_EMP, hn.POT_EVT)

    def test_validation(self):
        with pytest.raises(ValueError):
            hn.ExperimentConfig(scenario="weird", allocation=allocation_by_id(1)).validate()
        with pytest.raises(ValueError):
            hn.ExperimentConfig(scenario="normal").validate()
        with pytest.raises(ValueError):
            hn.ExperimentConfig(scenario="san", san_budget=1000,
                                alphas=(1.2,)).validate()
        with pytest.raises(ValueError):
            hn.ExperimentConfig(scenario="san", san_budget=1000,
                                macro_replications=0).validate()
        # A repeated tail level or method would fit and score one cell twice.
        with pytest.raises(hn.ConfigError, match="alphas"):
            hn.ExperimentConfig(scenario="san", san_budget=1000,
                                alphas=(0.95, 0.95)).validate()
        with pytest.raises(hn.ConfigError, match="methods"):
            hn.ExperimentConfig(scenario="san", san_budget=1000,
                                methods=(hn.EMP_EMP, hn.EMP_EMP)).validate()

    def test_validation_lists_every_violation(self):
        cfg = hn.ExperimentConfig(scenario="san", san_budget=1000, alphas=(1.2,),
                                  macro_replications=True, seed=-1)
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert sorted(name for name, _ in info.value.args) == [
            "alphas", "macro_replications", "seed"]
        for name in ("alphas", "macro_replications", "seed"):
            assert f"  - {name}: " in str(info.value)

    def test_allocation_by_catalog_id(self):
        by_id = hn.ExperimentConfig(scenario="pareto", allocation=3)
        by_id.validate()
        assert by_id.allocation_label == allocation_by_id(3).label
        for bad in (16, True, "3"):
            with pytest.raises(ValueError, match="allocation"):
                hn.ExperimentConfig(scenario="pareto", allocation=bad).validate()
        # A run needs k >= 2 sites, n >= 1 replications and N >= 2 observations.
        for k, n, n_obs in ((1, 1, 200), (0, 1, 200), (5, 0, 200), (5, 1, 1)):
            cell = hn.ExperimentConfig(scenario="normal", macro_replications=1, n_test=5,
                                       allocation=BudgetAllocation(0, k, n, n_obs,
                                                                   k * n * n_obs))
            with pytest.raises(hn.ConfigError) as info:
                cell.validate()
            assert [name for name, _ in info.value.args] == ["allocation"]

    def test_alphas_below_pot_threshold_level_rejected(self):
        # 1,000 observations at q = 0.99 leave 10 exceedances; fit_gpd lowers the
        # threshold to keep 30, so the POT methods cover alpha >= 0.97 only.
        base = dict(scenario="san", san_budget=1000, threshold_quantile=0.99,
                    macro_replications=1, methods=(hn.POT_EVT, hn.EMP_EMP))
        with pytest.raises(hn.ConfigError) as info:
            hn.ExperimentConfig(alphas=(0.95,), **base).validate()
        assert [name for name, _ in info.value.args] == ["alphas"]
        assert ">= 0.97," in str(info.value)
        hn.ExperimentConfig(alphas=(0.95,), **dict(base, methods=(hn.EMP_EMP,))).validate()
        accepted = hn.ExperimentConfig(alphas=(0.98,), **base)
        accepted.validate()
        assert all(r.mape is not None for r in hn.run_experiment(accepted))

    @pytest.mark.parametrize("n_obs", [100, 1000, 2000])
    @pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
    def test_alpha_floor_is_fit_gpd_threshold_level(self, n_obs, q):
        fit = er.fit_gpd(np.random.default_rng(n_obs).exponential(size=n_obs), q)
        level = (n_obs - fit.n_exceed) / n_obs
        cell = dict(scenario="san", san_budget=n_obs, threshold_quantile=q)
        hn.ExperimentConfig(alphas=(level,), **cell).validate()
        with pytest.raises(hn.ConfigError, match="alphas"):
            hn.ExperimentConfig(alphas=(level - 1e-9,), **cell).validate()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(60, 5000),
           q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_threshold_level_is_the_validated_floor(self, n, q, seed):
        # fit_gpd and validate share one threshold rank. On a tie-free sample
        # the fit leaves exactly n - rank exceedances, so 1 - zeta is rank / n;
        # validate admits exactly the levels at or above it, and the fit covers it.
        rank = er._threshold_rank(q, n)
        fit = er.fit_gpd(RngStream(seed).generator().exponential(size=n), q)
        assert fit.n_total - fit.n_exceed == rank
        level = rank / n
        assert 1.0 - fit.zeta == pytest.approx(level, rel=0.0, abs=1e-15)
        cell = dict(scenario="normal", allocation=BudgetAllocation(0, 5, 1, n, 5 * n),
                    threshold_quantile=q, methods=(hn.POT_EVT,))
        hn.ExperimentConfig(alphas=(level,), **cell).validate()
        with pytest.raises(hn.ConfigError, match="alphas"):
            hn.ExperimentConfig(alphas=(float(np.nextafter(level, 0.0)),), **cell).validate()
        er.pot_cvar_value(fit, level)


class TestRunExperiment:
    def test_oracle_responses_give_near_zero_mape(self):
        # Perfect data limit: feed the analytic truth directly as sites.
        rng_pts = lhs(Domain(models.BENCHMARK_LOWER, models.BENCHMARK_UPPER), 100,
                      RngStream(4))
        alpha = 0.99
        sites = [kg.DesignSite(tuple(p), models.true_cvar_benchmark("pareto", p, alpha))
                 for p in rng_pts]
        model = kg.fit(sites)
        test_pts = lhs(Domain(models.BENCHMARK_LOWER, models.BENCHMARK_UPPER), 200,
                       RngStream(22))
        truth = np.array([models.true_cvar_benchmark("pareto", p, alpha)
                          for p in test_pts])
        preds, _ = model.predict_many(test_pts)
        mape = 100 * np.mean(np.abs(preds - truth) / np.abs(truth))
        assert mape < 0.5

    def test_records_structure_and_determinism(self):
        cfg = hn.ExperimentConfig(scenario="san", san_budget=1000, alphas=(0.95,),
                                  macro_replications=2, seed=9,
                                  methods=(hn.POT_EVT, hn.EMP_EMP))
        recs1 = hn.run_experiment(cfg)
        recs2 = hn.run_experiment(cfg)
        assert recs1 == recs2
        assert len(recs1) == 4  # 2 methods x 1 alpha x 2 macro-reps
        assert all(r.mape is not None and r.mape >= 0 for r in recs1)
        assert [r.sort_key() for r in recs1] == sorted(r.sort_key() for r in recs1)

    def test_methods_share_simulated_data(self):
        # Paired comparison: single-method runs must see identical draws.
        digests = {}
        for method in (hn.POT_EVT, hn.EMP_EMP, hn.ORD_KRG):
            cfg = hn.ExperimentConfig(scenario="san", san_budget=1000, alphas=(0.95,),
                                      macro_replications=1, seed=33, methods=(method,))
            (rec,) = hn.run_experiment(cfg)
            digests[method] = rec.diagnostics.split(";")[0]
        assert len(set(digests.values())) == 1

    def test_seed_changes_output(self):
        base = dict(scenario="san", san_budget=1000, alphas=(0.95,),
                    macro_replications=1, methods=(hn.EMP_EMP,))
        r1 = hn.run_experiment(hn.ExperimentConfig(seed=1, **base))
        r2 = hn.run_experiment(hn.ExperimentConfig(seed=2, **base))
        assert r1[0].mape != r2[0].mape

    def test_pool_runs_one_task_per_macro_rep(self):
        # Stands in for a process pool, so no worker process is started.
        tasks = []

        class RecordingPool:
            def map(self, fn, *iterables):
                args = list(zip(*iterables))
                tasks.extend(a[1] for a in args)
                return [fn(*a) for a in reversed(args)]  # finish in any order

        cfg = hn.ExperimentConfig(scenario="san", san_budget=1000, alphas=(0.95,),
                                  macro_replications=2, seed=9, methods=(hn.EMP_EMP,))
        assert hn.run_experiment(cfg, RecordingPool()) == hn.run_experiment(cfg)
        assert tasks == [0, 1]

    @pytest.mark.parametrize("method", [hn.EMP_EMP, hn.POT_EVT])
    def test_program_error_is_not_a_failed_cell(self, monkeypatch, method):
        # Only numerical failures become failed records; a ValueError is a bug.
        def broken(*args, **kwargs):
            raise ValueError("bug in _site_estimates")

        monkeypatch.setattr(hn, "_site_estimates", broken)
        cfg = hn.ExperimentConfig(scenario="san", san_budget=1000, alphas=(0.95,),
                                  macro_replications=1, seed=9, methods=(method,))
        with pytest.raises(ValueError, match="bug in _site_estimates"):
            hn.run_experiment(cfg)

    def test_gpd_failure_fails_only_the_pot_cells_of_its_macro_rep(self, monkeypatch):
        # Allocation 2 has 50 sites x 5 replications: the tail fits of macro-rep 0
        # are calls 0-249, so call 260 falls inside macro-rep 1.
        real, calls = hn.evt_risk.fit_gpd, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 261:
                raise er.ConvergenceError("no root; bracket exhausted")
            return real(*args, **kwargs)

        monkeypatch.setattr(hn.evt_risk, "fit_gpd", failing)
        cfg = hn.ExperimentConfig(scenario="triangular", allocation=2, alphas=(0.95,),
                                  macro_replications=2, seed=3, n_test=20)
        recs = hn.run_experiment(cfg)
        assert len(calls) == 261  # macro-rep 1 stops fitting at the failure
        assert len(recs) == 8  # 4 methods x 1 alpha x 2 macro-reps
        failed = [r for r in recs if r.mape is None]
        assert sorted((r.method, r.macro_rep) for r in failed) == [
            (hn.POT_EMP, 1), (hn.POT_EVT, 1)]
        digest = next(r for r in recs if r.macro_rep == 1).diagnostics.split(";")[0]
        for r in failed:
            assert r.diagnostics == (
                f"{digest};error=ConvergenceError: no root, bracket exhausted")
        for r in recs:
            if r.mape is not None:
                assert r.diagnostics.startswith(r.diagnostics.split(";")[0] + ";nugget=")
                assert r.mape > 0.0

    def test_ties_at_the_threshold_fail_only_the_levels_they_uncover(self, monkeypatch):
        # Twenty ties at one site's 0.9 quantile leave 191 strict exceedances of
        # 2,000, so the fit's threshold level 0.9045 lies above alpha = 0.9,
        # which the config admits.
        real = hn._simulate_site

        def tied(config, location, macro_rep, site_index):
            samples = real(config, location, macro_rep, site_index)
            if site_index == 3:
                order = np.argsort(samples[0])
                samples[0][order[1789:1809]] = samples[0][order[1799]]
            return samples

        monkeypatch.setattr(hn, "_simulate_site", tied)
        cfg = hn.ExperimentConfig(scenario="san", san_budget=2000, alphas=(0.9, 0.95),
                                  macro_replications=1, seed=9)
        recs = hn.run_experiment(cfg)
        assert len(recs) == 6  # 3 methods x 2 alphas
        failed = [r for r in recs if r.mape is None]
        assert [(r.method, r.alpha) for r in failed] == [(hn.POT_EVT, 0.9)]
        assert failed[0].diagnostics.endswith(
            ";error=TailOrderError: alpha=0.9 lies below the threshold level 0.9045")
        assert issubclass(er.TailOrderError, ValueError)

    @pytest.mark.parametrize("singular_site", [3, 5])
    def test_failed_empirical_estimate_fails_only_its_readers(self, monkeypatch,
                                                              singular_site):
        # At alpha = 0.9996 of 2,000 observations the quantile is the maximum,
        # so an estimate has two observations at or beyond it only where the
        # maximum is tied. Every site's is tied but site 3's, whose estimate
        # fails there. POT-EVT reads it only to replace a singular fit's
        # variance (n = 1), so it fails only when site 3's fit is the singular one.
        real_sim, real_fit, fits = hn._simulate_site, hn.evt_risk.fit_gpd, []

        def tied(config, location, macro_rep, site_index):
            samples = real_sim(config, location, macro_rep, site_index)
            if site_index != 3:
                order = np.argsort(samples[0])
                samples[0][order[-2]] = samples[0][order[-1]]
            return samples

        def singular(sample, threshold_quantile):
            fits.append(real_fit(sample, threshold_quantile))
            if len(fits) - 1 == singular_site:
                return dataclasses.replace(fits[-1], info=np.ones((2, 2)))
            return fits[-1]

        monkeypatch.setattr(hn, "_simulate_site", tied)
        monkeypatch.setattr(hn.evt_risk, "fit_gpd", singular)
        cfg = hn.ExperimentConfig(scenario="san", san_budget=2000, alphas=(0.95, 0.9996),
                                  macro_replications=1, seed=9, n_test=20)
        recs = hn.run_experiment(cfg)
        assert len(recs) == 6  # 3 methods x 2 alphas
        failed = sorted((r.method, r.alpha) for r in recs if r.mape is None)
        readers = [hn.EMP_EMP, hn.ORD_KRG] + [hn.POT_EVT] * (singular_site == 3)
        assert failed == [(m, 0.9996) for m in sorted(readers)]
        digest = recs[0].diagnostics.split(";")[0]
        for r in recs:
            if r.mape is None:
                assert r.diagnostics == (
                    f"{digest};error=InsufficientTailError: only 1 observation(s) at or "
                    "beyond the 0.9996 quantile, need >= 2")
            elif r.method == hn.POT_EVT:
                assert ";fallbacks=1;" in r.diagnostics

    def test_samples_are_dropped_as_they_are_drawn(self):
        # 50 sites x 1 replication x 2,000 observations: 800,000 bytes of
        # samples. A macro-rep holds one site's at a time, so its allocation
        # peak stays under half of that. The first run warms the caches.
        cfg = hn.ExperimentConfig(scenario="normal", allocation=3, macro_replications=1,
                                  methods=(hn.EMP_EMP, hn.POT_EVT), alphas=(0.99,),
                                  n_test=20)
        shape = cfg.budget_allocation
        assert (shape.k, shape.n, shape.n_obs) == (50, 1, 2000)
        hn.run_experiment(cfg)
        tracemalloc.start()
        try:
            hn.run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < shape.k * shape.n * shape.n_obs * 8 / 2

    def test_singular_design_fails_only_its_own_cell(self, monkeypatch):
        base = dict(scenario="san", san_budget=1000, alphas=(0.95, 0.99),
                    macro_replications=1, seed=9)
        clean = hn.run_experiment(hn.ExperimentConfig(**base))
        real, calls = hn.kriging.fit, []

        def failing(sites):
            calls.append(None)
            if len(calls) == 2:  # the roster's first method at the second alpha
                raise kg.SingularDesignError("covariance; not positive definite")
            return real(sites)

        monkeypatch.setattr(hn.kriging, "fit", failing)
        recs = hn.run_experiment(hn.ExperimentConfig(**base))
        assert len(calls) == 6
        (bad,) = [r for r in recs if r.mape is None]
        assert (bad.method, bad.alpha) == (hn.ORD_KRG, 0.99)
        digest = bad.diagnostics.split(";")[0]
        assert digest.startswith("data=")
        assert bad.diagnostics == (
            f"{digest};error=SingularDesignError: covariance, not positive definite")
        assert [r for r in recs if r is not bad] == [r for r in clean if r.sort_key()
                                                    != bad.sort_key()]

    @pytest.mark.parametrize("scenario", ["pareto", "normal", "san"])
    def test_pot_methods_run_without_numpy_linalg(self, monkeypatch, scenario):
        # The tail fits and the POT estimates use closed forms for their 2x2
        # matrices, so a run never touches numpy's LAPACK.
        cfg = hn.ExperimentConfig(scenario=scenario, allocation=1, san_budget=1000,
                                  alphas=(0.95, 0.99), macro_replications=1, seed=11,
                                  n_test=20, methods=(hn.POT_EVT,))
        clean = hn.run_experiment(cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("cond", "svd", "cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        recs = hn.run_experiment(cfg)
        assert recs == clean
        assert all(r.mape is not None for r in recs)

    def test_san_test_set_has_test_points_grid_points(self):
        base = dict(scenario="san", san_budget=1000, alphas=(0.95,),
                    macro_replications=1, seed=9, methods=(hn.EMP_EMP,))
        design = hn._design_points(hn.ExperimentConfig(**base), 0)
        for n_test in (9, 50, 200):
            points = hn._test_set(hn.ExperimentConfig(n_test=n_test, **base), design)
            assert len(points) == n_test - hn.SAN_DESIGN_POINTS
        (coarse,) = hn.run_experiment(hn.ExperimentConfig(n_test=50, **base))
        (fine,) = hn.run_experiment(hn.ExperimentConfig(n_test=200, **base))
        assert coarse.diagnostics == fine.diagnostics
        assert coarse.mape != fine.mape

    def test_san_test_set_needs_two_points_left(self):
        base = dict(scenario="san", san_budget=1000, alphas=(0.95,))
        hn.ExperimentConfig(n_test=hn.SAN_DESIGN_POINTS + 2, **base).validate()
        with pytest.raises(hn.ConfigError) as info:
            hn.ExperimentConfig(n_test=hn.SAN_DESIGN_POINTS + 1, **base).validate()
        assert [name for name, _ in info.value.args] == ["n_test"]
        assert "an integer >= 9" in str(info.value)

    def test_benchmark_scenario_smoke(self):
        cfg = hn.ExperimentConfig(scenario="triangular", allocation=allocation_by_id(1),
                                  alphas=(0.95,), macro_replications=1, seed=5,
                                  methods=(hn.EMP_EMP, hn.POT_EMP), n_test=50)
        recs = hn.run_experiment(cfg)
        assert {r.method for r in recs} == {hn.EMP_EMP, hn.POT_EMP}
        assert all(r.mape is not None for r in recs)
        assert all(r.allocation == "50-10-200" for r in recs)


def brute_force_signed_rank(d, side):
    """Exact p-value by enumerating all sign assignments."""
    ranks = rankdata(np.abs(d))
    w_obs = ranks[np.asarray(d) > 0].sum()
    stats = [np.sum([r for r, s in zip(ranks, signs) if s > 0])
             for signs in itertools.product((-1, 1), repeat=len(d))]
    stats = np.asarray(stats)
    p_ge = np.mean(stats >= w_obs - 1e-12)
    p_le = np.mean(stats <= w_obs + 1e-12)
    if side == "greater":
        return p_ge
    if side == "less":
        return p_le
    return min(1.0, 2 * min(p_ge, p_le))


class TestWilcoxon:
    def test_five_positive_differences(self):
        p = hn.wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0],
                                    [0.0, 0.0, 0.0, 0.0, 0.0], side="greater")
        assert p == pytest.approx(1 / 32, rel=1e-12)

    def test_symmetric_pairs_two_sided(self):
        a = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        b = [0.0] * 6
        assert hn.wilcoxon_signed_rank(a, b, side="two-sided") == 1.0

    def test_all_zero_differences_degenerate(self):
        with pytest.raises(ValueError):
            hn.wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_pairs_rejected(self, bad):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(ValueError, match="paired samples must be finite"):
            hn.wilcoxon_signed_rank(a, [0.0, 0.0, bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="paired samples must be finite"):
            hn.wilcoxon_signed_rank([bad, *a[1:]], [0.0] * 6, side="two-sided")

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            hn.wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(13)
        for n in range(5, 13):
            d = np.round(rng.normal(size=n), 2)
            d[d == 0.0] = 0.5
            a = d + 1.0
            b = np.ones(n)
            for side in ("greater", "less", "two-sided"):
                got = hn.wilcoxon_signed_rank(a, b, side=side)
                want = brute_force_signed_rank(d, side)
                assert got == pytest.approx(want, rel=1e-12), (n, side, d)

    def test_ties_enumerated_exactly(self):
        d = np.array([1.0, 1.0, -1.0, 2.0, 2.0, -2.0, 3.0])
        got = hn.wilcoxon_signed_rank(d + 5.0, np.full(7, 5.0), side="greater")
        assert got == pytest.approx(brute_force_signed_rank(d, "greater"), rel=1e-12)

    def test_normal_approximation_against_scipy(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(14)
        a = rng.normal(0.3, 1.0, size=40)
        b = rng.normal(0.0, 1.0, size=40)
        # One decimal leaves 56 nonzero differences in 19 tie groups. Against
        # zeros, not against a shifted copy, whose rounding would break the ties.
        tied = np.round(rng.normal(0.3, 1.0, size=60), 1)
        for a, b in ((a, b), (tied, np.zeros(60))):
            for side in ("greater", "less", "two-sided"):
                got = hn.wilcoxon_signed_rank(a, b, side=side)
                want = scipy_wilcoxon(a, b, alternative=side, correction=True,
                                      method="approx").pvalue
                assert got == pytest.approx(want, rel=1e-12), side

    def test_compare_methods_pairs_records(self):
        records = []
        for m, base in ((hn.POT_EVT, 1.0), (hn.EMP_EMP, 2.0)):
            for rep in range(6):
                records.append(hn.ResultRecord("pareto", "50-1-2000", 3, m, 0.99,
                                               rep, base + 0.01 * rep, ""))
        rows = hn.compare_methods(records)
        assert len(rows) == 1
        assert rows[0]["n_pairs"] == 6
        assert rows[0]["p_le"] == pytest.approx(1 / 64, rel=1e-12)
        assert rows[0]["p_ge"] == 1.0

    def test_compare_methods_skips_identical_cell(self):
        records = []
        for alpha, gap in ((0.95, 0.0), (0.99, 1.0)):
            for m in (hn.POT_EVT, hn.EMP_EMP):
                for rep in range(6):
                    mape = 1.0 + 0.01 * rep + (gap if m == hn.EMP_EMP else 0.0)
                    records.append(hn.ResultRecord("pareto", "50-1-2000", 3, m, alpha,
                                                   rep, mape, ""))
        rows = hn.compare_methods(records)
        assert [r["alpha"] for r in rows] == [0.99]


class TestCsvWriters:
    def test_round_trip_layout(self, tmp_path):
        records = [
            hn.ResultRecord("san", "7-1-1000", 1000, hn.POT_EVT, 0.95, 0, 1.25, "d=1"),
            hn.ResultRecord("san", "7-1-1000", 1000, hn.POT_EVT, 0.95, 1, 1.75, "d=2"),
            hn.ResultRecord("san", "7-1-1000", 1000, hn.EMP_EMP, 0.95, 0, None, "err"),
        ]
        hn.write_results_csv(records, tmp_path / "results.csv")
        hn.write_summary_csv(records, tmp_path / "summary.csv")
        hn.write_boxplot_csv(records, tmp_path / "box.csv")
        results = (tmp_path / "results.csv").read_text().splitlines()
        assert results[0].startswith("scenario,allocation,")
        assert len(results) == 4
        assert ",," in results[1]  # failed cell leaves mape empty
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "scenario,allocation,method,median_mape_0.95"
        assert "san,7-1-1000,POT-EVT,1.5" in summary
        box = (tmp_path / "box.csv").read_text().splitlines()
        assert len(box) == 3  # header + two successful cells

    def test_diagnostics_with_commas_stay_one_field(self, tmp_path):
        import csv as csv_mod

        rec = hn.ResultRecord("san", "7-1-1000", 1000, hn.POT_EVT, 0.95, 0, None,
                              "data=00;error=RiskError: need 60, got 50")
        hn.write_results_csv([rec], tmp_path / "results.csv")
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert len(rows) == 2
        assert len(rows[1]) == len(rows[0]) == 8
        assert rows[1][-1] == "data=00;error=RiskError: need 60, got 50"

    def test_floats_written_shortest_and_exact(self, tmp_path):
        import csv as csv_mod

        mapes = [1.0 / 3.0, 12.345678901234567, 1e-17, 2.0**0.5 * 1e6]
        records = [hn.ResultRecord("san", "7-1-1000", 1000, hn.POT_EVT, alpha, rep,
                                   mape, "") for alpha in (0.95, 0.99)
                   for rep, mape in enumerate(mapes)]
        hn.write_results_csv(records, tmp_path / "results.csv")
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))[1:]
        assert {row[4] for row in rows} == {"0.95", "0.99"}
        assert sorted(float(row[6]) for row in rows) == sorted(mapes * 2)
