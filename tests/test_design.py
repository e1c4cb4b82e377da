"""Tests for experiment designs and the budget catalog."""

import numpy as np
import pytest

from evtkrig.design import (
    BudgetAllocation,
    Domain,
    allocation_by_id,
    budget_catalog,
    equally_spaced,
    lhs,
)
from evtkrig.rng import RngStream


class TestDomain:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Domain((0.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("lower, upper", [
        ((0.0,), (np.inf,)),
        ((-np.inf,), (0.0,)),
        ((np.nan,), (1.0,)),
        ((0.0, 0.0), (1.0, np.nan)),
        ((-1e308,), (1e308,)),
    ])
    def test_non_finite_bounds_and_widths_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            Domain(lower, upper)

    def test_dim(self):
        assert Domain((0.0, 0.0), (1.0, 2.0)).dim == 2


class TestLhs:
    def test_single_point_inside_unit_square(self):
        pts = lhs(Domain((0.0, 0.0), (1.0, 1.0)), 1, RngStream(1))
        assert pts.shape == (1, 2)
        assert np.all((pts >= 0.0) & (pts < 1.0))

    def test_quartile_stratification(self):
        pts = lhs(Domain((0.0,), (1.0,)), 4, RngStream(2))
        strata = np.sort(np.floor(pts[:, 0] * 4).astype(int))
        np.testing.assert_array_equal(strata, [0, 1, 2, 3])

    def test_marginal_stratification_every_dimension(self):
        # Exact combinatorial check: one point per stratum per dimension.
        for count in (2, 3, 5, 8, 17):
            dom = Domain((-2.0, 10.0, 0.5), (3.0, 20.0, 0.6))
            pts = lhs(dom, count, RngStream(3, (count,)))
            lo, hi = dom.as_arrays()
            for j in range(dom.dim):
                unit = (pts[:, j] - lo[j]) / (hi[j] - lo[j])
                strata = np.sort(np.floor(unit * count).astype(int))
                np.testing.assert_array_equal(strata, np.arange(count))

    def test_reproducible(self):
        dom = Domain((0.0, 0.0), (1.0, 1.0))
        a = lhs(dom, 10, RngStream(7, (1, 2)))
        b = lhs(dom, 10, RngStream(7, (1, 2)))
        np.testing.assert_array_equal(a, b)

    def test_dimensions_permuted_independently(self):
        pts = lhs(Domain((0.0, 0.0), (1.0, 1.0)), 64, RngStream(9))
        s1 = np.floor(pts[:, 0] * 64).astype(int)
        s2 = np.floor(pts[:, 1] * 64).astype(int)
        assert not np.array_equal(s1, s2)


class TestEquallySpaced:
    def test_activity_network_design(self):
        pts = equally_spaced(Domain((0.3,), (2.0,)), 7)
        assert pts.shape == (7, 1)
        np.testing.assert_allclose(np.diff(pts[:, 0]), 1.7 / 6, rtol=1e-12)
        assert pts[0, 0] == 0.3 and pts[-1, 0] == 2.0

    def test_two_points_are_endpoints(self):
        np.testing.assert_allclose(equally_spaced(Domain((0.0,), (1.0,)), 2)[:, 0],
                                   [0.0, 1.0])

    def test_midpoint_symmetry(self):
        a, eps = 5.0, 1e-6
        pts = equally_spaced(Domain((a,), (a + eps,)), 3)
        assert pts[1, 0] == pytest.approx(a + eps / 2, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            equally_spaced(Domain((0.0,), (1.0,)), 1)

    def test_one_dimensional_only(self):
        with pytest.raises(ValueError):
            equally_spaced(Domain((0.0, 0.0), (1.0, 1.0)), 3)


class TestBudgetCatalog:
    def test_fifteen_rows(self):
        cat = budget_catalog()
        assert len(cat) == 15
        assert [a.id for a in cat] == list(range(1, 16))

    def test_row_one(self):
        a = allocation_by_id(1)
        assert (a.k, a.n, a.n_obs, a.tier) == (50, 10, 200, 100_000)

    def test_row_three(self):
        a = allocation_by_id(3)
        assert (a.k, a.n, a.n_obs) == (50, 1, 2000)
        assert a.label == "50-1-2000"

    def test_row_ten(self):
        assert allocation_by_id(10) == BudgetAllocation(10, 100, 1, 10_000, 1_000_000)

    def test_row_thirteen(self):
        a = allocation_by_id(13)
        assert (a.k, a.n, a.n_obs, a.tier) == (100, 10, 10_000, 10_000_000)

    def test_row_fifteen(self):
        a = allocation_by_id(15)
        assert (a.k, a.n, a.n_obs) == (100, 1, 100_000)

    def test_products_equal_tier(self):
        for a in budget_catalog():
            assert a.k * a.n * a.n_obs == a.tier

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            allocation_by_id(16)
