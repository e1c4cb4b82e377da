"""Experiment designs: Latin hypercube and equally spaced point sets, plus
the budget-allocation catalog used by the benchmark experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "Domain",
    "BudgetAllocation",
    "lhs",
    "equally_spaced",
    "budget_catalog",
    "allocation_by_id",
]


@dataclass(frozen=True)
class Domain:
    """A rectangular domain with finite componentwise lower < upper bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo, hi = np.asarray(self.lower, float), np.asarray(self.upper, float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-D and equal length")
        with np.errstate(all="ignore"):  # a non-finite bound gives a non-finite width
            width = hi - lo
        if not np.all(np.isfinite(width) & (width > 0.0)):
            raise ValueError("domain bounds must be finite with lower < upper and a finite width")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lower, float), np.asarray(self.upper, float)


@dataclass(frozen=True)
class BudgetAllocation:
    """One row of the budget catalog: k design points, n replications of
    N observations each, with k*n*N equal to the tier total."""

    id: int
    k: int
    n: int
    n_obs: int
    tier: int

    @property
    def label(self) -> str:
        return f"{self.k}-{self.n}-{self.n_obs}"


_CATALOG = (
    BudgetAllocation(1, 50, 10, 200, 100_000),
    BudgetAllocation(2, 50, 5, 400, 100_000),
    BudgetAllocation(3, 50, 1, 2000, 100_000),
    BudgetAllocation(4, 100, 5, 200, 100_000),
    BudgetAllocation(5, 100, 1, 1000, 100_000),
    BudgetAllocation(6, 50, 20, 1000, 1_000_000),
    BudgetAllocation(7, 50, 10, 2000, 1_000_000),
    BudgetAllocation(8, 100, 10, 1000, 1_000_000),
    BudgetAllocation(9, 100, 5, 2000, 1_000_000),
    BudgetAllocation(10, 100, 1, 10_000, 1_000_000),
    BudgetAllocation(11, 50, 100, 2000, 10_000_000),
    BudgetAllocation(12, 100, 50, 2000, 10_000_000),
    BudgetAllocation(13, 100, 10, 10_000, 10_000_000),
    BudgetAllocation(14, 100, 5, 20_000, 10_000_000),
    BudgetAllocation(15, 100, 1, 100_000, 10_000_000),
)


def budget_catalog() -> tuple[BudgetAllocation, ...]:
    """The 15 catalogued (k, n, N) budget allocations."""
    return _CATALOG


def allocation_by_id(alloc_id: int) -> BudgetAllocation:
    for a in _CATALOG:
        if a.id == alloc_id:
            return a
    raise ValueError(f"unknown budget allocation id {alloc_id}; valid ids are 1..15")


def lhs(domain: Domain, count: int, rng: RngStream) -> np.ndarray:
    """Latin hypercube sample: per dimension, one point per equal stratum,
    strata independently permuted across dimensions, uniform jitter within
    each stratum. Returns an array of shape (count, dim)."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = domain.as_arrays()
    g = rng.generator()
    out = np.empty((count, domain.dim))
    for j in range(domain.dim):
        strata = g.permutation(count)
        jitter = g.random(count)
        out[:, j] = lo[j] + (strata + jitter) / count * (hi[j] - lo[j])
    return out


def equally_spaced(domain: Domain, count: int) -> np.ndarray:
    """``count`` equally spaced points including both endpoints (1-D only)."""
    if domain.dim != 1:
        raise ValueError("equally spaced designs are 1-D")
    count = int(count)
    if count < 2:
        raise ValueError("count must be >= 2")
    lo, hi = domain.as_arrays()
    return np.linspace(lo[0], hi[0], count).reshape(-1, 1)
