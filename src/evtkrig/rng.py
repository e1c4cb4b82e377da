"""Deterministic random-stream plumbing.

Every stochastic routine takes an explicit :class:`RngStream`, so any
(seed, key) pair reproduces the identical observation sequence across
runs, threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    The underlying generator is PCG64 keyed by
    ``SeedSequence(seed, spawn_key=key)``.  The algorithm is fixed on
    purpose: golden tests rely on bitwise-stable draws.  Disjoint keys
    yield statistically independent streams, so each (design point,
    replication) can own one.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(seq))
