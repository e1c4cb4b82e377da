"""Agreement of the GPD maximum-likelihood search with a recorded corpus.

``fixtures/gpd_agreement.json`` holds (xi, beta, loglik, boundary) for 300
exceedance sets, recorded with the earlier five-start Nelder-Mead search.
The samples themselves are regenerated here from fixed ``RngStream`` keys:
the triangular, pareto and normal benchmark families at n = 200 and 2,000
(48 design points each, thresholded at the 0.9 quantile), plus 12 SAN
samples at n = 1,000 and 10,000. Any later search must reach at least the
recorded log-likelihood and keep every boundary flag and every error.

Record a corpus from the current code with
``PYTHONPATH=src python tests/test_gpd_agreement.py``; do that only when
the estimator itself is meant to change.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from evtkrig import evt_risk as er
from evtkrig import models
from evtkrig.rng import RngStream

FIXTURE = Path(__file__).parent / "fixtures" / "gpd_agreement.json"
SEED = 1993
THRESHOLD_QUANTILE = 0.9
FAMILIES = ("triangular", "pareto", "normal")
SIZES = (200, 2000)
POINTS_PER_CELL = 48
SAN_PARAMS = (0.3, 0.64, 0.98, 1.32, 1.66, 2.0)
SAN_SIZES = (1000, 10_000)


def corpus():
    """Yield (case id, loss sample) for every set in the corpus."""
    for f, family in enumerate(FAMILIES):
        for n in SIZES:
            for i in range(POINTS_PER_CELL):
                g = RngStream(SEED, (1, f, n, i)).generator()
                p = g.uniform(models.BENCHMARK_LOWER, models.BENCHMARK_UPPER)
                sample = models.benchmark_simulate(family, p, n, RngStream(SEED, (2, f, n, i)))
                yield f"{family}-{n}-{i}", sample
    for j, x in enumerate(SAN_PARAMS):
        for n in SAN_SIZES:
            yield f"san-{n}-{j}", models.san_simulate(x, n, RngStream(SEED, (3, j, n)))


def fit_record(sample) -> dict:
    try:
        fit = er.fit_gpd(sample, THRESHOLD_QUANTILE)
    except er.RiskError as exc:
        return {"error": type(exc).__name__}
    return {"xi": float(fit.xi), "beta": float(fit.beta), "loglik": float(fit.loglik),
            "boundary": bool(fit.boundary)}


@pytest.fixture(scope="module")
def recorded_and_new():
    """(case id, recorded fit, fit from the current search) for every set."""
    expected = json.loads(FIXTURE.read_text())
    return [(case_id, expected.get(case_id), fit_record(sample))
            for case_id, sample in corpus()]


def test_fixture_covers_the_corpus(recorded_and_new):
    assert len(recorded_and_new) == 300
    assert all(old is not None for _, old, _ in recorded_and_new)


def test_search_matches_recorded_fits(recorded_and_new):
    worse, flipped, errors = [], [], []
    for case_id, old, new in recorded_and_new:
        if "error" in old or "error" in new:
            if old.get("error") != new.get("error"):
                errors.append((case_id, old.get("error"), new.get("error")))
            continue
        if new["loglik"] < old["loglik"] - 1e-9:
            worse.append((case_id, old["loglik"] - new["loglik"]))
        if new["boundary"] != old["boundary"]:
            flipped.append(case_id)
    assert not errors, f"fits changed between success and error: {errors}"
    assert not worse, f"log-likelihood fell below the recorded fit: {worse}"
    assert not flipped, f"boundary flag changed: {flipped}"


def test_recorded_parameters_reproduced(recorded_and_new):
    # The search may only move an estimate by optimizer round-off.
    for case_id, old, new in recorded_and_new:
        if "error" not in old and "error" not in new:
            assert new["xi"] == pytest.approx(old["xi"], abs=1e-6), case_id
            assert new["beta"] == pytest.approx(old["beta"], rel=1e-6), case_id


if __name__ == "__main__":
    records = {case_id: fit_record(sample) for case_id, sample in corpus()}
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(case_id)}: {json.dumps(rec)}" for case_id, rec in records.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} fits to {FIXTURE}", file=sys.stderr)
