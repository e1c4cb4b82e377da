"""Agreement of the kriging likelihood search with a recorded corpus.

``fixtures/kriging_agreement.json`` holds, per case, one site set
(location, response, intrinsic variance of every site) together with the
log-likelihood, nugget and psi = (log tau^2, log theta) of the model that
the earlier finite-difference L-BFGS-B search fitted to it. The site sets
are those that ``harness.run_experiment`` passes to ``kriging.fit`` at
seed 7 on the ``tail-fit``, ``surface-fit`` and ``san-grid`` benchmark
configs: 12 noisy
sets at k = 50, 12 at k = 100 and 54 at k = 7, 18 of them zero-noise. Two
nearly-coincident zero-noise sets that must climb the nugget ladder are
added. The sites are stored rather than regenerated, so the corpus tests
the search alone, whatever later happens to the site estimators.

Any later search must keep every nugget and reach at least the recorded
log-likelihood less 1e-6, unless it ends at the recorded model itself
(psi within 1e-6). That exception is for the nearly-coincident sets: there
the computed likelihood takes discrete levels about 5e-4 apart, rounding
in the small eigenvalue of Sigma, and two searches that end 3e-9 apart at
the same corner of the box can read different levels.

Record a corpus from the current code with
``PYTHONPATH=src python tests/test_kriging_agreement.py``; do that only
when the search itself is meant to change.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from evtkrig import harness
from evtkrig import kriging as kg

FIXTURE = Path(__file__).parent / "fixtures" / "kriging_agreement.json"
SEED = 7
ALPHAS = (0.95, 0.99, 0.995)
# The cells of the three benchmark workloads: (name, cell configs).
WORKLOADS = (
    ("tail-fit", [dict(scenario=s, allocation=1, macro_replications=1,
                       methods=("POT-EVT", "POT-EMP")) for s in ("triangular", "pareto")]),
    ("surface-fit", [dict(scenario="normal", allocation=5, macro_replications=2,
                          methods=("EMP-EMP", "POT-EVT"))]),
    ("san-grid", [dict(scenario="san", san_budget=b, macro_replications=2)
                  for b in (1000, 10_000, 100_000)]),
)
LADDER_GAPS = (1e-9, 1e-7)


def ladder_sites(gap):
    """Nearly coincident zero-noise sites, as in test_kriging.py."""
    return [kg.DesignSite((0.0,), 1.0), kg.DesignSite((gap,), 2.0),
            kg.DesignSite((1.0,), 0.5)]


def workload_site_sets():
    """Yield (case id, sites) for every kriging fit of the benchmark runs."""
    for name, cells in WORKLOADS:
        for cell in cells:
            captured = []
            original = kg.fit

            def recording_fit(sites):
                captured.append(list(sites))
                return original(sites)

            config = harness.ExperimentConfig(alphas=ALPHAS, seed=SEED, **cell)
            kg.fit = recording_fit
            try:
                harness.run_experiment(config)
            finally:
                kg.fit = original
            label = cell.get("allocation") or cell.get("san_budget")
            for i, sites in enumerate(captured):
                yield f"{name}-{cell['scenario']}-{label}-{i}", sites


def encode_sites(sites) -> list:
    return [[*map(float, s.location), float(s.response), float(s.intrinsic_variance)]
            for s in sites]


def decode_sites(rows) -> list:
    return [kg.DesignSite(tuple(row[:-2]), row[-2], row[-1]) for row in rows]


def fit_record(sites) -> dict:
    model = kg.fit(sites)
    return {"loglik": float(model.loglik), "nugget": float(model.nugget),
            "psi": [math.log(model.tau2), *map(math.log, model.theta)]}


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus():
    cases = load_fixture()
    sizes = [len(case["sites"]) for case in cases.values()]
    assert (sizes.count(50), sizes.count(100), sizes.count(7)) == (12, 12, 54)
    zero_noise = [cid for cid, case in cases.items()
                  if all(row[-1] == 0.0 for row in case["sites"])]
    assert len(zero_noise) == 18 + len(LADDER_GAPS)
    for gap in LADDER_GAPS:
        assert decode_sites(cases[f"ladder-{gap:g}"]["sites"]) == ladder_sites(gap)


@pytest.fixture(scope="module")
def recorded_and_new():
    """(case id, recorded fit, fit from the current search) for every set."""
    return [(case_id, case, fit_record(decode_sites(case["sites"])))
            for case_id, case in load_fixture().items()]


def test_search_matches_recorded_fits(recorded_and_new):
    worse, moved = [], []
    for case_id, old, new in recorded_and_new:
        same_model = max(abs(a - b) for a, b in zip(new["psi"], old["psi"])) <= 1e-6
        if new["loglik"] < old["loglik"] - 1e-6 and not same_model:
            worse.append((case_id, old["loglik"] - new["loglik"]))
        if new["nugget"] != old["nugget"]:
            moved.append((case_id, old["nugget"], new["nugget"]))
    assert not worse, f"log-likelihood fell below the recorded fit: {worse}"
    assert not moved, f"nugget changed: {moved}"


if __name__ == "__main__":
    corpus = list(workload_site_sets())
    corpus += [(f"ladder-{gap:g}", ladder_sites(gap)) for gap in LADDER_GAPS]
    lines = [f"{json.dumps(case_id)}: "
             + json.dumps({"sites": encode_sites(sites), **fit_record(sites)})
             for case_id, sites in corpus]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} fits to {FIXTURE}", file=sys.stderr)
