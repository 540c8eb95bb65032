"""E14 — reliability growth versus testing effort (paper ref. [5] style).

Regenerates the Djambazov & Popov-style study the paper cites: version pfd
and 1-out-of-2 system pfd as functions of the number of operational tests,
under independent-suite, same-suite and back-to-back regimes, on a fault
universe with Zipf-distributed failure-region sizes (big faults die early,
the long tail drives the diminishing returns).
"""

from __future__ import annotations

import numpy as np

from ..demand import DemandSpace, uniform_profile
from ..faults import zipf_sized_universe
from ..growth import (
    back_to_back_growth_curves,
    halving_effort,
    system_growth_curves,
    version_growth_curve,
)
from ..populations import BernoulliFaultPopulation
from ..versions import shared_fault_outputs
from .base import Claim, ExperimentResult
from .registry import register


@register("e14")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E14 and return its result table and claims."""
    n_replications = 100 if fast else 1000
    space = DemandSpace(120)
    profile = uniform_profile(space)
    universe = zipf_sized_universe(
        space, n_faults=15, max_region_size=24, exponent=1.0, rng=seed
    )
    population = BernoulliFaultPopulation.uniform(universe, 0.35)
    sizes = [0, 5, 10, 20, 40, 80, 160]

    version_curve = version_growth_curve(population, profile, sizes)
    system_curves = system_growth_curves(population, profile, sizes)
    b2b = back_to_back_growth_curves(
        population,
        profile,
        sizes,
        shared_fault_outputs(),
        n_replications=n_replications,
        rng=seed + 1400,
    )
    # paired draws: back-to-back detection is a subset of perfect detection
    # on every replication, so its curve lies above with zero noise
    paired = back_to_back_growth_curves(
        population,
        profile,
        sizes,
        shared_fault_outputs(),
        n_replications=n_replications,
        rng=seed + 1401,
    )
    b2b_means, perfect_means = paired["system"].values, paired["perfect"].values
    independent = system_curves["independent suites"]
    same = system_curves["same suite"]

    rows = []
    for index, n in enumerate(sizes):
        rows.append(
            [
                n,
                float(version_curve.values[index]),
                float(independent.values[index]),
                float(same.values[index]),
                float(b2b["system"].values[index]),
            ]
        )
    claims = [
        Claim(
            "version pfd decreases monotonically with testing effort",
            version_curve.is_nonincreasing(),
        ),
        Claim(
            "both system curves decrease monotonically",
            independent.is_nonincreasing() and same.is_nonincreasing(),
        ),
        Claim(
            "same-suite system curve dominates (is worse than) the "
            "independent-suite curve pointwise",
            independent.dominates(same, tolerance=1e-12),
        ),
        Claim(
            "back-to-back (shared-fault outputs) never beats the perfect "
            "oracle on the same draws, and its curve is monotone",
            bool(
                np.all(b2b_means >= perfect_means - 1e-12)
                and np.all(np.diff(b2b_means) <= 1e-12)
            ),
            "paired comparison over identical version/suite draws",
        ),
        Claim(
            "the system is always at least as reliable as one version",
            bool(np.all(independent.values <= version_curve.values + 1e-12)),
        ),
    ]
    halving = halving_effort(version_curve)
    claims.append(
        Claim(
            "halving the version pfd takes a finite effort on this model",
            halving >= 0,
            f"pfd halves by n = {halving}",
        )
    )
    return ExperimentResult(
        experiment_id="e14",
        title="Reliability growth: version and 1oo2 system pfd vs testing "
        "effort",
        paper_reference="section 3.4.1 and ref. [5] (Djambazov & Popov)",
        columns=[
            "suite size",
            "version pfd",
            "system (indep suites)",
            "system (same suite)",
            "system (back-to-back, MC)",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "Zipf-sized fault regions (15 faults, largest region 24 of 120 "
            f"demands); back-to-back curve from {n_replications} simulated "
            "pairs, exact elsewhere"
        ),
    )
