"""C2 — how coverage structure shapes localization-guided growth.

A controlled synthetic sweep: one clustered fault universe with blocked
components, and a grid of banded-random coverage matrices varying the
within-band cell **density** and the **suite size** (number of tests).
The SBFL-guided workload runs on every grid cell with common random
numbers, making the fix-effort surface directly comparable: richer
coverage — denser cells or more tests — never slows reliability growth,
and the two knobs compound (the densest, largest suite localizes
soonest).
"""

from __future__ import annotations

import numpy as np

from ..coverage.components import ComponentModel
from ..coverage.matrix import synthetic_coverage
from ..coverage.workload import simulate_localized_growth
from ..demand import DemandSpace, zipf_profile
from ..faults import clustered_universe
from ..populations import BernoulliFaultPopulation
from ._localization import workload_engine_kwargs
from .base import Claim, ExperimentResult
from .registry import register


@register("c2")
def run(
    seed: int = 0,
    fast: bool = True,
    n_components: int = 6,
    n_faults: int = 12,
    rounds: int = 8,
    target_fraction: float = 0.5,
    metric: str = "ochiai",
) -> ExperimentResult:
    """Run C2 and return its result table and claims."""
    n_replications = 150 if fast else 600
    densities = (0.2, 0.5, 0.8)
    suite_sizes = (6, 12, 24)

    space = DemandSpace(100)
    profile = zipf_profile(space, exponent=0.8)
    universe = clustered_universe(
        space, n_faults=n_faults, region_size=6, rng=seed + 11
    )
    population = BernoulliFaultPopulation.uniform(universe, 0.4)
    model = ComponentModel.blocked(universe, n_components)

    rows = []
    effort = {}
    monotone = True
    for density in densities:
        for n_tests in suite_sizes:
            matrix = synthetic_coverage(
                n_tests,
                n_components,
                density=density,
                bandwidth=2,
                overlap=0.2,
                rng=seed + 101,
            )
            result = simulate_localized_growth(
                population,
                profile,
                matrix,
                model,
                policy="sbfl",
                metric=metric,
                rounds=rounds,
                target_fraction=target_fraction,
                n_replications=n_replications,
                rng=seed,
                **workload_engine_kwargs(),
            )
            monotone &= bool(np.all(np.diff(result.mean_pfd) <= 1e-12))
            effort[(density, n_tests)] = result.mean_rounds_to_target
            rows.append(
                [
                    density,
                    n_tests,
                    matrix.density,
                    result.initial_pfd,
                    result.final_pfd,
                    result.mean_rounds_to_target,
                    result.reached_fraction,
                ]
            )

    suite_monotone = all(
        effort[(d, a)] >= effort[(d, b)]
        for d in densities
        for a, b in zip(suite_sizes, suite_sizes[1:])
    )
    density_monotone = all(
        effort[(a, t)] >= effort[(b, t)]
        for t in suite_sizes
        for a, b in zip(densities, densities[1:])
    )
    best = effort[(densities[-1], suite_sizes[-1])]
    worst = effort[(densities[0], suite_sizes[0])]
    claims = [
        Claim(
            "fixing never adds faults: mean pfd is non-increasing round "
            "over round on every grid cell",
            monotone,
        ),
        Claim(
            "larger test suites never slow localization-guided growth "
            "(fix effort is non-increasing in suite size at every density)",
            suite_monotone,
        ),
        Claim(
            "denser coverage never slows localization-guided growth "
            "(fix effort is non-increasing in density at every suite size)",
            density_monotone,
        ),
        Claim(
            "the richest coverage (densest cells, largest suite) localizes "
            "strictly faster than the poorest",
            best < worst,
            f"effort {best:.3f} vs {worst:.3f}",
        ),
    ]
    return ExperimentResult(
        experiment_id="c2",
        title="Coverage density and suite size vs localization effort",
        paper_reference=(
            "suite-size effects on tested reliability (section 3), "
            "extended to coverage-limited SBFL diagnosis"
        ),
        columns=[
            "density knob",
            "suite size",
            "realised density",
            "initial pfd",
            "final pfd",
            "fix effort",
            "reached fraction",
        ],
        rows=rows,
        claims=claims,
        notes=(
            f"{n_faults} clustered faults, {n_components} blocked "
            f"components on a {space.size}-demand space; banded coverage "
            f"(bandwidth 2, overlap 0.2); {rounds} rounds to reach "
            f"{target_fraction:.0%} of initial pfd, metric {metric!r}, "
            f"{n_replications} replications per cell, common random "
            "numbers across cells"
        ),
    )
