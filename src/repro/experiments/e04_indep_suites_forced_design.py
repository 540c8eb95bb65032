"""E4 — independent suites, forced design diversity: eq. (17).

Two methodologies, each version tested on its own independently generated
suite: ``P(both fail on x) = ζ_A(x) ζ_B(x)`` — conditional independence
again survives testing.
"""

from __future__ import annotations

import numpy as np

from ..core import IndependentSuites
from ..populations import FinitePopulation
from ..versions import Version
from .base import Claim, ExperimentResult
from .models import forced_design_scenario, tiny_enumerable_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, enumeration_claim, mc_rows_and_claims


def _tiny_population_b(tiny):
    """A second, different finite population over the tiny universe."""
    universe = tiny.universe
    versions = [
        Version.correct(universe),
        Version(universe, np.array([2])),
        Version(universe, np.array([0, 2])),
    ]
    return FinitePopulation(universe, versions, [0.5, 0.3, 0.2])


@register("e04")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E4 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    tiny = tiny_enumerable_scenario(seed)
    claims = [
        enumeration_claim(
            IndependentSuites(tiny.generator),
            tiny.population,
            _tiny_population_b(tiny),
            "tiny enumerable model, two populations",
        )
    ]
    scenario = forced_design_scenario(seed)
    regime = IndependentSuites(scenario.generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population_a,
        scenario.population_b,
        n_replications=n_replications,
        seed=seed + 400,
    )
    claims.extend(mc_claims)
    claims.append(
        Claim(
            "conditional independence preserved: joint = zeta_A zeta_B",
            decomposition.conditional_independence_holds,
            f"max |excess| = {float(np.abs(decomposition.excess).max()):.2e}",
        )
    )
    return ExperimentResult(
        experiment_id="e04",
        title="Independent suites, forced design: joint = zeta_A(x) zeta_B(x)",
        paper_reference="eq. (17), section 3.1.2",
        columns=[
            "demand",
            "joint analytic",
            "zeta_A zeta_B",
            "excess",
            "joint MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=f"{n_replications} full-pipeline replications {SHARED_NOTE}",
    )
