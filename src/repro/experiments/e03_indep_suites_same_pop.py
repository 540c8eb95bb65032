"""E3 — independent suites, same population: eq. (16).

Testing both versions on independently generated suites preserves the
conditional independence of their failures on every fixed demand:
``P(both fail on x) = ζ(x)²``.
"""

from __future__ import annotations

import numpy as np

from ..core import IndependentSuites
from .base import Claim, ExperimentResult
from .models import standard_scenario, tiny_enumerable_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, enumeration_claim, mc_rows_and_claims


@register("e03")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E3 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    tiny = tiny_enumerable_scenario(seed)
    claims = [
        enumeration_claim(
            IndependentSuites(tiny.generator),
            tiny.population,
            None,
            "tiny enumerable model",
        )
    ]
    scenario = standard_scenario(seed)
    regime = IndependentSuites(scenario.generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population,
        None,
        n_replications=n_replications,
        seed=seed + 300,
    )
    claims.extend(mc_claims)
    max_excess = float(np.abs(decomposition.excess).max())
    claims.append(
        Claim(
            "conditional independence preserved: joint = zeta(x)^2 exactly",
            decomposition.conditional_independence_holds,
            f"max |joint - zeta^2| = {max_excess:.2e}",
        )
    )
    theta = scenario.population.difficulty()
    claims.append(
        Claim(
            "testing helps demand-wise: zeta(x) <= theta(x) everywhere",
            bool(np.all(decomposition.zeta_a <= theta + 1e-12)),
            f"max zeta - theta = {float((decomposition.zeta_a - theta).max()):.2e}",
        )
    )
    return ExperimentResult(
        experiment_id="e03",
        title="Independent suites, same population: joint = zeta(x)^2",
        paper_reference="eq. (16), section 3.1.1",
        columns=[
            "demand",
            "joint analytic",
            "zeta^2",
            "excess",
            "joint MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=f"{n_replications} full-pipeline replications {SHARED_NOTE}",
    )
