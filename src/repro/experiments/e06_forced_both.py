"""E6 — forced design *and* testing diversity: eq. (19).

Different development methodologies and different test-generation
procedures, all draws independent: the joint failure probability is still
the product of the per-channel tested difficulties.
"""

from __future__ import annotations

import numpy as np

from ..core import ForcedTestingDiversity
from ..testing import WeightedDebugGenerator
from .base import Claim, ExperimentResult
from .models import forced_design_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, mc_rows_and_claims


@register("e06")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E6 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    scenario = forced_design_scenario(seed)
    hot_b = np.flatnonzero(scenario.population_b.difficulty() > 0.2)
    debug_generator = WeightedDebugGenerator.biased_towards(
        scenario.profile,
        hot_b,
        boost=4.0,
        size=scenario.generator.size,
    )
    regime = ForcedTestingDiversity(scenario.generator, debug_generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population_a,
        scenario.population_b,
        n_replications=n_replications,
        seed=seed + 600,
    )
    claims = list(mc_claims)
    claims.append(
        Claim(
            "conditional independence preserved with both diversities "
            "forced",
            decomposition.conditional_independence_holds,
            f"max |excess| = {float(np.abs(decomposition.excess).max()):.2e}",
        )
    )
    theta_a = scenario.population_a.difficulty()
    theta_b = scenario.population_b.difficulty()
    claims.append(
        Claim(
            "testing helps both channels demand-wise (zeta <= theta)",
            bool(
                np.all(decomposition.zeta_a <= theta_a + 1e-12)
                and np.all(decomposition.zeta_b <= theta_b + 1e-12)
            ),
        )
    )
    return ExperimentResult(
        experiment_id="e06",
        title="Forced design + testing diversity: joint = "
        "zeta_A,TA(x) zeta_B,TB(x)",
        paper_reference="eq. (19), section 3.2.2",
        columns=[
            "demand",
            "joint analytic",
            "product form",
            "excess",
            "joint MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "methodologies share 4 of their faults; channel B debugged with "
            f"a biased profile; {n_replications} replications {SHARED_NOTE}"
        ),
    )
