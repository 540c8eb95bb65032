"""E5 — forced testing diversity, same population: eq. (18).

The two channels are tested with suites from *different generation
procedures* (operational profile vs a debug-biased profile).  Because the
draws are independent, conditional independence still holds:
``P(both fail on x) = ζ_TA(x) ζ_TB(x)``.
"""

from __future__ import annotations

import numpy as np

from ..core import ForcedTestingDiversity
from ..testing import EnumerableSuiteGenerator, TestSuite, WeightedDebugGenerator
from .base import Claim, ExperimentResult
from .models import standard_scenario, tiny_enumerable_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, enumeration_claim, mc_rows_and_claims


def _tiny_second_generator(tiny) -> EnumerableSuiteGenerator:
    """A second enumerable suite measure over the tiny demand space."""
    space = tiny.space
    suites = [
        TestSuite.of(space, [1, 3]),
        TestSuite.of(space, [5]),
    ]
    return EnumerableSuiteGenerator(space, suites, [0.6, 0.4])


@register("e05")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E5 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    tiny = tiny_enumerable_scenario(seed)
    claims = [
        enumeration_claim(
            ForcedTestingDiversity(tiny.generator, _tiny_second_generator(tiny)),
            tiny.population,
            None,
            "tiny enumerable model, two suite measures",
        )
    ]
    scenario = standard_scenario(seed)
    hot_demands = np.flatnonzero(scenario.population.difficulty() > 0.2)
    debug_generator = WeightedDebugGenerator.biased_towards(
        scenario.profile,
        hot_demands,
        boost=4.0,
        size=scenario.generator.size,
    )
    regime = ForcedTestingDiversity(scenario.generator, debug_generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population,
        None,
        n_replications=n_replications,
        seed=seed + 500,
    )
    claims.extend(mc_claims)
    claims.append(
        Claim(
            "conditional independence preserved under forced testing "
            "diversity",
            decomposition.conditional_independence_holds,
            f"max |excess| = {float(np.abs(decomposition.excess).max()):.2e}",
        )
    )
    claims.append(
        Claim(
            "the debug-biased procedure is more efficient on its target "
            "demands (zeta_TB < zeta_TA there)",
            bool(
                np.mean(decomposition.zeta_b[hot_demands])
                < np.mean(decomposition.zeta_a[hot_demands])
            ),
            f"mean zeta on hot demands: debug "
            f"{float(np.mean(decomposition.zeta_b[hot_demands])):.6f} vs "
            f"operational {float(np.mean(decomposition.zeta_a[hot_demands])):.6f}",
        )
    )
    return ExperimentResult(
        experiment_id="e05",
        title="Forced testing diversity, same population: joint = "
        "zeta_TA(x) zeta_TB(x)",
        paper_reference="eq. (18), section 3.2.1",
        columns=[
            "demand",
            "joint analytic",
            "zeta_TA zeta_TB",
            "excess",
            "joint MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "channel A: operational suites; channel B: debug suites biased "
            f"4x towards high-difficulty demands; {n_replications} "
            f"replications {SHARED_NOTE}"
        ),
    )
