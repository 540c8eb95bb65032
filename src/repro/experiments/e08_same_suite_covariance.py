"""E8 — same suite, forced design diversity: eq. (21).

With different development methodologies sharing one test suite,

    P(both fail on x) = ζ_A(x) ζ_B(x) + Cov_T(ξ_A(x,T), ξ_B(x,T))

and, unlike the same-population variance, the covariance term *can be
negative* — the paper notes it is "unclear how realistic in practice" that
is.  We exhibit both signs: shared faults give a positive covariance;
an explicitly constructed suite measure that alternates between
channel-specific effectiveness gives a negative one.
"""

from __future__ import annotations

import numpy as np

from ..analytic import BernoulliExactEngine, exact_joint_per_demand
from ..core import SameSuite, joint_failure_probability
from ..demand import DemandSpace, uniform_profile
from ..faults import FaultUniverse
from ..populations import BernoulliFaultPopulation
from ..testing import EnumerableSuiteGenerator, TestSuite
from .base import Claim, ExperimentResult
from .models import forced_design_scenario, tiny_enumerable_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, enumeration_claim, mc_rows_and_claims


def _negative_covariance_construction():
    """A model where Cov_T(xi_A, xi_B) < 0 on a demand.

    Methodology A only ever has fault 0 (region {0, 1}); methodology B only
    fault 1 (region {2, 3}).  The suite measure alternates between a suite
    hitting A's region only and one hitting B's region only.  On demand 4
    (covered by both channels' second faults) the suite that fixes A leaves
    B broken and vice versa: effectiveness anti-correlates across channels.
    """
    space = DemandSpace(6)
    profile = uniform_profile(space)
    universe = FaultUniverse.from_regions(
        space, [[0, 1, 4], [2, 3, 4], [5]]
    )
    population_a = BernoulliFaultPopulation(universe, [0.9, 0.0, 0.2])
    population_b = BernoulliFaultPopulation(universe, [0.0, 0.9, 0.2])
    suites = [
        TestSuite.of(space, [0]),  # fixes A's fault 0, misses B's fault 1
        TestSuite.of(space, [2]),  # fixes B's fault 1, misses A's fault 0
    ]
    generator = EnumerableSuiteGenerator(space, suites, [0.5, 0.5])
    return space, profile, population_a, population_b, generator


@register("e08")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E8 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    tiny = tiny_enumerable_scenario(seed)
    from .e04_indep_suites_forced_design import _tiny_population_b

    claims = [
        enumeration_claim(
            SameSuite(tiny.generator),
            tiny.population,
            _tiny_population_b(tiny),
            "tiny enumerable model, two populations",
        )
    ]
    scenario = forced_design_scenario(seed, n_shared=5, n_unique_each=5)
    regime = SameSuite(scenario.generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population_a,
        scenario.population_b,
        n_replications=n_replications,
        seed=seed + 800,
    )
    claims.extend(mc_claims)

    engine = BernoulliExactEngine(scenario.universe, scenario.profile)
    exact_cross = engine.xi_cross_moment(
        scenario.population_a,
        scenario.population_b,
        scenario.generator.size,
    )
    gap = float(np.abs(decomposition.joint - exact_cross).max())
    claims.append(
        Claim(
            "core decomposition is exact and agrees with the engine's "
            "inclusion-exclusion closed form",
            decomposition.exact and gap <= 1e-12,
            f"max abs gap {gap:.2e}",
        )
    )
    exact_cov = engine.xi_covariance(
        scenario.population_a,
        scenario.population_b,
        scenario.generator.size,
    )
    claims.append(
        Claim(
            "shared faults make the suite covariance positive somewhere",
            float(exact_cov.max()) > 1e-6,
            f"max Cov_T(xi_A, xi_B) = {float(exact_cov.max()):.6f}",
        )
    )

    # negative-covariance construction, validated by enumeration
    (
        neg_space,
        neg_profile,
        neg_pop_a,
        neg_pop_b,
        neg_generator,
    ) = _negative_covariance_construction()
    neg_regime = SameSuite(neg_generator)
    neg_dec = joint_failure_probability(neg_regime, neg_pop_a, neg_pop_b)
    neg_truth = exact_joint_per_demand(neg_regime, neg_pop_a, neg_pop_b)
    demand = 4
    claims.append(
        Claim(
            "a suite measure with channel-alternating effectiveness yields "
            "Cov_T(xi_A, xi_B) < 0 (same-suite testing beats conditional "
            "independence there)",
            float(neg_dec.excess[demand]) < -1e-6,
            f"Cov on demand {demand} = {float(neg_dec.excess[demand]):.6f}",
        )
    )
    claims.append(
        Claim(
            "negative-covariance construction matches brute-force "
            "enumeration",
            float(np.abs(neg_dec.joint - neg_truth).max()) <= 1e-12,
        )
    )
    rows.append(
        [
            f"neg-construction d{demand}",
            float(neg_dec.joint[demand]),
            float(neg_dec.independence_part[demand]),
            float(neg_dec.excess[demand]),
            float(neg_truth[demand]),
            True,
        ]
    )
    return ExperimentResult(
        experiment_id="e08",
        title="Same suite, forced design: joint = zeta_A zeta_B + "
        "Cov_T(xi_A, xi_B), either sign",
        paper_reference="eq. (21), section 3.3",
        columns=[
            "demand",
            "joint analytic",
            "zeta_A zeta_B",
            "Cov_T excess",
            "joint MC / enum",
            "validated",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "positive covariance from 5 shared faults; negative covariance "
            "from an explicit two-suite measure with channel-alternating "
            f"effectiveness; {n_replications} replications {SHARED_NOTE}"
        ),
    )
