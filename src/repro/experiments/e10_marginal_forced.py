"""E10 — marginal system pfd under forced design diversity: eqs. (24)–(25).

With two methodologies, the difference between same-suite and
independent-suite testing is ``Σ_F Cov_T(ξ_A(x,T), ξ_B(x,T)) Q(x)`` — "a
sum of covariances each of which can be a positive or a negative number".
When it is positive (e.g. shared faults), independent suites win; the paper
notes the counterintuitive possibility that a negative sum makes the
*cheaper* same-suite testing deliver the more reliable system.  Both signs
are exhibited.
"""

from __future__ import annotations

from ..analytic import exact_marginal_system_pfd
from ..core import IndependentSuites, SameSuite, marginal_system_pfd
from ..mc import simulate_marginal_system_pfd
from ..rng import as_generator, spawn
from .base import Claim, ExperimentResult, engine_kwargs
from .models import forced_design_scenario
from .registry import register
from .e08_same_suite_covariance import _negative_covariance_construction


@register("e10")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E10 and return its result table and claims."""
    n_replications = 1500 if fast else 15000
    rng = as_generator(seed + 1000)
    rows = []
    claims = []

    # positive-covariance case: methodologies share faults
    scenario = forced_design_scenario(seed, n_shared=5, n_unique_each=5)
    analytic = {}
    for regime in (
        IndependentSuites(scenario.generator),
        SameSuite(scenario.generator),
    ):
        decomposition = marginal_system_pfd(
            regime,
            scenario.population_a,
            scenario.profile,
            scenario.population_b,
            rng=spawn(rng),
        )
        estimator = simulate_marginal_system_pfd(
            regime,
            scenario.population_a,
            scenario.profile,
            scenario.population_b,
            n_replications=n_replications,
            rng=spawn(rng),
            **engine_kwargs(),
        )
        analytic[regime.label] = decomposition
        ok = estimator.contains(decomposition.system_pfd, confidence=0.999)
        rows.append(
            [
                f"shared-fault model, {regime.label}",
                decomposition.system_pfd,
                decomposition.difficulty_covariance,
                decomposition.suite_dependence,
                estimator.mean,
                ok,
            ]
        )
        claims.append(
            Claim(
                f"MC confirms the {regime.label} system pfd (99.9% CI)",
                ok,
                f"analytic {decomposition.system_pfd:.6f}, MC "
                f"{estimator.mean:.6f}",
            )
        )
    claims.append(
        Claim(
            "positive summed covariance: independent suites beat the "
            "common suite (eq. (25) > eq. (24))",
            analytic["same suite"].system_pfd
            > analytic["independent suites"].system_pfd
            and analytic["same suite"].suite_dependence > 0,
            f"Sum Cov_T Q = {analytic['same suite'].suite_dependence:.6f}",
        )
    )

    # negative-covariance case: channel-alternating suite effectiveness
    (
        _space,
        neg_profile,
        neg_pop_a,
        neg_pop_b,
        neg_generator,
    ) = _negative_covariance_construction()
    neg_same = marginal_system_pfd(
        SameSuite(neg_generator), neg_pop_a, neg_profile, neg_pop_b
    )
    neg_independent = marginal_system_pfd(
        IndependentSuites(neg_generator), neg_pop_a, neg_profile, neg_pop_b
    )
    truth_same = exact_marginal_system_pfd(
        SameSuite(neg_generator), neg_pop_a, neg_profile, neg_pop_b
    )
    rows.append(
        [
            "alternating model, same suite",
            neg_same.system_pfd,
            neg_same.difficulty_covariance,
            neg_same.suite_dependence,
            truth_same,
            abs(neg_same.system_pfd - truth_same) <= 1e-12,
        ]
    )
    rows.append(
        [
            "alternating model, independent suites",
            neg_independent.system_pfd,
            neg_independent.difficulty_covariance,
            neg_independent.suite_dependence,
            exact_marginal_system_pfd(
                IndependentSuites(neg_generator),
                neg_pop_a,
                neg_profile,
                neg_pop_b,
            ),
            True,
        ]
    )
    claims.append(
        Claim(
            "negative summed covariance exists: the cheaper same-suite "
            "regime delivers the more reliable system (paper's "
            "counterintuitive case)",
            neg_same.suite_dependence < 0
            and neg_same.system_pfd < neg_independent.system_pfd,
            f"Sum Cov_T Q = {neg_same.suite_dependence:.6f}; same "
            f"{neg_same.system_pfd:.6f} < independent "
            f"{neg_independent.system_pfd:.6f}",
        )
    )
    claims.append(
        Claim(
            "analytic same-suite pfd matches brute-force enumeration",
            abs(neg_same.system_pfd - truth_same) <= 1e-12,
        )
    )
    return ExperimentResult(
        experiment_id="e10",
        title="Marginal forced diversity: sign of Sum Cov_T(xi_A,xi_B)Q "
        "decides the better testing regime",
        paper_reference="eqs. (24), (25), section 3.4.2",
        columns=[
            "case",
            "system pfd",
            "Cov(Theta_TA,Theta_TB)",
            "Sum Cov_T Q",
            "MC / enumeration",
            "validated",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "positive case: 5 shared + 5 unique faults per methodology; "
            "negative case: explicit alternating-effectiveness suite measure"
        ),
    )
