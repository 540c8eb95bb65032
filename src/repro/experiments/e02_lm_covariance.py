"""E2 — the Littlewood–Miller covariance result (paper eqs. (9)–(10)).

Sweeps the fault overlap between two methodologies from complete (identical
measures) through partial to none-with-complementary-placement, showing the
difficulty covariance move from positive to negative, and that a negative
covariance makes the two-methodology pair *more* reliable than the
independence prediction — the LM headline.
"""

from __future__ import annotations

from ..core import IndependentSuites, LMModel
from ..mc import simulate_marginal_system_pfd
from ..rng import as_generator
from ..testing import OperationalSuiteGenerator
from .base import Claim, ExperimentResult, engine_kwargs
from .models import forced_design_scenario
from .registry import register


@register("e02")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E2 and return its result table and claims."""
    n_replications = 2000 if fast else 20000
    cases = [
        ("full overlap", dict(n_shared=8, n_unique_each=0)),
        ("half overlap", dict(n_shared=4, n_unique_each=4)),
        ("no overlap, scattered", dict(n_shared=0, n_unique_each=8)),
        (
            "no overlap, complementary",
            dict(n_shared=0, n_unique_each=8, disjoint_unique_regions=True,
                 usage_zipf_exponent=1.2),
        ),
    ]
    rows = []
    claims = []
    rng = as_generator(seed + 200)
    covariances = {}
    for label, kwargs in cases:
        scenario = forced_design_scenario(seed=seed, **kwargs)
        model = LMModel.from_difficulties(
            scenario.population_a.difficulty(),
            scenario.population_b.difficulty(),
            scenario.profile,
        )
        analytic = model.prob_both_fail()
        covariance = model.covariance()
        covariances[label] = covariance
        # empty suites leave the pair untested: E[Q(joint)] = E[Theta_A Theta_B]
        estimator = simulate_marginal_system_pfd(
            IndependentSuites(OperationalSuiteGenerator(scenario.profile, 0)),
            scenario.population_a,
            scenario.profile,
            scenario.population_b,
            n_replications=n_replications,
            rng=rng,
            **engine_kwargs(),
        )
        rows.append(
            [
                label,
                model.prob_fail_a(),
                model.prob_fail_b(),
                analytic,
                model.independence_prediction(),
                covariance,
                estimator.mean,
                estimator.contains(analytic, confidence=0.999),
            ]
        )
        claims.append(
            Claim(
                f"[{label}] MC confirms E[Theta_A Theta_B] (99.9% CI)",
                estimator.contains(analytic, confidence=0.999),
                f"MC {estimator.mean:.6f} vs analytic {analytic:.6f}",
            )
        )
    claims.append(
        Claim(
            "shared faults induce positive difficulty covariance",
            covariances["full overlap"] > 0,
            f"Cov = {covariances['full overlap']:.6f}",
        )
    )
    claims.append(
        Claim(
            "covariance shrinks as methodology overlap is removed",
            covariances["full overlap"] > covariances["half overlap"]
            > covariances["no overlap, scattered"],
            f"{covariances['full overlap']:.5f} > "
            f"{covariances['half overlap']:.5f} > "
            f"{covariances['no overlap, scattered']:.5f}",
        )
    )
    claims.append(
        Claim(
            "complementary placement achieves negative covariance "
            "(better than independence)",
            covariances["no overlap, complementary"] < 0,
            f"Cov = {covariances['no overlap, complementary']:.6f}",
        )
    )
    return ExperimentResult(
        experiment_id="e02",
        title="Littlewood-Miller: covariance decides forced-diversity payoff",
        paper_reference="eqs. (8), (9), (10)",
        columns=[
            "overlap",
            "E[Theta_A]",
            "E[Theta_B]",
            "P(both fail) analytic",
            "independence",
            "Cov(Theta_A,Theta_B)",
            "P(both fail) MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=f"{n_replications} version-pair replications per case",
    )
