"""E9 — marginal system pfd, same population: eqs. (22)–(23).

On a random operational demand, the 1-out-of-2 system built from two
versions of one population is *less* reliable when both were tested on a
common suite than when tested on independent suites, by exactly
``E_Q[Var_T(ξ(X,T))]``:

    P(fail | same suite) = E[Θ_T]² + Var(Θ_T) + E_Q[Var_T(ξ(X,T))]
                         ≥ P(fail | independent suites)
"""

from __future__ import annotations

from ..core import IndependentSuites, SameSuite, marginal_system_pfd
from ..mc import simulate_marginal_system_pfd
from ..rng import as_generator, spawn
from .base import Claim, ExperimentResult, engine_kwargs
from .models import standard_scenario
from .registry import register


@register("e09")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E9 and return its result table and claims."""
    n_replications = 1500 if fast else 15000
    scenario = standard_scenario(seed)
    rng = as_generator(seed + 900)

    rows = []
    claims = []
    results = {}
    for regime in (
        IndependentSuites(scenario.generator),
        SameSuite(scenario.generator),
    ):
        analytic = marginal_system_pfd(
            regime,
            scenario.population,
            scenario.profile,
            rng=spawn(rng),
        )
        estimator = simulate_marginal_system_pfd(
            regime,
            scenario.population,
            scenario.profile,
            n_replications=n_replications,
            rng=spawn(rng),
            **engine_kwargs(),
        )
        results[regime.label] = (analytic, estimator)
        ok = estimator.contains(analytic.system_pfd, confidence=0.999)
        rows.append(
            [
                regime.label,
                analytic.pfd_a,
                analytic.system_pfd,
                analytic.independence_product,
                analytic.difficulty_covariance,
                analytic.suite_dependence,
                estimator.mean,
                ok,
            ]
        )
        claims.append(
            Claim(
                f"MC confirms the {regime.label} system pfd (99.9% CI)",
                ok,
                f"analytic {analytic.system_pfd:.6f}, "
                f"MC {estimator.mean:.6f} +/- "
                f"{3.29 * estimator.std_error():.6f}",
            )
        )

    independent_analytic = results["independent suites"][0]
    same_analytic = results["same suite"][0]
    claims.append(
        Claim(
            "same-suite testing degrades the system: eq. (23) >= eq. (22)",
            same_analytic.system_pfd
            >= independent_analytic.system_pfd - 1e-12,
            f"same {same_analytic.system_pfd:.6f} vs independent "
            f"{independent_analytic.system_pfd:.6f}",
        )
    )
    claims.append(
        Claim(
            "the gap equals E_Q[Var_T(xi(X,T))] (the eq. (23) excess term)",
            abs(
                (same_analytic.system_pfd - same_analytic.suite_dependence)
                - same_analytic.conditional_independence_pfd
            )
            <= 1e-9,
            f"suite-dependence term = {same_analytic.suite_dependence:.6f}",
        )
    )
    claims.append(
        Claim(
            "even with independent suites the system is worse than the "
            "naive product of channel pfds (Var(Theta_T) > 0, eq. (22))",
            independent_analytic.difficulty_covariance > 0,
            f"Var(Theta_T) = {independent_analytic.difficulty_covariance:.6f}",
        )
    )
    claims.append(
        Claim(
            "decomposition reconstructs the system pfd exactly",
            abs(same_analytic.reconstructed() - same_analytic.system_pfd)
            <= 1e-9
            and abs(
                independent_analytic.reconstructed()
                - independent_analytic.system_pfd
            )
            <= 1e-9,
        )
    )
    return ExperimentResult(
        experiment_id="e09",
        title="Marginal system pfd: common suite costs "
        "E_Q[Var_T(xi(X,T))] of reliability",
        paper_reference="eqs. (22), (23), section 3.4.1",
        columns=[
            "regime",
            "channel pfd",
            "system pfd",
            "E[T_A]E[T_B]",
            "Var(Theta_T)",
            "E_Q[Var_T xi]",
            "system pfd MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=(
            f"{n_replications} full-pipeline replications "
            "(Rao-Blackwellised over the demand draw)"
        ),
    )
