"""E7 — same suite, same population: eq. (20).

The paper's central negative result: testing both versions on a *common*
suite induces dependence —

    P(both fail on x) = E_T[ξ(x,T)²] = ζ(x)² + Var_T(ξ(x,T)) ≥ ζ(x)²

so assuming conditional independence after shared testing is optimistic by
exactly the per-demand suite variance.  Validated against brute-force
enumeration and full-pipeline Monte Carlo; the core decomposition is
checked for consistency with the Bernoulli closed form it dispatches to.
"""

from __future__ import annotations

import numpy as np

from ..analytic import BernoulliExactEngine
from ..core import SameSuite
from .base import Claim, ExperimentResult
from .models import standard_scenario, tiny_enumerable_scenario
from .registry import register
from ._jointcheck import SHARED_NOTE, enumeration_claim, mc_rows_and_claims


@register("e07")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E7 and return its result table and claims."""
    n_replications = 3000 if fast else 30000
    tiny = tiny_enumerable_scenario(seed)
    claims = [
        enumeration_claim(
            SameSuite(tiny.generator),
            tiny.population,
            None,
            "tiny enumerable model",
        )
    ]
    scenario = standard_scenario(seed)
    regime = SameSuite(scenario.generator)
    rows, mc_claims, decomposition = mc_rows_and_claims(
        regime,
        scenario.population,
        None,
        n_replications=n_replications,
        seed=seed + 700,
    )
    claims.extend(mc_claims)

    engine = BernoulliExactEngine(scenario.universe, scenario.profile)
    exact_second = engine.xi_second_moment(
        scenario.population, scenario.generator.size
    )
    gap = float(np.abs(decomposition.joint - exact_second).max())
    claims.append(
        Claim(
            "core decomposition is exact and agrees with the engine's "
            "inclusion-exclusion closed form",
            decomposition.exact and gap <= 1e-12,
            f"max abs gap {gap:.2e}",
        )
    )
    exact_var = engine.xi_variance(scenario.population, scenario.generator.size)
    claims.append(
        Claim(
            "common suite induces dependence: Var_T(xi) > 0 on some demand",
            float(exact_var.max()) > 1e-6,
            f"max Var_T(xi) = {float(exact_var.max()):.6f}",
        )
    )
    zeta = engine.zeta(scenario.population, scenario.generator.size)
    claims.append(
        Claim(
            "joint >= zeta^2 on every demand (eq. (20) inequality)",
            bool(np.all(exact_second >= zeta**2 - 1e-15)),
        )
    )
    claims.append(
        Claim(
            "Var_T(xi) never exceeds the theoretical maximum 0.25",
            float(exact_var.max()) <= 0.25 + 1e-12,
            f"max = {float(exact_var.max()):.6f}",
        )
    )
    return ExperimentResult(
        experiment_id="e07",
        title="Same suite, same population: joint = zeta^2 + Var_T(xi)",
        paper_reference="eq. (20), section 3.3",
        columns=[
            "demand",
            "joint analytic",
            "zeta^2",
            "Var_T(xi) excess",
            "joint MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=(
            f"{n_replications} full-pipeline replications {SHARED_NOTE}; "
            "closed form via inclusion-exclusion over covering faults"
        ),
    )
