"""Shared machinery for the joint-failure experiments E3–E8.

Each of those experiments validates one of eqs. (16)–(21) the same way:

1. compute the analytic per-demand joint failure probability through
   :func:`repro.core.joint.joint_failure_probability`;
2. on a tiny fully-enumerable model, compare against the brute-force
   ground truth of :func:`repro.analytic.exact_joint_per_demand`
   (validates the derivation);
3. on a standard-size model, compare against full-pipeline Monte Carlo on
   the most failure-prone demands (validates the generative story).  The
   reference there is exact too (the Bernoulli closed form of
   :class:`repro.analytic.BernoulliExactEngine`, reached through the core
   formula).  One simulation scores every probed demand, and the checks
   share one 99.9% family-wise (Bonferroni) level.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..analytic import exact_joint_per_demand
from ..core import joint_failure_probability
from ..core.regimes import TestingRegime
from ..mc import simulate_joint_on_demand
from ..populations import VersionPopulation
from ..rng import as_generator, spawn
from .base import Claim, engine_kwargs

__all__ = ["SHARED_NOTE", "enumeration_claim", "mc_rows_and_claims"]

#: how :func:`mc_rows_and_claims` samples, for the experiments' notes
SHARED_NOTE = "shared by the 3 probed demands; 99.9% family-wise (Bonferroni)"


def enumeration_claim(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation | None,
    label: str,
) -> Claim:
    """Claim that the core formula equals brute-force enumeration."""
    analytic = joint_failure_probability(
        regime, population_a, population_b
    )
    ground_truth = exact_joint_per_demand(regime, population_a, population_b)
    gap = float(np.abs(analytic.joint - ground_truth).max())
    return Claim(
        f"derived formula matches brute-force enumeration ({label})",
        gap <= 1e-12,
        f"max abs gap {gap:.2e}",
    )


def mc_rows_and_claims(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation | None,
    n_replications: int,
    seed: int,
    demand_count: int = 3,
) -> Tuple[List[Sequence[object]], List[Claim], object]:
    """Rows ``[demand, analytic, MC, CI ok]`` plus CI claims.

    One simulation scores all ``demand_count`` demands, so the estimates
    are dependent; they hold jointly at 99.9% by Bonferroni, each at level
    ``1 − 0.001 / demand_count``.  Returns ``(rows, claims,
    decomposition)`` so callers can reuse the analytic decomposition.
    """
    rng = as_generator(seed)
    decomposition = joint_failure_probability(
        regime, population_a, population_b, rng=spawn(rng)
    )
    # the most failure-prone demands: near-zero ones would pass vacuously
    demands = np.argsort(decomposition.joint)[::-1][:demand_count]
    confidence = 1.0 - 0.001 / len(demands)
    estimators = simulate_joint_on_demand(
        regime,
        population_a,
        demands,
        population_b,
        n_replications=n_replications,
        rng=spawn(rng),
        **engine_kwargs(),
    )
    rows: List[Sequence[object]] = []
    claims: List[Claim] = []
    for demand, estimator in zip(demands, estimators):
        analytic_value = float(decomposition.joint[demand])
        ok = estimator.contains(analytic_value, confidence=confidence)
        rows.append(
            [
                int(demand),
                analytic_value,
                float(decomposition.independence_part[demand]),
                float(decomposition.excess[demand]),
                estimator.mean,
                ok,
            ]
        )
        claims.append(
            Claim(
                f"full-pipeline MC confirms joint on demand {int(demand)} "
                "(99.9% family-wise Wilson CI)",
                ok,
                f"analytic {analytic_value:.6f}, MC {estimator.mean:.6f} "
                f"(n={estimator.count})",
            )
        )
    return rows, claims, decomposition
