"""A1 — ablation: the EL penalty scales with difficulty variance.

Holding the mean difficulty fixed and sweeping its spread (symmetric Beta
shapes from near-constant to near-bimodal), the relative penalty over
independence ``Var(Θ)/E[Θ]²`` must grow from ~0 towards its Bernoulli
ceiling — quantifying "the more variation in difficulty across demands,
the worse becomes the problem".
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

from ..core import ELModel
from ..demand import DemandSpace, uniform_profile
from .base import Claim, ExperimentResult
from .registry import register


@register("a1")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run A1 and return its result table and claims."""
    n_demands = 500 if fast else 5000
    mean_difficulty = 0.2
    space = DemandSpace(n_demands)
    profile = uniform_profile(space)
    rng = np.random.default_rng(seed)

    # Beta(k*mu, k*(1-mu)) has mean mu for every concentration k; small k
    # means high variance.  Use equally spaced quantiles rather than random
    # draws so the sweep is smooth and exactly reproducible.
    concentrations = [2000.0, 50.0, 10.0, 2.0, 0.5]
    quantiles = (np.arange(n_demands) + 0.5) / n_demands
    rows = []
    penalties = []
    for k in concentrations:
        alpha = k * mean_difficulty
        beta = k * (1.0 - mean_difficulty)
        theta = betaincinv(alpha, beta, quantiles)
        model = ELModel.from_difficulty(theta, profile)
        penalty = model.independence_excess_ratio()
        penalties.append(penalty)
        rows.append(
            [
                k,
                model.prob_fail(),
                model.variance(),
                model.prob_both_fail(),
                model.independence_prediction(),
                penalty,
            ]
        )
    claims = [
        Claim(
            "mean difficulty held constant across the sweep",
            all(abs(row[1] - mean_difficulty) < 0.01 for row in rows),
        ),
        Claim(
            "the relative penalty Var/E^2 increases monotonically as the "
            "difficulty distribution spreads",
            all(
                penalties[i] < penalties[i + 1]
                for i in range(len(penalties) - 1)
            ),
            " -> ".join(f"{p:.4f}" for p in penalties),
        ),
        Claim(
            "the near-constant difficulty end has negligible penalty "
            "(independence nearly holds)",
            penalties[0] < 0.01,
            f"penalty at k=2000: {penalties[0]:.6f}",
        ),
        Claim(
            "the penalty stays below the Bernoulli ceiling (1-mu)/mu",
            all(
                p <= (1.0 - mean_difficulty) / mean_difficulty + 1e-9
                for p in penalties
            ),
            f"ceiling = {(1.0 - mean_difficulty) / mean_difficulty:.3f}",
        ),
    ]
    return ExperimentResult(
        experiment_id="a1",
        title="EL penalty vs difficulty variance (fixed mean)",
        paper_reference="eq. (6) discussion: 'everything depends upon a "
        "key variance term'",
        columns=[
            "Beta concentration",
            "E[Theta]",
            "Var(Theta)",
            "E[Theta^2]",
            "independence",
            "penalty Var/E^2",
        ],
        rows=rows,
        claims=claims,
        notes=f"difficulty = Beta quantile grid over {n_demands} demands",
    )
