"""E1 — the Eckhardt–Lee inequality (paper eqs. (6)–(7)).

Checks, for several difficulty-function shapes, that the probability of
coincident failure of two independently developed versions equals
``E[Θ²] = E[Θ]² + Var(Θ)`` and therefore exceeds the independence
prediction whenever the difficulty varies — with a full-pipeline
Monte-Carlo estimate confirming the analytic value.
"""

from __future__ import annotations

import numpy as np

from ..core import ELModel
from ..demand import DemandSpace, uniform_profile
from ..faults import clustered_universe, disjoint_universe, uniform_random_universe
from ..faults.universe import failure_masses
from ..mc.estimator import MeanEstimator
from ..populations import BernoulliFaultPopulation
from ..rng import as_generator, spawn, spawn_many
from .base import Claim, ExperimentResult
from .registry import register


def _marginal_joint_mc(population, profile, n_replications, rng) -> MeanEstimator:
    """Rao-Blackwellised MC of P(both untested versions fail on X).

    Vectorized through the batch engine's kernels: both channels'
    replication blocks are fault matrices, and each row's joint failure
    mass against ``Q`` is one slabbed reduction
    (:func:`~repro.faults.universe.failure_masses`).
    """
    blocks = [
        (population.universe, population.sample_fault_matrix(n_replications, stream))
        for stream in spawn_many(as_generator(rng), 2)
    ]
    estimator = MeanEstimator()
    estimator.add_many(failure_masses(profile.probabilities, *blocks))
    return estimator


@register("e01")
def run(
    seed: int = 0, fast: bool = True, precision=None
) -> ExperimentResult:
    """Run E1 and return its result table and claims.

    ``precision`` (a :class:`repro.adaptive.PrecisionTarget` or a mapping
    of its fields — the sweepable knob form) switches the Monte-Carlo
    confirmation from the fixed replication count to the adaptive
    precision engine: each shape's joint-pfd estimate escalates until the
    target half-width is met (budget-capped at the full-mode count), with
    variance reduction per the target's ``vr`` knob.  The convergence
    report lands in ``result.extra["adaptive"]``.
    """
    from ..adaptive import PrecisionTarget

    target = PrecisionTarget.coerce(precision)
    n_replications = 2000 if fast else 20000
    space = DemandSpace(80)
    profile = uniform_profile(space)
    shapes = {
        "constant (disjoint cover)": disjoint_universe(
            space, n_faults=16, region_size=5, rng=seed
        ),
        "scattered": uniform_random_universe(
            space, n_faults=16, region_size=5, rng=seed + 1
        ),
        "clustered (high variance)": clustered_universe(
            space, n_faults=16, region_size=5, concentration=8.0, rng=seed + 2
        ),
    }
    rows = []
    claims = []
    extra = {}
    rng = as_generator(seed + 100)
    for label, universe in shapes.items():
        population = BernoulliFaultPopulation.uniform(universe, 0.25)
        model = ELModel.from_population(population, profile)
        analytic = model.prob_both_fail()
        independence = model.independence_prediction()
        if target is not None:
            from ..adaptive import adaptive_untested_joint_pfd

            report = adaptive_untested_joint_pfd(
                population,
                profile,
                target,
                rng=spawn(rng),
                default_budget=20000,
            )
            estimator = report.only.as_estimator()
            extra[label] = report.to_payload()
        else:
            estimator = _marginal_joint_mc(
                population, profile, n_replications, rng
            )
        rows.append(
            [
                label,
                model.prob_fail(),
                analytic,
                independence,
                model.variance(),
                estimator.mean,
                estimator.contains(analytic, confidence=0.999),
            ]
        )
        claims.append(
            Claim(
                f"[{label}] P(both fail) >= independence prediction",
                analytic >= independence - 1e-15,
                f"{analytic:.6f} vs {independence:.6f}",
            )
        )
        claims.append(
            Claim(
                f"[{label}] MC confirms E[Theta^2] (99.9% CI)",
                estimator.contains(analytic, confidence=0.999),
                f"MC {estimator.mean:.6f} +/- {2.58 * estimator.std_error():.6f}",
            )
        )

    constant_model = ELModel.from_population(
        BernoulliFaultPopulation.uniform(shapes["constant (disjoint cover)"], 0.25),
        profile,
    )
    # disjoint equal-size regions covering each demand at most once do not
    # guarantee a constant theta unless every demand is covered; check the
    # equality branch explicitly on the exactly-constant sub-case instead.
    covered = shapes["constant (disjoint cover)"].coverage_counts() > 0
    clustered_model = ELModel.from_population(
        BernoulliFaultPopulation.uniform(shapes["clustered (high variance)"], 0.25),
        profile,
    )
    claims.append(
        Claim(
            "variance term grows with difficulty clustering",
            clustered_model.variance() > constant_model.variance(),
            f"clustered {clustered_model.variance():.6f} vs "
            f"disjoint {constant_model.variance():.6f}",
        )
    )
    return ExperimentResult(
        experiment_id="e01",
        title="Eckhardt-Lee inequality: E[Theta^2] = E[Theta]^2 + Var(Theta)",
        paper_reference="eqs. (4), (6), (7)",
        columns=[
            "difficulty shape",
            "E[Theta]",
            "P(both fail) analytic",
            "independence",
            "Var(Theta)",
            "P(both fail) MC",
            "MC in CI",
        ],
        rows=rows,
        claims=claims,
        notes=(
            "80 demands, 16 faults, presence prob 0.25, "
            + (
                "adaptive precision-targeted replications "
                "(see extra['adaptive'])"
                if target is not None
                else f"{n_replications} version-pair replications"
            )
            + f"; {int(np.count_nonzero(covered))}/80 demands covered in "
            "the disjoint shape"
        ),
        extra={"adaptive": extra} if extra else {},
    )
