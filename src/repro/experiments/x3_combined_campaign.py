"""X3 — extension: combined development activities (§5, closing paragraph).

Runs two realistic end-to-end campaigns over the same population and
budget and compares the delivered systems:

* a **diversity-preserving** campaign — independent testing stages, each
  team resolving its own ambiguities;
* a **commonality-heavy** campaign — the same testing effort as shared
  stages, a broadcast clarification, and a back-to-back session;
* the commonality-heavy campaign **with a common mistake** injected midway
  — the only activity that can make the system *worse*, visible as the
  unique degrading step of the trajectory.

Catalog entry: ``x3`` in docs/experiments.md.  The campaign averages run
on the batch engine — every built-in activity transforms whole
fault-matrix blocks (:meth:`repro.extensions.Activity.apply_batch`); the
single illustrative trajectory runs version by version.
"""

from __future__ import annotations

import numpy as np

from ..extensions import (
    BackToBackActivity,
    ClarificationActivity,
    ClarificationProcess,
    DevelopmentCampaign,
    IndependentTestingActivity,
    MistakeActivity,
    PerTeamClarificationActivity,
    SharedTestingActivity,
    SpecificationMistake,
)
from ..testing import BackToBackComparator, OperationalSuiteGenerator
from ..versions import shared_fault_outputs
from .base import Claim, ExperimentResult, engine_kwargs
from .models import standard_scenario
from .registry import register


@register("x3")
def run(
    seed: int = 0,
    fast: bool = True,
    suite_size: int = 25,
    n_replications: int | None = None,
    precision=None,
) -> ExperimentResult:
    """Run X3 and return its result table and claims.

    Sweepable campaign knobs: ``suite_size`` scales every testing stage's
    effort (shared, independent and back-to-back stages alike, keeping the
    budgets matched), and ``n_replications`` overrides the fast/full
    version-pair count — the axes a sweep varies to study how campaign
    composition effects move with testing effort.

    ``precision`` (a :class:`repro.adaptive.PrecisionTarget` or a mapping
    of its fields) replaces the fixed version-pair count with the adaptive
    precision engine.  A delivered campaign's pfd sits near zero, so a
    *relative* target is anchored to the scale the campaigns are compared
    against — the exact untested system pfd: ``rel_hw=0.05`` reads "the
    campaign means are resolved to 5% of the untested baseline".  With
    both knobs set, ``n_replications`` is the adaptive run's budget.  The
    per-campaign convergence reports land in ``result.extra["adaptive"]``.
    """
    from ..adaptive import PrecisionTarget

    target = PrecisionTarget.coerce(precision)
    # an explicit n_replications is the user's budget; otherwise adaptive
    # runs may escalate up to the full-mode count
    adaptive_budget = n_replications if n_replications is not None else 1500
    if n_replications is None:
        n_replications = 150 if fast else 1500
    scenario = standard_scenario(seed)
    generator = OperationalSuiteGenerator(scenario.profile, suite_size)
    process = ClarificationProcess(
        scenario.space,
        [list(range(0, 15)), list(range(40, 55))],
        [0.5, 0.5],
    )
    comparator = BackToBackComparator(shared_fault_outputs())
    mistake = SpecificationMistake((0,))

    diverse = DevelopmentCampaign(
        [
            IndependentTestingActivity(generator),
            PerTeamClarificationActivity(process),
            IndependentTestingActivity(generator),
        ]
    )
    common = DevelopmentCampaign(
        [
            SharedTestingActivity(generator),
            ClarificationActivity(process),
            BackToBackActivity(generator, comparator),
        ]
    )
    common_with_mistake = DevelopmentCampaign(
        [
            SharedTestingActivity(generator),
            MistakeActivity(mistake),
            BackToBackActivity(generator, comparator),
        ]
    )

    results = {}
    rows = []
    extra = {}
    for label, campaign in (
        ("diversity-preserving", diverse),
        ("commonality-heavy", common),
        ("commonality-heavy + mistake", common_with_mistake),
    ):
        if target is not None:
            from ..adaptive import adaptive_campaign_pfd

            theta = scenario.population.difficulty()
            report = adaptive_campaign_pfd(
                campaign,
                scenario.population,
                scenario.profile,
                target,
                rng=seed + 3000,
                **engine_kwargs(),
                default_budget=adaptive_budget,
                scale=float(scenario.profile.expectation(theta * theta)),
            )
            estimator = report.only.as_estimator()
            extra[label] = report.to_payload()
        else:
            estimator = campaign.mean_final_system_pfd_estimator(
                scenario.population,
                scenario.profile,
                n_replications=n_replications,
                rng=seed + 3000,
                **engine_kwargs(),
            )
        results[label] = estimator.mean
        rows.append([label, estimator.mean, estimator.std_error()])

    # one concrete trajectory with the mistake, to expose the degrading step
    rng = np.random.default_rng(seed + 3100)
    version_a = scenario.population.sample(rng)
    version_b = scenario.population.sample(rng)
    trajectory = common_with_mistake.run(
        version_a, version_b, scenario.profile, rng=seed + 3200
    )
    degrading = trajectory.degrading_steps()
    for step in trajectory.steps:
        rows.append(
            [f"trajectory step {step.step} ({step.kind})", step.system_pfd, ""]
        )

    claims = [
        Claim(
            "mixing in common activities delivers a less reliable system "
            "than the diversity-preserving campaign at the same effort",
            results["commonality-heavy"]
            >= results["diversity-preserving"] - 1e-12,
            f"{results['commonality-heavy']:.6f} vs "
            f"{results['diversity-preserving']:.6f}",
        ),
        Claim(
            "a common mistake makes the combined campaign strictly worse",
            results["commonality-heavy + mistake"]
            > results["commonality-heavy"],
            f"{results['commonality-heavy + mistake']:.6f} vs "
            f"{results['commonality-heavy']:.6f}",
        ),
        Claim(
            "in the trajectory, only the mistake step degrades the system",
            len(degrading) <= 1
            and all(step.kind == "common mistake" for step in degrading),
            f"degrading steps: {[step.kind for step in degrading]}",
        ),
        Claim(
            "every testing-type activity keeps or improves the system",
            all(
                current.system_pfd <= previous.system_pfd + 1e-15
                for previous, current in zip(
                    trajectory.steps, trajectory.steps[1:]
                )
                if current.kind != "common mistake"
            ),
        ),
    ]
    return ExperimentResult(
        experiment_id="x3",
        title="Combined development activities: commonality accumulates "
        "across the campaign",
        paper_reference="section 5 (conclusion), combined-activities "
        "paragraph",
        columns=[
            "campaign / step",
            "mean final (or step) system pfd",
            "std error",
        ],
        rows=rows,
        claims=claims,
        notes=(
            (
                "adaptive precision-targeted version-pair replications "
                "per campaign (see extra['adaptive'])"
                if target is not None
                else f"{n_replications} version-pair replications per campaign"
            )
            + f"; budgets matched at two {suite_size}-test stages plus one "
            "clarification/cross-check step"
        ),
        extra={"adaptive": extra} if extra else {},
    )
