"""X2 — extension: common specification mistakes (§5).

The paper's dual of the clarification: a wrong instruction broadcast to all
teams "will result in setting the scores of all demands affected to 1".
Modelled as a fault forced into every channel, with the oracle optionally
sharing the misconception (blind to the mandated behaviour).  Checks:

* the mistake adds common-mode failure: the post-mistake system pfd rises
  by at least the mistake region's usage mass;
* with a *correct* oracle, testing can remove the mistake like any fault;
* with a *blind* oracle (and blind fixing), no amount of testing pushes the
  system pfd below the ``Q(R_m)`` floor.

Catalog entry: ``x2`` in docs/experiments.md.  The blind-oracle estimate
runs on the batch engine's blind-spot closure
(:func:`repro.mc.apply_blind_testing_batch`).
"""

from __future__ import annotations

from ..extensions import SpecificationMistake, mistake_effect
from ..analytic import BernoulliExactEngine
from .base import Claim, ExperimentResult, engine_kwargs
from .models import standard_scenario
from .registry import register


@register("x2")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run X2 and return its result table and claims."""
    n_replications = 200 if fast else 2000
    scenario = standard_scenario(seed)
    # the mistake: every team mis-implements fault 0's behaviour
    mistake = SpecificationMistake((0,))
    effect = mistake_effect(
        mistake,
        scenario.population,
        scenario.generator,
        scenario.profile,
        n_replications=n_replications,
        rng=seed + 2000,
        **engine_kwargs(),
    )

    engine = BernoulliExactEngine(scenario.universe, scenario.profile)
    mistaken = mistake.apply_to(scenario.population)
    untested_clean = scenario.profile.expectation(
        scenario.population.difficulty() ** 2
    )
    untested_mistaken = scenario.profile.expectation(
        mistaken.difficulty() ** 2
    )

    rows = [
        ["untested, clean", untested_clean],
        ["untested, with mistake", untested_mistaken],
        ["tested (shared suite), clean", effect.clean_pfd],
        ["tested, mistake + correct oracle", effect.mistaken_correct_oracle_pfd],
        ["tested, mistake + blind oracle (MC)", effect.mistaken_blind_oracle_pfd],
        ["mistake region mass Q(R_m)", effect.mistake_region_mass],
    ]
    claims = [
        Claim(
            "the common mistake raises the untested system pfd by at least "
            "its region mass",
            untested_mistaken
            >= untested_clean + effect.mistake_region_mass * 0.5,
            f"{untested_mistaken:.5f} vs {untested_clean:.5f} "
            f"(region mass {effect.mistake_region_mass:.5f})",
        ),
        Claim(
            "a correct oracle can test the mistake away: tested pfd with "
            "mistake approaches the clean tested pfd",
            effect.mistaken_correct_oracle_pfd
            <= effect.clean_pfd + effect.mistake_region_mass,
            f"{effect.mistaken_correct_oracle_pfd:.6f} vs clean "
            f"{effect.clean_pfd:.6f}",
        ),
        Claim(
            "a blind oracle cannot: the system pfd never drops below the "
            "Q(R_m) common-mode floor",
            effect.floor_respected,
            f"blind {effect.mistaken_blind_oracle_pfd:.5f} >= floor "
            f"{effect.mistake_region_mass:.5f}",
        ),
        Claim(
            "the blind-oracle system is strictly worse than the "
            "correct-oracle system",
            effect.mistaken_blind_oracle_pfd
            > effect.mistaken_correct_oracle_pfd,
            f"{effect.mistaken_blind_oracle_pfd:.5f} > "
            f"{effect.mistaken_correct_oracle_pfd:.5f}",
        ),
    ]
    return ExperimentResult(
        experiment_id="x2",
        title="Common specification mistakes: forced shared faults and "
        "blind oracles",
        paper_reference="section 5 (conclusion), common-mistake sketch",
        columns=["configuration", "system pfd"],
        rows=rows,
        claims=claims,
        notes=(
            f"mistake = fault 0 forced into both channels; "
            f"{n_replications} replications for the blind-oracle estimate"
        ),
    )
