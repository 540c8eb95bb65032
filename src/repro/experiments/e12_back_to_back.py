"""E12 — back-to-back testing: §4.2 bounds.

Three checks:

1. **Optimistic bound** — if coincident failures are never identical,
   back-to-back detection coincides with a perfect oracle (exactly, per
   replication).
2. **Pessimistic bound** — if all coincident failures are identical, they
   are undetectable; in the score-level worst case system reliability does
   not improve at all.  With fault regions linking demands the simulated
   pessimistic run may still improve the system (spillover fixing), but it
   must stay within the [perfect, untested] envelope — and the worst case
   is *attained* when the two channels are the same program.
3. **Exhaustive limit** — "in the limit (after exhaustive testing), the
   versions would fail identically and the system behave exactly as each
   version does": iterating exhaustive back-to-back testing to a fixpoint
   leaves the two channels with identical failure sets.

Catalog entry: ``e12`` in docs/experiments.md.  The envelope simulation
runs on the batch engine's demand-ordered back-to-back kernel
(:func:`repro.mc.back_to_back_batch`); the fixpoint check iterates
:func:`repro.testing.back_to_back_testing` on one version pair by
construction.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import back_to_back_envelope
from ..populations import FinitePopulation
from ..rng import as_generator, spawn
from ..testing import BackToBackComparator, back_to_back_testing
from ..versions import Version, pessimistic_outputs
from .base import Claim, ExperimentResult, engine_kwargs
from .models import standard_scenario
from .registry import register


def _fixpoint_failure_masks(version_a, version_b, space, comparator):
    """Iterate exhaustive back-to-back testing until nothing changes."""
    from ..testing import TestSuite

    exhaustive = TestSuite(space, space.demands)
    current_a, current_b = version_a, version_b
    for _ in range(len(space) + 1):
        outcome_a, outcome_b = back_to_back_testing(
            current_a, current_b, exhaustive, comparator
        )
        changed = (
            outcome_a.after.n_faults != current_a.n_faults
            or outcome_b.after.n_faults != current_b.n_faults
        )
        current_a, current_b = outcome_a.after, outcome_b.after
        if not changed:
            break
    return current_a, current_b


@register("e12")
def run(seed: int = 0, fast: bool = True) -> ExperimentResult:
    """Run E12 and return its result table and claims."""
    n_replications = 200 if fast else 2000
    scenario = standard_scenario(seed)
    rng = as_generator(seed + 1200)

    envelope = back_to_back_envelope(
        scenario.population,
        scenario.generator,
        scenario.profile,
        n_replications=n_replications,
        rng=spawn(rng),
        **engine_kwargs(),
    )
    rows = [
        ["untested", envelope.untested_system_pfd, envelope.untested_version_pfd],
        [
            "b2b pessimistic",
            envelope.pessimistic_system_pfd,
            envelope.pessimistic_version_pfd,
        ],
        [
            "b2b shared-fault",
            envelope.shared_fault_system_pfd,
            envelope.shared_fault_version_pfd,
        ],
        [
            "b2b optimistic",
            envelope.optimistic_system_pfd,
            envelope.optimistic_version_pfd,
        ],
        ["perfect oracle", envelope.perfect_system_pfd, float("nan")],
    ]
    claims = [
        Claim(
            "optimistic back-to-back reproduces the perfect oracle exactly",
            envelope.optimistic_matches_perfect,
            f"{envelope.optimistic_system_pfd:.6f} vs "
            f"{envelope.perfect_system_pfd:.6f}",
        ),
        Claim(
            "envelope ordering holds: perfect <= optimistic <= shared-fault "
            "<= pessimistic <= untested (system pfd)",
            envelope.ordering_holds,
        ),
        Claim(
            "back-to-back improves version reliability even in the "
            "pessimistic case",
            envelope.pessimistic_version_pfd
            < envelope.untested_version_pfd - 1e-9,
            f"{envelope.pessimistic_version_pfd:.6f} < "
            f"{envelope.untested_version_pfd:.6f}",
        ),
    ]

    # worst-case attainment: both channels are the same program, so every
    # failure is coincident and identical -> system pfd cannot improve.
    universe = scenario.universe
    fixed = Version.with_all_faults(universe)
    degenerate = FinitePopulation(universe, [fixed], [1.0])
    attain = back_to_back_envelope(
        degenerate,
        scenario.generator,
        scenario.profile,
        n_replications=20,
        rng=spawn(rng),
        **engine_kwargs(),
    )
    claims.append(
        Claim(
            "worst case attained for identical channels: pessimistic "
            "back-to-back leaves system pfd at its untested value",
            abs(attain.pessimistic_system_pfd - attain.untested_system_pfd)
            <= 1e-12,
            f"{attain.pessimistic_system_pfd:.6f} = "
            f"{attain.untested_system_pfd:.6f}",
        )
    )
    rows.append(
        [
            "identical channels, b2b pessimistic",
            attain.pessimistic_system_pfd,
            attain.pessimistic_version_pfd,
        ]
    )

    # exhaustive-testing limit: failure sets coincide at the fixpoint
    streams = [spawn(rng) for _ in range(2)]
    version_a = scenario.population.sample(streams[0])
    version_b = scenario.population.sample(streams[1])
    comparator = BackToBackComparator(pessimistic_outputs())
    final_a, final_b = _fixpoint_failure_masks(
        version_a, version_b, scenario.space, comparator
    )
    identical = bool(
        np.array_equal(final_a.failure_mask, final_b.failure_mask)
    )
    claims.append(
        Claim(
            "exhaustive pessimistic back-to-back drives the channels to "
            "identical failure sets (the paper's limit)",
            identical,
            f"residual failing demands: "
            f"{int(final_a.failure_mask.sum())} (A) = "
            f"{int(final_b.failure_mask.sum())} (B)",
        )
    )
    return ExperimentResult(
        experiment_id="e12",
        title="Back-to-back testing: optimistic = perfect oracle; "
        "pessimistic leaves the system unimproved",
        paper_reference="section 4.2",
        columns=["configuration", "system pfd", "mean version pfd"],
        rows=rows,
        claims=claims,
        notes=(
            f"{n_replications} paired replications (all modes share draws); "
            "shared-fault output model: failures identical iff caused by "
            "the same faults"
        ),
    )
