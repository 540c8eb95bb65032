"""E11 — imperfect oracle and imperfect fixing: §4.1 bounds.

"The results from the previous section can be used as lower bounds on the
probability of system failure.  Equally, the scores will be no worse than
the scores of the untested version which thus forms a natural upper bound."
Swept over detection and fix probabilities, both the version-level and the
system-level pfds must stay inside the [perfect-testing, untested] envelope,
and should degrade monotonically as the testing process gets worse.

Catalog entry: ``e11`` in docs/experiments.md.  The imperfect-testing
measurements run on the batch engine's §4.1 binomial-detection kernel
(:mod:`repro.mc.batch`).
"""

from __future__ import annotations

from ..core import SameSuite
from ..core.bounds import (
    BoundsReport,
    imperfect_system_bounds,
    imperfect_system_envelope,
    imperfect_testing_bounds,
    imperfect_version_envelope,
)
from ..testing import ImperfectFixing, ImperfectOracle
from ..rng import as_generator, spawn, spawn_many
from .base import Claim, ExperimentResult, engine_kwargs
from .models import standard_scenario
from .registry import register


@register("e11")
def run(
    seed: int = 0, fast: bool = True, precision=None
) -> ExperimentResult:
    """Run E11 and return its result table and claims.

    ``precision`` (a :class:`repro.adaptive.PrecisionTarget` or a mapping
    of its fields) replaces the fixed per-grid-point replication count
    with the adaptive precision engine: each point's version-level and
    system-level measurements escalate independently until the target
    half-width is met (budget-capped at the full-mode count), so tight
    grid points stop early and the noisy low-detection tail gets the
    replications it actually needs.  Per-point convergence reports land
    in ``result.extra["adaptive"]``.
    """
    from ..adaptive import PrecisionTarget

    target = PrecisionTarget.coerce(precision)
    n_replications = 300 if fast else 3000
    scenario = standard_scenario(seed)
    rng = as_generator(seed + 1100)
    regime = SameSuite(scenario.generator)
    envelopes = None
    if target is not None:
        # the §4.1 envelopes do not depend on the grid's (detection, fix)
        # pair; compute them once instead of seven times
        version_env_stream, system_env_stream = spawn_many(spawn(rng), 2)
        envelopes = (
            imperfect_version_envelope(
                scenario.population,
                scenario.generator,
                scenario.profile,
                rng=version_env_stream,
            ),
            imperfect_system_envelope(
                regime,
                scenario.population,
                scenario.profile,
                rng=system_env_stream,
            ),
        )

    grid = [
        (1.0, 1.0),
        (0.75, 1.0),
        (0.5, 1.0),
        (1.0, 0.5),
        (0.5, 0.5),
        (0.25, 0.25),
        (0.0, 1.0),
    ]
    rows = []
    claims = []
    version_means = []
    extra = {}
    for detection, fix in grid:
        oracle = ImperfectOracle(detection)
        fixing = ImperfectFixing(fix)
        if target is not None:
            version_report, system_report, payload, point_hw = _adaptive_point(
                scenario, regime, oracle, fixing, target, rng, envelopes
            )
            extra[f"d={detection}, f={fix}"] = payload
        else:
            point_hw = 0.0
            version_report = imperfect_testing_bounds(
                scenario.population,
                scenario.generator,
                scenario.profile,
                oracle,
                fixing,
                n_replications=n_replications,
                rng=spawn(rng),
                **engine_kwargs(),
            )
            system_report = imperfect_system_bounds(
                regime,
                scenario.population,
                scenario.profile,
                oracle,
                fixing,
                n_replications=n_replications,
                rng=spawn(rng),
                **engine_kwargs(),
            )
        version_means.append(version_report.measured)
        rows.append(
            [
                f"d={detection}, f={fix}",
                version_report.lower,
                version_report.measured,
                version_report.upper,
                system_report.lower,
                system_report.measured,
                system_report.upper,
            ]
        )
        # under adaptive control the target half-width, not the fixed
        # count, sets the measurement noise the envelope check must absorb
        slack = max(0.01 if fast else 0.003, point_hw)
        claims.append(
            Claim(
                f"version pfd within [perfect, untested] at d={detection}, "
                f"f={fix}",
                version_report.holds(slack=slack),
                f"{version_report.lower:.5f} <= "
                f"{version_report.measured:.5f} <= "
                f"{version_report.upper:.5f}",
            )
        )
        claims.append(
            Claim(
                f"system pfd within [perfect, untested] at d={detection}, "
                f"f={fix}",
                system_report.holds(slack=slack),
                f"{system_report.lower:.5f} <= "
                f"{system_report.measured:.5f} <= "
                f"{system_report.upper:.5f}",
            )
        )
    # deterministic check: a dead oracle can never change a version
    from ..testing import apply_testing

    probe_version = scenario.population.sample(spawn(rng))
    probe_suite = scenario.generator.sample(spawn(rng))
    probe_outcome = apply_testing(
        probe_version,
        probe_suite,
        ImperfectOracle(0.0),
        ImperfectFixing(1.0),
        rng=spawn(rng),
    )
    claims.append(
        Claim(
            "a dead oracle (d=0) leaves the version exactly unchanged",
            probe_outcome.after == probe_version
            and probe_outcome.detected_failures == 0,
            f"faults before/after: {probe_version.n_faults}/"
            f"{probe_outcome.after.n_faults}",
        )
    )
    claims.append(
        Claim(
            "worse detection yields worse (or equal) version reliability",
            version_means[0] <= version_means[1] + 5e-3
            and version_means[1] <= version_means[2] + 5e-3,
            "means at d=1.0/0.75/0.5: "
            + ", ".join(f"{m:.5f}" for m in version_means[:3]),
        )
    )
    return ExperimentResult(
        experiment_id="e11",
        title="Imperfect oracle/fixing: perfect-testing and untested pfds "
        "bracket the truth",
        paper_reference="section 4.1",
        columns=[
            "oracle/fixing",
            "version lower",
            "version measured",
            "version upper",
            "system lower",
            "system measured",
            "system upper",
        ],
        rows=rows,
        claims=claims,
        notes=(
            (
                "adaptive precision-targeted replications per grid point "
                "(see extra['adaptive'])"
                if target is not None
                else f"{n_replications} replications per grid point"
            )
            + "; same-suite regime for the system-level check; slack "
            "absorbs MC noise"
        ),
        extra={"adaptive": extra} if extra else {},
    )


def _adaptive_point(scenario, regime, oracle, fixing, target, rng, envelopes):
    """Adaptively measure one (detection, fix) grid point of e11.

    The analytic envelopes are shared across the grid (``envelopes`` is
    the pre-computed ``(version, system)`` pair); each point runs only its
    version-level and system-level measurements through the adaptive
    controller (budget-capped at the full-mode count).  Returns the two
    :class:`BoundsReport`\\ s, the convergence payload for ``extra``, and
    the larger achieved half-width (folded into the claim slack).
    """
    from ..adaptive import adaptive_marginal_system_pfd, adaptive_version_pfd

    full_budget = 3000
    (version_envelope, system_envelope) = envelopes
    version_run = adaptive_version_pfd(
        scenario.population,
        scenario.generator,
        scenario.profile,
        target,
        oracle=oracle,
        fixing=fixing,
        rng=spawn(rng),
        **engine_kwargs(),
        default_budget=full_budget,
    )
    version_metric = version_run.only
    lower, upper = version_envelope
    version_report = BoundsReport(
        lower=lower,
        upper=upper,
        measured=version_metric.estimate.mean,
        n_replications=version_metric.replications,
        label="version pfd under imperfect testing",
    )
    system_run = adaptive_marginal_system_pfd(
        regime,
        scenario.population,
        scenario.profile,
        target,
        oracle=oracle,
        fixing=fixing,
        rng=spawn(rng),
        **engine_kwargs(),
        default_budget=full_budget,
    )
    lower, upper = system_envelope
    system_metric = system_run.only
    system_report = BoundsReport(
        lower=lower,
        upper=upper,
        measured=system_metric.estimate.mean,
        n_replications=system_metric.replications,
        label=f"system pfd under imperfect testing ({regime.label})",
    )
    payload = {
        "version": version_run.to_payload(),
        "system": system_run.to_payload(),
    }
    point_hw = max(
        version_metric.estimate.half_width, system_metric.estimate.half_width
    )
    return version_report, system_report, payload, point_hw
