"""Variance-reduction kernels for the adaptive controller.

Each kernel runs one chunk of replications of the paper's generative story
on the batch engine's matrix primitives and reduces it to the mergeable
bivariate moments of :mod:`repro.adaptive.accumulators` — one
:class:`~repro.adaptive.accumulators.BivariateMoments` per chunk:

* ``"none"`` — plain sampling: no control value;
* ``"control"`` — each replication also records a control value whose
  exact mean the analytic layer knows (the *untested* pfd of the same
  drawn versions — ``E[Θ]`` via ``population.difficulty()`` /
  ``profile.expectation``), enabling the regression control-variate
  estimator at reduction time.

``"auto"`` resolves to ``control`` (:func:`resolve_vr`): every mean metric
here has an untested analytic anchor.  Proportion metrics take no VR
transform (see :func:`proportion_chunk`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ModelError
from ..faults.universe import failure_masses
from ..mc.batch import _joint_masses, _tested_pair_block, _tested_version_block
from ..populations import VersionPopulation
from ..rng import as_generator, spawn_many
from .accumulators import BivariateMoments, moments_of
from .targets import VR_MODES

__all__ = ["resolve_vr"]


def resolve_vr(vr: str) -> str:
    """Resolve the ``vr`` knob to a concrete technique for a mean metric.

    ``"auto"`` means ``"control"``; an unknown (or retired) mode raises.
    """
    if vr not in VR_MODES:
        raise ModelError(f"vr must be one of {VR_MODES}, got {vr!r}")
    return "control" if vr == "auto" else vr


# ---------------------------------------------------------------------------
# chunk kernels — module level so process pools can pickle them
# ---------------------------------------------------------------------------


def version_pfd_chunk(
    population: VersionPopulation,
    generator,
    profile,
    plan: tuple,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, BivariateMoments]:
    """One chunk of post-test version-pfd replications.

    ``task`` is ``(index, count, seed)``; returns ``(index, replications,
    moments)``.  ``y`` is the tested version's pfd, ``c`` the same drawn
    version's *untested* pfd (exact mean ``E_Q[θ]``).
    """
    index, count, seed = task
    universe = population.universe
    faults, tested = _tested_version_block(
        population, generator, plan, count, as_generator(seed)
    )
    values = failure_masses(profile.probabilities, (universe, tested))
    controls = (
        failure_masses(profile.probabilities, (universe, faults))
        if vr == "control"
        else None
    )
    return index, count, moments_of(values, controls)


def untested_joint_pfd_chunk(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, BivariateMoments]:
    """One chunk of untested joint-pfd replications — the eq. (6) estimand.

    ``y`` is the Rao-Blackwellised joint failure mass ``Q(A ∩ B)`` of an
    independently drawn version pair; ``c`` the pair's average *marginal*
    pfd (exact mean ``(E[Θ_A] + E[Θ_B]) / 2``).
    """
    index, count, seed = task
    stream_a, stream_b = spawn_many(as_generator(seed), 2)
    faults_a = population_a.sample_fault_matrix(count, stream_a)
    faults_b = population_b.sample_fault_matrix(count, stream_b)
    control = vr == "control"
    blocks = (population_a.universe, faults_a), (population_b.universe, faults_b)
    masses = failure_masses(profile.probabilities, *blocks, marginals=control)
    values = masses[0] if control else masses
    controls = 0.5 * (masses[1] + masses[2]) if control else None
    return index, count, moments_of(values, controls)


def marginal_system_pfd_chunk(
    regime,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile,
    plan: tuple,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, BivariateMoments]:
    """One chunk of tested 1-out-of-2 system-pfd replications.

    The adaptive counterpart of the batch engine's eqs. (22)–(25) kernel
    (always Rao-Blackwellised): ``y`` is the post-test joint failure mass,
    ``c`` the *untested* joint failure mass of the same drawn pair (exact
    mean ``E_Q[θ_A θ_B]``).
    """
    index, count, seed = task
    faults_a, faults_b, tested_a, tested_b = _tested_pair_block(
        regime, population_a, population_b, plan, count, as_generator(seed)
    )
    values = _joint_masses(profile, population_a, population_b, tested_a, tested_b)
    return index, count, _pair_moments(
        population_a, population_b, profile, vr, values, faults_a, faults_b
    )


def campaign_pfd_chunk(
    campaign,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, BivariateMoments]:
    """One chunk of whole-campaign final-system-pfd replications.

    ``y`` is the delivered system's pfd after every campaign activity ran
    on the fault-matrix blocks (the block
    ``DevelopmentCampaign.mean_final_system_pfd_estimator`` draws); ``c``
    the *untested* joint pfd of the same drawn pair (exact mean
    ``E_Q[θ_A θ_B]``).
    """
    from ..extensions.campaign import _campaign_block

    index, count, seed = task
    faults_a, faults_b, evolved_a, evolved_b = _campaign_block(
        campaign, population_a, population_b, count, as_generator(seed)
    )
    values = _joint_masses(profile, population_a, population_b, evolved_a, evolved_b)
    return index, count, _pair_moments(
        population_a, population_b, profile, vr, values, faults_a, faults_b
    )


def _pair_moments(
    population_a, population_b, profile, vr, values, faults_a, faults_b
) -> BivariateMoments:
    """Reduce a two-channel chunk, with the control from the *untested*
    pair: its joint pfd (exact mean ``E_Q[θ_A θ_B]``)."""
    controls = (
        _joint_masses(profile, population_a, population_b, faults_a, faults_b)
        if vr == "control"
        else None
    )
    return moments_of(values, controls)


def proportion_chunk(
    kernel, task: Tuple[int, int, int]
) -> Tuple[int, int, Tuple[int, int]]:
    """Run a batch-engine proportion chunk on one controller task.

    ``kernel`` maps ``(count, seed)`` to ``(successes, count)`` — the
    fixed-n joint-on-demand chunks of :mod:`repro.mc.batch`, bound to
    their model to one demand (a one-element ``successes`` is unwrapped).
    Proportion metrics accumulate those exact integer pairs; no VR
    transform applies (the Wilson interval is the robust choice near zero).
    """
    index, count, seed = task
    successes, total = kernel((count, seed))
    (successes,) = np.atleast_1d(successes)
    return index, total, (successes, total)
