"""Variance-reduction kernels for the adaptive controller.

Each kernel runs one chunk of replications of the paper's generative story
on the batch engine's matrix primitives and reduces it to the mergeable
per-stratum bivariate moments of
:mod:`repro.adaptive.accumulators` — the shape every variance-reduction
technique here can be expressed in:

* ``"none"`` — plain sampling: one stratum, no control value;
* ``"stratified"`` — the chunk is *post-stratified* on the replication's
  initial fault count (pair total for two-channel metrics), whose exact
  Poisson-binomial distribution :func:`fault_count_pmf` computes from the
  population itself, so the between-strata variance component is removed
  with exact weights;
* ``"control"`` — each replication also records a control value whose
  exact mean the analytic layer knows (the *untested* pfd of the same
  drawn versions — ``E[Θ]`` via ``population.difficulty()`` /
  ``profile.expectation``), enabling the regression control-variate
  estimator at reduction time;
* ``"stratified+control"`` — both, with a common β chosen to minimise the
  stratified variance.

``"auto"`` resolves per sampler to the strongest technique its model
supports (:func:`resolve_vr`): ``stratified+control`` when the population
exposes an exact fault-count pmf, else ``control`` (the untested anchor is
always computable), falling back to ``none`` only for metrics with no
analytic anchor at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ModelError, NotEnumerableError
from ..faults.universe import failure_masses
from ..mc.batch import _joint_masses, _tested_pair_block, _tested_version_block
from ..populations import BernoulliFaultPopulation, VersionPopulation
from ..rng import as_generator, spawn_many
from .accumulators import BivariateMoments, moments_of
from .targets import VR_MODES

__all__ = [
    "fault_count_pmf",
    "pair_fault_count_pmf",
    "resolve_vr",
]

#: stratum key used by non-stratified kernels
POOLED = 0


def fault_count_pmf(population: VersionPopulation) -> Optional[Dict[int, float]]:
    """Exact pmf of a version's fault count, when the population allows it.

    For a :class:`~repro.populations.BernoulliFaultPopulation` the count is
    Poisson-binomial in the per-fault presence probabilities; the standard
    O(F²) convolution DP computes it exactly.  Populations that support
    exact enumeration are handled through it; anything else returns
    ``None`` (no stratification available).
    """
    if isinstance(population, BernoulliFaultPopulation):
        pmf = np.array([1.0])
        for p in population.presence_probs:
            extended = np.zeros(pmf.size + 1)
            extended[: pmf.size] += pmf * (1.0 - p)
            extended[1:] += pmf * p
            pmf = extended
        return {k: float(mass) for k, mass in enumerate(pmf)}
    try:
        pairs = list(population.enumerate())
    except NotEnumerableError:
        # the documented "no exact enumeration" signal; any other
        # exception is a genuine bug and must propagate
        return None
    pmf_map: Dict[int, float] = {}
    for version, probability in pairs:
        k = int(version.n_faults)
        pmf_map[k] = pmf_map.get(k, 0.0) + float(probability)
    return pmf_map


def pair_fault_count_pmf(
    population_a: VersionPopulation, population_b: VersionPopulation
) -> Optional[Dict[int, float]]:
    """Exact pmf of the *pair* fault count ``K_A + K_B`` (independent draws)."""
    pmf_a = fault_count_pmf(population_a)
    pmf_b = fault_count_pmf(population_b)
    if pmf_a is None or pmf_b is None:
        return None
    out: Dict[int, float] = {}
    for ka, pa in pmf_a.items():
        for kb, pb in pmf_b.items():
            out[ka + kb] = out.get(ka + kb, 0.0) + pa * pb
    return out


def resolve_vr(
    vr: str,
    has_strata: bool,
    has_anchor: bool,
) -> str:
    """Resolve the ``vr`` knob to a concrete technique for one sampler.

    ``"auto"`` picks the strongest supported combination; an *explicit*
    request for an unsupported technique raises, so a grid that asks for
    stratification on a population without an exact fault-count pmf fails
    loudly instead of silently measuring something else.
    """
    if vr not in VR_MODES:
        raise ModelError(f"vr must be one of {VR_MODES}, got {vr!r}")
    if vr == "auto":
        if has_strata and has_anchor:
            return "stratified+control"
        if has_anchor:
            return "control"
        if has_strata:
            return "stratified"
        return "none"
    if vr in ("stratified", "stratified+control") and not has_strata:
        raise ModelError(
            f"vr={vr!r} needs an exact fault-count pmf, which this "
            "population does not expose; use vr='control' or vr='none'"
        )
    if vr in ("control", "stratified+control") and not has_anchor:
        raise ModelError(
            f"vr={vr!r} needs an analytic control anchor, which this "
            "metric does not define; use vr='none'"
        )
    return vr


def _stratify(
    values: np.ndarray,
    controls: Optional[np.ndarray],
    strata: Optional[np.ndarray],
) -> Dict[int, BivariateMoments]:
    """Reduce a chunk's observations to per-stratum bivariate moments."""
    if strata is None:
        return {POOLED: moments_of(values, controls)}
    # a stable sort keeps each stratum's observations in chunk order, so its
    # run of the order is the selection a boolean mask per stratum makes
    order = np.argsort(strata, kind="stable")
    keys, starts = np.unique(strata[order], return_index=True)
    return {
        int(key): moments_of(values[run], None if controls is None else controls[run])
        for key, run in zip(keys, np.split(order, starts[1:]))
    }


def _wants_control(vr: str) -> bool:
    return vr in ("control", "stratified+control")


def _wants_strata(vr: str) -> bool:
    return vr in ("stratified", "stratified+control")


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
) -> Tuple[int, int, Dict[int, BivariateMoments]]:
    """One chunk of post-test version-pfd replications.

    ``task`` is ``(index, count, seed)``; returns ``(index, replications,
    payload)``.  ``y`` is the tested version's pfd, ``c`` the same drawn
    version's *untested* pfd (exact mean ``E_Q[θ]``), the stratum its
    initial fault count.
    """
    index, count, seed = task
    universe = population.universe
    faults, tested = _tested_version_block(
        population, generator, plan, count, as_generator(seed)
    )
    values = failure_masses(profile.probabilities, (universe, tested))
    controls = (
        failure_masses(profile.probabilities, (universe, faults))
        if _wants_control(vr)
        else None
    )
    strata = faults.sum(axis=1) if _wants_strata(vr) else None
    return index, count, _stratify(values, controls, strata)


def untested_joint_pfd_chunk(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, Dict[int, BivariateMoments]]:
    """One chunk of untested joint-pfd replications — the eq. (6) estimand.

    ``y`` is the Rao-Blackwellised joint failure mass ``Q(A ∩ B)`` of an
    independently drawn version pair; ``c`` the pair's average *marginal*
    pfd (exact mean ``(E[Θ_A] + E[Θ_B]) / 2``); the stratum the pair's
    total fault count.
    """
    index, count, seed = task
    stream_a, stream_b = spawn_many(as_generator(seed), 2)
    faults_a = population_a.sample_fault_matrix(count, stream_a)
    faults_b = population_b.sample_fault_matrix(count, stream_b)
    control = _wants_control(vr)
    blocks = (population_a.universe, faults_a), (population_b.universe, faults_b)
    masses = failure_masses(profile.probabilities, *blocks, marginals=control)
    values = masses[0] if control else masses
    controls = 0.5 * (masses[1] + masses[2]) if control else None
    strata = (
        faults_a.sum(axis=1) + faults_b.sum(axis=1)
        if _wants_strata(vr)
        else None
    )
    return index, count, _stratify(values, controls, strata)


def marginal_system_pfd_chunk(
    regime,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile,
    plan: tuple,
    vr: str,
    task: Tuple[int, int, int],
) -> Tuple[int, int, Dict[int, BivariateMoments]]:
    """One chunk of tested 1-out-of-2 system-pfd replications.

    The adaptive counterpart of the batch engine's eqs. (22)–(25) kernel
    (always Rao-Blackwellised): ``y`` is the post-test joint failure mass,
    ``c`` the *untested* joint failure mass of the same drawn pair (exact
    mean ``E_Q[θ_A θ_B]``), the stratum the pair's total fault count.
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
) -> Tuple[int, int, Dict[int, BivariateMoments]]:
    """One chunk of whole-campaign final-system-pfd replications.

    ``y`` is the delivered system's pfd after every campaign activity ran
    on the fault-matrix blocks (the block
    ``DevelopmentCampaign.mean_final_system_pfd_estimator`` draws); ``c``
    the *untested* joint pfd of the same drawn pair (exact mean
    ``E_Q[θ_A θ_B]``); the stratum the pair's total fault count.
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
) -> Dict[int, BivariateMoments]:
    """Reduce a two-channel chunk, with controls and strata from the
    *untested* pair: its joint pfd (exact mean ``E_Q[θ_A θ_B]``) and its
    total fault count."""
    controls = (
        _joint_masses(profile, population_a, population_b, faults_a, faults_b)
        if _wants_control(vr)
        else None
    )
    strata = (
        faults_a.sum(axis=1) + faults_b.sum(axis=1)
        if _wants_strata(vr)
        else None
    )
    return _stratify(values, controls, strata)


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
