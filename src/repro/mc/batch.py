"""Vectorized batch Monte-Carlo engine.

The scalar drivers in :mod:`repro.mc.experiments` replicate the paper's
generative story one replication at a time: sample a version, draw a suite,
test, score.  This module runs the *same* story as matrix kernels over a
whole block of replications at once:

* an ``(R, F)`` boolean **fault matrix** — row ``r`` marks the faults of
  version ``r``, drawn in one block from the population
  (:meth:`~repro.populations.VersionPopulation.sample_fault_matrix`);
* an ``(R, D)`` boolean **suite mask** block — row ``r`` is the demand
  membership of replication ``r``'s suite, drawn with the regime's coupling
  (:meth:`~repro.core.regimes.TestingRegime.draw_suite_masks`) — or, for
  imperfect testing, the same suites drawn as demand sequences and sorted
  into ``(row, demand, count)`` **runs**, because each execution of a
  failing demand is a fresh detection opportunity;
* the **testing closure**, evaluated only at the present ``(r, f)`` pairs:
  a region hit test for the perfect-oracle case
  (:func:`apply_testing_batch`), binomial detection counts plus per-fault
  Bernoulli survival draws for the §4.1 imperfect-oracle/imperfect-fixing
  case (:func:`apply_imperfect_testing_batch`), and a demand-ordered masked
  update loop for §4.2 back-to-back testing (:func:`back_to_back_batch`) —
  the only genuinely sequential axis in the paper's testing processes;
* **scoring**: post-test failure masks
  (:meth:`~repro.faults.FaultUniverse.failure_matrix`), then one
  matrix-vector product against the usage profile.

Closure and scoring run on :class:`~repro.faults.FaultUniverse`'s region
kernels, sparse or dense by one size rule, with bit-identical blocks.

Chunk results stream into the existing :class:`ProportionEstimator` /
:class:`MeanEstimator` via their ``add_many`` merges, so confidence-interval
semantics are unchanged.  Every public function is a drop-in counterpart of
its scalar namesake; :class:`~repro.testing.ImperfectOracle` and
:class:`~repro.testing.ImperfectFixing` (and matched blind-spot pairs) run
on the vectorized path — only *custom* oracle/fixing policies, whose
dynamics the engine cannot introspect, are rejected (use
``engine="scalar"`` for those).

Why imperfect testing vectorizes at all: although the scalar engine
processes demands in suite order, the §4.1 process is order-independent *in
distribution*.  Couple every occurrence ``o`` with an oracle coin and every
``(o, fault)`` pair with a fixing coin; a fault is removed iff some
occurrence of a covering demand has both coins heads, regardless of the
order occurrences are played in.  Conditioning on the per-demand binomial
count of detecting occurrences ``K(x)``, faults survive independently with
probability ``(1 - fix_p) ** sum_x K(x)·cover(f, x)`` — the shared ``K``
carries exactly the cross-fault correlation the shared oracle coins induce.
Back-to-back testing is *not* order-independent (detection depends on the
co-evolving partner version), so its kernel iterates demand positions and
vectorizes across replications.

Execution is chunked (``chunk_size``) to bound peak memory, and chunks can
optionally be sharded across worker processes (``n_jobs``).  Chunk seeds are
drawn up-front from the root stream and results are merged in chunk order,
so a given ``(rng, chunk_size)`` pair yields bit-identical estimates for any
``n_jobs``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import IncompatibleSpaceError, ModelError
from ..faults.universe import _packed_rows, _unpacked_rows
from ..populations import VersionPopulation
from ..rng import as_generator, spawn, spawn_many
from ..testing import BackToBackComparator, FixingPolicy, Oracle, SuiteGenerator
from ..testing.fixing import ImperfectFixing, PerfectFixing
from ..testing.generators import _suite_runs, _SuiteRuns
from ..testing.oracle import ImperfectOracle, PerfectOracle
from ..types import SeedLike
from ..versions.outputs import (
    OPTIMISTIC,
    PESSIMISTIC,
    SHARED_FAULT,
    FailureOutputModel,
)
from ..core.regimes import TestingRegime
from . import experiments as _scalar
from .estimator import MeanEstimator, ProportionEstimator

__all__ = [
    "apply_testing_batch",
    "apply_imperfect_testing_batch",
    "apply_blind_testing_batch",
    "apply_coverage_testing_batch",
    "back_to_back_batch",
    "back_to_back_supported",
    "batch_supported",
    "run_tasks",
]

_DEFAULT_CHUNK = 8192

# testing-plan kinds resolved by _testing_plan
_PERFECT = "perfect"
_BERNOULLI = "bernoulli"
_BLIND = "blind"
_COVERAGE = "coverage"


def _testing_plan(
    oracle: Oracle | None, fixing: FixingPolicy | None
) -> tuple | None:
    """Resolve an (oracle, fixing) pair to a batch execution plan.

    Returns ``(kind, detection_p, fix_p, extra)`` where ``kind`` is one
    of ``"perfect"`` (set-wise mask closure), ``"bernoulli"`` (the §4.1
    binomial-detection kernel), ``"blind"`` (perfect closure restricted to
    faults outside a shared blind spot) or ``"coverage"`` (per-fault
    detection probabilities derived from a coverage matrix — see
    :mod:`repro.coverage.detection`), or ``None`` when the pair is a
    custom policy the engine cannot model.  ``extra`` carries the blind
    fault ids or the per-fault probability tuple for those two kinds.

    Blind-spot and coverage pairs are recognised structurally — both
    members expose the same ``blind_fault_ids`` (resp.
    ``fault_detection_probs``) — so neither :mod:`repro.extensions.mistakes`
    nor :mod:`repro.coverage` needs to be imported here.  Each pair is only
    vectorizable *together*: a half-supplied or mismatched pair falls back
    to the scalar path.
    """
    for attribute, kind, cast in (
        ("blind_fault_ids", _BLIND, int),
        ("fault_detection_probs", _COVERAGE, float),
    ):
        of_oracle = getattr(oracle, attribute, None)
        of_fixing = getattr(fixing, attribute, None)
        if of_oracle is None and of_fixing is None:
            continue
        if of_oracle is None or of_fixing is None:
            return None
        extra = tuple(cast(value) for value in of_oracle)
        if extra != tuple(cast(value) for value in of_fixing):
            return None
        return (kind, 1.0, 1.0, extra)
    # exact type matches only: a *subclass* may override the per-demand
    # behaviour arbitrarily, so it must take the scalar path
    if oracle is None or type(oracle) is PerfectOracle:
        detection_p = 1.0
    elif type(oracle) is ImperfectOracle:
        detection_p = float(oracle.detection_probability)
    else:
        return None
    if fixing is None or type(fixing) is PerfectFixing:
        fix_p = 1.0
    elif type(fixing) is ImperfectFixing:
        fix_p = float(fixing.fix_probability)
    else:
        return None
    if detection_p == 1.0 and fix_p == 1.0:
        return (_PERFECT, 1.0, 1.0, None)
    return (_BERNOULLI, detection_p, fix_p, None)


def batch_supported(
    oracle: Oracle | None = None, fixing: FixingPolicy | None = None
) -> bool:
    """True iff the testing process runs on the vectorized path.

    The batch engine models the paper's §3 perfect process (one matrix
    product), the §4.1 :class:`~repro.testing.ImperfectOracle` /
    :class:`~repro.testing.ImperfectFixing` relaxations (binomial detection
    counts + Bernoulli survival masks — see the module docstring for why
    that matches the demand-ordered scalar process in distribution),
    matched blind-spot oracle/fixing pairs from
    :mod:`repro.extensions.mistakes`, and matched coverage pairs from
    :mod:`repro.coverage.detection` (per-fault Bernoulli survival under
    coverage-derived detection probabilities).  Only custom policy
    classes, whose per-demand dynamics the engine cannot introspect,
    return False.
    """
    return _testing_plan(oracle, fixing) is not None


def _require_plan(
    oracle: Oracle | None, fixing: FixingPolicy | None
) -> tuple:
    plan = _testing_plan(oracle, fixing)
    if plan is None:
        raise ModelError(
            "the batch engine cannot model custom oracle/fixing policies "
            f"({type(oracle).__name__}/{type(fixing).__name__}); supported: "
            "Perfect/Imperfect oracles and fixing, and matched blind-spot "
            "or coverage pairs.  Use engine='scalar' (or engine='auto' for "
            "automatic fallback) for custom policies"
        )
    return plan


def back_to_back_supported(fixing: FixingPolicy | None = None) -> bool:
    """True iff back-to-back testing with ``fixing`` runs on the batch path.

    The §4.2 comparator itself is always expressible (all three output
    models reduce to boolean cause-mask algebra); only the follow-up fixing
    policy can force the scalar path, exactly as in :func:`batch_supported`
    — including its exact-type rule: a *subclass* may override
    ``faults_removed`` arbitrarily, so it must take the scalar path.
    """
    return fixing is None or type(fixing) in (PerfectFixing, ImperfectFixing)


def apply_testing_batch(
    fault_matrix: np.ndarray,
    suite_masks: np.ndarray,
    universe,
) -> np.ndarray:
    """Perfect-oracle testing closure over a replication block.

    ``fault_matrix`` is ``(R, F)`` boolean (versions as fault-presence
    rows), ``suite_masks`` is ``(R, D)`` boolean (suites as demand masks).
    Returns the ``(R, F)`` post-test fault matrix: row ``r`` keeps exactly
    the faults of version ``r`` whose failure region suite ``r`` misses —
    the batched form of :func:`repro.testing.apply_testing` under perfect
    detection and fixing (the paper's §3 process).
    """
    masks = np.asarray(suite_masks, dtype=bool)
    fault_matrix = _checked_faults(fault_matrix, masks.shape, universe)
    return universe._cleared(fault_matrix, masks)


def _checked_faults(fault_matrix, suite_shape, universe) -> np.ndarray:
    """The boolean fault block, checked against its suite block's shape."""
    fault_matrix = np.asarray(fault_matrix, dtype=bool)
    if len(suite_shape) != 2 or suite_shape[1] != universe.space.size:
        raise IncompatibleSpaceError(
            f"suite block of shape {suite_shape} does not match demand "
            f"space size {universe.space.size}"
        )
    if fault_matrix.shape != (suite_shape[0], len(universe)):
        raise ModelError(
            f"fault matrix {fault_matrix.shape} and suite block "
            f"{suite_shape} have mismatched replication counts or universes"
        )
    return fault_matrix


def _as_runs(suite_counts) -> _SuiteRuns:
    """Sorted demand runs as given, or those of an ``(R, D)`` occurrence-count
    block: its non-zero entries in C order."""
    if isinstance(suite_counts, _SuiteRuns):
        return suite_counts
    counts = np.asarray(suite_counts)
    if counts.size and counts.min() < 0:
        raise ModelError("suite count block has negative occurrence counts")
    flat = np.flatnonzero(counts)
    return _SuiteRuns(counts.shape, flat, counts.ravel()[flat])


def _survivors(fault_matrix, present, keep) -> np.ndarray:
    """The ``(R, F)`` block holding the ``present`` pairs that ``keep`` marks."""
    tested = np.zeros(fault_matrix.shape, dtype=bool)
    tested.ravel()[present[keep]] = True
    return tested


def apply_imperfect_testing_batch(
    fault_matrix: np.ndarray,
    suite_counts,
    universe,
    detection_probability: float,
    fix_probability: float,
    rng: SeedLike = None,
) -> np.ndarray:
    """§4.1 imperfect-oracle/imperfect-fixing closure over a block.

    ``suite_counts`` is the ``(R, D)`` integer occurrence-count block —
    entry ``(r, x)`` is how often suite ``r`` executes demand ``x``; unlike
    the perfect case, repeats matter because every execution of a failing
    demand is another independent detection opportunity.  The engine
    passes the same suites as sorted demand runs.

    The kernel draws, per ``(r, x)``, the binomial number of *detecting*
    occurrences ``K[r, x] ~ Binomial(counts[r, x], detection_p)``; a fault
    then survives independently (given ``K``) with probability
    ``(1 - fix_p) ** (K @ cover.T)`` — each detecting occurrence of a
    covering demand is one independent chance to remove it, and the shared
    ``K`` reproduces the cross-fault correlation of the scalar process's
    shared per-demand oracle decisions.  This equals the demand-ordered
    scalar process in distribution (see the module docstring); it is not
    bit-identical to it because the scalar engine consumes randomness
    conditionally.
    """
    runs = _as_runs(suite_counts)
    fault_matrix = _checked_faults(fault_matrix, runs.shape, universe)
    if not len(universe):
        return fault_matrix.copy()
    generator = as_generator(rng)
    detecting = runs.counts
    if detection_probability < 1.0:
        # binomial(0, p) is 0 and consumes no randomness, so drawing only
        # at the runs (the non-zero counts in C order) is the dense draw
        detecting = generator.binomial(detecting, detection_probability)
    present = np.flatnonzero(fault_matrix)
    # chances at each present (r, f): detecting occurrences covering f
    chances = universe._sums_at(present, runs.shape[0], runs.flat, detecting)
    if fix_probability >= 1.0:
        # 0 ** 0 == 1: untouched faults survive, any chance removes
        return _survivors(fault_matrix, present, chances < 0.5)
    # the survival uniforms keep the full (R, F) draw of the stream
    uniforms = generator.random(fault_matrix.shape).ravel()[present]
    return _survivors(
        fault_matrix, present, uniforms < (1.0 - fix_probability) ** chances
    )


def apply_coverage_testing_batch(
    fault_matrix: np.ndarray,
    suite_counts,
    universe,
    fault_detection_probs,
    rng: SeedLike = None,
) -> np.ndarray:
    """Coverage-limited testing closure over a block — per-fault Bernoulli.

    The heterogeneous twin of :func:`apply_imperfect_testing_batch`:
    failure observation is perfect (every execution of a covering demand
    is a diagnosis chance), but fault ``f`` is diagnosed-and-removed per
    chance only with its coverage-derived probability ``q_f``
    (:func:`repro.coverage.fault_detection_probs`), so it survives with
    probability ``(1 - q_f) ** chances``.  Matches the demand-ordered
    scalar :class:`~repro.coverage.CoverageOracle` /
    :class:`~repro.coverage.CoverageFixing` process in distribution by
    the same memoryless-geometric argument as §4.1 — each fault's removal
    depends only on its own independent per-execution draws.
    """
    runs = _as_runs(suite_counts)
    fault_matrix = _checked_faults(fault_matrix, runs.shape, universe)
    probs = np.asarray(fault_detection_probs, dtype=np.float64)
    if probs.shape != (len(universe),):
        raise ModelError(
            f"fault_detection_probs of shape {probs.shape} does not match "
            f"universe size {len(universe)}"
        )
    if not len(universe):
        return fault_matrix.copy()
    generator = as_generator(rng)
    present = np.flatnonzero(fault_matrix)
    chances = universe._sums_at(present, runs.shape[0], runs.flat, runs.counts)
    uniforms = generator.random(fault_matrix.shape).ravel()[present]
    # 0 ** 0 == 1: an untouched fault always survives, a q_f == 1 fault
    # is removed by its first chance
    survival = (1.0 - probs[present % len(universe)]) ** chances
    return _survivors(fault_matrix, present, uniforms < survival)


def apply_blind_testing_batch(
    fault_matrix: np.ndarray,
    suite_masks: np.ndarray,
    universe,
    blind_fault_ids,
) -> np.ndarray:
    """Blind-spot testing closure: perfect closure outside the blind spot.

    Models a matched blind oracle/fixing pair (the team that wrote the
    mistaken spec also judges and repairs by it): faults in
    ``blind_fault_ids`` are never detected as wrong and never removed, while
    every other fault behaves exactly as under perfect testing — a visible
    fault always reveals itself on its own region, so the closure is the
    perfect one restricted to visible columns, and needs only membership
    masks.
    """
    masks = np.asarray(suite_masks, dtype=bool)
    fault_matrix = _checked_faults(fault_matrix, masks.shape, universe)
    visible = ~universe.presence_mask(
        np.asarray(blind_fault_ids, dtype=np.int64)
    )
    return (fault_matrix & ~visible) | universe._cleared(fault_matrix & visible, masks)


def _identical_cause_rows(causes_a: np.ndarray, causes_b: np.ndarray) -> np.ndarray:
    """Row-wise equality of two cause-mask blocks as fault-*id* sets.

    Mirrors the scalar shared-fault model, which compares the two versions'
    ``faults_causing_failure`` id arrays: when the universes differ in size
    the narrower mask is padded with absent faults.  The dense reference
    kernel :func:`repro.mc.kernels.back_to_back_counter` uses it;
    :func:`back_to_back_batch` compares bitset words instead.
    """
    width = max(causes_a.shape[1], causes_b.shape[1])

    def _pad(block: np.ndarray) -> np.ndarray:
        if block.shape[1] == width:
            return block
        padded = np.zeros((block.shape[0], width), dtype=bool)
        padded[:, : block.shape[1]] = block
        return padded

    return (_pad(causes_a) == _pad(causes_b)).all(axis=1)


def back_to_back_batch(
    fault_matrix_a: np.ndarray,
    fault_matrix_b: np.ndarray,
    sequences: np.ndarray,
    universe_a,
    universe_b,
    comparator: BackToBackComparator,
    fixing: FixingPolicy | None = None,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """§4.2 back-to-back testing over a replication block of version pairs.

    ``sequences`` is the int ``(R, L)`` demand-sequence block (``-1``
    padded): row ``r`` is the shared suite both channels of pair ``r``
    execute in order.  Back-to-back detection depends on the co-evolving
    partner (a demand mismatches only while the *other* version still
    disagrees), so — unlike every §3/§4.1 closure — the demand axis is
    genuinely sequential; the kernel replays positions left to right and
    vectorizes each step across all pairs.  Fault rows are packed once into
    uint64 bitsets; each position gathers the demands' covers from
    :meth:`~repro.faults.FaultUniverse._cover_table` and updates ``(R, W)``
    words, ``W`` the wider universe's fault count in 64-bit words.
    Imperfect fixing draws ``(R, F_A)`` then ``(R, F_B)`` uniforms at every
    position that holds a demand.

    Returns the post-test ``(R, F_A)`` and ``(R, F_B)`` fault matrices.
    The inputs are not modified.
    """
    mode = comparator.output_model.mode
    if fixing is None or type(fixing) is PerfectFixing:
        fix_probability = 1.0
    elif type(fixing) is ImperfectFixing:
        fix_probability = float(fixing.fix_probability)
    else:
        raise ModelError(
            "back-to-back batch kernel cannot model custom fixing policy "
            f"{type(fixing).__name__}; use the scalar path"
        )
    faults_a = np.asarray(fault_matrix_a, dtype=bool)
    faults_b = np.asarray(fault_matrix_b, dtype=bool)
    seqs = np.asarray(sequences, dtype=np.int64)
    if seqs.ndim != 2 or seqs.shape[0] != faults_a.shape[0]:
        raise ModelError(
            f"sequence block {seqs.shape} does not match replication count "
            f"{faults_a.shape[0]}"
        )
    if faults_b.shape[0] != faults_a.shape[0]:
        raise ModelError(
            f"fault matrices {faults_a.shape} / {faults_b.shape} have "
            "mismatched replication counts"
        )
    if seqs.size:
        space_limit = min(universe_a.space.size, universe_b.space.size)
        if seqs.min() < -1 or seqs.max() >= space_limit:
            raise ModelError(
                "sequence block contains demands outside space of size "
                f"{space_limit} (or invalid padding < -1)"
            )
    generator = as_generator(rng) if fix_probability < 1.0 else None
    # fault rows as bitsets over one common width, so that "identical
    # causes" (fault-id set equality across universes) is word equality
    words = max(1, -(-max(faults_a.shape[1], faults_b.shape[1]) // 64))
    cover_a = universe_a._cover_table(words)
    cover_b = universe_b._cover_table(words)
    bits_a = _packed_rows(faults_a, words)
    bits_b = _packed_rows(faults_b, words)
    for position in range(seqs.shape[1]):
        demands = seqs[:, position]
        if demands.max(initial=-1) < 0:
            continue
        # -1 gathers the tables' zero last row: padding covers nothing
        causes_a = bits_a & cover_a[demands]
        causes_b = bits_b & cover_b[demands]
        fails_a = causes_a.any(axis=1)
        fails_b = causes_b.any(axis=1)
        if mode == OPTIMISTIC:
            flagged = fails_a | fails_b
        elif mode == PESSIMISTIC:
            flagged = fails_a ^ fails_b
        else:  # SHARED_FAULT
            identical = (causes_a == causes_b).all(axis=1)
            flagged = (fails_a | fails_b) & ~identical
        if generator is not None:
            causes_a &= _packed_rows(
                generator.random(faults_a.shape) < fix_probability, words
            )
            causes_b &= _packed_rows(
                generator.random(faults_b.shape) < fix_probability, words
            )
        # causes are a subset of the row, so xor clears the removed faults
        bits_a ^= causes_a * (fails_a & flagged)[:, None]
        bits_b ^= causes_b * (fails_b & flagged)[:, None]
    return (
        _unpacked_rows(bits_a, faults_a.shape[1]),
        _unpacked_rows(bits_b, faults_b.shape[1]),
    )


def _apply_plan_batch(
    plan: tuple,
    fault_matrix: np.ndarray,
    suite_block: np.ndarray,
    universe,
    rng: SeedLike = None,
) -> np.ndarray:
    """Dispatch one channel's testing closure according to its plan.

    ``suite_block`` is a mask block for the perfect/blind kinds and sorted
    demand runs for the bernoulli/coverage kinds (see
    :func:`_plan_needs_counts`).
    """
    kind, detection_p, fix_p, extra = plan
    if kind == _PERFECT:
        return apply_testing_batch(fault_matrix, suite_block, universe)
    if kind == _BLIND:
        return apply_blind_testing_batch(
            fault_matrix, suite_block, universe, extra
        )
    if kind == _COVERAGE:
        return apply_coverage_testing_batch(
            fault_matrix, suite_block, universe, extra, rng
        )
    return apply_imperfect_testing_batch(
        fault_matrix, suite_block, universe, detection_p, fix_p, rng
    )


def _plan_needs_counts(plan: tuple) -> bool:
    return plan[0] in (_BERNOULLI, _COVERAGE)


def _draw_plan_suites(
    plan: tuple, generator: SuiteGenerator, count: int, rng
) -> np.ndarray:
    """``count`` suites from ``generator`` in the representation ``plan`` tests.

    Sorted demand runs for the bernoulli/coverage kinds, membership masks
    for the perfect/blind kinds (see :func:`_apply_plan_batch`).
    """
    if _plan_needs_counts(plan):
        return _suite_runs(
            generator.sample_demand_sequences(count, rng), generator.space.size
        )
    return generator.sample_demand_masks(count, rng)


# ---------------------------------------------------------------------------
# draw-and-test blocks — one per estimand, shared by the fixed-n chunks
# below and the adaptive chunks of repro.adaptive.variance
# ---------------------------------------------------------------------------


def _tested_version_block(
    population: VersionPopulation,
    generator: SuiteGenerator,
    plan: tuple,
    count: int,
    root: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` versions and suites, test them: ``(faults, tested)``.

    Spawns children of ``root`` for the fault block and the suite block,
    plus a testing stream for the plans whose closure draws randomness.
    """
    needs_counts = _plan_needs_counts(plan)
    streams = spawn_many(root, 3 if needs_counts else 2)
    faults = population.sample_fault_matrix(count, streams[0])
    suites = _draw_plan_suites(plan, generator, count, streams[1])
    tested = _apply_plan_batch(
        plan,
        faults,
        suites,
        population.universe,
        streams[2] if needs_counts else None,
    )
    return faults, tested


def _tested_pair_block(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    plan: tuple,
    count: int,
    root: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` version pairs and coupled suites, test both channels.

    Returns ``(faults_a, faults_b, tested_a, tested_b)``.  Children of
    ``root``: faults A, faults B and the regime's suite pair, then one
    testing stream per channel for the plans whose closure draws
    randomness.  The perfect/blind layout is the original three-stream
    one, so perfect-path results are bit-identical to earlier releases.
    """
    needs_counts = _plan_needs_counts(plan)
    streams = spawn_many(root, 5 if needs_counts else 3)
    faults_a = population_a.sample_fault_matrix(count, streams[0])
    faults_b = population_b.sample_fault_matrix(count, streams[1])
    if needs_counts:
        first, second = regime._draw_suite_sequences(count, streams[2])
        suites_a = _suite_runs(first, population_a.universe.space.size)
        suites_b = (
            suites_a
            if second is first
            else _suite_runs(second, population_b.universe.space.size)
        )
        test_a, test_b = streams[3], streams[4]
    else:
        suites_a, suites_b = regime.draw_suite_masks(count, streams[2])
        test_a = test_b = None
    tested_a = _apply_plan_batch(
        plan, faults_a, suites_a, population_a.universe, test_a
    )
    tested_b = _apply_plan_batch(
        plan, faults_b, suites_b, population_b.universe, test_b
    )
    return faults_a, faults_b, tested_a, tested_b


def _joint_failures(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    block_a: np.ndarray,
    block_b: np.ndarray,
) -> np.ndarray:
    """``(R, D)`` mask of demands on which both channels' versions fail."""
    return population_a.universe.failure_matrix(
        block_a
    ) & population_b.universe.failure_matrix(block_b)


# ---------------------------------------------------------------------------
# chunk kernels — module level so process pools can pickle them
# ---------------------------------------------------------------------------


def _chunk_untested_joint(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    demand: int,
    task: Tuple[int, int],
) -> Tuple[int, int]:
    """One chunk of eq. (4) replications → ``(successes, count)``."""
    count, seed = task
    streams = spawn_many(as_generator(seed), 2)
    fails_a = population_a.sample_fault_matrix(count, streams[0])[
        :, population_a.universe.coverage[:, demand]
    ].any(axis=1)
    fails_b = population_b.sample_fault_matrix(count, streams[1])[
        :, population_b.universe.coverage[:, demand]
    ].any(axis=1)
    return int(np.count_nonzero(fails_a & fails_b)), count


def _chunk_tested_joint(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    demands: List[int],
    plan: tuple,
    task: Tuple[int, int],
) -> Tuple[Tuple[int, ...], int]:
    """One chunk of eqs. (16)–(21) → ``(successes per demand, count)``."""
    count, seed = task
    _faults_a, _faults_b, tested_a, tested_b = _tested_pair_block(
        regime, population_a, population_b, plan, count, as_generator(seed)
    )
    cover_a = population_a.universe.coverage[:, demands].T
    cover_b = population_b.universe.coverage[:, demands].T
    successes = tuple(
        int(np.count_nonzero(tested_a[:, a].any(axis=1) & tested_b[:, b].any(axis=1)))
        for a, b in zip(cover_a, cover_b)
    )
    return successes, count


def _chunk_marginal(
    regime: TestingRegime,
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    profile: UsageProfile,
    rao_blackwell: bool,
    plan: tuple,
    task: Tuple[int, int],
) -> Tuple[int, float, float]:
    """One chunk of eqs. (22)–(25) replications → ``(n, mean, m2)``."""
    count, seed = task
    root = as_generator(seed)
    _faults_a, _faults_b, tested_a, tested_b = _tested_pair_block(
        regime, population_a, population_b, plan, count, root
    )
    joint = _joint_failures(population_a, population_b, tested_a, tested_b)
    if rao_blackwell:
        values = joint @ profile.probabilities
    else:
        # spawn continues root's child index, so the raw demands draw
        # from child 3 (masks) or 5 (counts), as they always have
        demands = profile.sample(spawn(root), size=count)
        values = joint[np.arange(count), demands].astype(np.float64)
    return _reduce_values(values)


def _chunk_version_pfd(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    plan: tuple,
    task: Tuple[int, int],
) -> Tuple[int, float, float]:
    """One chunk of post-test version-pfd replications → ``(n, mean, m2)``."""
    count, seed = task
    _faults, tested = _tested_version_block(
        population, generator, plan, count, as_generator(seed)
    )
    values = population.universe.failure_matrix(tested) @ profile.probabilities
    return _reduce_values(values)


def _chunk_back_to_back_envelope(
    population_a: VersionPopulation,
    population_b: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    fixing: FixingPolicy | None,
    task: Tuple[int, int],
) -> Tuple[int, tuple]:
    """One chunk of paired §4.2 replications → ``(count, sums)``.

    ``sums`` holds the nine envelope accumulators in the field order of
    :class:`repro.core.bounds.BackToBackEnvelope`.  All modes reuse the same
    fault-matrix and suite draws, so the envelope comparisons stay paired
    exactly as in the scalar driver.
    """
    count, seed = task
    streams = spawn_many(as_generator(seed), 4)
    faults_a = population_a.sample_fault_matrix(count, streams[0])
    faults_b = population_b.sample_fault_matrix(count, streams[1])
    sequences = generator.sample_demand_sequences(count, streams[2])
    masks = _suite_runs(sequences, generator.space.size).masks()
    universe_a = population_a.universe
    universe_b = population_b.universe
    probabilities = profile.probabilities

    def system_sum(block_a: np.ndarray, block_b: np.ndarray) -> float:
        joint = _joint_failures(population_a, population_b, block_a, block_b)
        return float((joint @ probabilities).sum())

    def version_sum(block_a: np.ndarray, block_b: np.ndarray) -> float:
        pfd_a = universe_a.failure_matrix(block_a) @ probabilities
        pfd_b = universe_b.failure_matrix(block_b) @ probabilities
        return float(0.5 * (pfd_a.sum() + pfd_b.sum()))

    untested_system = system_sum(faults_a, faults_b)
    untested_version = version_sum(faults_a, faults_b)
    perfect_a = apply_testing_batch(faults_a, masks, universe_a)
    perfect_b = apply_testing_batch(faults_b, masks, universe_b)
    perfect_system = system_sum(perfect_a, perfect_b)

    mode_sums = {}
    for mode in (OPTIMISTIC, PESSIMISTIC, SHARED_FAULT):
        comparator = BackToBackComparator(FailureOutputModel(mode))
        after_a, after_b = back_to_back_batch(
            faults_a,
            faults_b,
            sequences,
            universe_a,
            universe_b,
            comparator,
            fixing,
            rng=spawn_many(streams[3], 1)[0],
        )
        mode_sums[mode] = (
            system_sum(after_a, after_b),
            version_sum(after_a, after_b),
        )
    sums = (
        untested_system,
        perfect_system,
        mode_sums[OPTIMISTIC][0],
        mode_sums[PESSIMISTIC][0],
        mode_sums[SHARED_FAULT][0],
        untested_version,
        mode_sums[OPTIMISTIC][1],
        mode_sums[PESSIMISTIC][1],
        mode_sums[SHARED_FAULT][1],
    )
    return count, sums


def _reduce_values(values: np.ndarray) -> Tuple[int, float, float]:
    """Reduce a chunk's observations to Welford ``(n, mean, m2)`` moments."""
    mean = float(values.mean()) if values.size else 0.0
    m2 = float(np.square(values - mean).sum()) if values.size else 0.0
    return int(values.size), mean, m2


# ---------------------------------------------------------------------------
# chunked execution layer
# ---------------------------------------------------------------------------


def _plan_chunks(
    n_replications: int, chunk_size: int | None, rng
) -> List[Tuple[int, int]]:
    """Split the replication budget into ``(count, seed)`` chunk tasks.

    Seeds come off the root stream in chunk order *before* any work runs,
    and the default chunk size never depends on ``n_jobs`` — together these
    make results bit-identical for any worker count.  Runs shorter than
    ``_DEFAULT_CHUNK`` therefore occupy a single chunk by default; pass an
    explicit ``chunk_size`` to shard them across workers.
    """
    if chunk_size is None:
        chunk_size = _DEFAULT_CHUNK
    if chunk_size < 1:
        raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")
    counts = [
        min(chunk_size, n_replications - start)
        for start in range(0, n_replications, chunk_size)
    ]
    seeds = rng.integers(0, 2**63 - 1, size=len(counts), dtype=np.int64)
    return [(count, int(seed)) for count, seed in zip(counts, seeds)]


def _run_budget(
    kernel: Callable[[Tuple[int, int]], object],
    n_replications: int,
    rng: SeedLike,
    chunk_size: int | None,
    n_jobs: int,
) -> List[object]:
    """Plan the budget's chunks off ``rng`` and run ``kernel`` on each."""
    tasks = _plan_chunks(n_replications, chunk_size, as_generator(rng))
    return run_tasks(kernel, tasks, n_jobs)


def run_tasks(
    kernel: Callable[[object], object],
    tasks: List[object],
    n_jobs: int,
    on_result: Callable[[object], None] | None = None,
) -> List[object]:
    """Run independent tasks serially or across a process pool.

    The shared process-fan-out layer: the batch engine shards replication
    chunks through it, and the sweep layer (:mod:`repro.sweeps`) shards
    whole sweep points.  ``kernel`` and each task must be picklable when
    ``n_jobs > 1``.

    The returned list is always in *task* order — chunk estimators merge
    results positionally, which keeps batch estimates bit-identical for
    any worker count.  ``on_result``, if given, is invoked in *completion*
    order, as soon as each result exists — sweep resume relies on this to
    persist a finished point even while an earlier, slower point is still
    running, so a kill never loses completed work to head-of-line
    blocking.  Callbacks must therefore identify work by the result's own
    content, not by arrival position.
    """
    if n_jobs < 1:
        raise ModelError(f"n_jobs must be >= 1, got {n_jobs}")
    # ambient observability: chunk counters into the process registry,
    # a "sampling" phase on the active profile timer (if any), and one
    # span per fan-out when a trace is live — all no-ops otherwise
    from ..obs import current_trace, span as _obs_span
    from ..obs.metrics import default_registry
    from ..obs.timing import current_timer

    registry = default_registry()
    registry.counter(
        "repro_mc_chunk_fanouts_total",
        "run_tasks invocations (one per chunked simulation).",
    ).inc()
    registry.counter(
        "repro_mc_chunks_total", "Simulation chunks executed."
    ).inc(len(tasks))
    timer = current_timer()
    if timer is not None:
        timer.add_chunks(len(tasks))
    traced = current_trace() is not None

    def _execute() -> List[object]:
        if n_jobs == 1 or len(tasks) == 1:
            results: List[object] = []
            for task in tasks:
                result = kernel(task)
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        slots: List[object] = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            futures = {
                pool.submit(kernel, task): index
                for index, task in enumerate(tasks)
            }
            for future in as_completed(futures):
                result = future.result()
                if on_result is not None:
                    on_result(result)
                slots[futures[future]] = result
        return slots

    if timer is None and not traced:
        return _execute()
    if timer is None:
        with _obs_span("mc.run_tasks", chunks=len(tasks), n_jobs=n_jobs):
            return _execute()
    if not traced:
        with timer.phase("sampling"):
            return _execute()
    with _obs_span("mc.run_tasks", chunks=len(tasks), n_jobs=n_jobs):
        with timer.phase("sampling"):
            return _execute()


def _accumulate(estimator, merge: str, results: List[tuple]):
    """Merge chunk results in chunk order through ``estimator.<merge>``."""
    from ..obs.timing import current_timer

    timer = current_timer()
    add = getattr(estimator, merge)
    start = time.perf_counter()
    for result in results:
        add(*result)
    if timer is not None:
        timer.add_phase("scoring", time.perf_counter() - start)
    return estimator


def _accumulate_proportion(results: List[Tuple[int, int]]) -> ProportionEstimator:
    return _accumulate(ProportionEstimator(), "add_many", results)


def _accumulate_mean(results: List[Tuple[int, float, float]]) -> MeanEstimator:
    return _accumulate(MeanEstimator(), "add_moments", results)


# ---------------------------------------------------------------------------
# public batched drop-in counterparts
# ---------------------------------------------------------------------------


def _simulate_untested_joint_on_demand_batch(
    population_a: VersionPopulation,
    demand: int,
    population_b: VersionPopulation | None = None,
    n_replications: int = _scalar._DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> ProportionEstimator:
    """Batched ``P(both untested versions fail on x)`` — eq. (4) check.

    Vectorized drop-in for
    :func:`repro.mc.simulate_untested_joint_on_demand`: version pairs are
    drawn as two fault-matrix blocks and scored on the fixed demand by one
    boolean gather each.  The analytic prediction is ``θ_A(x) θ_B(x)``
    (and ``E[Θ²] ≥ E[Θ]²``, the Eckhardt–Lee inequality of eqs. (6)–(7)).
    """
    _scalar._check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    kernel = partial(_chunk_untested_joint, population_a, population_b, demand)
    return _accumulate_proportion(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )


def _simulate_joint_on_demand_batch(
    regime: TestingRegime,
    population_a: VersionPopulation,
    demands: List[int],
    population_b: VersionPopulation | None = None,
    n_replications: int = _scalar._DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> Tuple[ProportionEstimator, ...]:
    """Batched ``P(both tested versions fail on x)`` — eqs. (16)–(21) check.

    Vectorized backend of :func:`repro.mc.simulate_joint_on_demand`.  Each
    chunk draws a fault-matrix block per channel, a coupled suite block
    from the regime (shared for :class:`~repro.core.SameSuite`, independent
    otherwise — precisely the coupling that separates eqs. (20)/(21) from
    (16)–(19)), applies the testing closure for the supplied oracle/fixing
    pair (§3 mask closure, §4.1 binomial-detection kernel, or blind-spot
    closure) and scores each of ``demands``.  Custom policies raise
    :class:`~repro.errors.ModelError`; use ``engine="scalar"`` for those.
    """
    plan = _require_plan(oracle, fixing)
    _scalar._check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    kernel = partial(
        _chunk_tested_joint, regime, population_a, population_b, demands, plan
    )
    results = _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    columns = [[(hits[j], n) for hits, n in results] for j in range(len(demands))]
    return tuple(_accumulate_proportion(column) for column in columns)


def _simulate_marginal_system_pfd_batch(
    regime: TestingRegime,
    population_a: VersionPopulation,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    n_replications: int = _scalar._DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    rao_blackwell: bool = True,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> MeanEstimator:
    """Batched marginal 1-out-of-2 system pfd — eqs. (22)–(25) check.

    Vectorized drop-in for :func:`repro.mc.simulate_marginal_system_pfd`.
    Per chunk, both channels' post-test failure matrices come from two
    matrix products; their conjunction is the joint failure mask, and with
    ``rao_blackwell=True`` the random demand is integrated out exactly by
    one matrix-vector product against ``Q`` (estimating
    ``E[Θ_T]² + Var(Θ_T) + E_Q[...]`` of eqs. (22)/(23), resp. the
    forced-diversity forms (24)/(25)).  Imperfect oracles/fixing run on the
    §4.1 binomial-detection kernel; custom policies raise
    :class:`~repro.errors.ModelError`.
    """
    plan = _require_plan(oracle, fixing)
    _scalar._check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    kernel = partial(
        _chunk_marginal,
        regime,
        population_a,
        population_b,
        profile,
        rao_blackwell,
        plan,
    )
    return _accumulate_mean(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )


def _simulate_version_pfd_batch(
    population: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    n_replications: int = _scalar._DEFAULT_REPLICATIONS,
    rng: SeedLike = None,
    oracle: Oracle | None = None,
    fixing: FixingPolicy | None = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> MeanEstimator:
    """Batched mean post-test pfd of one tested version — ``E_Q[ζ(X)]``.

    Vectorized drop-in for :func:`repro.mc.simulate_version_pfd`,
    estimating the usage-weighted tested difficulty ``ζ(x)`` of eq. (14):
    each chunk tests a fault-matrix block against a suite block and scores
    the survivors against ``Q`` in one matrix-vector product.  Imperfect
    oracles/fixing run on the §4.1 binomial-detection kernel; custom
    policies raise :class:`~repro.errors.ModelError`.
    """
    plan = _require_plan(oracle, fixing)
    _scalar._check_replications(n_replications)
    population.space.require_same(profile.space)
    kernel = partial(_chunk_version_pfd, population, generator, profile, plan)
    return _accumulate_mean(
        _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    )


def _back_to_back_envelope_batch(
    population_a: VersionPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    population_b: VersionPopulation | None = None,
    fixing: FixingPolicy | None = None,
    n_replications: int = 400,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
):
    """Batched §4.2 envelope — back-to-back testing under all output models.

    Vectorized drop-in for :func:`repro.core.bounds.back_to_back_envelope`:
    every chunk draws one fault-matrix block per channel and one shared
    demand-sequence block, then runs the three back-to-back comparators
    plus the perfect-oracle closure on identical inputs, so the envelope
    comparisons are paired exactly as in the scalar driver — in particular
    the optimistic model reproduces the perfect closure *identically* per
    replication, not just statistically.

    Returns a :class:`repro.core.bounds.BackToBackEnvelope`.
    """
    from ..core.bounds import BackToBackEnvelope

    _scalar._check_replications(n_replications)
    if not back_to_back_supported(fixing):
        raise ModelError(
            "back-to-back batch kernel cannot model custom fixing policy "
            f"{type(fixing).__name__}; use engine='scalar'"
        )
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    kernel = partial(
        _chunk_back_to_back_envelope,
        population_a,
        population_b,
        generator,
        profile,
        fixing,
    )
    results = _run_budget(kernel, n_replications, rng, chunk_size, n_jobs)
    total = sum(count for count, _sums in results)
    merged = [0.0] * 9
    for count, sums in results:
        for index, value in enumerate(sums):
            merged[index] += value
    return BackToBackEnvelope.from_sums(merged, total)
