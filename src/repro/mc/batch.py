"""Vectorized batch Monte-Carlo engine.

Every ``simulate_*`` driver in :mod:`repro.mc.experiments` runs the paper's
generative story here, as matrix kernels over a whole block of
replications at once:

* an ``(R, F)`` boolean **fault matrix** — row ``r`` marks the faults of
  version ``r``, drawn in one block from the population
  (:meth:`~repro.populations.VersionPopulation.sample_fault_matrix`);
* an ``(R, D)`` boolean **suite mask** block — row ``r`` is the demand
  membership of replication ``r``'s suite, drawn with the regime's coupling
  (:meth:`~repro.core.regimes.TestingRegime.draw_suite_masks`) — or, for
  the plans that test demand by demand, the same suites drawn as ``-1``
  padded demand sequences, sorted into ``(row, demand, count)`` **runs**
  for the §4.1 kernels, because each execution of a failing demand is a
  fresh detection opportunity;
* the **testing closure**, chosen by the oracle/fixing pair's testing plan
  (:func:`_testing_plan`): a region hit test for the perfect-oracle case
  (:func:`apply_testing_batch`), binomial detection counts from one
  uniform block plus per-fault Bernoulli survival draws for the §4.1
  imperfect-oracle/imperfect-fixing case
  (:func:`apply_imperfect_testing_batch`), the blind-spot and coverage
  closures for their matched pairs, and for every other pair the
  **per-row plan**, which runs the pair's own
  :func:`~repro.testing.apply_testing` on each row of the drawn blocks;
  §4.2 back-to-back testing has its own demand-ordered masked update loop
  (:func:`back_to_back_batch`) — the only genuinely sequential axis in the
  paper's testing processes, one loop for all its output models — and the
  same per-row plan for custom comparators and fixing policies;
* **scoring**: post-test failure masks
  (:meth:`~repro.faults.FaultUniverse.failure_matrix`) reduced against the
  usage profile a slab at a time (:func:`~repro.faults.universe.failure_masses`).

Closure and scoring run on :class:`~repro.faults.FaultUniverse`'s region
kernels, sparse or dense by one size rule, with bit-identical blocks.

Chunk results stream into the existing :class:`ProportionEstimator` /
:class:`MeanEstimator` via their ``add_many`` merges, so confidence-interval
semantics are unchanged.

Why imperfect testing vectorizes at all: although :func:`apply_testing`
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

from .._blas import one_blas_thread
from ..demand import UsageProfile
from ..errors import IncompatibleSpaceError, ModelError
from ..faults.universe import _packed_rows, _unpacked_rows, failure_masses
from ..populations import VersionPopulation
from ..rng import _inversion_binomial, as_generator, spawn, spawn_many
from ..testing import (
    BackToBackComparator,
    FixingPolicy,
    Oracle,
    SuiteGenerator,
    TestSuite,
    apply_testing,
    back_to_back_testing,
)
from ..testing.fixing import ImperfectFixing, PerfectFixing
from ..testing.generators import _suite_runs, _SuiteRuns
from ..testing.oracle import ImperfectOracle, PerfectOracle
from ..types import SeedLike
from ..versions import Version
from ..versions.outputs import (
    OPTIMISTIC,
    PESSIMISTIC,
    SHARED_FAULT,
    FailureOutputModel,
)
from ..core.regimes import TestingRegime
from .estimator import MeanEstimator, ProportionEstimator

__all__ = [
    "apply_testing_batch",
    "apply_imperfect_testing_batch",
    "apply_blind_testing_batch",
    "apply_coverage_testing_batch",
    "back_to_back_batch",
    "run_tasks",
]

_DEFAULT_CHUNK = 8192

# testing-plan kinds resolved by _testing_plan
_PERFECT = "perfect"
_BERNOULLI = "bernoulli"
_BLIND = "blind"
_COVERAGE = "coverage"
_ROWS = "rows"
#: every kind, in docs/kernels.md's table order
_PLAN_KINDS = (_PERFECT, _BERNOULLI, _BLIND, _COVERAGE, _ROWS)


def _matched_classes(attribute: str) -> tuple:
    """The exact (oracle, fixing) classes of the matched pair whose members
    expose ``attribute``.  Imported only once an attribute shows the pair's
    module is in use."""
    if attribute == "blind_fault_ids":
        from ..extensions.mistakes import BlindSpotFixing, BlindSpotOracle

        return BlindSpotOracle, BlindSpotFixing
    from ..coverage.detection import CoverageFixing, CoverageOracle

    return CoverageOracle, CoverageFixing


def _testing_plan(oracle: Oracle | None, fixing: FixingPolicy | None) -> tuple:
    """Resolve an (oracle, fixing) pair to its batch execution plan.

    Returns ``(kind, detection_p, fix_p, extra)`` where ``kind`` is one
    of ``"perfect"`` (set-wise mask closure), ``"bernoulli"`` (the §4.1
    binomial-detection kernel), ``"blind"`` (perfect closure restricted to
    faults outside a shared blind spot), ``"coverage"`` (per-fault
    detection probabilities derived from a coverage matrix — see
    :mod:`repro.coverage.detection`) or ``"rows"`` (the per-row plan: the
    pair's own :func:`~repro.testing.apply_testing` on every row).
    ``extra`` carries the blind fault ids, the per-fault probability tuple
    or, for the per-row plan, the ``(oracle, fixing)`` pair.

    Kernels serve exact types only: a *subclass* may override the
    per-demand behaviour arbitrarily, so it runs on the per-row plan.  A
    blind-spot or coverage pair is vectorizable only *together*, with
    equal fault data; a half-supplied or mismatched pair runs per row too.
    """
    rows = (_ROWS, 1.0, 1.0, (oracle, fixing))
    for attribute, kind, cast in (
        ("blind_fault_ids", _BLIND, int),
        ("fault_detection_probs", _COVERAGE, float),
    ):
        if not (hasattr(oracle, attribute) or hasattr(fixing, attribute)):
            continue
        if (type(oracle), type(fixing)) != _matched_classes(attribute):
            return rows
        extra = tuple(cast(value) for value in getattr(oracle, attribute))
        if extra != tuple(cast(value) for value in getattr(fixing, attribute)):
            return rows
        return (kind, 1.0, 1.0, extra)
    if oracle is None or type(oracle) is PerfectOracle:
        detection_p = 1.0
    elif type(oracle) is ImperfectOracle:
        detection_p = float(oracle.detection_probability)
    else:
        return rows
    if fixing is None or type(fixing) is PerfectFixing:
        fix_p = 1.0
    elif type(fixing) is ImperfectFixing:
        fix_p = float(fixing.fix_probability)
    else:
        return rows
    if detection_p == 1.0 and fix_p == 1.0:
        return (_PERFECT, 1.0, 1.0, None)
    return (_BERNOULLI, detection_p, fix_p, None)


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
    occurrences ``K[r, x] ~ Binomial(counts[r, x], detection_p)``, bit for
    bit numpy's draw, from one uniform block
    (:func:`~repro.rng._inversion_binomial`); a fault
    then survives independently (given ``K``) with probability
    ``(1 - fix_p) ** (K @ cover.T)`` — each detecting occurrence of a
    covering demand is one independent chance to remove it, and the shared
    ``K`` reproduces the cross-fault correlation of the demand-ordered
    process's shared per-demand oracle decisions.  This equals
    :func:`~repro.testing.apply_testing` in distribution (see the module
    docstring); it is not bit-identical to it because the demand-ordered
    process consumes randomness conditionally.
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
        detecting = _inversion_binomial(generator, detecting, detection_probability)
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
    :class:`~repro.coverage.CoverageOracle` /
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
    position that holds a demand.  Comparing the packed words compares the
    two channels' causes as fault-*id* sets, the test the dense reference
    :func:`repro.mc.kernels.back_to_back_counter` makes on padded masks.

    The kernel serves exact types only, as :func:`_testing_plan` does: a
    :class:`~repro.testing.BackToBackComparator` with a
    :class:`~repro.versions.FailureOutputModel`, and no, perfect or
    imperfect fixing.  A subclass may override the per-demand behaviour
    arbitrarily, so every other pair runs on the per-row plan:
    :func:`~repro.testing.back_to_back_testing` on each row's version pair
    and its ``-1``-stripped sequence row, with child ``r`` of ``rng``.

    Returns the post-test ``(R, F_A)`` and ``(R, F_B)`` fault matrices.
    The inputs are not modified.

    ``comparator`` may also be a list or tuple of comparators: the result
    is then the list of what a call per comparator ``i``, with child ``i``
    of ``rng``, returns, while one position loop advances all their models.
    """
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
    several = isinstance(comparator, (list, tuple))
    comparators = list(comparator) if several else [comparator]
    streams = spawn_many(as_generator(rng), len(comparators)) if several else [rng]
    if fixing is None or type(fixing) is PerfectFixing:
        fix_probability = 1.0
    elif type(fixing) is ImperfectFixing:
        fix_probability = float(fixing.fix_probability)
    else:
        fix_probability = None
    exact = [
        index
        for index, each in enumerate(comparators)
        if fix_probability is not None
        and type(each) is BackToBackComparator
        and type(each.output_model) is FailureOutputModel
    ]
    # the exact comparators' models advance as slices of (M, R, W) blocks
    modes = [comparators[index].output_model.mode for index in exact]
    generators = []
    if exact and fix_probability < 1.0:
        generators = [as_generator(streams[index]) for index in exact]
    # fault rows as bitsets over one common width, so that "identical
    # causes" (fault-id set equality across universes) is word equality
    words = max(1, -(-max(faults_a.shape[1], faults_b.shape[1]) // 64))
    cover_a = universe_a._cover_table(words)
    cover_b = universe_b._cover_table(words)
    bits_a = np.repeat(_packed_rows(faults_a, words)[None], len(modes), axis=0)
    bits_b = np.repeat(_packed_rows(faults_b, words)[None], len(modes), axis=0)

    def nonzero(bits):
        # a single-word row is non-zero iff its word is
        return bits[..., 0] != 0 if words == 1 else bits.any(axis=-1)

    for position in range(seqs.shape[1]):
        demands = seqs[:, position]
        if demands.max(initial=-1) < 0:
            continue
        # -1 gathers the tables' zero last row: padding covers nothing
        causes_a = bits_a & cover_a[demands]
        causes_b = bits_b & cover_b[demands]
        fails_a = nonzero(causes_a)
        fails_b = nonzero(causes_b)
        flagged = fails_a | fails_b
        for model, mode in enumerate(modes):
            if mode == PESSIMISTIC:
                flagged[model] = fails_a[model] ^ fails_b[model]
            elif mode == SHARED_FAULT:
                # a failure whose causes differ; differing causes are never
                # both empty
                flagged[model] = nonzero(causes_a[model] ^ causes_b[model])
        for model, generator in enumerate(generators):
            keep_a = generator.random(faults_a.shape) < fix_probability
            causes_a[model] &= _packed_rows(keep_a, words)
            causes_b[model] &= _packed_rows(
                generator.random(faults_b.shape) < fix_probability, words
            )
        # causes are a subset of the row, so xor clears the removed faults
        bits_a ^= causes_a * (fails_a & flagged)[..., None]
        bits_b ^= causes_b * (fails_b & flagged)[..., None]
    tested = [
        (_unpacked_rows(a, faults_a.shape[1]), _unpacked_rows(b, faults_b.shape[1]))
        for a, b in zip(bits_a, bits_b)
    ]

    def test_pair(each, row, stream, version_a, version_b):
        suite = _row_suite(universe_a.space, seqs[row])
        outcome_a, outcome_b = back_to_back_testing(
            version_a, version_b, suite, each, fixing, rng=stream
        )
        return outcome_a.after, outcome_b.after

    blocks = (faults_a, faults_b), (universe_a, universe_b)
    for index, (each, stream) in enumerate(zip(comparators, streams)):
        if index not in exact:  # ascending, so the ones before are in place
            tested.insert(index, _per_row(partial(test_pair, each), *blocks, stream))
    return tested if several else tested[0]


def _per_row(row_plan, blocks, universes, rng: SeedLike = None) -> tuple:
    """The per-row plan: a scalar process on every row of fault blocks.

    Row ``r`` of each ``(R, F)`` block in ``blocks`` becomes a
    :class:`~repro.versions.Version` of its universe in ``universes``, and
    ``row_plan(r, stream, *versions)`` returns the row's evolved versions,
    ``stream`` being child ``r`` of ``rng``.  Returns the evolved blocks.
    This is how the blocks run custom oracles, fixing policies,
    comparators and campaign activities.
    """
    evolved = tuple(np.zeros(np.shape(block), dtype=bool) for block in blocks)
    streams = spawn_many(as_generator(rng), len(blocks[0]))
    for row, stream in enumerate(streams):
        versions = (
            Version(universe, np.flatnonzero(block[row]))
            for universe, block in zip(universes, blocks)
        )
        for out, after in zip(evolved, row_plan(row, stream, *versions)):
            out[row, after.fault_ids] = True
    return evolved


def _row_suite(space, demands: np.ndarray) -> TestSuite:
    """The suite of one ``-1`` padded demand-sequence row."""
    return TestSuite(space, demands[demands >= 0])


def _test_rows(
    fault_matrix: np.ndarray,
    sequences: np.ndarray,
    universe,
    oracle: Oracle | None,
    fixing: FixingPolicy | None,
    rng: SeedLike = None,
) -> np.ndarray:
    """:func:`~repro.testing.apply_testing` on every row (:func:`_per_row`).

    Row ``r`` is tested on its demand-sequence row.  This is the reference
    form of every closure above, and the one plan that runs custom oracle
    and fixing policies.
    """
    sequences = np.asarray(sequences, dtype=np.int64)
    fault_matrix = _checked_faults(
        fault_matrix, (sequences.shape[0], universe.space.size), universe
    )

    def test_row(row, stream, version):
        suite = _row_suite(universe.space, sequences[row])
        return (apply_testing(version, suite, oracle, fixing, rng=stream).after,)

    (tested,) = _per_row(test_row, (fault_matrix,), (universe,), rng)
    return tested


def _apply_plan_batch(
    plan: tuple,
    fault_matrix: np.ndarray,
    suite_block: np.ndarray,
    universe,
    rng: SeedLike = None,
) -> np.ndarray:
    """Dispatch one channel's testing closure according to its plan.

    ``suite_block`` is a mask block for the perfect/blind kinds, sorted
    demand runs for the bernoulli/coverage kinds and the ``-1`` padded
    sequence block for the per-row plan (see :func:`_plan_suites`).
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
    if kind == _ROWS:
        return _test_rows(fault_matrix, suite_block, universe, *extra, rng)
    return apply_imperfect_testing_batch(
        fault_matrix, suite_block, universe, detection_p, fix_p, rng
    )


def _plan_sequenced(plan: tuple) -> bool:
    """True for the plans that test demand sequences and draw a testing
    stream; the perfect and blind closures need only membership masks."""
    return plan[0] in (_BERNOULLI, _COVERAGE, _ROWS)


def _plan_suites(plan: tuple, sequences: np.ndarray, n_demands: int):
    """A sequenced plan's suite block from ``-1`` padded sequences: the
    sequences themselves for the per-row plan, sorted runs otherwise."""
    if plan[0] == _ROWS:
        return sequences
    return _suite_runs(sequences, n_demands)


def _draw_plan_suites(
    plan: tuple, generator: SuiteGenerator, count: int, rng
) -> np.ndarray:
    """``count`` suites from ``generator`` in the representation ``plan`` tests.

    Both representations consume ``rng`` alike, so the perfect and the
    sequenced plans draw the same suites from the same stream.
    """
    if _plan_sequenced(plan):
        return _plan_suites(
            plan,
            generator.sample_demand_sequences(count, rng),
            generator.space.size,
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
    plus a testing stream for the sequenced plans.
    """
    sequenced = _plan_sequenced(plan)
    streams = spawn_many(root, 3 if sequenced else 2)
    faults = population.sample_fault_matrix(count, streams[0])
    suites = _draw_plan_suites(plan, generator, count, streams[1])
    tested = _apply_plan_batch(
        plan,
        faults,
        suites,
        population.universe,
        streams[2] if sequenced else None,
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
    testing stream per channel for the sequenced plans.  The perfect/blind
    layout is the original three-stream one, so perfect-path results are
    bit-identical to earlier releases.
    """
    sequenced = _plan_sequenced(plan)
    streams = spawn_many(root, 5 if sequenced else 3)
    faults_a = population_a.sample_fault_matrix(count, streams[0])
    faults_b = population_b.sample_fault_matrix(count, streams[1])
    if sequenced:
        first, second = regime._draw_suite_sequences(count, streams[2])
        suites_a = _plan_suites(plan, first, population_a.universe.space.size)
        suites_b = (
            suites_a
            if second is first
            else _plan_suites(plan, second, population_b.universe.space.size)
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


def _joint_masses(profile, population_a, population_b, block_a, block_b) -> np.ndarray:
    """Each row's joint failure mass under ``profile`` (:func:`failure_masses`)."""
    blocks = (population_a.universe, block_a), (population_b.universe, block_b)
    return failure_masses(profile.probabilities, *blocks)


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
    if rao_blackwell:
        values = _joint_masses(profile, population_a, population_b, tested_a, tested_b)
    else:
        # spawn continues root's child index, so the raw demands draw
        # from child 3 (masks) or 5 (counts), as they always have
        demands = profile.sample(spawn(root), size=count)
        fails_a = (tested_a & population_a.universe.coverage.T[demands]).any(axis=1)
        fails_b = (tested_b & population_b.universe.coverage.T[demands]).any(axis=1)
        values = (fails_a & fails_b).astype(np.float64)
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
    values = failure_masses(profile.probabilities, (population.universe, tested))
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
    fault-matrix and suite draws, so the envelope comparisons are paired;
    each mode's fixing draws from its own child of the fourth stream, on
    the kernel or, for a custom fixing policy, on the per-row plan of
    :func:`back_to_back_batch`.
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

    def sums(block_a: np.ndarray, block_b: np.ndarray) -> tuple:
        joint, pfd_a, pfd_b = failure_masses(
            probabilities, (universe_a, block_a), (universe_b, block_b), marginals=True
        )
        return float(joint.sum()), float(0.5 * (pfd_a.sum() + pfd_b.sum()))

    untested_system, untested_version = sums(faults_a, faults_b)
    perfect_a = apply_testing_batch(faults_a, masks, universe_a)
    perfect_b = apply_testing_batch(faults_b, masks, universe_b)
    perfect_system = float(
        _joint_masses(profile, population_a, population_b, perfect_a, perfect_b).sum()
    )

    comparators = [
        BackToBackComparator(FailureOutputModel(mode))
        for mode in (OPTIMISTIC, PESSIMISTIC, SHARED_FAULT)
    ]
    tested = back_to_back_batch(
        faults_a,
        faults_b,
        sequences,
        universe_a,
        universe_b,
        comparators,
        fixing,
        rng=streams[3],
    )
    systems, versions = zip(*(sums(after_a, after_b) for after_a, after_b in tested))
    sums = (untested_system, perfect_system, *systems, untested_version, *versions)
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
        # the count is process-wide, and forked pool workers inherit it
        with one_blas_thread():
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
