"""Compiled kernel backend — numba ``@njit`` twins of the hottest kernels.

The batch engine (:mod:`repro.mc.batch`) already vectorizes the paper's
generative story as numpy matrix kernels.  This module is the next rung:
native-code implementations of the genuinely hot inner loops — fault-matrix
scoring, the §4.1 binomial-detection/Bernoulli-survival closure, and the
§4.2 back-to-back block kernel — selected through ``engine="compiled"`` on
every ``simulate_*`` entry point.

Two properties define the backend:

* **Counter-based randomness.**  Every draw is a pure function of
  ``(root_key, stream, lane)`` through the Philox4x32-10 primitives in
  :mod:`repro.rng` (:func:`~repro.rng.philox_uniform` /
  :func:`~repro.rng.counter_uniforms`), where ``stream`` is the *global*
  replication index and ``lane`` enumerates the draw slots of one
  replication.  Because nothing is stateful, results are **bit-identical
  for every ``chunk_size`` and ``n_jobs``** — the property the batch
  engine's serially-seeded chunks cannot offer across chunk sizes.
* **A numpy fallback that defines the semantics.**  Each numba kernel has
  a vectorized numpy twin consuming *the same* ``(key, stream, lane)``
  uniforms, so every Bernoulli/selection decision matches bit-for-bit
  between the two implementations; real-valued scores agree to float
  summation order.  The twins run everywhere numba is absent — CI legs
  without numba exercise exactly the semantics the compiled leg
  accelerates.

When numba is not installed, an explicit ``engine="compiled"`` raises a
did-you-mean :class:`~repro.errors.ModelError` (install the ``[compiled]``
extra), while ``engine="auto"`` never selects this backend at all — it
keeps resolving to the batch engine so default results stay reproducible
across machines with and without numba.  Setting the environment variable
``REPRO_COMPILED_FALLBACK=1`` lets ``engine="compiled"`` run on the numpy
twins instead of raising — the agreement suite uses it to exercise the
full compiled path on numba-less hosts.

Supported models: :class:`~repro.populations.BernoulliFaultPopulation`
version draws; :class:`~repro.testing.OperationalSuiteGenerator`,
:class:`~repro.testing.WeightedDebugGenerator`,
:class:`~repro.testing.ExhaustiveSuiteGenerator` and
:class:`~repro.testing.EnumerableSuiteGenerator` suite measures; the three
concrete regimes; and the same oracle/fixing plans as the batch engine
(perfect, §4.1 imperfect, matched blind-spot pairs).  Anything else raises
:class:`~repro.errors.ModelError` naming the unsupported piece — use
``engine="auto"`` or ``"batch"`` for those.
"""

from __future__ import annotations

import os
from functools import partial
from typing import List, Tuple

import numpy as np

from ..core.regimes import ForcedTestingDiversity, IndependentSuites, SameSuite
from ..errors import ModelError
from ..populations.bernoulli import BernoulliFaultPopulation
from ..rng import counter_key, counter_uniforms, inverse_cdf_indices, philox_uniform
from ..testing.fixing import PerfectFixing
from ..testing.generators import (
    EnumerableSuiteGenerator,
    ExhaustiveSuiteGenerator,
    OperationalSuiteGenerator,
    WeightedDebugGenerator,
    demand_sequences_to_counts,
)
from ..types import SeedLike
from .batch import (
    _BERNOULLI,
    _BLIND,
    _COVERAGE,
    _DEFAULT_CHUNK,
    _identical_cause_rows,
    _require_plan,
    back_to_back_supported,
    run_tasks,
)
from .estimator import MeanEstimator, ProportionEstimator
from .experiments import _check_replications

__all__ = [
    "HAVE_NUMBA",
    "back_to_back_counter",
    "back_to_back_envelope_compiled",
    "compiled_available",
    "compiled_supported",
    "imperfect_closure",
    "joint_demand_failures",
    "joint_pfd_values",
    "perfect_closure",
    "pfd_values",
    "require_compiled",
    "simulate_joint_on_demand_compiled",
    "simulate_marginal_system_pfd_compiled",
    "simulate_untested_joint_on_demand_compiled",
    "simulate_version_pfd_compiled",
]

try:  # pragma: no cover - exercised on the numba CI leg
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the usual state of pure-numpy hosts
    numba = None
    HAVE_NUMBA = False

#: escape hatch: run engine="compiled" on the numpy twins without numba
_FALLBACK_ENV = "REPRO_COMPILED_FALLBACK"

# back-to-back output-model modes as kernel-friendly integers
_MODE_OPTIMISTIC = 0
_MODE_PESSIMISTIC = 1
_MODE_SHARED = 2


def compiled_available() -> bool:
    """True iff ``engine="compiled"`` may run on this host."""
    return HAVE_NUMBA or bool(os.environ.get(_FALLBACK_ENV))


def require_compiled() -> None:
    """Raise a did-you-mean :class:`ModelError` when numba is missing."""
    if compiled_available():
        return
    raise ModelError(
        "engine='compiled' needs numba, which is not installed.  Did you "
        "mean engine='auto' or engine='batch' (the pure-numpy engines)?  "
        "To enable the compiled backend, install the optional extra: "
        'pip install "repro-popov-littlewood-dsn2004[compiled]" — or set '
        f"{_FALLBACK_ENV}=1 to run its numpy reference semantics"
    )


# ---------------------------------------------------------------------------
# numba kernels — compiled lazily on first call when numba is importable
# ---------------------------------------------------------------------------

if HAVE_NUMBA:  # pragma: no cover - exercised on the numba CI leg
    _philox_nb = numba.njit(cache=True)(philox_uniform)

    @numba.njit(cache=True)
    def _nb_joint_demand_failures(faults_a, faults_b, ids_a, ids_b, out):
        for r in range(faults_a.shape[0]):
            hit = False
            for i in range(ids_a.shape[0]):
                if faults_a[r, ids_a[i]]:
                    hit = True
                    break
            if not hit:
                out[r] = False
                continue
            hit = False
            for i in range(ids_b.shape[0]):
                if faults_b[r, ids_b[i]]:
                    hit = True
                    break
            out[r] = hit

    @numba.njit(cache=True)
    def _nb_pfd_values(faults, coverage, q, out):
        n_faults = faults.shape[1]
        n_demands = coverage.shape[1]
        for r in range(faults.shape[0]):
            total = 0.0
            for x in range(n_demands):
                for f in range(n_faults):
                    if faults[r, f] and coverage[f, x]:
                        total += q[x]
                        break
            out[r] = total

    @numba.njit(cache=True)
    def _nb_joint_pfd_values(faults_a, faults_b, cov_a, cov_b, q, out):
        fa = faults_a.shape[1]
        fb = faults_b.shape[1]
        n_demands = cov_a.shape[1]
        for r in range(faults_a.shape[0]):
            total = 0.0
            for x in range(n_demands):
                hit = False
                for f in range(fa):
                    if faults_a[r, f] and cov_a[f, x]:
                        hit = True
                        break
                if not hit:
                    continue
                for f in range(fb):
                    if faults_b[r, f] and cov_b[f, x]:
                        total += q[x]
                        break
            out[r] = total

    @numba.njit(cache=True)
    def _nb_perfect_closure(faults, masks, coverage, visible, out):
        n_faults = faults.shape[1]
        n_demands = coverage.shape[1]
        for r in range(faults.shape[0]):
            for f in range(n_faults):
                keep = faults[r, f]
                if keep and visible[f]:
                    for x in range(n_demands):
                        if masks[r, x] and coverage[f, x]:
                            keep = False
                            break
                out[r, f] = keep

    @numba.njit(cache=True)
    def _nb_imperfect_closure(
        faults, seqs, coverage, detect_u, surv_u, detection_p, fix_p, out
    ):
        n_faults = faults.shape[1]
        length = seqs.shape[1]
        for r in range(faults.shape[0]):
            for f in range(n_faults):
                if not faults[r, f]:
                    out[r, f] = False
                    continue
                chances = 0.0
                for l in range(length):
                    d = seqs[r, l]
                    if d >= 0 and detect_u[r, l] < detection_p and coverage[f, d]:
                        chances += 1.0
                # 0**0 == 1: untouched faults always survive
                out[r, f] = surv_u[r, f] < (1.0 - fix_p) ** chances

    @numba.njit(cache=True)
    def _nb_back_to_back(
        faults_a, faults_b, seqs, cov_a, cov_b, mode, fix_p, key, streams,
        lane_base, stride,
    ):
        n_a = faults_a.shape[1]
        n_b = faults_b.shape[1]
        length = seqs.shape[1]
        for r in range(faults_a.shape[0]):
            s = streams[r]
            for l in range(length):
                d = seqs[r, l]
                if d < 0:
                    continue
                fails_a = False
                for f in range(n_a):
                    if faults_a[r, f] and cov_a[f, d]:
                        fails_a = True
                        break
                fails_b = False
                for f in range(n_b):
                    if faults_b[r, f] and cov_b[f, d]:
                        fails_b = True
                        break
                if not (fails_a or fails_b):
                    continue
                if mode == 0:  # optimistic: any failure is flagged
                    flagged = True
                elif mode == 1:  # pessimistic: only disagreements
                    flagged = fails_a != fails_b
                else:  # shared-fault: disagreements + non-identical causes
                    if fails_a and fails_b:
                        identical = True
                        width = n_a if n_a > n_b else n_b
                        for f in range(width):
                            ca = f < n_a and faults_a[r, f] and cov_a[f, d]
                            cb = f < n_b and faults_b[r, f] and cov_b[f, d]
                            if ca != cb:
                                identical = False
                                break
                        flagged = not identical
                    else:
                        flagged = True
                if not flagged:
                    continue
                base = lane_base + l * stride
                if fails_a:
                    for f in range(n_a):
                        if faults_a[r, f] and cov_a[f, d]:
                            if fix_p >= 1.0 or _philox_nb(
                                key, s, np.uint64(base + f)
                            ) < fix_p:
                                faults_a[r, f] = False
                if fails_b:
                    for f in range(n_b):
                        if faults_b[r, f] and cov_b[f, d]:
                            if fix_p >= 1.0 or _philox_nb(
                                key, s, np.uint64(base + n_a + f)
                            ) < fix_p:
                                faults_b[r, f] = False


# ---------------------------------------------------------------------------
# numpy twins — the semantic reference, and the fallback implementation
# ---------------------------------------------------------------------------


def _np_joint_demand_failures(faults_a, faults_b, ids_a, ids_b):
    return faults_a[:, ids_a].any(axis=1) & faults_b[:, ids_b].any(axis=1)


def _np_failure_matrix(faults, coverage):
    return (
        faults.astype(np.float64) @ coverage.astype(np.float64)
    ) > 0.5


def _np_mass(failures, q):
    # not ``failures @ q``: BLAS picks shape-dependent accumulation orders,
    # which would break bit-invariance across chunk sizes.  A per-row
    # pairwise reduction depends only on the row itself.
    return (failures * q[None, :]).sum(axis=1)


def _np_pfd_values(faults, coverage, q):
    return _np_mass(_np_failure_matrix(faults, coverage), q)


def _np_joint_pfd_values(faults_a, faults_b, cov_a, cov_b, q):
    joint = _np_failure_matrix(faults_a, cov_a) & _np_failure_matrix(
        faults_b, cov_b
    )
    return _np_mass(joint, q)


def _np_perfect_closure(faults, masks, coverage, visible):
    triggered = (
        masks.astype(np.float64) @ coverage.T.astype(np.float64)
    ) > 0.5
    return faults & ~(triggered & visible[None, :])


def _np_imperfect_closure(
    faults, seqs, coverage, detect_u, surv_u, detection_p, fix_p
):
    n_replications = faults.shape[0]
    n_demands = coverage.shape[1]
    detecting = (seqs >= 0) & (detect_u < detection_p)
    rows, cols = np.nonzero(detecting)
    demands = seqs[rows, cols]
    counts = np.bincount(
        rows * n_demands + demands, minlength=n_replications * n_demands
    ).reshape(n_replications, n_demands)
    chances = counts.astype(np.float64) @ coverage.T.astype(np.float64)
    survival = (1.0 - fix_p) ** chances
    return faults & (surv_u < survival)


def _np_back_to_back(
    faults_a, faults_b, seqs, cov_a, cov_b, mode, fix_p, key, streams,
    lane_base, stride,
):
    n_a = faults_a.shape[1]
    n_b = faults_b.shape[1]
    for l in range(seqs.shape[1]):
        demands = seqs[:, l]
        valid = demands >= 0
        if not valid.any():
            continue
        clamped = np.where(valid, demands, 0)
        causes_a = faults_a & cov_a[:, clamped].T
        causes_b = faults_b & cov_b[:, clamped].T
        fails_a = causes_a.any(axis=1) & valid
        fails_b = causes_b.any(axis=1) & valid
        if mode == _MODE_OPTIMISTIC:
            flagged = fails_a | fails_b
        elif mode == _MODE_PESSIMISTIC:
            flagged = fails_a ^ fails_b
        else:
            coincident = fails_a & fails_b
            identical = coincident & _identical_cause_rows(causes_a, causes_b)
            flagged = (fails_a ^ fails_b) | (coincident & ~identical)
        removal_a = causes_a & (fails_a & flagged)[:, None]
        removal_b = causes_b & (fails_b & flagged)[:, None]
        if fix_p < 1.0:
            base = lane_base + l * stride
            lanes_a = base + np.arange(n_a, dtype=np.int64)
            lanes_b = base + n_a + np.arange(n_b, dtype=np.int64)
            removal_a &= (
                counter_uniforms(key, streams[:, None], lanes_a[None, :])
                < fix_p
            )
            removal_b &= (
                counter_uniforms(key, streams[:, None], lanes_b[None, :])
                < fix_p
            )
        faults_a &= ~removal_a
        faults_b &= ~removal_b


# ---------------------------------------------------------------------------
# dispatching kernel wrappers (numba when available, numpy twin otherwise)
# ---------------------------------------------------------------------------


def joint_demand_failures(
    faults_a: np.ndarray,
    faults_b: np.ndarray,
    ids_a: np.ndarray,
    ids_b: np.ndarray,
) -> np.ndarray:
    """Per-replication "both versions fail on the fixed demand" flags.

    ``ids_a`` / ``ids_b`` are the int64 fault ids whose regions cover the
    demand in each channel's universe.
    """
    if HAVE_NUMBA:
        out = np.empty(faults_a.shape[0], dtype=np.bool_)
        _nb_joint_demand_failures(faults_a, faults_b, ids_a, ids_b, out)
        return out
    return _np_joint_demand_failures(faults_a, faults_b, ids_a, ids_b)


def pfd_values(faults: np.ndarray, coverage: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-replication pfd: usage mass of each row's failure region."""
    if HAVE_NUMBA:
        out = np.empty(faults.shape[0], dtype=np.float64)
        _nb_pfd_values(faults, coverage, q, out)
        return out
    return _np_pfd_values(faults, coverage, q)


def joint_pfd_values(
    faults_a: np.ndarray,
    faults_b: np.ndarray,
    cov_a: np.ndarray,
    cov_b: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Per-replication 1-out-of-2 system pfd: mass of the joint failure set."""
    if HAVE_NUMBA:
        out = np.empty(faults_a.shape[0], dtype=np.float64)
        _nb_joint_pfd_values(faults_a, faults_b, cov_a, cov_b, q, out)
        return out
    return _np_joint_pfd_values(faults_a, faults_b, cov_a, cov_b, q)


def perfect_closure(
    faults: np.ndarray,
    masks: np.ndarray,
    coverage: np.ndarray,
    visible: np.ndarray,
) -> np.ndarray:
    """Perfect-oracle closure restricted to ``visible`` faults.

    ``visible`` all-True is the paper's §3 process; a blind-spot pair
    clears it on the shared blind fault ids.
    """
    if HAVE_NUMBA:
        out = np.empty_like(faults)
        _nb_perfect_closure(faults, masks, coverage, visible, out)
        return out
    return _np_perfect_closure(faults, masks, coverage, visible)


def imperfect_closure(
    faults: np.ndarray,
    seqs: np.ndarray,
    coverage: np.ndarray,
    detect_u: np.ndarray,
    surv_u: np.ndarray,
    detection_p: float,
    fix_p: float,
) -> np.ndarray:
    """§4.1 closure from explicit per-occurrence and per-fault uniforms.

    Each valid suite position detects iff its uniform is below
    ``detection_p`` (uniforms live in ``[0, 1)``, so ``detection_p = 1``
    detects always); a fault with ``k`` detecting covering occurrences then
    survives iff its survival uniform is below ``(1 - fix_p) ** k`` — one
    formula covering the perfect limits, since ``0**0 == 1``.  Both
    implementations consume the *same* uniforms, so their outputs are
    decision-for-decision identical.
    """
    if HAVE_NUMBA:
        out = np.empty_like(faults)
        _nb_imperfect_closure(
            faults, seqs, coverage, detect_u, surv_u, detection_p, fix_p, out
        )
        return out
    return _np_imperfect_closure(
        faults, seqs, coverage, detect_u, surv_u, detection_p, fix_p
    )


def back_to_back_counter(
    faults_a: np.ndarray,
    faults_b: np.ndarray,
    seqs: np.ndarray,
    cov_a: np.ndarray,
    cov_b: np.ndarray,
    mode: int,
    fix_p: float,
    key: int,
    streams: np.ndarray,
    lane_base: int,
    stride: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """§4.2 back-to-back kernel with counter-keyed fixing coins.

    The fix coin of fault ``f`` at suite position ``l`` lives at lane
    ``lane_base + l*stride + f`` (channel B offset by ``F_A``), so both
    implementations — and every chunking of the replication axis — flip
    identical coins.  Returns post-test copies; inputs are unmodified.
    """
    out_a = faults_a.copy()
    out_b = faults_b.copy()
    if HAVE_NUMBA:
        _nb_back_to_back(
            out_a, out_b, seqs, cov_a, cov_b, mode, fix_p,
            np.uint64(key), streams, lane_base, stride,
        )
    else:
        _np_back_to_back(
            out_a, out_b, seqs, cov_a, cov_b, mode, fix_p, key, streams,
            lane_base, stride,
        )
    return out_a, out_b


# ---------------------------------------------------------------------------
# suite laws — per-generator uniform-lane sampling rules
# ---------------------------------------------------------------------------


class _ProfileSuiteLaw:
    """Fixed-size i.i.d. inverse-CDF draws from a demand profile."""

    def __init__(self, cdf: np.ndarray, space_size: int, size: int) -> None:
        self.cdf = cdf
        self.space_size = space_size
        self.lanes = size  # one uniform per suite position
        self.width = size  # sequence width

    def sequences(self, u: np.ndarray) -> np.ndarray:
        return inverse_cdf_indices(self.cdf, None, uniforms=u)

    def masks(self, u: np.ndarray) -> np.ndarray:
        masks = np.zeros((u.shape[0], self.space_size), dtype=bool)
        if u.shape[0] and self.lanes:
            np.put_along_axis(masks, self.sequences(u), True, axis=1)
        return masks


class _ExhaustiveSuiteLaw:
    """The degenerate all-demands measure: zero uniform lanes."""

    def __init__(self, demands: np.ndarray) -> None:
        self.demands = np.asarray(demands, dtype=np.int64)
        self.space_size = self.demands.shape[0]
        self.lanes = 0
        self.width = self.demands.shape[0]

    def sequences(self, u: np.ndarray) -> np.ndarray:
        return np.tile(self.demands, (u.shape[0], 1))

    def masks(self, u: np.ndarray) -> np.ndarray:
        return np.ones((u.shape[0], self.space_size), dtype=bool)


class _EnumerableSuiteLaw:
    """A finite explicit measure: one uniform lane picks the suite row."""

    def __init__(self, generator: EnumerableSuiteGenerator) -> None:
        suites, probs = zip(*generator.enumerate())
        self.cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        self.space_size = generator.space.size
        self.lanes = 1
        self.width = max(len(suite) for suite in suites)
        self.mask_table = np.stack([suite.mask() for suite in suites])
        table = np.full((len(suites), self.width), -1, dtype=np.int64)
        for row, suite in enumerate(suites):
            table[row, : len(suite)] = suite.demands
        self.seq_table = table

    def _rows(self, u: np.ndarray) -> np.ndarray:
        return inverse_cdf_indices(self.cdf, None, uniforms=u[:, 0])

    def sequences(self, u: np.ndarray) -> np.ndarray:
        return self.seq_table[self._rows(u)]

    def masks(self, u: np.ndarray) -> np.ndarray:
        return self.mask_table[self._rows(u)]


def _suite_law(generator):
    """Resolve a generator to its uniform-lane sampling law, or ``None``.

    Exact type matches only, mirroring the batch engine's plan rule: a
    subclass may override the measure arbitrarily.
    """
    if type(generator) in (OperationalSuiteGenerator, WeightedDebugGenerator):
        return _ProfileSuiteLaw(
            np.cumsum(generator.profile.probabilities),
            generator.space.size,
            generator.size,
        )
    if type(generator) is ExhaustiveSuiteGenerator:
        return _ExhaustiveSuiteLaw(generator.space.demands)
    if type(generator) is EnumerableSuiteGenerator:
        return _EnumerableSuiteLaw(generator)
    return None


def _regime_laws(regime):
    """Resolve a regime to ``(law_a, law_b, shared)``, or ``None``."""
    if type(regime) in (IndependentSuites, SameSuite):
        law = _suite_law(regime.generator)
        if law is None:
            return None
        return law, law, regime.shares_suite
    if type(regime) is ForcedTestingDiversity:
        law_a = _suite_law(regime.generator_a)
        law_b = _suite_law(regime.generator_b)
        if law_a is None or law_b is None:
            return None
        return law_a, law_b, False
    return None


def _bernoulli_probs(population) -> np.ndarray | None:
    if type(population) is BernoulliFaultPopulation:
        return population.presence_probs
    return None


def compiled_supported(
    oracle=None,
    fixing=None,
    populations=(),
    generators=(),
    regime=None,
) -> bool:
    """True iff every supplied model piece runs on the compiled backend."""
    from .batch import _testing_plan

    plan = _testing_plan(oracle, fixing)
    if plan is None or plan[0] == _COVERAGE:
        return False
    for population in populations:
        if _bernoulli_probs(population) is None:
            return False
    for generator in generators:
        if _suite_law(generator) is None:
            return False
    if regime is not None and _regime_laws(regime) is None:
        return False
    return True


def _require_probs(population, name: str) -> np.ndarray:
    probs = _bernoulli_probs(population)
    if probs is None:
        raise ModelError(
            f"engine='compiled' models BernoulliFaultPopulation versions "
            f"only; {name} is {type(population).__name__}.  Use "
            "engine='auto' or engine='batch'"
        )
    return probs


def _require_law(generator, name: str):
    law = _suite_law(generator)
    if law is None:
        raise ModelError(
            f"engine='compiled' cannot sample {name} of type "
            f"{type(generator).__name__}; supported: Operational, "
            "WeightedDebug, Exhaustive and Enumerable suite generators.  "
            "Use engine='auto' or engine='batch'"
        )
    return law


def _require_regime_laws(regime):
    laws = _regime_laws(regime)
    if laws is None:
        raise ModelError(
            f"engine='compiled' cannot model regime "
            f"{type(regime).__name__} (or its suite generators); supported: "
            "IndependentSuites, SameSuite and ForcedTestingDiversity over "
            "Operational/WeightedDebug/Exhaustive/Enumerable generators.  "
            "Use engine='auto' or engine='batch'"
        )
    return laws


# ---------------------------------------------------------------------------
# counter-keyed sampling helpers
# ---------------------------------------------------------------------------


def _chunk_spans(n_replications: int, chunk_size: int | None) -> List[Tuple[int, int]]:
    """Split the budget into ``(start, count)`` spans of global indices.

    Unlike the batch engine's chunk plans, no per-chunk seeds exist — every
    replication's randomness is keyed by its global index, which is what
    makes the spans an implementation detail rather than part of the
    result's identity.
    """
    if chunk_size is None:
        chunk_size = _DEFAULT_CHUNK
    if chunk_size < 1:
        raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(chunk_size, n_replications - start))
        for start in range(0, n_replications, chunk_size)
    ]


def _span_streams(span: Tuple[int, int]) -> np.ndarray:
    start, count = span
    return np.arange(start, start + count, dtype=np.uint64)


def _draw_block(key, streams, lane_base, lanes) -> np.ndarray:
    lane_ids = lane_base + np.arange(lanes, dtype=np.int64)
    return counter_uniforms(key, streams[:, None], lane_ids[None, :])


def _draw_faults(key, streams, lane_base, probs) -> np.ndarray:
    u = _draw_block(key, streams, lane_base, probs.shape[0])
    return u < probs[None, :]


def _universe_spec(population) -> Tuple[np.ndarray, np.ndarray]:
    universe = population.universe
    coverage = np.ascontiguousarray(universe.coverage, dtype=bool)
    return universe, coverage


def _visible_mask(universe, plan) -> np.ndarray:
    kind, _detection_p, _fix_p, blind_ids = plan
    if kind == _BLIND:
        return ~universe.presence_mask(np.asarray(blind_ids, dtype=np.int64))
    return np.ones(len(universe), dtype=bool)


# ---------------------------------------------------------------------------
# pair specs and chunk kernels (module level for process-pool pickling)
# ---------------------------------------------------------------------------


def _pair_spec(regime, population_a, population_b, oracle, fixing) -> dict:
    """Lane layout + model arrays for a two-channel tested experiment.

    The lane map of one replication::

        [faults A][faults B][suite A][suite B][oracle A][oracle B][surv A][surv B][extra...]

    with the suite-B span aliased onto suite A's lanes under a shared-suite
    regime (same uniforms → same suite, the regime's coupling), and the
    oracle/survival spans present only under the §4.1 bernoulli plan.
    """
    plan = _require_plan(oracle, fixing)
    kind, detection_p, fix_p, _blind_ids = plan
    if kind == _COVERAGE:
        raise ModelError(
            "the compiled backend does not support coverage-aware testing "
            "pairs; use engine='batch'"
        )
    probs_a = _require_probs(population_a, "population_a")
    probs_b = _require_probs(population_b, "population_b")
    law_a, law_b, shared = _require_regime_laws(regime)
    universe_a, cov_a = _universe_spec(population_a)
    universe_b, cov_b = _universe_spec(population_b)
    spec = {
        "plan_kind": kind,
        "detection_p": detection_p,
        "fix_p": fix_p,
        "probs_a": probs_a,
        "probs_b": probs_b,
        "cov_a": cov_a,
        "cov_b": cov_b,
        "visible_a": _visible_mask(universe_a, plan),
        "visible_b": _visible_mask(universe_b, plan),
        "law_a": law_a,
        "law_b": law_b,
        "shared": shared,
    }
    base = 0
    spec["fa_base"] = base
    base += probs_a.shape[0]
    spec["fb_base"] = base
    base += probs_b.shape[0]
    spec["suite_a_base"] = base
    base += law_a.lanes
    if shared:
        spec["suite_b_base"] = spec["suite_a_base"]
    else:
        spec["suite_b_base"] = base
        base += law_b.lanes
    if kind == _BERNOULLI:
        spec["det_a_base"] = base
        base += law_a.width
        spec["det_b_base"] = base
        base += law_b.width
        spec["srv_a_base"] = base
        base += probs_a.shape[0]
        spec["srv_b_base"] = base
        base += probs_b.shape[0]
    spec["lane_top"] = base
    return spec


def _tested_pair(spec: dict, key: int, streams: np.ndarray):
    """Draw and test one replication block for a pair spec."""
    faults_a = _draw_faults(key, streams, spec["fa_base"], spec["probs_a"])
    faults_b = _draw_faults(key, streams, spec["fb_base"], spec["probs_b"])
    law_a, law_b = spec["law_a"], spec["law_b"]
    u_suite_a = _draw_block(key, streams, spec["suite_a_base"], law_a.lanes)
    if spec["shared"]:
        u_suite_b = u_suite_a
    else:
        u_suite_b = _draw_block(key, streams, spec["suite_b_base"], law_b.lanes)
    if spec["plan_kind"] == _BERNOULLI:
        seqs_a = law_a.sequences(u_suite_a)
        seqs_b = law_b.sequences(u_suite_b)
        detect_a = _draw_block(key, streams, spec["det_a_base"], law_a.width)
        detect_b = _draw_block(key, streams, spec["det_b_base"], law_b.width)
        surv_a = _draw_block(key, streams, spec["srv_a_base"], spec["probs_a"].shape[0])
        surv_b = _draw_block(key, streams, spec["srv_b_base"], spec["probs_b"].shape[0])
        tested_a = imperfect_closure(
            faults_a, seqs_a, spec["cov_a"], detect_a, surv_a,
            spec["detection_p"], spec["fix_p"],
        )
        tested_b = imperfect_closure(
            faults_b, seqs_b, spec["cov_b"], detect_b, surv_b,
            spec["detection_p"], spec["fix_p"],
        )
    else:
        masks_a = law_a.masks(u_suite_a)
        masks_b = law_b.masks(u_suite_b)
        tested_a = perfect_closure(
            faults_a, masks_a, spec["cov_a"], spec["visible_a"]
        )
        tested_b = perfect_closure(
            faults_b, masks_b, spec["cov_b"], spec["visible_b"]
        )
    return tested_a, tested_b


def _chunk_untested_joint(spec: dict, span: Tuple[int, int]) -> np.ndarray:
    streams = _span_streams(span)
    faults_a = _draw_faults(spec["key"], streams, spec["fa_base"], spec["probs_a"])
    faults_b = _draw_faults(spec["key"], streams, spec["fb_base"], spec["probs_b"])
    return joint_demand_failures(
        faults_a, faults_b, spec["ids_a"], spec["ids_b"]
    )


def _chunk_tested_joint(spec: dict, span: Tuple[int, int]) -> np.ndarray:
    streams = _span_streams(span)
    tested_a, tested_b = _tested_pair(spec, spec["key"], streams)
    return joint_demand_failures(
        tested_a, tested_b, spec["ids_a"], spec["ids_b"]
    )


def _chunk_marginal(spec: dict, span: Tuple[int, int]) -> np.ndarray:
    streams = _span_streams(span)
    tested_a, tested_b = _tested_pair(spec, spec["key"], streams)
    if spec["rao_blackwell"]:
        return joint_pfd_values(
            tested_a, tested_b, spec["cov_a"], spec["cov_b"], spec["q"]
        )
    u_demand = _draw_block(spec["key"], streams, spec["demand_base"], 1)
    demands = inverse_cdf_indices(spec["profile_cdf"], None, uniforms=u_demand[:, 0])
    joint = (tested_a & spec["cov_a"][:, demands].T).any(axis=1) & (
        tested_b & spec["cov_b"][:, demands].T
    ).any(axis=1)
    return joint.astype(np.float64)


def _chunk_version_pfd(spec: dict, span: Tuple[int, int]) -> np.ndarray:
    streams = _span_streams(span)
    key = spec["key"]
    faults = _draw_faults(key, streams, spec["f_base"], spec["probs"])
    law = spec["law"]
    u_suite = _draw_block(key, streams, spec["suite_base"], law.lanes)
    if spec["plan_kind"] == _BERNOULLI:
        seqs = law.sequences(u_suite)
        detect_u = _draw_block(key, streams, spec["det_base"], law.width)
        surv_u = _draw_block(key, streams, spec["srv_base"], spec["probs"].shape[0])
        tested = imperfect_closure(
            faults, seqs, spec["cov"], detect_u, surv_u,
            spec["detection_p"], spec["fix_p"],
        )
    else:
        tested = perfect_closure(
            faults, law.masks(u_suite), spec["cov"], spec["visible"]
        )
    return pfd_values(tested, spec["cov"], spec["q"])


def _chunk_back_to_back(spec: dict, span: Tuple[int, int]) -> np.ndarray:
    streams = _span_streams(span)
    key = spec["key"]
    count = span[1]
    faults_a = _draw_faults(key, streams, spec["fa_base"], spec["probs_a"])
    faults_b = _draw_faults(key, streams, spec["fb_base"], spec["probs_b"])
    law = spec["law"]
    seqs = law.sequences(_draw_block(key, streams, spec["suite_base"], law.lanes))
    masks = demand_sequences_to_counts(seqs, law.space_size) > 0
    cov_a, cov_b, q = spec["cov_a"], spec["cov_b"], spec["q"]
    all_visible_a = np.ones(spec["probs_a"].shape[0], dtype=bool)
    all_visible_b = np.ones(spec["probs_b"].shape[0], dtype=bool)

    out = np.empty((count, 9), dtype=np.float64)
    out[:, 0] = joint_pfd_values(faults_a, faults_b, cov_a, cov_b, q)
    out[:, 5] = 0.5 * (
        pfd_values(faults_a, cov_a, q) + pfd_values(faults_b, cov_b, q)
    )
    perfect_a = perfect_closure(faults_a, masks, cov_a, all_visible_a)
    perfect_b = perfect_closure(faults_b, masks, cov_b, all_visible_b)
    out[:, 1] = joint_pfd_values(perfect_a, perfect_b, cov_a, cov_b, q)
    stride = spec["probs_a"].shape[0] + spec["probs_b"].shape[0]
    for mode, sys_col, ver_col in (
        (_MODE_OPTIMISTIC, 2, 6),
        (_MODE_PESSIMISTIC, 3, 7),
        (_MODE_SHARED, 4, 8),
    ):
        mode_base = spec["b2b_base"] + mode * law.width * stride
        after_a, after_b = back_to_back_counter(
            faults_a, faults_b, seqs, cov_a, cov_b, mode, spec["fix_p"],
            key, streams, mode_base, stride,
        )
        out[:, sys_col] = joint_pfd_values(after_a, after_b, cov_a, cov_b, q)
        out[:, ver_col] = 0.5 * (
            pfd_values(after_a, cov_a, q) + pfd_values(after_b, cov_b, q)
        )
    return out


def _gather(kernel, spec, spans, n_jobs) -> np.ndarray:
    """Run the chunk kernel over all spans and concatenate in span order.

    Per-replication values are reduced *once* over the concatenated block,
    never per chunk, so the estimator a caller receives is bit-identical
    for every ``(chunk_size, n_jobs)`` — the counter-RNG guarantee extended
    through the floating-point reduction.
    """
    results = run_tasks(partial(kernel, spec), spans, n_jobs)
    return np.concatenate(results, axis=0)


def _proportion_from(hits: np.ndarray) -> ProportionEstimator:
    estimator = ProportionEstimator()
    estimator.add_many(int(np.count_nonzero(hits)), int(hits.shape[0]))
    return estimator


def _mean_from(values: np.ndarray) -> MeanEstimator:
    mean = float(values.mean())
    m2 = float(np.square(values - mean).sum())
    estimator = MeanEstimator()
    estimator.add_moments(int(values.shape[0]), mean, m2)
    return estimator


# ---------------------------------------------------------------------------
# compiled drop-in drivers
# ---------------------------------------------------------------------------


def simulate_untested_joint_on_demand_compiled(
    population_a,
    demand: int,
    population_b=None,
    n_replications: int = 2000,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> ProportionEstimator:
    """Compiled ``P(both untested versions fail on x)`` — eq. (4) check."""
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    probs_a = _require_probs(population_a, "population_a")
    probs_b = _require_probs(population_b, "population_b")
    _universe_a, cov_a = _universe_spec(population_a)
    _universe_b, cov_b = _universe_spec(population_b)
    spec = {
        "key": counter_key(rng),
        "probs_a": probs_a,
        "probs_b": probs_b,
        "fa_base": 0,
        "fb_base": probs_a.shape[0],
        "ids_a": np.flatnonzero(cov_a[:, demand]).astype(np.int64),
        "ids_b": np.flatnonzero(cov_b[:, demand]).astype(np.int64),
    }
    spans = _chunk_spans(n_replications, chunk_size)
    return _proportion_from(_gather(_chunk_untested_joint, spec, spans, n_jobs))


def simulate_joint_on_demand_compiled(
    regime,
    population_a,
    demand: int,
    population_b=None,
    n_replications: int = 2000,
    rng: SeedLike = None,
    oracle=None,
    fixing=None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> ProportionEstimator:
    """Compiled ``P(both tested versions fail on x)`` — eqs. (16)–(21)."""
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    spec = _pair_spec(regime, population_a, population_b, oracle, fixing)
    spec["key"] = counter_key(rng)
    spec["ids_a"] = np.flatnonzero(spec["cov_a"][:, demand]).astype(np.int64)
    spec["ids_b"] = np.flatnonzero(spec["cov_b"][:, demand]).astype(np.int64)
    spans = _chunk_spans(n_replications, chunk_size)
    return _proportion_from(_gather(_chunk_tested_joint, spec, spans, n_jobs))


def simulate_marginal_system_pfd_compiled(
    regime,
    population_a,
    profile,
    population_b=None,
    n_replications: int = 2000,
    rng: SeedLike = None,
    oracle=None,
    fixing=None,
    rao_blackwell: bool = True,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> MeanEstimator:
    """Compiled marginal 1-out-of-2 system pfd — eqs. (22)–(25) check."""
    _check_replications(n_replications)
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    spec = _pair_spec(regime, population_a, population_b, oracle, fixing)
    spec["key"] = counter_key(rng)
    spec["rao_blackwell"] = bool(rao_blackwell)
    spec["q"] = np.asarray(profile.probabilities, dtype=np.float64)
    if not rao_blackwell:
        spec["demand_base"] = spec["lane_top"]
        spec["profile_cdf"] = np.cumsum(spec["q"])
    spans = _chunk_spans(n_replications, chunk_size)
    return _mean_from(_gather(_chunk_marginal, spec, spans, n_jobs))


def simulate_version_pfd_compiled(
    population,
    generator,
    profile,
    n_replications: int = 2000,
    rng: SeedLike = None,
    oracle=None,
    fixing=None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> MeanEstimator:
    """Compiled mean post-test pfd of one tested version — ``E_Q[ζ(X)]``."""
    _check_replications(n_replications)
    population.space.require_same(profile.space)
    plan = _require_plan(oracle, fixing)
    kind, detection_p, fix_p, _blind_ids = plan
    if kind == _COVERAGE:
        raise ModelError(
            "the compiled backend does not support coverage-aware testing "
            "pairs; use engine='batch'"
        )
    probs = _require_probs(population, "population")
    law = _require_law(generator, "generator")
    universe, cov = _universe_spec(population)
    spec = {
        "key": counter_key(rng),
        "plan_kind": kind,
        "detection_p": detection_p,
        "fix_p": fix_p,
        "probs": probs,
        "cov": cov,
        "visible": _visible_mask(universe, plan),
        "law": law,
        "q": np.asarray(profile.probabilities, dtype=np.float64),
        "f_base": 0,
        "suite_base": probs.shape[0],
    }
    base = spec["suite_base"] + law.lanes
    if kind == _BERNOULLI:
        spec["det_base"] = base
        base += law.width
        spec["srv_base"] = base
    spans = _chunk_spans(n_replications, chunk_size)
    return _mean_from(_gather(_chunk_version_pfd, spec, spans, n_jobs))


def back_to_back_envelope_compiled(
    population_a,
    generator,
    profile,
    population_b=None,
    fixing=None,
    n_replications: int = 400,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
):
    """Compiled §4.2 envelope — back-to-back testing under all output models.

    All three comparator modes reuse one fault-matrix pair and one shared
    suite per replication (paired comparisons, as in the batch/scalar
    drivers); each mode's fixing coins live in a disjoint lane block so the
    modes stay mutually independent given the draws.

    Returns a :class:`repro.core.bounds.BackToBackEnvelope`.
    """
    from ..core.bounds import BackToBackEnvelope

    _check_replications(n_replications)
    if not back_to_back_supported(fixing):
        raise ModelError(
            "back-to-back compiled kernel cannot model custom fixing policy "
            f"{type(fixing).__name__}; use engine='scalar'"
        )
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    probs_a = _require_probs(population_a, "population_a")
    probs_b = _require_probs(population_b, "population_b")
    law = _require_law(generator, "generator")
    _universe_a, cov_a = _universe_spec(population_a)
    _universe_b, cov_b = _universe_spec(population_b)
    if fixing is None or type(fixing) is PerfectFixing:
        fix_p = 1.0
    else:
        fix_p = float(fixing.fix_probability)
    spec = {
        "key": counter_key(rng),
        "probs_a": probs_a,
        "probs_b": probs_b,
        "cov_a": cov_a,
        "cov_b": cov_b,
        "law": law,
        "q": np.asarray(profile.probabilities, dtype=np.float64),
        "fix_p": fix_p,
        "fa_base": 0,
        "fb_base": probs_a.shape[0],
        "suite_base": probs_a.shape[0] + probs_b.shape[0],
    }
    spec["b2b_base"] = spec["suite_base"] + law.lanes
    spans = _chunk_spans(n_replications, chunk_size)
    values = _gather(_chunk_back_to_back, spec, spans, n_jobs)
    return BackToBackEnvelope.from_sums(
        values.sum(axis=0), int(values.shape[0])
    )
