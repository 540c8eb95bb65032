"""Dense reference kernels on counter-keyed uniforms.

Three numpy kernels that state the paper's testing closures in their
plainest dense form: the §3 perfect closure, the §4.1 closure from
explicit detection and survival uniforms, and the §4.2 back-to-back
block kernel with fixing coins keyed by
:func:`repro.rng.counter_uniforms`.  No driver runs them; the tests pin
them against the batch engine's kernels (:mod:`repro.mc.batch`), which
they equal wherever the two share their draws.  ``perfbench``'s tracer
names all three, so they stay importable under these names.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..rng import counter_uniforms

__all__ = ["back_to_back_counter", "imperfect_closure", "perfect_closure"]

# back-to-back output-model modes as kernel-friendly integers
_MODE_OPTIMISTIC = 0
_MODE_PESSIMISTIC = 1


def _identical_cause_rows(causes_a: np.ndarray, causes_b: np.ndarray) -> np.ndarray:
    """Row-wise equality of two cause-mask blocks as fault-*id* sets.

    Mirrors the shared-fault output model, which compares the two
    versions' ``faults_causing_failure`` id arrays: when the universes
    differ in size the narrower mask is padded with absent faults.
    """
    width = max(causes_a.shape[1], causes_b.shape[1])

    def _pad(block: np.ndarray) -> np.ndarray:
        if block.shape[1] == width:
            return block
        padded = np.zeros((block.shape[0], width), dtype=bool)
        padded[:, : block.shape[1]] = block
        return padded

    return (_pad(causes_a) == _pad(causes_b)).all(axis=1)


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
    triggered = (
        masks.astype(np.float64) @ coverage.T.astype(np.float64)
    ) > 0.5
    return faults & ~(triggered & visible[None, :])


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
    formula covering the perfect limits, since ``0**0 == 1``.
    """
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

    ``mode`` is 0 (optimistic), 1 (pessimistic) or 2 (shared-fault).  The
    fix coin of fault ``f`` at suite position ``l`` lives at lane
    ``lane_base + l*stride + f`` (channel B offset by ``F_A``), so every
    chunking of the replication axis flips identical coins.  Returns
    post-test copies; inputs are unmodified.
    """
    faults_a = faults_a.copy()
    faults_b = faults_b.copy()
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
    return faults_a, faults_b
