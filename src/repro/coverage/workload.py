"""The SBFL fault-localization workload: reliability growth under
localization-guided vs random fixing.

Each replication draws one version from a Bernoulli population over a
component-structured universe, then runs ``rounds`` of structural
debugging.  Per round every test of the coverage matrix executes one
usage-drawn demand; test ``t`` *fails* iff some present fault is hit by
its demand **and** lives in a component ``t`` covers (a test cannot see
failures outside its coverage).  The pass/fail spectrum is reduced to
SBFL suspiciousness (:mod:`repro.coverage.sbfl`) and the round ends with
one *successful repair*: the developer inspects components in policy
order — descending suspiciousness under ``policy="sbfl"``, uniformly
shuffled under ``policy="random"`` — until one with live detected faults
is found, and every fault of that component that contributed to a
failing test this round is removed.  (Modelling the inspection walk as
within-round matches how SBFL rankings are consumed in practice —
top-down until the fix lands — and keeps the effort unit a testing
round; a round with no detected failure repairs nothing.)  The tracked
outcome is the per-round mean pfd and the
*fix effort*: the replication-averaged number of rounds until pfd falls
to ``target_fraction`` of its initial value (censored runs count as
``rounds + 1``).

Randomness is **counter-based** (:func:`repro.rng.counter_uniforms`,
keyed by ``(seed, replication_index)`` with a fixed lane layout), and all
reductions use shape-stable pairwise sums, so results are bit-identical
for every ``chunk_size`` / ``n_jobs``.  The vectorized path draws a
chunk's lanes in a few round blocks and runs each round on uint64 fault
bitsets; ``vectorized=False`` runs the identical draws through a
per-replication reference loop (the benchmark baseline and parity
witness), and the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import ModelError
from ..faults.universe import _packed_rows, _unpacked_rows, coverage_hits
from ..rng import counter_key, counter_uniforms, inverse_cdf_indices
from ..types import SeedLike
from .components import ComponentModel
from .matrix import CoverageMatrix
from .sbfl import SBFL_METRICS, spectrum_counts, suspiciousness

__all__ = ["LocalizedGrowthResult", "simulate_localized_growth"]

_POLICIES = ("sbfl", "random")
_DEFAULT_CHUNK = 4096
# uniforms per counter draw of the vectorized path: a chunk draws its lanes
# in blocks of whole rounds (the first led by the fault lanes) of at most
# this many elements, splitting the chunk's rows when one round overflows
_UNIFORM_BLOCK = 1 << 18


@dataclass(frozen=True)
class LocalizedGrowthResult:
    """Aggregated outcome of one localized-growth simulation."""

    policy: str
    metric: str
    rounds: int
    target_fraction: float
    n_replications: int
    #: mean pfd before testing and after each round, length ``rounds + 1``
    mean_pfd: Tuple[float, ...]
    #: replication-averaged rounds to reach the target pfd (the fix
    #: effort; censored replications count as ``rounds + 1``)
    mean_rounds_to_target: float
    #: fraction of replications that reached the target within ``rounds``
    reached_fraction: float

    @property
    def initial_pfd(self) -> float:
        return self.mean_pfd[0]

    @property
    def final_pfd(self) -> float:
        return self.mean_pfd[-1]


def _row_pfd(faults: np.ndarray, coverage: np.ndarray, probabilities):
    """Per-version pfd with a grouping-invariant pairwise reduction.

    ``(faults @ coverage) > 0`` would be the failure matrix; multiplying
    by ``Q`` and pairwise-summing each row keeps every row's float
    reduction a function of the demand count alone, so results cannot
    drift with the replication batch shape (chunk size).
    """
    failed = coverage_hits(faults, coverage)
    return (failed * probabilities[None, :]).sum(axis=1)


def one_hot(assignment: np.ndarray, n_components: int) -> np.ndarray:
    """``(F, K)`` float indicator of each fault's component."""
    return (
        assignment[:, None] == np.arange(n_components)[None, :]
    ).astype(np.float64)


def _select_random(candidates: np.ndarray, pick_u: np.ndarray) -> np.ndarray:
    """Uniform pick among candidate components, per row.

    Rows without any candidate select component 0, which is a no-op
    downstream (nothing was detected, so nothing is removed).
    """
    candidates = np.asarray(candidates, dtype=bool)
    n_candidates = candidates.sum(axis=1)
    pick = np.minimum(
        (pick_u * n_candidates).astype(np.int64),
        np.maximum(n_candidates - 1, 0),
    )
    order = np.cumsum(candidates, axis=1)
    return np.argmax(order == (pick + 1)[:, None], axis=1)


def _chunk_localized_growth(spec: dict, task: Tuple[int, int]):
    """One chunk of replications → per-replication outcome arrays.

    Returns ``(rounds_to_target, pfd_trajectories)`` for replication
    indices ``[start, start + count)``; every uniform is a pure function
    of ``(key, replication_index, lane)``, so the result is independent
    of how the replication range was chunked.
    """
    start, count = task
    if spec["vectorized"]:
        row_lanes = spec["presence_probs"].shape[0] + spec["covered"].shape[0] + 1
        group = max(1, _UNIFORM_BLOCK // row_lanes)
        parts = [
            _localized_rows(spec, first, min(group, start + count - first))
            for first in range(start, start + count, group)
        ]
        return (
            np.concatenate([r for r, _t in parts]),
            np.concatenate([t for _r, t in parts], axis=0),
        )

    key = spec["key"]
    presence = spec["presence_probs"]
    coverage = spec["coverage"]
    probabilities = spec["probabilities"]
    cdf = spec["cdf"]
    covered = spec["covered"]
    assignment = spec["assignment"]
    metric = spec["metric"]
    policy = spec["policy"]
    rounds = spec["rounds"]
    target_fraction = spec["target_fraction"]
    n_faults = presence.shape[0]
    n_tests = covered.shape[0]
    n_comp = covered.shape[1]
    streams = np.arange(start, start + count, dtype=np.uint64)[:, None]
    lane_stride = n_tests + 1  # per-round lanes: demands then policy pick

    fault_lanes = np.arange(n_faults, dtype=np.uint64)[None, :]
    faults = counter_uniforms(key, streams, fault_lanes) < presence[None, :]
    # test t can see fault f iff it covers f's component
    test_sees = covered[:, assignment]

    trajectories = np.zeros((count, rounds + 1), dtype=np.float64)
    trajectories[:, 0] = _row_pfd(faults, coverage, probabilities)
    threshold = target_fraction * trajectories[:, 0]
    rounds_to_target = np.full(count, rounds + 1, dtype=np.int64)
    rounds_to_target[trajectories[:, 0] <= threshold] = 0

    # reference path: identical draws, per-replication python loops
    for row in range(count):
        stream = streams[row, 0]
        current = faults[row].copy()
        for round_index in range(rounds):
            base = n_faults + round_index * lane_stride
            demand_u = counter_uniforms(
                key, stream, base + np.arange(n_tests, dtype=np.uint64)
            )
            demands = inverse_cdf_indices(cdf, None, uniforms=demand_u)
            failing = np.zeros(n_tests, dtype=bool)
            detected = np.zeros(n_faults, dtype=bool)
            for test in range(n_tests):
                contrib = (
                    current
                    & coverage[:, demands[test]]
                    & test_sees[test]
                )
                if contrib.any():
                    failing[test] = True
                    detected |= contrib
            repairable = coverage_hits(detected[None], one_hot(assignment, n_comp))[0]
            if policy == "sbfl":
                scores = suspiciousness(
                    metric, *spectrum_counts(failing, covered)
                )
                top = int(np.argmax(np.where(repairable, scores, -np.inf)))
            else:
                pick_u = counter_uniforms(
                    key, stream, np.uint64(base + n_tests)
                )
                top = int(
                    _select_random(
                        repairable[None, :], np.atleast_1d(pick_u)
                    )[0]
                )
            current &= ~(detected & (assignment == top))
            pfd = float(
                _row_pfd(current[None, :], coverage, probabilities)[0]
            )
            trajectories[row, round_index + 1] = pfd
            if pfd <= threshold[row] and rounds_to_target[row] > rounds:
                rounds_to_target[row] = round_index + 1
    return rounds_to_target, trajectories


def _localized_rows(spec: dict, start: int, count: int):
    """The vectorized rounds of replications ``[start, start + count)``.

    A row's lanes are its fault-presence lanes, then per round its demand
    lanes and its pick lane.  They are drawn in blocks of whole rounds of
    at most ``_UNIFORM_BLOCK`` uniforms, one counter call and one demand
    search a block.  Each round runs on the rows' uint64 fault bitsets:
    the faults that fail test ``t`` are ``bits & cover[demand] & sees[t]``.
    Only rows that lost a fault get their pfd recomputed, and each row's
    pfd is a function of that row alone, so the values equal the
    reference path's bit for bit.
    """
    key = spec["key"]
    presence = spec["presence_probs"]
    coverage = spec["coverage"]
    probabilities = spec["probabilities"]
    covered = spec["covered"]
    cover_bits, sees_bits, component_bits = spec["fault_bits"]
    rounds = spec["rounds"]
    n_faults = presence.shape[0]
    n_tests = covered.shape[0]
    lane_stride = n_tests + 1  # per-round lanes: demands then policy pick
    streams = np.arange(start, start + count, dtype=np.uint64)[:, None]
    per_block = max(1, (_UNIFORM_BLOCK // count - n_faults) // lane_stride)

    trajectories = np.empty((count, rounds + 1), dtype=np.float64)
    rounds_to_target = np.full(count, rounds + 1, dtype=np.int64)
    for first in range(0, rounds, per_block):
        last = min(first + per_block, rounds)
        low = n_faults + first * lane_stride if first else 0
        lanes = np.arange(low, n_faults + last * lane_stride, dtype=np.uint64)
        uniforms = counter_uniforms(key, streams, lanes[None, :])
        if not first:
            faults = uniforms[:, :n_faults] < presence[None, :]
            bits = _packed_rows(faults, cover_bits.shape[1])
            trajectories[:, 0] = _row_pfd(faults, coverage, probabilities)
            threshold = spec["target_fraction"] * trajectories[:, 0]
            rounds_to_target[trajectories[:, 0] <= threshold] = 0
            uniforms = uniforms[:, n_faults:]
        uniforms = uniforms.reshape(count, last - first, lane_stride)
        demands = inverse_cdf_indices(
            spec["cdf"], None, uniforms=uniforms[:, :, :n_tests]
        )
        for offset, round_index in enumerate(range(first, last)):
            # contrib[r, t]: the faults of row r that made test t fail
            contrib = cover_bits[demands[:, offset]]
            contrib &= sees_bits
            contrib &= bits[:, None, :]
            # only rows with a detected fault repair, and each repairs one
            active = np.flatnonzero(contrib.any(axis=(1, 2)))
            contrib = contrib[active]
            detected = np.bitwise_or.reduce(contrib, axis=1)
            # the inspection walk stops at the first component (in policy
            # order) holding a detected fault — the round's repair site
            repairable = (detected[:, None, :] & component_bits).any(axis=2)
            if spec["policy"] == "sbfl":
                failing = contrib.any(axis=2)
                scores = suspiciousness(
                    spec["metric"], *spectrum_counts(failing, covered)
                )
                top = np.argmax(np.where(repairable, scores, -np.inf), axis=1)
            else:
                pick_u = uniforms[active, offset, n_tests]
                top = _select_random(repairable, pick_u)
            removed = detected & component_bits[top]
            # removed faults are a subset of the row, so xor clears them
            bits[active] ^= removed
            changed = active[removed.any(axis=1)]
            column = trajectories[:, round_index + 1]
            column[:] = trajectories[:, round_index]
            pfd = _row_pfd(
                _unpacked_rows(bits[changed], n_faults), coverage, probabilities
            )
            column[changed] = pfd
            newly = changed[
                (pfd <= threshold[changed]) & (rounds_to_target[changed] > rounds)
            ]
            rounds_to_target[newly] = round_index + 1
    return rounds_to_target, trajectories


def _workload_spec(
    population, profile, matrix, model, policy, metric, rounds,
    target_fraction, rng, vectorized,
) -> dict:
    """The chunk kernels' shared, picklable inputs (validated upstream)."""
    coverage = population.universe.coverage
    covered = matrix.covered
    assignment = model.assignment
    n_faults = coverage.shape[0]
    words = max(1, -(-n_faults // 64))
    components = np.arange(covered.shape[1])[:, None] == assignment[None, :]
    probabilities = np.asarray(profile.probabilities, dtype=np.float64)
    return {
        "key": counter_key(rng),
        "presence_probs": np.asarray(population.presence_probs, dtype=np.float64),
        "coverage": coverage,
        "probabilities": probabilities,
        "cdf": np.cumsum(probabilities),
        "covered": covered,
        "assignment": assignment,
        # faults covering each demand, seen by each test, in each component
        "fault_bits": (
            _packed_rows(coverage.T, words),
            _packed_rows(covered[:, assignment], words),
            _packed_rows(components, words),
        ),
        "metric": metric,
        "policy": policy,
        "rounds": int(rounds),
        "target_fraction": float(target_fraction),
        "vectorized": bool(vectorized),
    }


def simulate_localized_growth(
    population,
    profile: UsageProfile,
    matrix: CoverageMatrix,
    model: ComponentModel,
    policy: str = "sbfl",
    metric: str = "ochiai",
    rounds: int = 8,
    target_fraction: float = 0.25,
    n_replications: int = 400,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
    vectorized: bool = True,
) -> LocalizedGrowthResult:
    """Simulate reliability growth under a localization-driven fix policy.

    ``population`` must be a Bernoulli population (per-fault presence
    probabilities) over ``model.universe``'s demand space.  Results are
    bit-identical for every ``chunk_size`` / ``n_jobs`` and between the
    vectorized and reference paths; pair two calls on the same seed with
    different ``policy`` values for a common-random-numbers comparison.
    """
    from ..mc.batch import run_tasks

    if policy not in _POLICIES:
        raise ModelError(
            f"policy must be one of {_POLICIES}, got {policy!r}"
        )
    if metric not in SBFL_METRICS:
        raise ModelError(
            f"metric must be one of {SBFL_METRICS}, got {metric!r}"
        )
    if rounds < 1:
        raise ModelError(f"rounds must be >= 1, got {rounds}")
    if not 0.0 < target_fraction <= 1.0:
        raise ModelError(
            f"target_fraction must be in (0, 1], got {target_fraction}"
        )
    if n_replications < 1:
        raise ModelError(
            f"n_replications must be >= 1, got {n_replications}"
        )
    presence = getattr(population, "presence_probs", None)
    if presence is None:
        raise ModelError(
            "the localized-growth workload models BernoulliFaultPopulation "
            f"versions only; got {type(population).__name__}"
        )
    universe = population.universe
    if len(model.universe) != len(universe) or (
        model.universe.space.size != universe.space.size
    ):
        raise ModelError(
            "component model and population disagree on the universe "
            f"({len(model.universe)} vs {len(universe)} faults)"
        )
    if matrix.n_components != model.n_components:
        raise ModelError(
            f"coverage matrix has {matrix.n_components} components but the "
            f"component model has {model.n_components}"
        )
    population.space.require_same(profile.space)
    if chunk_size is None:
        chunk_size = _DEFAULT_CHUNK
    if chunk_size < 1:
        raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")

    spec = _workload_spec(
        population, profile, matrix, model, policy, metric, rounds,
        target_fraction, rng, vectorized,
    )
    tasks = [
        (start, min(chunk_size, n_replications - start))
        for start in range(0, n_replications, chunk_size)
    ]
    results = run_tasks(
        partial(_chunk_localized_growth, spec), tasks, n_jobs
    )
    rounds_to_target = np.concatenate([r for r, _t in results])
    trajectories = np.concatenate([t for _r, t in results], axis=0)
    reached = rounds_to_target <= rounds
    return LocalizedGrowthResult(
        policy=policy,
        metric=metric,
        rounds=int(rounds),
        target_fraction=float(target_fraction),
        n_replications=int(n_replications),
        mean_pfd=tuple(float(v) for v in trajectories.mean(axis=0)),
        mean_rounds_to_target=float(rounds_to_target.mean()),
        reached_fraction=float(reached.mean()),
    )
