"""The bitset localization kernel against the whole-tensor round it replaced.

The oracle below is the workload's former vectorized path, kept verbatim:
one counter call per round, an ``(R, T, F)`` boolean contribution tensor
and a one-hot float product for the repairable components.  The shipped
kernel (:func:`repro.coverage.workload._chunk_localized_growth`) must
return the same ``rounds_to_target`` and pfd trajectories bit for bit,
on fault counts on both sides of the 64-bit word boundaries, under both
policies and every metric, and when the uniform-block cap splits a chunk
into several round blocks or row groups.
"""

import numpy as np
import pytest

from repro.coverage import ComponentModel, synthetic_coverage
from repro.coverage import workload
from repro.coverage.sbfl import SBFL_METRICS, spectrum_counts, suspiciousness
from repro.coverage.workload import (
    _chunk_localized_growth,
    _row_pfd,
    _select_random,
    _workload_spec,
    one_hot,
)
from repro.demand import DemandSpace, zipf_profile
from repro.faults import clustered_universe
from repro.faults.universe import coverage_hits
from repro.populations import BernoulliFaultPopulation
from repro.rng import counter_uniforms, inverse_cdf_indices

N_TESTS = 9
ROUNDS = 6
N_REPLICATIONS = 40


def _whole_tensor_chunk(spec, task):
    """The former vectorized round: whole boolean tensors, per-round draws."""
    start, count = task
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
    n_faults = presence.shape[0]
    n_tests = covered.shape[0]
    n_comp = covered.shape[1]
    streams = np.arange(start, start + count, dtype=np.uint64)[:, None]
    lane_stride = n_tests + 1

    fault_lanes = np.arange(n_faults, dtype=np.uint64)[None, :]
    faults = counter_uniforms(key, streams, fault_lanes) < presence[None, :]
    test_sees = covered[:, assignment]

    trajectories = np.zeros((count, rounds + 1), dtype=np.float64)
    trajectories[:, 0] = _row_pfd(faults, coverage, probabilities)
    threshold = spec["target_fraction"] * trajectories[:, 0]
    rounds_to_target = np.full(count, rounds + 1, dtype=np.int64)
    rounds_to_target[trajectories[:, 0] <= threshold] = 0
    for round_index in range(rounds):
        base = n_faults + round_index * lane_stride
        demand_lanes = base + np.arange(n_tests, dtype=np.uint64)[None, :]
        demand_u = counter_uniforms(key, streams, demand_lanes)
        demands = inverse_cdf_indices(cdf, None, uniforms=demand_u)
        hit = coverage[:, demands].transpose(1, 2, 0)
        contrib = faults[:, None, :] & hit & test_sees[None, :, :]
        failing = contrib.any(axis=2)
        detected = contrib.any(axis=1)
        repairable = coverage_hits(detected, one_hot(assignment, n_comp))
        if policy == "sbfl":
            scores = suspiciousness(metric, *spectrum_counts(failing, covered))
            top = np.argmax(np.where(repairable, scores, -np.inf), axis=1)
        else:
            pick_lane = np.uint64(base + n_tests)
            pick_u = counter_uniforms(key, streams, pick_lane)[:, 0]
            top = _select_random(repairable, pick_u)
        faults &= ~(detected & (assignment[None, :] == top[:, None]))
        pfd = _row_pfd(faults, coverage, probabilities)
        trajectories[:, round_index + 1] = pfd
        newly = (pfd <= threshold) & (rounds_to_target > rounds)
        rounds_to_target[newly] = round_index + 1
    return rounds_to_target, trajectories


def _spec(n_faults, policy, metric):
    space = DemandSpace(90)
    profile = zipf_profile(space, exponent=0.7)
    universe = clustered_universe(
        space, n_faults=n_faults, region_size=4, rng=n_faults
    )
    presence = 0.5 if n_faults < 8 else 0.12
    population = BernoulliFaultPopulation.uniform(universe, presence)
    n_components = min(n_faults, 5)
    model = ComponentModel.blocked(universe, n_components)
    matrix = synthetic_coverage(N_TESTS, n_components, density=0.5, rng=3)
    return _workload_spec(
        population, profile, matrix, model, policy, metric, ROUNDS,
        0.3, 17, True,
    )


# caps on the uniforms per counter draw: the default (one block a chunk);
# two rounds a block with whole chunks; one round a block over 3-row groups
_CAPS = {
    "default": lambda spec, count: workload._UNIFORM_BLOCK,
    "two-round blocks": lambda spec, count: count
    * (spec["presence_probs"].shape[0] + 2 * (N_TESTS + 1)),
    "row groups": lambda spec, count: 3
    * (spec["presence_probs"].shape[0] + N_TESTS + 1),
}


@pytest.mark.parametrize("cap", sorted(_CAPS))
@pytest.mark.parametrize("metric", SBFL_METRICS)
@pytest.mark.parametrize("policy", ["sbfl", "random"])
@pytest.mark.parametrize("n_faults", [1, 63, 64, 65, 130])
def test_kernel_matches_whole_tensor_round(
    monkeypatch, n_faults, policy, metric, cap
):
    spec = _spec(n_faults, policy, metric)
    for chunk in (N_REPLICATIONS, 13):
        monkeypatch.setattr(workload, "_UNIFORM_BLOCK", _CAPS[cap](spec, chunk))
        for start in range(0, N_REPLICATIONS, chunk):
            task = (start, min(chunk, N_REPLICATIONS - start))
            expected_rounds, expected_pfd = _whole_tensor_chunk(spec, task)
            rounds, pfd = _chunk_localized_growth(spec, task)
            assert np.array_equal(rounds, expected_rounds)
            assert np.array_equal(pfd, expected_pfd)


def test_model_exercises_the_kernel():
    """The oracle's trajectories move and reach the target on the
    multi-word models, so equality above is not vacuous."""
    for n_faults in (65, 130):
        spec = _spec(n_faults, "sbfl", "ochiai")
        rounds, pfd = _whole_tensor_chunk(spec, (0, N_REPLICATIONS))
        assert (np.diff(pfd, axis=1) < 0).sum() > N_REPLICATIONS
        assert 0 < (rounds <= ROUNDS).sum() < N_REPLICATIONS
        # some present fault lives in the last bitset word
        faults = counter_uniforms(
            spec["key"],
            np.arange(N_REPLICATIONS, dtype=np.uint64)[:, None],
            np.arange(n_faults, dtype=np.uint64)[None, :],
        ) < spec["presence_probs"]
        assert faults[:, 64 * ((n_faults - 1) // 64):].any()


@pytest.mark.parametrize(
    "cap, calls",
    [
        ("default", 1),
        ("two-round blocks", ROUNDS // 2),
        # 13 groups of 3 rows draw a round a call; the lone 40th row fits
        # all its rounds under the cap in one call
        ("row groups", 13 * ROUNDS + 1),
    ],
)
def test_one_counter_draw_per_round_block(monkeypatch, cap, calls):
    spec = _spec(130, "random", "ochiai")
    limit = _CAPS[cap](spec, N_REPLICATIONS)
    monkeypatch.setattr(workload, "_UNIFORM_BLOCK", limit)
    sizes = []

    def counting(key, streams, lanes):
        block = counter_uniforms(key, streams, lanes)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(workload, "counter_uniforms", counting)
    _chunk_localized_growth(spec, (0, N_REPLICATIONS))
    assert len(sizes) == calls
    assert sum(sizes) == N_REPLICATIONS * (130 + ROUNDS * (N_TESTS + 1))
    assert max(sizes) <= limit
