"""Tests for the localized reliability-growth workload."""

import numpy as np
import pytest

from repro.coverage import (
    ComponentModel,
    LocalizedGrowthResult,
    simulate_localized_growth,
    synthetic_coverage,
)
from repro.demand import DemandSpace, zipf_profile
from repro.errors import ModelError
from repro.faults import clustered_universe
from repro.populations import BernoulliFaultPopulation, FinitePopulation


@pytest.fixture
def setup():
    space = DemandSpace(50)
    profile = zipf_profile(space, exponent=0.8)
    universe = clustered_universe(space, n_faults=10, region_size=6, rng=9)
    population = BernoulliFaultPopulation.uniform(universe, 0.5)
    components = ComponentModel.blocked(universe, 5)
    matrix = synthetic_coverage(12, 5, density=0.5, bandwidth=2, rng=4)
    return profile, universe, population, components, matrix


def _run(setup, **kwargs):
    profile, _universe, population, components, matrix = setup
    defaults = dict(
        policy="sbfl",
        rounds=4,
        n_replications=60,
        rng=21,
    )
    defaults.update(kwargs)
    return simulate_localized_growth(
        population, profile, matrix, components, **defaults
    )


def test_result_shape_and_invariants(setup):
    result = _run(setup)
    assert isinstance(result, LocalizedGrowthResult)
    assert len(result.mean_pfd) == result.rounds + 1
    assert result.initial_pfd == result.mean_pfd[0]
    assert result.final_pfd == result.mean_pfd[-1]
    assert 0.0 <= result.reached_fraction <= 1.0
    assert 0.0 < result.mean_rounds_to_target <= result.rounds + 1
    # fixing never adds faults: mean pfd is non-increasing
    trajectory = np.asarray(result.mean_pfd)
    assert np.all(np.diff(trajectory) <= 1e-12)


def test_seed_determinism(setup):
    first = _run(setup)
    second = _run(setup)
    third = _run(setup, rng=22)
    assert first == second
    assert first.mean_pfd != third.mean_pfd


def test_chunking_and_n_jobs_invariance(setup):
    baseline = _run(setup)
    for kwargs in (
        dict(chunk_size=7),
        dict(chunk_size=64),
        dict(chunk_size=13, n_jobs=2),
    ):
        assert _run(setup, **kwargs) == baseline


def test_vectorized_matches_reference(setup):
    fast = _run(setup, n_replications=30)
    slow = _run(setup, n_replications=30, vectorized=False)
    # identical draws and row-wise pfd sums: the paths agree bit for bit
    assert fast == slow


def test_random_policy_runs_and_differs(setup):
    sbfl = _run(setup, rounds=6)
    random = _run(setup, rounds=6, policy="random")
    assert random.policy == "random"
    assert sbfl.mean_pfd != random.mean_pfd


@pytest.mark.parametrize("metric", ["tarantula", "dstar"])
def test_alternative_metrics(setup, metric):
    result = _run(setup, metric=metric, n_replications=20)
    assert result.metric == metric


def test_validation(setup):
    profile, universe, population, components, matrix = setup
    with pytest.raises(ModelError, match="policy"):
        _run(setup, policy="oracle")
    with pytest.raises(ModelError, match="metric"):
        _run(setup, metric="jaccard")
    with pytest.raises(ModelError, match="rounds"):
        _run(setup, rounds=0)
    with pytest.raises(ModelError, match="target_fraction"):
        _run(setup, target_fraction=0.0)
    with pytest.raises(ModelError, match="n_replications"):
        _run(setup, n_replications=0)
    with pytest.raises(ModelError, match="chunk_size"):
        _run(setup, chunk_size=0)
    with pytest.raises(ModelError, match="Bernoulli"):
        from repro.rng import as_generator

        finite = FinitePopulation(
            universe, [population.sample(as_generator(0))], [1.0]
        )
        simulate_localized_growth(finite, profile, matrix, components)
    with pytest.raises(ModelError, match="components"):
        simulate_localized_growth(
            population,
            profile,
            synthetic_coverage(12, 4, rng=4),
            components,
        )


def test_sbfl_localizes_better_on_a_separable_model():
    # one dominant component holds all the large faults; tests are
    # component-focused, so SBFL should find-and-fix it faster than a
    # uniformly random pick among failing-evidence components
    space = DemandSpace(80)
    profile = zipf_profile(space, exponent=0.5)
    universe = clustered_universe(space, n_faults=12, region_size=6, rng=15)
    population = BernoulliFaultPopulation.uniform(universe, 0.6)
    components = ComponentModel.blocked(universe, 6)
    matrix = synthetic_coverage(18, 6, density=0.9, bandwidth=1, overlap=0.1, rng=2)
    common = dict(
        rounds=8,
        target_fraction=0.5,
        n_replications=300,
        rng=33,
    )
    sbfl = simulate_localized_growth(
        population, profile, matrix, components, policy="sbfl", **common
    )
    random = simulate_localized_growth(
        population, profile, matrix, components, policy="random", **common
    )
    assert sbfl.mean_rounds_to_target < random.mean_rounds_to_target
