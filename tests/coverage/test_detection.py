"""Tests for the coverage oracle/fixing pair and its engine integration.

The pair must (a) behave correctly under the demand-ordered
:func:`~repro.testing.apply_testing` and (b) be recognised by the batch
planner, with the vectorized closure and the per-row plan in statistical
parity.
"""

import numpy as np
import pytest

from repro.core import SameSuite
from repro.coverage import (
    ComponentModel,
    CoverageFixing,
    CoverageOracle,
    coverage_testing_pair,
    fault_detection_probs,
    synthetic_coverage,
)
from repro.demand import DemandSpace, zipf_profile
from repro.errors import ModelError, ProbabilityError
from repro.faults import clustered_universe
from repro.mc import simulate_marginal_system_pfd
from repro.mc.batch import _testing_plan
from repro.populations import BernoulliFaultPopulation
from repro.rng import as_generator
from repro.testing import (
    ImperfectFixing,
    OperationalSuiteGenerator,
    apply_testing,
)


@pytest.fixture
def model():
    space = DemandSpace(60)
    profile = zipf_profile(space, exponent=0.7)
    universe = clustered_universe(space, n_faults=12, region_size=5, rng=3)
    population = BernoulliFaultPopulation.uniform(universe, 0.35)
    generator = OperationalSuiteGenerator(profile, 15)
    components = ComponentModel.round_robin(universe, 4)
    matrix = synthetic_coverage(10, 4, density=0.6, rng=5)
    return profile, universe, population, generator, components, matrix


def _overlap(first, second, confidence=0.99):
    low_a, high_a = first.normal_interval(confidence)
    low_b, high_b = second.normal_interval(confidence)
    return low_a <= high_b and low_b <= high_a


def test_fault_detection_probs_are_column_densities(model):
    _profile, _universe, _population, _generator, components, matrix = model
    probs = fault_detection_probs(components, matrix)
    expected = matrix.component_densities()[components.assignment]
    np.testing.assert_allclose(probs, expected)
    assert probs.shape == (12,)


def test_fault_detection_probs_component_mismatch(model):
    _profile, universe, _population, _generator, components, _matrix = model
    with pytest.raises(ModelError):
        fault_detection_probs(components, synthetic_coverage(10, 5, rng=5))


def test_pair_validation():
    with pytest.raises(ProbabilityError):
        CoverageOracle((0.5, 1.2))
    with pytest.raises(ProbabilityError):
        CoverageFixing((-0.1,))
    with pytest.raises(ProbabilityError):
        CoverageOracle(((0.5, 0.5),))


def test_oracle_always_detects(model):
    _profile, _universe, _population, _generator, components, matrix = model
    oracle, _fixing = coverage_testing_pair(components, matrix)
    assert oracle.detects(None, 0, as_generator(0))


def test_fixing_removes_only_causing_faults_with_probs(model):
    _profile, universe, population, _generator, components, matrix = model
    _oracle, fixing = coverage_testing_pair(components, matrix)
    version = population.sample(as_generator(2))
    demand = int(np.flatnonzero(version.failure_mask)[0])
    causes = version.faults_causing_failure(demand)
    removed = fixing.faults_removed(version, demand, as_generator(3))
    assert set(removed.tolist()) <= set(causes.tolist())
    # a zero-probability fault is never removed
    zero = CoverageFixing((0.0,) * len(universe))
    assert zero.faults_removed(version, demand, as_generator(3)).size == 0
    # a probability-one fixing removes every causing fault
    one = CoverageFixing((1.0,) * len(universe))
    np.testing.assert_array_equal(
        one.faults_removed(version, demand, as_generator(3)), causes
    )


def test_scalar_engine_runs_the_pair(model):
    profile, _universe, population, generator, components, matrix = model
    oracle, fixing = coverage_testing_pair(components, matrix)
    version = population.sample(as_generator(5))
    suite = generator.sample(as_generator(6))
    outcome = apply_testing(version, suite, oracle, fixing, rng=7)
    assert outcome.after.fault_ids.size <= version.fault_ids.size


class _RowCoverageOracle(CoverageOracle):
    """The coverage oracle, on the per-row plan."""


class _RowCoverageFixing(CoverageFixing):
    """The coverage fixing, on the per-row plan."""


def test_batch_supported_truth_table(model):
    _profile, universe, _population, _generator, components, matrix = model
    oracle, fixing = coverage_testing_pair(components, matrix)

    def kind(oracle, fixing):
        return _testing_plan(oracle, fixing)[0]

    assert kind(oracle, fixing) == "coverage"
    # half-supplied, mismatched or subclassed pairs run per row
    assert kind(oracle, None) == "rows"
    assert kind(None, fixing) == "rows"
    assert kind(oracle, ImperfectFixing(0.5)) == "rows"
    other = CoverageFixing((0.5,) * len(universe))
    assert kind(oracle, other) == "rows"
    probs = oracle.fault_detection_probs
    assert kind(_RowCoverageOracle(probs), _RowCoverageFixing(probs)) == "rows"


def test_scalar_and_batch_engines_agree(model):
    profile, _universe, population, generator, components, matrix = model
    oracle, fixing = coverage_testing_pair(components, matrix)
    regime = SameSuite(generator)
    kwargs = dict(oracle=oracle, fixing=fixing, n_replications=2000, rng=61)
    scalar = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        **dict(
            kwargs,
            oracle=_RowCoverageOracle(oracle.fault_detection_probs),
            fixing=_RowCoverageFixing(fixing.fault_detection_probs),
        ),
    )
    batch = simulate_marginal_system_pfd(
        regime, population, profile, **kwargs
    )
    assert _overlap(scalar, batch)


def test_coverage_testing_weaker_than_perfect(model):
    # coverage-limited diagnosis leaves more faults in place than perfect
    # testing, so the post-test system pfd is no better
    profile, _universe, population, generator, components, matrix = model
    oracle, fixing = coverage_testing_pair(components, matrix)
    regime = SameSuite(generator)
    limited = simulate_marginal_system_pfd(
        regime, population, profile,
        oracle=oracle, fixing=fixing, n_replications=4000, rng=61,
    )
    perfect = simulate_marginal_system_pfd(
        regime, population, profile,
        n_replications=4000, rng=61,
    )
    assert limited.mean >= perfect.mean
