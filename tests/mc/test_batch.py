"""Tests for the vectorized batch Monte-Carlo engine.

Three layers of assurance:

* **property tests** — the batched perfect-oracle testing closure agrees
  row-for-row with the scalar :func:`repro.testing.apply_testing` on
  hypothesis-generated universes, versions and suites;
* **statistical agreement** — batched and scalar ``simulate_*`` paths give
  estimates with overlapping 95% confidence intervals on a shared model;
* **execution semantics** — batched runs are deterministic under a seed,
  invariant to ``n_jobs`` at fixed chunking, and reject custom
  oracle/fixing policies (imperfect oracles/fixing run vectorized; see
  tests/mc/test_batch_imperfect.py for their agreement suite).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IndependentSuites, SameSuite
from repro.demand import DemandSpace, uniform_profile, zipf_profile
from repro.errors import ModelError
from repro.faults import FaultUniverse, clustered_universe
from repro.mc import (
    MeanEstimator,
    apply_testing_batch,
    batch_supported,
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_untested_joint_on_demand,
    simulate_version_pfd,
)
from repro.populations import BernoulliFaultPopulation
from repro.rng import as_generator, spawn_many
from repro.testing import (
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    SuiteGenerator,
    TestSuite,
    apply_testing,
)
from repro.versions import Version


def _overlap(first, second, confidence=0.95):
    """True iff the two estimators' confidence intervals overlap."""
    if hasattr(first, "wilson_interval"):
        low_a, high_a = first.wilson_interval(confidence)
        low_b, high_b = second.wilson_interval(confidence)
    else:
        low_a, high_a = first.normal_interval(confidence)
        low_b, high_b = second.normal_interval(confidence)
    return low_a <= high_b and low_b <= high_a


@pytest.fixture
def model():
    """A mid-size model exercising overlapping regions and a skewed Q."""
    space = DemandSpace(60)
    profile = zipf_profile(space, exponent=0.7)
    universe = clustered_universe(space, n_faults=12, region_size=5, rng=3)
    population = BernoulliFaultPopulation.uniform(universe, 0.35)
    generator = OperationalSuiteGenerator(profile, 15)
    return space, profile, universe, population, generator


# ---------------------------------------------------------------------------
# property: batched testing closure == scalar apply_testing
# ---------------------------------------------------------------------------


@st.composite
def _closure_cases(draw):
    n_demands = draw(st.integers(min_value=1, max_value=12))
    n_faults = draw(st.integers(min_value=0, max_value=6))
    regions = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_demands - 1),
                min_size=1,
                max_size=n_demands,
                unique=True,
            )
        )
        for _ in range(n_faults)
    ]
    present = draw(st.lists(st.booleans(), min_size=n_faults, max_size=n_faults))
    suite = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_demands - 1),
            min_size=0,
            max_size=2 * n_demands,
        )
    )
    return n_demands, regions, present, suite


@given(_closure_cases())
@settings(max_examples=150, deadline=None)
def test_closure_matches_scalar_apply_testing(case):
    n_demands, regions, present, suite_demands = case
    space = DemandSpace(n_demands)
    universe = FaultUniverse.from_regions(space, regions)
    fault_ids = np.flatnonzero(np.asarray(present, dtype=bool)).astype(np.int64)
    version = Version(universe, fault_ids)
    suite = TestSuite.of(space, suite_demands)

    scalar_after = apply_testing(version, suite).after
    expected = np.zeros(len(universe), dtype=bool)
    expected[scalar_after.fault_ids] = True

    fault_matrix = np.zeros((1, len(universe)), dtype=bool)
    fault_matrix[0, fault_ids] = True
    batch_after = apply_testing_batch(
        fault_matrix, suite.mask()[None, :], universe
    )
    assert np.array_equal(batch_after[0], expected)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_fault_matrix_rows_are_valid_versions(seed, count):
    space = DemandSpace(20)
    universe = clustered_universe(space, n_faults=8, region_size=4, rng=1)
    population = BernoulliFaultPopulation(
        universe, np.linspace(0.0, 1.0, len(universe))
    )
    matrix = population.sample_fault_matrix(count, seed)
    assert matrix.shape == (count, len(universe))
    # impossible faults never appear; certain faults always do
    assert not matrix[:, population.presence_probs == 0.0].any()
    assert matrix[:, population.presence_probs == 1.0].all()


# ---------------------------------------------------------------------------
# statistical agreement between engines
# ---------------------------------------------------------------------------


def test_untested_joint_engines_agree(model):
    _space, _profile, _universe, population, _generator = model
    demand = 2
    scalar = simulate_untested_joint_on_demand(
        population, demand, n_replications=3000, rng=11, engine="scalar"
    )
    batch = simulate_untested_joint_on_demand(
        population, demand, n_replications=3000, rng=11, engine="batch"
    )
    assert batch.count == scalar.count == 3000
    assert _overlap(scalar, batch)
    theta = population.difficulty()[demand]
    assert batch.contains(float(theta**2), confidence=0.999)


@pytest.mark.parametrize("regime_cls", [SameSuite, IndependentSuites])
def test_tested_joint_engines_agree(model, regime_cls):
    _space, _profile, _universe, population, generator = model
    regime = regime_cls(generator)
    demand = 2
    scalar = simulate_joint_on_demand(
        regime, population, demand, n_replications=3000, rng=13, engine="scalar"
    )
    batch = simulate_joint_on_demand(
        regime, population, demand, n_replications=3000, rng=13, engine="batch"
    )
    assert _overlap(scalar, batch)


def test_marginal_engines_agree(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    scalar = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1500, rng=17, engine="scalar"
    )
    batch = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1500, rng=17, engine="batch"
    )
    assert _overlap(scalar, batch)


def test_marginal_raw_demand_engines_agree(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    scalar = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=4000,
        rng=19,
        rao_blackwell=False,
        engine="scalar",
    )
    batch = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=4000,
        rng=19,
        rao_blackwell=False,
        engine="batch",
    )
    assert _overlap(scalar, batch)


def test_version_pfd_engines_agree(model):
    _space, profile, _universe, population, generator = model
    scalar = simulate_version_pfd(
        population, generator, profile, n_replications=1500, rng=23, engine="scalar"
    )
    batch = simulate_version_pfd(
        population, generator, profile, n_replications=1500, rng=23, engine="batch"
    )
    assert _overlap(scalar, batch)


# ---------------------------------------------------------------------------
# execution semantics: determinism, chunking, sharding, fallback
# ---------------------------------------------------------------------------


def test_batch_deterministic_under_seed(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    first = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=500, rng=29, engine="batch"
    )
    second = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=500, rng=29, engine="batch"
    )
    assert first.mean == second.mean
    assert first.variance == second.variance


def test_chunked_run_covers_full_budget(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    estimator = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1001, rng=31, chunk_size=100,
        engine="batch",
    )
    assert estimator.count == 1001


def test_n_jobs_invariant_at_fixed_chunking(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    serial = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=400,
        rng=37,
        chunk_size=100,
        n_jobs=1,
        engine="batch",
    )
    sharded = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=400,
        rng=37,
        chunk_size=100,
        n_jobs=2,
        engine="batch",
    )
    assert sharded.count == serial.count
    assert sharded.mean == serial.mean
    assert sharded.variance == serial.variance


def test_proportion_n_jobs_invariant(model):
    _space, _profile, _universe, population, generator = model
    regime = IndependentSuites(generator)
    serial = simulate_joint_on_demand(
        regime, population, 2, n_replications=400, rng=41, chunk_size=100, n_jobs=1,
        engine="batch",
    )
    sharded = simulate_joint_on_demand(
        regime, population, 2, n_replications=400, rng=41, chunk_size=100, n_jobs=2,
        engine="batch",
    )
    assert (sharded.successes, sharded.count) == (serial.successes, serial.count)


class _CustomOracle(ImperfectOracle):
    """An oracle the batch engine cannot introspect (custom subclass)."""

    def detects(self, version, demand, rng):
        return super().detects(version, demand, rng)


class _SampleOnlyGenerator(SuiteGenerator):
    """A user generator that defines only ``sample``: a random number of
    uniform demands, repeats allowed, so suites differ in length."""

    def sample(self, rng=None):
        rng = as_generator(rng)
        length = int(rng.integers(1, 12))
        return TestSuite.of(self.space, rng.integers(0, self.space.size, length))


def test_sample_only_generator_runs_on_batch(model):
    """The base-class block draws loop ``sample`` on the same spawned
    streams, so a subclass defining only ``sample`` runs on
    ``engine="batch"``, in the perfect (masks) and §4.1 (sequences)
    closures alike, and agrees with the scalar loop."""
    space, profile, _universe, population, _generator = model
    custom = _SampleOnlyGenerator(space)
    suites = [custom.sample(stream) for stream in spawn_many(as_generator(5), 40)]
    np.testing.assert_array_equal(
        custom.sample_demand_masks(40, rng=5), np.stack([s.mask() for s in suites])
    )
    sequences = custom.sample_demand_sequences(40, rng=5)
    assert sequences.shape == (40, max(len(suite) for suite in suites))
    for row, suite in zip(sequences, suites):
        np.testing.assert_array_equal(row[: len(suite)], suite.demands)
        assert (row[len(suite):] == -1).all()
    for testing in (
        {},
        {"oracle": ImperfectOracle(0.6), "fixing": ImperfectFixing(0.5)},
    ):
        batch = simulate_version_pfd(
            population, custom, profile, n_replications=3000, rng=11,
            engine="batch", **testing,
        )
        scalar = simulate_version_pfd(
            population, custom, profile, n_replications=400, rng=11,
            engine="scalar", **testing,
        )
        assert _overlap(batch, scalar), (batch.mean, scalar.mean)


def test_custom_oracle_not_batch_supported(model):
    _space, profile, _universe, population, generator = model
    oracle = _CustomOracle(0.6)
    assert not batch_supported(oracle=oracle)
    # engine='auto' transparently falls back to the scalar loop
    regime = SameSuite(generator)
    auto = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=50, rng=43, oracle=oracle
    )
    scalar = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=50,
        rng=43,
        oracle=oracle,
        engine="scalar",
    )
    assert auto.mean == scalar.mean
    assert auto.variance == scalar.variance


def test_imperfect_oracle_runs_on_batch_path(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    oracle = ImperfectOracle(0.6)
    assert batch_supported(oracle=oracle)
    batch = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=2000, rng=43, oracle=oracle,
        engine="batch",
    )
    scalar = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=2000,
        rng=43,
        oracle=oracle,
        engine="scalar",
    )
    assert _overlap(scalar, batch)


def test_auto_engine_matches_forced_batch(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    auto = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=300, rng=47
    )
    forced = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=300, rng=47, engine="batch"
    )
    assert auto.mean == forced.mean


def test_n_jobs_invariant_at_default_chunking(model):
    # default chunk size must not depend on n_jobs (documented guarantee);
    # 10001 replications span two default-size chunks
    _space, _profile, _universe, population, _generator = model
    serial = simulate_untested_joint_on_demand(
        population, 2, n_replications=10001, rng=53, n_jobs=1, engine="batch"
    )
    sharded = simulate_untested_joint_on_demand(
        population, 2, n_replications=10001, rng=53, n_jobs=2, engine="batch"
    )
    assert (sharded.successes, sharded.count) == (serial.successes, serial.count)


def test_explicit_batch_engine_rejects_custom_oracle(model):
    _space, profile, _universe, population, generator = model
    with pytest.raises(ModelError, match="engine='batch'"):
        simulate_marginal_system_pfd(
            SameSuite(generator),
            population,
            profile,
            n_replications=10,
            oracle=_CustomOracle(0.5),
            engine="batch",
        )


def test_unknown_engine_rejected(model):
    _space, profile, _universe, population, generator = model
    with pytest.raises(ModelError):
        simulate_marginal_system_pfd(
            SameSuite(generator),
            population,
            profile,
            n_replications=10,
            engine="gpu",
        )


def test_invalid_replications_rejected_on_batch_path(model):
    _space, _profile, _universe, population, _generator = model
    with pytest.raises(ModelError):
        simulate_untested_joint_on_demand(
            population, 0, n_replications=0, engine="batch"
        )


# ---------------------------------------------------------------------------
# estimator merges
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_mean_add_many_matches_sequential_add(values, n_splits):
    sequential = MeanEstimator()
    for value in values:
        sequential.add(value)
    merged = MeanEstimator()
    for chunk in np.array_split(np.asarray(values), n_splits):
        merged.add_many(chunk)
    assert merged.count == sequential.count
    assert merged.mean == pytest.approx(sequential.mean, rel=1e-12, abs=1e-12)
    assert merged.variance == pytest.approx(
        sequential.variance, rel=1e-9, abs=1e-12
    )


def test_mean_add_many_empty_is_noop():
    estimator = MeanEstimator()
    estimator.add_many([])
    assert estimator.count == 0
    estimator.add(0.5)
    estimator.add_many([])
    assert estimator.count == 1
    assert estimator.mean == 0.5


def test_mean_add_moments_rejects_negative_count():
    with pytest.raises(ModelError):
        MeanEstimator().add_moments(-1, 0.0, 0.0)
