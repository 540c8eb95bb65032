"""Tests for the vectorized batch Monte-Carlo engine.

Three layers of assurance:

* **property tests** — the batched perfect-oracle testing closure agrees
  row-for-row with :func:`repro.testing.apply_testing` on
  hypothesis-generated universes, versions and suites;
* **agreement with the per-row plan** — a trivial :class:`PerfectOracle`
  subclass sends a driver down the per-row plan, which runs
  :func:`~repro.testing.apply_testing` on every row of the blocks the
  kernel draws; its estimates equal the kernel's, or overlap them at 95%
  where the two plans draw different streams;
* **execution semantics** — batched runs are deterministic under a seed,
  invariant to ``n_jobs`` at fixed chunking, and run custom oracle/fixing
  policies on the per-row plan (imperfect oracles/fixing run vectorized;
  see tests/mc/test_batch_imperfect.py for their agreement suite).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IndependentSuites, SameSuite
from repro.demand import DemandSpace, zipf_profile
from repro.errors import ModelError
from repro.faults import FaultUniverse, clustered_universe
from repro.mc import (
    MeanEstimator,
    ProportionEstimator,
    apply_testing_batch,
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_untested_joint_on_demand,
    simulate_version_pfd,
)
from repro.mc.batch import _testing_plan
from repro.populations import BernoulliFaultPopulation
from repro.rng import as_generator, spawn_many
from repro.testing import (
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    PerfectFixing,
    PerfectOracle,
    SuiteGenerator,
    TestSuite,
    apply_testing,
)
from repro.versions import Version


class _RowOracle(PerfectOracle):
    """The perfect oracle, on the per-row plan (the planner serves exact
    types only)."""


class _RowImperfectOracle(ImperfectOracle):
    """The §4.1 oracle, on the per-row plan."""


class _RowImperfectFixing(ImperfectFixing):
    """The §4.1 fixing, on the per-row plan."""


def _on_rows(testing):
    """The per-row twin of a testing-kwargs dict: every policy swapped for
    its trivial subclass (a perfect oracle when none is given)."""
    oracle = testing.get("oracle")
    fixing = testing.get("fixing")
    return {
        "oracle": (
            _RowOracle()
            if oracle is None
            else _RowImperfectOracle(oracle.detection_probability)
        ),
        "fixing": (
            None if fixing is None else _RowImperfectFixing(fixing.fix_probability)
        ),
    }


def _same(first, second):
    """Bit-identical estimators."""
    if hasattr(first, "successes"):
        return (first.successes, first.count) == (second.successes, second.count)
    return (first.count, first.mean, first.variance) == (
        second.count,
        second.mean,
        second.variance,
    )


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
# agreement between the kernels and the per-row plan
# ---------------------------------------------------------------------------


def test_untested_joint_engines_agree(model):
    """No testing plan here: the reference is a per-replication loop of
    version pairs drawn one at a time."""
    _space, _profile, _universe, population, _generator = model
    demand = 2
    reference = ProportionEstimator()
    for stream in spawn_many(as_generator(11), 3000):
        first, second = spawn_many(stream, 2)
        reference.add_many(
            int(
                population.sample(first).fails_on(demand)
                and population.sample(second).fails_on(demand)
            ),
            1,
        )
    batch = simulate_untested_joint_on_demand(
        population, demand, n_replications=3000, rng=11
    )
    assert batch.count == reference.count == 3000
    assert _overlap(reference, batch)
    theta = population.difficulty()[demand]
    assert batch.contains(float(theta**2), confidence=0.999)


@pytest.mark.parametrize("regime_cls", [SameSuite, IndependentSuites])
def test_tested_joint_engines_agree(model, regime_cls):
    _space, _profile, _universe, population, generator = model
    regime = regime_cls(generator)
    demand = 2
    rows = simulate_joint_on_demand(
        regime, population, demand, n_replications=3000, rng=13, oracle=_RowOracle()
    )
    batch = simulate_joint_on_demand(
        regime, population, demand, n_replications=3000, rng=13
    )
    assert _same(rows, batch)


def test_marginal_engines_agree(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    rows = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1500, rng=17, oracle=_RowOracle()
    )
    batch = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1500, rng=17
    )
    assert _same(rows, batch)


def test_marginal_raw_demand_engines_agree(model):
    """The per-row plan draws the raw demands from the §4.1 layout's sixth
    stream, the perfect kernel from its fourth: they agree in
    distribution."""
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    rows = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=4000,
        rng=19,
        rao_blackwell=False,
        oracle=_RowOracle(),
    )
    batch = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=4000,
        rng=19,
        rao_blackwell=False,
    )
    assert _overlap(rows, batch)


def test_version_pfd_engines_agree(model):
    _space, profile, _universe, population, generator = model
    rows = simulate_version_pfd(
        population, generator, profile, n_replications=1500, rng=23, oracle=_RowOracle()
    )
    batch = simulate_version_pfd(
        population, generator, profile, n_replications=1500, rng=23
    )
    assert _same(rows, batch)


# ---------------------------------------------------------------------------
# execution semantics: determinism, chunking, sharding, fallback
# ---------------------------------------------------------------------------


def test_batch_deterministic_under_seed(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    first = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=500, rng=29
    )
    second = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=500, rng=29
    )
    assert first.mean == second.mean
    assert first.variance == second.variance


def test_chunked_run_covers_full_budget(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    estimator = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=1001, rng=31, chunk_size=100,
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
    )
    sharded = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=400,
        rng=37,
        chunk_size=100,
        n_jobs=2,
    )
    assert sharded.count == serial.count
    assert sharded.mean == serial.mean
    assert sharded.variance == serial.variance


def test_proportion_n_jobs_invariant(model):
    _space, _profile, _universe, population, generator = model
    regime = IndependentSuites(generator)
    serial = simulate_joint_on_demand(
        regime, population, 2, n_replications=400, rng=41, chunk_size=100, n_jobs=1,
    )
    sharded = simulate_joint_on_demand(
        regime, population, 2, n_replications=400, rng=41, chunk_size=100, n_jobs=2,
    )
    assert (sharded.successes, sharded.count) == (serial.successes, serial.count)


# one tested-pair simulation scores every demand of a sequence; column j
# must equal the single-demand run on demands[j] at the same rng
_DEMANDS = [51, 2, 38]

#: design → (regime class, second population's presence probability or None)
_DESIGNS = {
    "same_suite": (SameSuite, None),
    "independent_suites": (IndependentSuites, None),
    "forced_design": (IndependentSuites, 0.2),
}

#: perfect testing, and the §4.1 oracle/fixing pair (sorted demand runs
#: plus one testing stream per channel)
_PLANS = {
    "perfect": {},
    "oracle_fixing": {
        "oracle": ImperfectOracle(0.7),
        "fixing": ImperfectFixing(0.6),
    },
}


def _joint_runs(model, design, plan, demands, **kwargs):
    _space, _profile, universe, population, generator = model
    regime_cls, presence_b = _DESIGNS[design]
    population_b = (
        None
        if presence_b is None
        else BernoulliFaultPopulation.uniform(universe, presence_b)
    )
    return simulate_joint_on_demand(
        regime_cls(generator),
        population,
        demands,
        population_b,
        rng=23,
        **{**_PLANS[plan], **kwargs},
    )


def _assert_columns_match(model, design, plan, sequence_kwargs, single_kwargs):
    joint = _joint_runs(model, design, plan, _DEMANDS, **sequence_kwargs)
    assert isinstance(joint, tuple) and len(joint) == len(_DEMANDS)
    assert sum(estimator.successes for estimator in joint) > 0
    for demand, estimator in zip(_DEMANDS, joint):
        single = _joint_runs(model, design, plan, demand, **single_kwargs)
        assert (estimator.successes, estimator.count) == (
            single.successes,
            single.count,
        )


#: "batch" runs the plan's kernel; "scalar" (the label of the retired
#: per-replication engine) runs the same testing on the per-row plan
@pytest.mark.parametrize(
    "path, n_replications", [("batch", 2000), ("scalar", 120)]
)
@pytest.mark.parametrize("plan", sorted(_PLANS))
@pytest.mark.parametrize("design", sorted(_DESIGNS))
def test_demand_sequence_equals_single_demand_runs(
    model, design, plan, path, n_replications
):
    kwargs = dict(n_replications=n_replications)
    if path == "scalar":
        kwargs.update(_on_rows(_PLANS[plan]))
    _assert_columns_match(model, design, plan, kwargs, kwargs)


@pytest.mark.parametrize("plan", sorted(_PLANS))
def test_sharded_demand_sequence_equals_single_demand_runs(model, plan):
    kwargs = dict(n_replications=400, chunk_size=100)
    _assert_columns_match(
        model, "forced_design", plan, dict(kwargs, n_jobs=2), kwargs
    )


def test_demand_sequence_rejects_precision(model):
    _space, _profile, _universe, population, generator = model
    with pytest.raises(ModelError, match="not a sequence"):
        simulate_joint_on_demand(
            SameSuite(generator),
            population,
            _DEMANDS,
            precision={"rel_hw": 0.2},
        )


class _CustomOracle(ImperfectOracle):
    """An oracle the batch kernels cannot introspect (custom subclass)."""

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
    streams, so a subclass defining only ``sample`` runs on the batch
    blocks, in the perfect (masks) and §4.1 (sequences) closures alike,
    and agrees with the per-row plan."""
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
            population, custom, profile, n_replications=3000, rng=11, **testing,
        )
        rows = simulate_version_pfd(
            population, custom, profile, n_replications=400, rng=11,
            **_on_rows(testing),
        )
        assert _overlap(batch, rows), (batch.mean, rows.mean)


def test_custom_oracle_not_batch_supported(model):
    """A custom oracle gets no kernel: the default call runs it on the
    per-row plan, the same run as forcing that plan with the oracle's
    trivial-subclass twin."""
    _space, profile, _universe, population, generator = model
    oracle = _CustomOracle(0.6)
    assert _testing_plan(oracle, None)[0] == "rows"
    regime = SameSuite(generator)
    custom = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=50, rng=43, oracle=oracle
    )
    rows = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=50,
        rng=43,
        oracle=_RowImperfectOracle(0.6),
    )
    assert _same(custom, rows)


def test_imperfect_oracle_runs_on_batch_path(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    oracle = ImperfectOracle(0.6)
    assert _testing_plan(oracle, None)[0] == "bernoulli"
    batch = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=2000, rng=43, oracle=oracle,
    )
    rows = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=2000,
        rng=43,
        oracle=_CustomOracle(0.6),
    )
    assert _overlap(rows, batch)


def test_auto_engine_matches_forced_batch(model):
    """With the engine knob gone, the default call and an explicitly
    passed perfect pair resolve to the same kernel plan, bit for bit."""
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    default = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=300, rng=47
    )
    explicit = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=300,
        rng=47,
        oracle=PerfectOracle(),
        fixing=PerfectFixing(),
    )
    assert _testing_plan(PerfectOracle(), PerfectFixing())[0] == "perfect"
    assert _same(default, explicit)


def test_n_jobs_invariant_at_default_chunking(model):
    # default chunk size must not depend on n_jobs (documented guarantee);
    # 10001 replications span two default-size chunks
    _space, _profile, _universe, population, _generator = model
    serial = simulate_untested_joint_on_demand(
        population, 2, n_replications=10001, rng=53, n_jobs=1
    )
    sharded = simulate_untested_joint_on_demand(
        population, 2, n_replications=10001, rng=53, n_jobs=2
    )
    assert (sharded.successes, sharded.count) == (serial.successes, serial.count)


def test_explicit_batch_engine_rejects_custom_oracle(model):
    """``engine=`` is retired: naming it, even as ``"batch"``, is an
    unknown keyword, while the custom oracle itself runs per row."""
    _space, profile, _universe, population, generator = model
    call = dict(
        regime=SameSuite(generator),
        population_a=population,
        profile=profile,
        n_replications=10,
        oracle=_CustomOracle(0.5),
    )
    with pytest.raises(TypeError, match="engine"):
        simulate_marginal_system_pfd(**call, engine="batch")
    assert simulate_marginal_system_pfd(**call).count == 10


def test_unknown_engine_rejected(model):
    _space, profile, _universe, population, generator = model
    with pytest.raises(TypeError, match="engine"):
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
            population, 0, n_replications=0
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
