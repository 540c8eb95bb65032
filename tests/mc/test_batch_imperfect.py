"""Tests for the imperfect-regime and back-to-back batch kernels.

Mirrors tests/mc/test_batch.py for the regimes PR 1 left on the scalar
path:

* **property / exactness** — the §4.1 kernel degenerates to the perfect
  closure at ``p = q = 1``; the back-to-back kernel matches the scalar
  :func:`repro.testing.back_to_back_testing` row for row (it is
  deterministic under perfect fixing); the blind-spot closure matches the
  scalar blind oracle/fixing pair exactly;
* **statistical agreement** — batch and scalar engines give estimates with
  overlapping 99% confidence intervals for ``ImperfectOracle``,
  ``ImperfectFixing``, their combination, and the back-to-back envelope;
* **execution semantics** — seed determinism and ``n_jobs`` invariance for
  the new kernels, engine dispatch, and the suite representations
  (ordered sequences and their sorted demand runs) they are built on.
"""

import numpy as np
import pytest

from repro.core import IndependentSuites, SameSuite
from repro.core.bounds import back_to_back_envelope
from repro.demand import DemandSpace, uniform_profile, zipf_profile
from repro.errors import ModelError
from repro.faults import clustered_universe
from repro.mc import (
    apply_coverage_testing_batch,
    apply_imperfect_testing_batch,
    apply_testing_batch,
    back_to_back_batch,
    back_to_back_supported,
    batch_supported,
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_version_pfd,
)
from repro.populations import BernoulliFaultPopulation
from repro.testing import (
    BackToBackComparator,
    ExhaustiveSuiteGenerator,
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    back_to_back_testing,
)
from repro.testing.generators import _suite_runs
from repro.versions import (
    optimistic_outputs,
    pessimistic_outputs,
    shared_fault_outputs,
)


def _overlap(first, second, confidence=0.99):
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
# suite representations: ordered sequences and their sorted demand runs
# ---------------------------------------------------------------------------


def _counts(sequences, n_demands):
    """The ``(R, D)`` occurrence-count block of a demand-sequence block."""
    runs = _suite_runs(sequences, n_demands)
    counts = np.zeros(runs.shape, dtype=np.int64)
    counts.ravel()[runs.flat] = runs.counts
    return counts


def test_operational_sequences_shape_and_counts(model):
    _space, _profile, _universe, _population, generator = model
    sequences = generator.sample_demand_sequences(40, rng=1)
    assert sequences.shape == (40, 15)
    assert sequences.min() >= 0 and sequences.max() < 60
    counts = _counts(sequences, 60)
    assert counts.shape == (40, 60)
    assert (counts.sum(axis=1) == 15).all()
    # counts and masks agree on membership
    assert np.array_equal(counts > 0, _suite_runs(sequences, 60).masks())


def test_default_sequences_pad_variable_lengths():
    # the base-class loop pads shorter suites with -1
    space = DemandSpace(8)
    profile = uniform_profile(space)
    from repro.testing import EnumerableSuiteGenerator, TestSuite

    generator = EnumerableSuiteGenerator(
        space,
        [TestSuite.of(space, [0, 1, 1]), TestSuite.of(space, [5])],
        [0.5, 0.5],
    )
    sequences = generator.sample_demand_sequences(64, rng=2)
    assert sequences.shape == (64, 3)
    lengths = (sequences >= 0).sum(axis=1)
    assert set(lengths.tolist()) <= {1, 3}
    counts = _counts(sequences, 8)
    # the repeated demand keeps its multiplicity
    assert set(counts[lengths == 3][:, 1].tolist()) == {2}


def test_exhaustive_sequences_cover_space_in_order():
    space = DemandSpace(7)
    generator = ExhaustiveSuiteGenerator(space)
    sequences = generator.sample_demand_sequences(3, rng=0)
    assert sequences.shape == (3, 7)
    assert np.array_equal(sequences, np.tile(np.arange(7), (3, 1)))


def test_same_suite_counts_are_shared(model):
    _space, _profile, _universe, _population, generator = model
    seqs_a, seqs_b = SameSuite(generator)._draw_suite_sequences(20, rng=3)
    assert seqs_a is seqs_b
    seqs_a, seqs_b = IndependentSuites(generator)._draw_suite_sequences(20, rng=3)
    assert not np.array_equal(_counts(seqs_a, 60), _counts(seqs_b, 60))


# ---------------------------------------------------------------------------
# §4.1 kernel: exactness corners and scalar agreement
# ---------------------------------------------------------------------------


def test_imperfect_kernel_degenerates_to_perfect_closure(model):
    _space, _profile, universe, population, generator = model
    faults = population.sample_fault_matrix(200, rng=5)
    sequences = generator.sample_demand_sequences(200, rng=6)
    counts = _counts(sequences, universe.space.size)
    perfect = apply_testing_batch(faults, counts > 0, universe)
    degenerate = apply_imperfect_testing_batch(
        faults, counts, universe, 1.0, 1.0, rng=7
    )
    assert np.array_equal(perfect, degenerate)


def test_dead_oracle_leaves_blocks_unchanged(model):
    _space, _profile, universe, population, generator = model
    faults = population.sample_fault_matrix(100, rng=8)
    counts = _counts(generator.sample_demand_sequences(100, rng=9), 60)
    after = apply_imperfect_testing_batch(faults, counts, universe, 0.0, 1.0, rng=10)
    assert np.array_equal(after, faults)


def _dense_imperfect_closure(faults, counts, universe, detect, fix, generator):
    """The §4.1 closure drawing a binomial at every ``(r, x)``, zeros included."""
    detecting = generator.binomial(counts, detect)
    chances = detecting.astype(np.float64) @ universe.coverage.T.astype(np.float64)
    if fix >= 1.0:
        return faults & (chances < 0.5)
    return faults & (generator.random(faults.shape) < (1.0 - fix) ** chances)


@pytest.mark.parametrize("fix", [1.0, 0.5])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_imperfect_kernel_draws_the_dense_stream(model, fix, layout):
    """Binomials drawn only at non-zero counts give the dense draw's
    detections and leave the generator in the dense draw's state."""
    _space, _profile, universe, population, generator = model
    faults = population.sample_fault_matrix(300, rng=11)
    counts = np.asarray(
        _counts(generator.sample_demand_sequences(300, rng=12), 60), order=layout
    )
    assert 0 < np.count_nonzero(counts) < counts.size
    dense, sparse = np.random.default_rng(13), np.random.default_rng(13)
    expected = _dense_imperfect_closure(faults, counts, universe, 0.6, fix, dense)
    after = apply_imperfect_testing_batch(
        faults, counts, universe, 0.6, fix, rng=sparse
    )
    assert np.array_equal(after, expected)
    assert sparse.random() == dense.random()


def test_coverage_kernel_matches_its_closed_form(model):
    _space, _profile, universe, population, generator = model
    faults = population.sample_fault_matrix(200, rng=14)
    counts = _counts(generator.sample_demand_sequences(200, rng=15), 60)
    probs = np.linspace(0.1, 0.9, len(universe))
    chances = counts.astype(np.float64) @ universe.coverage.T.astype(np.float64)
    reference = np.random.default_rng(16)
    expected = faults & (reference.random(faults.shape) < (1.0 - probs) ** chances)
    after = apply_coverage_testing_batch(faults, counts, universe, probs, rng=16)
    assert np.array_equal(after, expected)


def test_exhaustive_perfect_rates_remove_everything(model):
    _space, profile, universe, population, _generator = model
    exhaustive = ExhaustiveSuiteGenerator(universe.space)
    estimator = simulate_version_pfd(
        population,
        exhaustive,
        profile,
        n_replications=200,
        rng=11,
        oracle=ImperfectOracle(1.0),
        fixing=ImperfectFixing(1.0),
        engine="batch",
    )
    assert estimator.mean == 0.0


@pytest.mark.parametrize(
    "oracle, fixing",
    [
        (ImperfectOracle(0.6), None),
        (None, ImperfectFixing(0.5)),
        (ImperfectOracle(0.75), ImperfectFixing(0.5)),
    ],
)
def test_version_pfd_engines_agree_imperfect(model, oracle, fixing):
    _space, profile, _universe, population, generator = model
    scalar = simulate_version_pfd(
        population,
        generator,
        profile,
        n_replications=3000,
        rng=13,
        oracle=oracle,
        fixing=fixing,
        engine="scalar",
    )
    batch = simulate_version_pfd(
        population,
        generator,
        profile,
        n_replications=3000,
        rng=13,
        oracle=oracle,
        fixing=fixing,
        engine="batch",
    )
    assert _overlap(scalar, batch)


@pytest.mark.parametrize("regime_cls", [SameSuite, IndependentSuites])
def test_joint_engines_agree_imperfect(model, regime_cls):
    _space, _profile, _universe, population, generator = model
    regime = regime_cls(generator)
    kwargs = dict(
        oracle=ImperfectOracle(0.7),
        fixing=ImperfectFixing(0.6),
        n_replications=3000,
        rng=17,
    )
    scalar = simulate_joint_on_demand(
        regime, population, 2, engine="scalar", **kwargs
    )
    batch = simulate_joint_on_demand(
        regime, population, 2, engine="batch", **kwargs
    )
    assert _overlap(scalar, batch)


def test_marginal_engines_agree_imperfect(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    kwargs = dict(
        oracle=ImperfectOracle(0.6),
        fixing=ImperfectFixing(0.5),
        n_replications=2000,
        rng=19,
    )
    scalar = simulate_marginal_system_pfd(
        regime, population, profile, engine="scalar", **kwargs
    )
    batch = simulate_marginal_system_pfd(
        regime, population, profile, engine="batch", **kwargs
    )
    assert _overlap(scalar, batch)


def test_imperfect_estimates_bracketed_by_envelope(model):
    # §4.1: imperfect testing sits between perfect testing and no testing
    _space, profile, _universe, population, generator = model
    perfect = simulate_version_pfd(
        population, generator, profile, n_replications=4000, rng=23
    ).mean
    imperfect = simulate_version_pfd(
        population,
        generator,
        profile,
        n_replications=4000,
        rng=23,
        oracle=ImperfectOracle(0.5),
        engine="batch",
    ).mean
    untested = population.pfd(profile)
    slack = 0.01
    assert perfect - slack <= imperfect <= untested + slack


# ---------------------------------------------------------------------------
# back-to-back kernel: scalar equivalence and envelope agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "outputs",
    [optimistic_outputs(), pessimistic_outputs(), shared_fault_outputs()],
    ids=["optimistic", "pessimistic", "shared-fault"],
)
def test_back_to_back_matches_scalar_rows(model, outputs):
    # perfect fixing makes back-to-back deterministic given the draws, so
    # the kernel must reproduce the scalar engine exactly, row for row
    _space, _profile, universe, population, generator = model
    rng = np.random.default_rng(29)
    comparator = BackToBackComparator(outputs)
    for _trial in range(25):
        version_a = population.sample(rng)
        version_b = population.sample(rng)
        suite = generator.sample(rng)
        outcome_a, outcome_b = back_to_back_testing(
            version_a, version_b, suite, comparator
        )
        faults_a = np.zeros((1, len(universe)), dtype=bool)
        faults_a[0, version_a.fault_ids] = True
        faults_b = np.zeros((1, len(universe)), dtype=bool)
        faults_b[0, version_b.fault_ids] = True
        after_a, after_b = back_to_back_batch(
            faults_a,
            faults_b,
            suite.demands[None, :],
            universe,
            universe,
            comparator,
        )
        expected_a = np.zeros(len(universe), dtype=bool)
        expected_a[outcome_a.after.fault_ids] = True
        expected_b = np.zeros(len(universe), dtype=bool)
        expected_b[outcome_b.after.fault_ids] = True
        assert np.array_equal(after_a[0], expected_a)
        assert np.array_equal(after_b[0], expected_b)


def test_back_to_back_inputs_not_mutated(model):
    _space, _profile, universe, population, generator = model
    faults_a = population.sample_fault_matrix(50, rng=31)
    faults_b = population.sample_fault_matrix(50, rng=32)
    sequences = generator.sample_demand_sequences(50, rng=33)
    snapshot_a = faults_a.copy()
    snapshot_b = faults_b.copy()
    back_to_back_batch(
        faults_a,
        faults_b,
        sequences,
        universe,
        universe,
        BackToBackComparator(optimistic_outputs()),
    )
    assert np.array_equal(faults_a, snapshot_a)
    assert np.array_equal(faults_b, snapshot_b)


def test_envelope_engines_agree(model):
    _space, profile, _universe, population, generator = model
    scalar = back_to_back_envelope(
        population, generator, profile, n_replications=600, rng=37, engine="scalar"
    )
    batch = back_to_back_envelope(
        population, generator, profile, n_replications=600, rng=37, engine="batch"
    )
    fields = [
        "untested_system_pfd",
        "perfect_system_pfd",
        "optimistic_system_pfd",
        "pessimistic_system_pfd",
        "shared_fault_system_pfd",
        "untested_version_pfd",
        "optimistic_version_pfd",
        "pessimistic_version_pfd",
        "shared_fault_version_pfd",
    ]
    for field in fields:
        # generous statistical tolerance: both are ~600-replication means of
        # values in [0, 0.4]; disagreement beyond this is a kernel bug
        assert abs(getattr(scalar, field) - getattr(batch, field)) < 0.03, field
    assert batch.optimistic_matches_perfect
    assert batch.ordering_holds
    assert batch.n_replications == 600


def test_envelope_auto_engine_uses_batch(model):
    _space, profile, _universe, population, generator = model
    auto = back_to_back_envelope(
        population, generator, profile, n_replications=200, rng=41
    )
    forced = back_to_back_envelope(
        population, generator, profile, n_replications=200, rng=41, engine="batch"
    )
    assert auto.pessimistic_system_pfd == forced.pessimistic_system_pfd


def test_envelope_imperfect_fixing_supported(model):
    _space, profile, _universe, population, generator = model
    fixing = ImperfectFixing(0.5)
    assert back_to_back_supported(fixing)
    partial = back_to_back_envelope(
        population, generator, profile, fixing=fixing, n_replications=300, rng=43,
        engine="batch",
    )
    full = back_to_back_envelope(
        population, generator, profile, n_replications=300, rng=43, engine="batch"
    )
    # weaker fixing removes fewer faults: every post-test pfd is >= the
    # perfect-fixing one (statistically; allow MC slack)
    assert (
        partial.optimistic_version_pfd >= full.optimistic_version_pfd - 0.01
    )


# ---------------------------------------------------------------------------
# execution semantics: determinism, sharding, dispatch
# ---------------------------------------------------------------------------


def test_imperfect_batch_deterministic_under_seed(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    kwargs = dict(
        oracle=ImperfectOracle(0.6),
        fixing=ImperfectFixing(0.5),
        n_replications=500,
        rng=47,
    )
    kwargs["engine"] = "batch"
    first = simulate_marginal_system_pfd(regime, population, profile, **kwargs)
    second = simulate_marginal_system_pfd(regime, population, profile, **kwargs)
    assert first.mean == second.mean
    assert first.variance == second.variance


def test_imperfect_n_jobs_invariant_at_fixed_chunking(model):
    _space, profile, _universe, population, generator = model
    regime = SameSuite(generator)
    kwargs = dict(
        oracle=ImperfectOracle(0.6),
        fixing=ImperfectFixing(0.5),
        n_replications=400,
        rng=53,
        chunk_size=100,
    )
    serial = simulate_marginal_system_pfd(
        regime, population, profile, n_jobs=1, **kwargs, engine="batch"
    )
    sharded = simulate_marginal_system_pfd(
        regime, population, profile, n_jobs=2, **kwargs, engine="batch"
    )
    assert sharded.count == serial.count
    assert sharded.mean == serial.mean
    assert sharded.variance == serial.variance


def test_envelope_n_jobs_invariant_at_fixed_chunking(model):
    _space, profile, _universe, population, generator = model
    serial = back_to_back_envelope(
        population,
        generator,
        profile,
        n_replications=400,
        rng=59,
        chunk_size=100,
        n_jobs=1,
        engine="batch",
    )
    sharded = back_to_back_envelope(
        population,
        generator,
        profile,
        n_replications=400,
        rng=59,
        chunk_size=100,
        n_jobs=2,
        engine="batch",
    )
    assert serial == sharded


def test_batch_supported_truth_table():
    assert batch_supported()
    assert batch_supported(oracle=ImperfectOracle(0.3))
    assert batch_supported(fixing=ImperfectFixing(0.3))
    assert batch_supported(ImperfectOracle(0.3), ImperfectFixing(0.3))
    from repro.extensions import SpecificationMistake

    mistake = SpecificationMistake((0, 2))
    assert batch_supported(mistake.blind_oracle(), mistake.blind_fixing())
    # mismatched blind spots are order-dependent: scalar only
    other = SpecificationMistake((1,))
    assert not batch_supported(mistake.blind_oracle(), other.blind_fixing())
    assert not batch_supported(mistake.blind_oracle(), ImperfectFixing(0.5))


def test_blind_pair_engines_agree(model):
    from repro.extensions import SpecificationMistake

    _space, profile, _universe, population, generator = model
    mistake = SpecificationMistake((0, 3))
    regime = SameSuite(generator)
    kwargs = dict(
        oracle=mistake.blind_oracle(),
        fixing=mistake.blind_fixing(),
        n_replications=1500,
        rng=61,
    )
    scalar = simulate_marginal_system_pfd(
        regime, population, profile, engine="scalar", **kwargs
    )
    batch = simulate_marginal_system_pfd(
        regime, population, profile, engine="batch", **kwargs
    )
    assert _overlap(scalar, batch)


def test_engine_batch_accepts_imperfect_oracle(model):
    # the old scalar fallback is gone: engine='batch' now really runs
    # imperfect oracles on the vectorized path
    _space, profile, _universe, population, generator = model
    estimator = simulate_marginal_system_pfd(
        SameSuite(generator),
        population,
        profile,
        n_replications=50,
        rng=67,
        oracle=ImperfectOracle(0.5),
        engine="batch",
    )
    assert estimator.count == 50


def test_envelope_unknown_engine_rejected(model):
    _space, profile, _universe, population, generator = model
    with pytest.raises(ModelError):
        back_to_back_envelope(
            population, generator, profile, n_replications=10, engine="gpu"
        )


def test_custom_fixing_subclass_takes_scalar_envelope_path(model):
    # a subclass may override faults_removed arbitrarily, so the batch
    # kernel must not model it from its fix_probability field alone
    class NeverFixing(ImperfectFixing):
        def faults_removed(self, version, demand, rng):
            return np.empty(0, dtype=np.int64)

    _space, profile, _universe, population, generator = model
    fixing = NeverFixing(0.9)
    assert not back_to_back_supported(fixing)
    with pytest.raises(ModelError, match="engine='batch'"):
        back_to_back_envelope(
            population,
            generator,
            profile,
            fixing=fixing,
            n_replications=10,
            engine="batch",
        )
    # auto falls back to the scalar loop, which honours the override:
    # repair never happens, so the post-test version pfd stays untested
    envelope = back_to_back_envelope(
        population, generator, profile, fixing=fixing, n_replications=50, rng=71
    )
    assert envelope.optimistic_version_pfd == pytest.approx(
        envelope.untested_version_pfd
    )


def test_back_to_back_rejects_out_of_space_demands(model):
    _space, _profile, universe, population, _generator = model
    faults = population.sample_fault_matrix(4, rng=73)
    bad = np.full((4, 3), universe.space.size, dtype=np.int64)
    with pytest.raises(ModelError, match="outside space"):
        back_to_back_batch(
            faults,
            faults,
            bad,
            universe,
            universe,
            BackToBackComparator(optimistic_outputs()),
        )
