"""Tests for the §4 bounds machinery."""

import numpy as np
import pytest

from repro.core import SameSuite
from repro.core.bounds import (
    BoundsReport,
    back_to_back_envelope,
    imperfect_system_bounds,
    imperfect_testing_bounds,
)
from repro.errors import ModelError
from repro.faults.universe import failure_masses
from repro.mc import MeanEstimator, back_to_back_batch
from repro.populations import FinitePopulation
from repro.testing import (
    BackToBackComparator,
    ImperfectFixing,
    ImperfectOracle,
    PerfectFixing,
    PerfectOracle,
)
from repro.versions import (
    Version,
    optimistic_outputs,
    pessimistic_outputs,
    shared_fault_outputs,
)


class _RowImperfectFixing(ImperfectFixing):
    """Imperfect fixing, on the per-row plan (kernels serve exact types)."""


class TestBoundsReport:
    def test_holds(self):
        report = BoundsReport(0.1, 0.3, 0.2, 100, "x")
        assert report.holds()
        assert report.width == pytest.approx(0.2)

    def test_violations(self):
        low = BoundsReport(0.1, 0.3, 0.05, 100, "x")
        high = BoundsReport(0.1, 0.3, 0.35, 100, "x")
        assert not low.holds()
        assert not high.holds()
        assert low.holds(slack=0.06)
        assert high.holds(slack=0.06)


class TestImperfectTestingBounds:
    def test_perfect_components_hit_lower_bound(
        self, bernoulli_population, enumerable_generator, profile
    ):
        report = imperfect_testing_bounds(
            bernoulli_population,
            enumerable_generator,
            profile,
            PerfectOracle(),
            PerfectFixing(),
            n_replications=150,
            rng=0,
        )
        # the measurement is MC over versions/suites; allow noise
        assert report.measured == pytest.approx(report.lower, abs=0.05)
        assert report.holds(slack=0.05)

    def test_dead_oracle_hits_upper_bound(
        self, bernoulli_population, enumerable_generator, profile
    ):
        report = imperfect_testing_bounds(
            bernoulli_population,
            enumerable_generator,
            profile,
            ImperfectOracle(0.0),
            PerfectFixing(),
            n_replications=150,
            rng=1,
        )
        assert report.measured == pytest.approx(report.upper, abs=0.05)

    def test_intermediate_within_bounds(
        self, bernoulli_population, enumerable_generator, profile
    ):
        report = imperfect_testing_bounds(
            bernoulli_population,
            enumerable_generator,
            profile,
            ImperfectOracle(0.5),
            ImperfectFixing(0.5),
            n_replications=200,
            rng=2,
        )
        assert report.holds(slack=0.02)

    def test_replication_validation(
        self, bernoulli_population, enumerable_generator, profile
    ):
        with pytest.raises(ModelError):
            imperfect_testing_bounds(
                bernoulli_population,
                enumerable_generator,
                profile,
                PerfectOracle(),
                PerfectFixing(),
                n_replications=0,
            )


class TestImperfectSystemBounds:
    def test_within_envelope(
        self, bernoulli_population, enumerable_generator, profile
    ):
        report = imperfect_system_bounds(
            SameSuite(enumerable_generator),
            bernoulli_population,
            profile,
            ImperfectOracle(0.6),
            ImperfectFixing(0.7),
            n_replications=200,
            rng=3,
        )
        assert report.holds(slack=0.02)
        assert report.lower <= report.upper


class TestBackToBackEnvelope:
    def test_ordering_and_optimistic_identity(
        self, bernoulli_population, enumerable_generator, profile
    ):
        envelope = back_to_back_envelope(
            bernoulli_population,
            enumerable_generator,
            profile,
            n_replications=60,
            rng=4,
        )
        assert envelope.optimistic_matches_perfect
        assert envelope.ordering_holds

    def test_identical_channel_population_no_system_gain(
        self, universe, enumerable_generator, profile
    ):
        """With one fixed program in both channels, pessimistic back-to-back
        cannot detect anything, so the system pfd stays untested."""
        fixed = Version.with_all_faults(universe)
        population = FinitePopulation(universe, [fixed], [1.0])
        envelope = back_to_back_envelope(
            population,
            enumerable_generator,
            profile,
            n_replications=10,
            rng=5,
        )
        assert envelope.pessimistic_system_pfd == pytest.approx(
            envelope.untested_system_pfd
        )
        # while the optimistic run does improve the system
        assert envelope.optimistic_system_pfd < envelope.untested_system_pfd

    def test_version_reliability_improves_even_pessimistically(
        self, bernoulli_population, enumerable_generator, profile
    ):
        envelope = back_to_back_envelope(
            bernoulli_population,
            enumerable_generator,
            profile,
            n_replications=100,
            rng=6,
        )
        assert (
            envelope.pessimistic_version_pfd <= envelope.untested_version_pfd
        )

    def test_scalar_imperfect_fixing_is_seeded(
        self, bernoulli_population, operational_generator, profile
    ):
        """A custom fixing policy runs on the envelope's per-row plan, each
        comparator's fixing on its own stream: a fixed seed gives one
        envelope for any worker count, and the plan agrees with the
        ``ImperfectFixing`` kernel in distribution."""

        def envelope(**kwargs):
            return back_to_back_envelope(
                bernoulli_population,
                operational_generator,
                profile,
                fixing=_RowImperfectFixing(0.5),
                n_replications=200,
                rng=9,
                chunk_size=50,
                **kwargs,
            )

        serial = envelope()
        assert serial == envelope()
        assert serial == envelope(n_jobs=2)
        assert serial.ordering_holds

        # one drawn block, tested by the kernel and by the per-row plan:
        # only the fixing draws differ, so each row's difference in joint
        # and per-channel failure mass has mean 0, inside its 99.9% interval
        universe = bernoulli_population.universe
        blocks = (
            bernoulli_population.sample_fault_matrix(4000, rng=1),
            bernoulli_population.sample_fault_matrix(4000, rng=2),
            operational_generator.sample_demand_sequences(4000, rng=3),
            universe,
            universe,
        )
        for outputs in (optimistic_outputs, pessimistic_outputs, shared_fault_outputs):
            comparator = BackToBackComparator(outputs())
            kernel = back_to_back_batch(
                *blocks, comparator, ImperfectFixing(0.5), rng=4
            )
            rows = back_to_back_batch(
                *blocks, comparator, _RowImperfectFixing(0.5), rng=5
            )
            masses = [
                failure_masses(
                    profile.probabilities,
                    (universe, after_a),
                    (universe, after_b),
                    marginals=True,
                )
                for after_a, after_b in (kernel, rows)
            ]
            assert not np.array_equal(*masses)
            for difference in masses[0] - masses[1]:
                estimator = MeanEstimator()
                estimator.add_many(difference)
                low, high = estimator.normal_interval(0.999)
                assert low <= 0.0 <= high, outputs.__name__
