"""Tests for the growth-curve machinery."""

import numpy as np
import pytest

from repro.demand import DemandSpace, uniform_profile
from repro.errors import IncompatibleSpaceError, ModelError
from repro.faults import zipf_sized_universe
from repro.growth import (
    GrowthCurve,
    back_to_back_growth_curves,
    system_growth_curves,
    version_growth_curve,
)
from repro.populations import BernoulliFaultPopulation
from repro.versions import (
    optimistic_outputs,
    pessimistic_outputs,
    shared_fault_outputs,
)


@pytest.fixture
def growth_population():
    space = DemandSpace(60)
    universe = zipf_sized_universe(
        space, n_faults=8, max_region_size=12, exponent=1.0, rng=0
    )
    return BernoulliFaultPopulation.uniform(universe, 0.4), uniform_profile(space)


class TestGrowthCurve:
    def test_validation_lengths(self):
        with pytest.raises(ModelError):
            GrowthCurve("x", np.array([1, 2]), np.array([0.1]), exact=True)

    def test_validation_monotone_sizes(self):
        with pytest.raises(ModelError):
            GrowthCurve("x", np.array([2, 1]), np.array([0.1, 0.2]), exact=True)

    def test_properties(self):
        curve = GrowthCurve(
            "x", np.array([0, 10]), np.array([0.4, 0.1]), exact=True
        )
        assert curve.initial == pytest.approx(0.4)
        assert curve.is_nonincreasing()

    def test_dominates(self):
        sizes = np.array([0, 5])
        low = GrowthCurve("a", sizes, np.array([0.1, 0.05]), exact=True)
        high = GrowthCurve("b", sizes, np.array([0.2, 0.1]), exact=True)
        assert low.dominates(high)
        assert not high.dominates(low)

    def test_dominates_grid_mismatch(self):
        a = GrowthCurve("a", np.array([0, 5]), np.array([0.1, 0.05]), exact=True)
        b = GrowthCurve("b", np.array([0, 6]), np.array([0.1, 0.05]), exact=True)
        with pytest.raises(ModelError):
            a.dominates(b)


class TestVersionGrowthCurve:
    def test_monotone_and_starts_at_untested(self, growth_population):
        population, profile = growth_population
        curve = version_growth_curve(population, profile, [0, 5, 10, 40])
        assert curve.exact
        assert curve.is_nonincreasing()
        assert curve.initial == pytest.approx(population.pfd(profile))

    def test_size_grid_validation(self, growth_population):
        population, profile = growth_population
        with pytest.raises(ModelError):
            version_growth_curve(population, profile, [])
        with pytest.raises(ModelError):
            version_growth_curve(population, profile, [5, 5])
        with pytest.raises(ModelError):
            version_growth_curve(population, profile, [-1, 5])


class TestSystemGrowthCurves:
    def test_same_suite_dominated_by_independent(self, growth_population):
        population, profile = growth_population
        curves = system_growth_curves(population, profile, [0, 5, 20, 80])
        assert curves["independent suites"].dominates(
            curves["same suite"], tolerance=1e-12
        )

    def test_both_monotone(self, growth_population):
        population, profile = growth_population
        curves = system_growth_curves(population, profile, [0, 5, 20, 80])
        for curve in curves.values():
            assert curve.is_nonincreasing()

    def test_equal_at_zero_effort(self, growth_population):
        population, profile = growth_population
        curves = system_growth_curves(population, profile, [0, 10])
        assert curves["same suite"].values[0] == pytest.approx(
            curves["independent suites"].values[0]
        )


class TestBackToBackGrowthCurves:
    def test_system_curve_monotone(self, growth_population):
        population, profile = growth_population
        curves = back_to_back_growth_curves(
            population,
            profile,
            [0, 5, 20],
            shared_fault_outputs(),
            n_replications=40,
            rng=1,
        )
        assert curves["system"].is_nonincreasing(tolerance=1e-12)
        assert curves["version"].is_nonincreasing(tolerance=1e-12)
        assert not curves["system"].exact

    def test_pessimistic_system_above_shared(self, growth_population):
        """Less detection -> higher post-test system pfd, pointwise (the
        replications share draws through the seed)."""
        population, profile = growth_population
        shared = back_to_back_growth_curves(
            population,
            profile,
            [0, 10, 30],
            shared_fault_outputs(),
            n_replications=40,
            rng=2,
        )
        pessimistic = back_to_back_growth_curves(
            population,
            profile,
            [0, 10, 30],
            pessimistic_outputs(),
            n_replications=40,
            rng=2,
        )
        assert np.all(
            pessimistic["system"].values >= shared["system"].values - 1e-12
        )

    def test_replication_validation(self, growth_population):
        population, profile = growth_population
        with pytest.raises(ModelError):
            back_to_back_growth_curves(
                population,
                profile,
                [0, 5],
                shared_fault_outputs(),
                n_replications=0,
            )


def _reference_back_to_back(
    population_a, profile, sizes, output_model, population_b, n_replications, rng
):
    """The scalar replay of the block draws: each drawn pair and suite row
    replayed from scratch for every prefix with ``back_to_back_testing``
    and, on the same draws, ``apply_testing`` for the perfect-oracle arm."""
    from repro.rng import as_generator, spawn_many
    from repro.testing import (
        BackToBackComparator,
        OperationalSuiteGenerator,
        TestSuite,
        apply_testing,
        back_to_back_testing,
    )
    from repro.versions import Version

    population_b = population_b if population_b is not None else population_a
    comparator = BackToBackComparator(output_model)
    generator = OperationalSuiteGenerator(profile, int(sizes[-1]))
    streams = spawn_many(as_generator(rng), 3)
    rows_a = population_a.sample_fault_matrix(n_replications, streams[0])
    rows_b = population_b.sample_fault_matrix(n_replications, streams[1])
    sequences = generator.sample_demand_sequences(n_replications, streams[2])
    system = np.zeros(len(sizes))
    version = np.zeros(len(sizes))
    perfect = np.zeros(len(sizes))
    for row_a, row_b, sequence in zip(rows_a, rows_b, sequences):
        version_a = Version(population_a.universe, np.flatnonzero(row_a))
        version_b = Version(population_b.universe, np.flatnonzero(row_b))
        suite = TestSuite(profile.space, sequence)
        for index, n in enumerate(sizes):
            prefix = suite.prefix(int(n))
            outcome_a, outcome_b = back_to_back_testing(
                version_a, version_b, prefix, comparator
            )
            joint = outcome_a.after.failure_mask & outcome_b.after.failure_mask
            system[index] += profile.probabilities[joint].sum()
            version[index] += 0.5 * (
                outcome_a.after.pfd(profile) + outcome_b.after.pfd(profile)
            )
            tested_a = apply_testing(version_a, prefix).after
            tested_b = apply_testing(version_b, prefix).after
            perfect_joint = tested_a.failure_mask & tested_b.failure_mask
            perfect[index] += profile.probabilities[perfect_joint].sum()
    return (
        system / n_replications,
        version / n_replications,
        perfect / n_replications,
    )


class TestBackToBackBlockEquivalence:
    @pytest.mark.parametrize(
        "output_model",
        [optimistic_outputs(), pessimistic_outputs(), shared_fault_outputs()],
        ids=lambda model: model.mode,
    )
    @pytest.mark.parametrize("distinct_b", [False, True], ids=["same", "forced"])
    def test_matches_per_replication_loop(
        self, growth_population, output_model, distinct_b
    ):
        population, profile = growth_population
        population_b = (
            BernoulliFaultPopulation(
                population.universe, np.linspace(0.1, 0.7, len(population.universe))
            )
            if distinct_b
            else None
        )
        sizes = [0, 3, 10, 25, 60]
        curves = back_to_back_growth_curves(
            population,
            profile,
            sizes,
            output_model,
            population_b=population_b,
            n_replications=60,
            rng=9,
        )
        system, version, perfect = _reference_back_to_back(
            population, profile, sizes, output_model, population_b, 60, rng=9
        )
        for key, expected in (
            ("system", system),
            ("version", version),
            ("perfect", perfect),
        ):
            np.testing.assert_allclose(
                curves[key].values, expected, rtol=0, atol=1e-12
            )

    def test_perfect_curve_never_above_back_to_back(self, growth_population):
        population, profile = growth_population
        curves = back_to_back_growth_curves(
            population,
            profile,
            [0, 5, 20],
            pessimistic_outputs(),
            n_replications=40,
            rng=3,
        )
        assert curves["perfect"].dominates(curves["system"], tolerance=1e-12)

    @pytest.mark.parametrize("distinct_b", [False, True], ids=["same", "forced"])
    def test_perfect_curve_within_exact_band(self, distinct_b):
        """The common-random-numbers "perfect" curve on e14's model lies
        within a 99.9% family-wise band (Bonferroni over the effort levels)
        of the exact same-suite system pfd.  The band's standard errors come
        from the per-replication values, recomputed here from the same block
        draws; the curve must be their mean."""
        from statistics import NormalDist

        from repro.analytic import BernoulliExactEngine
        from repro.mc import apply_testing_batch
        from repro.rng import as_generator, spawn_many
        from repro.testing import OperationalSuiteGenerator

        space = DemandSpace(120)
        profile = uniform_profile(space)
        universe = zipf_sized_universe(
            space, n_faults=15, max_region_size=24, exponent=1.0, rng=0
        )
        population = BernoulliFaultPopulation.uniform(universe, 0.35)
        population_b = (
            BernoulliFaultPopulation(universe, np.linspace(0.1, 0.6, len(universe)))
            if distinct_b
            else population
        )
        sizes = [0, 5, 10, 20, 40, 80, 160]
        n_replications, seed = 2000, 1401
        perfect = back_to_back_growth_curves(
            population,
            profile,
            sizes,
            shared_fault_outputs(),
            population_b=population_b,
            n_replications=n_replications,
            rng=seed,
        )["perfect"].values

        streams = spawn_many(as_generator(seed), 3)
        rows_a = population.sample_fault_matrix(n_replications, streams[0])
        rows_b = population_b.sample_fault_matrix(n_replications, streams[1])
        sequences = OperationalSuiteGenerator(
            profile, sizes[-1]
        ).sample_demand_sequences(n_replications, streams[2])
        values = np.empty((len(sizes), n_replications))
        for index, n in enumerate(sizes):
            masks = np.zeros((n_replications, space.size), dtype=bool)
            np.put_along_axis(masks, sequences[:, :n], True, axis=1)
            joint = universe.failure_matrix(
                apply_testing_batch(rows_a, masks, universe)
            ) & universe.failure_matrix(apply_testing_batch(rows_b, masks, universe))
            values[index] = joint @ profile.probabilities
        np.testing.assert_allclose(perfect, values.mean(axis=1), rtol=0, atol=1e-12)

        engine = BernoulliExactEngine(universe, profile)
        exact = np.array(
            [engine.system_pfd_same_suite(population, n, population_b) for n in sizes]
        )
        z = NormalDist().inv_cdf(1 - 0.001 / (2 * len(sizes)))
        band = z * values.std(axis=1, ddof=1) / np.sqrt(n_replications)
        assert np.all(np.abs(perfect - exact) <= band), (perfect, exact, band)

    def test_population_b_space_validated(self, growth_population):
        population, profile = growth_population
        other_space = DemandSpace(profile.space.size + 10)
        other = BernoulliFaultPopulation(
            zipf_sized_universe(
                other_space, n_faults=4, max_region_size=5, exponent=1.0, rng=0
            ),
            [0.3] * 4,
        )
        with pytest.raises(IncompatibleSpaceError, match="demand spaces differ"):
            back_to_back_growth_curves(
                population,
                profile,
                [0, 5],
                shared_fault_outputs(),
                population_b=other,
                n_replications=5,
            )
