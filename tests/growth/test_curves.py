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
        assert curve.final == pytest.approx(0.1)
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
    """The per-replication scalar loop the block kernel replaced: every
    prefix replayed from scratch with ``back_to_back_testing`` and, on the
    same draws, ``apply_testing`` for the perfect-oracle arm."""
    from repro.rng import as_generator, spawn_many
    from repro.testing import (
        BackToBackComparator,
        OperationalSuiteGenerator,
        apply_testing,
        back_to_back_testing,
    )

    population_b = population_b if population_b is not None else population_a
    comparator = BackToBackComparator(output_model)
    generator = OperationalSuiteGenerator(profile, int(sizes[-1]))
    system = np.zeros(len(sizes))
    version = np.zeros(len(sizes))
    perfect = np.zeros(len(sizes))
    for replication in spawn_many(as_generator(rng), n_replications):
        streams = spawn_many(replication, 3)
        version_a = population_a.sample(streams[0])
        version_b = population_b.sample(streams[1])
        suite = generator.sample(streams[2])
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
