"""Tests for the tested-population quantities (paper eqs. (12)-(14))."""

import numpy as np
import pytest

from repro.core import SuiteMoments, TestedPopulationView, cross_suite_moments
from repro.core.score import (
    score_after_perfect_testing,
    score_before_testing,
)
from repro.errors import ModelError
from repro.populations import BernoulliFaultPopulation
from repro.testing import TestSuite
from repro.versions import Version


class TestScoreFunctions:
    def test_score_before(self, universe):
        version = Version(universe, np.array([0]))
        assert score_before_testing(version, 0) == 1
        assert score_before_testing(version, 5) == 0

    def test_score_after(self, universe, space):
        version = Version(universe, np.array([0]))
        suite = TestSuite.of(space, [1])
        assert score_after_perfect_testing(version, suite, 0) == 0

    def test_monotonicity(self, universe, space, rng):
        for _ in range(30):
            version = Version(universe, np.flatnonzero(rng.random(3) < 0.5))
            suite = TestSuite(space, rng.integers(0, 10, size=3))
            for demand in range(10):
                before = score_before_testing(version, demand)
                after = score_after_perfect_testing(version, suite, demand)
                assert before >= after


class TestXi:
    def test_xi_exact(self, bernoulli_population, enumerable_generator, space):
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        suite = TestSuite.of(space, [0])
        xi = view.xi(suite)
        np.testing.assert_allclose(
            xi, bernoulli_population.tested_difficulty([0])
        )


class TestVarsigma:
    def test_varsigma_enumerable_exact(
        self, bernoulli_population, enumerable_generator, universe
    ):
        """Hand-check eq. (12) for the version containing only fault 0.

        Fault 0 covers {0,1}; suites are {0} (p=.5), {2,4} (p=.3), {7}
        (p=.2).  Only suite {0} triggers it, so the version keeps failing
        on {0,1} with probability 0.5."""
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        version = Version(universe, np.array([0]))
        varsigma = view.varsigma(version)
        assert varsigma[0] == pytest.approx(0.5)
        assert varsigma[1] == pytest.approx(0.5)
        assert varsigma[2] == 0.0

    def test_varsigma_sampled_close_to_exact(
        self, bernoulli_population, operational_generator, universe
    ):
        view = TestedPopulationView(bernoulli_population, operational_generator)
        version = Version.with_all_faults(universe)
        sampled = view.varsigma(version, n_suites=3000, rng=1)
        # exact by suite-probability reasoning: fault survives iff no suite
        # demand lands in its region; suite = 4 iid uniform draws
        survive = lambda region_size: (1 - region_size / 10) ** 4
        assert sampled[0] == pytest.approx(survive(2), abs=0.05)
        assert sampled[2] == pytest.approx(survive(3), abs=0.05)

    def test_varsigma_needs_replications(self, bernoulli_population, operational_generator, universe):
        view = TestedPopulationView(bernoulli_population, operational_generator)
        with pytest.raises(ModelError):
            view.varsigma(Version.correct(universe), n_suites=0, rng=0)


class TestEta:
    def test_eta_hand_value(
        self, bernoulli_population, enumerable_generator, universe, profile, space
    ):
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        version = Version.with_all_faults(universe)
        suite = TestSuite.of(space, [0])  # removes fault 0; {2,3,4,5} remain
        assert view.eta(version, suite, profile) == pytest.approx(0.4)


class TestSuiteMoments:
    def test_exact_flag(self, bernoulli_population, enumerable_generator):
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        moments = view.suite_moments()
        assert moments.exact

    def test_zeta_hand_value(self, bernoulli_population, enumerable_generator):
        """zeta(0): fault 0 (p=.5) survives unless suite {0} (prob .5) runs.
        zeta(0) = .5 * 0 + .3 * .5 + .2 * .5 = 0.25."""
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        moments = view.suite_moments()
        assert moments.zeta[0] == pytest.approx(0.25)

    def test_second_moment_hand_value(self, bernoulli_population, enumerable_generator):
        """E[xi(0,T)^2] = .5*0 + .3*.25 + .2*.25 = 0.125."""
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        moments = view.suite_moments()
        assert moments.second_moment[0] == pytest.approx(0.125)

    def test_variance_identity(self, bernoulli_population, enumerable_generator):
        moments = TestedPopulationView(
            bernoulli_population, enumerable_generator
        ).suite_moments()
        np.testing.assert_allclose(
            moments.variance,
            moments.second_moment - moments.zeta**2,
            atol=1e-15,
        )

    def test_variance_non_negative(self, bernoulli_population, operational_generator):
        moments = TestedPopulationView(
            bernoulli_population, operational_generator
        ).suite_moments(n_suites=200, rng=3)
        assert np.all(moments.variance >= 0)

    def test_sampled_converges_to_exact(self, bernoulli_population, space, profile):
        """Sampling from an enumerable measure converges to enumeration."""
        from repro.testing import EnumerableSuiteGenerator

        suites = [TestSuite.of(space, [0]), TestSuite.of(space, [4])]
        generator = EnumerableSuiteGenerator(space, suites, [0.5, 0.5])
        view = TestedPopulationView(bernoulli_population, generator)
        exact = view.suite_moments()

        class SamplingOnly:
            space = generator.space

            def enumerate(self):
                from repro.errors import NotEnumerableError

                raise NotEnumerableError("test stub")

            def sample(self, rng):
                return generator.sample(rng)

            def sample_many(self, count, rng):
                return generator.sample_many(count, rng)

        sampled_view = TestedPopulationView(bernoulli_population, SamplingOnly())
        sampled = sampled_view.suite_moments(n_suites=4000, rng=5)
        assert not sampled.exact
        np.testing.assert_allclose(sampled.zeta, exact.zeta, atol=0.03)


class TestEfficiency:
    def test_efficiency_non_negative(
        self, bernoulli_population, enumerable_generator
    ):
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        assert np.all(view.efficiency() >= -1e-15)

    def test_marginal_pfd(self, bernoulli_population, enumerable_generator, profile):
        view = TestedPopulationView(bernoulli_population, enumerable_generator)
        assert view.marginal_pfd(profile) == pytest.approx(
            profile.expectation(view.zeta())
        )


class TestCrossSuiteMoments:
    def test_same_population_reduces_to_second_moment(
        self, bernoulli_population, enumerable_generator
    ):
        cross = cross_suite_moments(
            bernoulli_population, bernoulli_population, enumerable_generator
        )
        moments = TestedPopulationView(
            bernoulli_population, enumerable_generator
        ).suite_moments()
        np.testing.assert_allclose(cross.cross_moment, moments.second_moment)

    def test_covariance_identity(self, universe, enumerable_generator):
        pop_a = BernoulliFaultPopulation(universe, [0.5, 0.0, 0.3])
        pop_b = BernoulliFaultPopulation(universe, [0.2, 0.6, 0.0])
        cross = cross_suite_moments(pop_a, pop_b, enumerable_generator)
        np.testing.assert_allclose(
            cross.covariance,
            cross.cross_moment - cross.zeta_a * cross.zeta_b,
            atol=1e-15,
        )


class TestClosedFormDispatch:
    """Bernoulli populations under i.i.d. profile-drawn suites integrate in
    closed form; everything else keeps enumerating or sampling."""

    def test_operational_matches_engine(self, universe, profile):
        from repro.analytic import BernoulliExactEngine
        from repro.testing import OperationalSuiteGenerator

        generator = OperationalSuiteGenerator(profile, 4)
        pop_a = BernoulliFaultPopulation(universe, [0.5, 0.25, 0.4])
        pop_b = BernoulliFaultPopulation(universe, [0.2, 0.6, 0.0])
        engine = BernoulliExactEngine(universe, profile)
        moments = TestedPopulationView(pop_a, generator).suite_moments()
        cross = cross_suite_moments(pop_a, pop_b, generator)
        assert moments.exact and cross.exact
        for actual, expected in [
            (moments.zeta, engine.zeta(pop_a, 4)),
            (moments.second_moment, engine.xi_second_moment(pop_a, 4)),
            (cross.zeta_a, engine.zeta(pop_a, 4)),
            (cross.zeta_b, engine.zeta(pop_b, 4)),
            (cross.cross_moment, engine.xi_cross_moment(pop_a, pop_b, 4)),
        ]:
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    def test_debug_profile_matches_enumeration(self):
        """A debug profile unlike the usage profile against every ordered
        size-2 suite on a 4-demand space, weighted by the debug profile."""
        import itertools

        from repro.demand import DemandSpace, UsageProfile, uniform_profile
        from repro.faults import FaultUniverse
        from repro.testing import EnumerableSuiteGenerator, WeightedDebugGenerator

        space = DemandSpace(4)
        debug = UsageProfile(space, [0.1, 0.2, 0.3, 0.4])
        assert not np.allclose(debug.probabilities, uniform_profile(space).probabilities)
        universe = FaultUniverse.from_regions(space, [[0, 1], [1, 2], [3]])
        pop_a = BernoulliFaultPopulation(universe, [0.5, 0.3, 0.8])
        pop_b = BernoulliFaultPopulation(universe, [0.1, 0.7, 0.4])
        generator = WeightedDebugGenerator(debug, 2)
        pairs = list(itertools.product(range(4), repeat=2))
        enumerated = EnumerableSuiteGenerator(
            space,
            [TestSuite.of(space, pair) for pair in pairs],
            [debug.probabilities[i] * debug.probabilities[j] for i, j in pairs],
        )
        closed = TestedPopulationView(pop_a, generator).suite_moments()
        truth = TestedPopulationView(pop_a, enumerated).suite_moments()
        cross = cross_suite_moments(pop_a, pop_b, generator)
        cross_truth = cross_suite_moments(pop_a, pop_b, enumerated)
        assert closed.exact and cross.exact
        for actual, expected in [
            (closed.zeta, truth.zeta),
            (closed.second_moment, truth.second_moment),
            (cross.zeta_b, cross_truth.zeta_b),
            (cross.cross_moment, cross_truth.cross_moment),
        ]:
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    def test_finite_population_is_sampled(self, finite_population, operational_generator):
        moments = TestedPopulationView(
            finite_population, operational_generator
        ).suite_moments(n_suites=50, rng=0)
        assert not moments.exact

    def test_mixed_populations_are_sampled(
        self, bernoulli_population, finite_population, operational_generator
    ):
        cross = cross_suite_moments(
            bernoulli_population,
            finite_population,
            operational_generator,
            n_suites=50,
            rng=0,
        )
        assert not cross.exact

    def test_cover_beyond_engine_limit_is_sampled(self, space, profile):
        from repro.analytic import BernoulliExactEngine
        from repro.analytic.bernoulli_exact import _MAX_COVER
        from repro.faults import FaultUniverse
        from repro.testing import OperationalSuiteGenerator

        universe = FaultUniverse.from_regions(
            space, [[0, 1 + index % 9] for index in range(_MAX_COVER + 1)]
        )
        population = BernoulliFaultPopulation(universe, [0.1] * len(universe))
        generator = OperationalSuiteGenerator(profile, 2)
        with pytest.raises(ModelError):
            BernoulliExactEngine(universe, profile).zeta(population, 2)
        moments = TestedPopulationView(population, generator).suite_moments(
            n_suites=50, rng=0
        )
        cross = cross_suite_moments(
            population, population, generator, n_suites=50, rng=0
        )
        assert not moments.exact and not cross.exact


def _reference_moments(population_a, population_b, generator, n_suites, rng):
    """The per-suite loop the block kernel replaced: ``tested_difficulty``
    once per suite, accumulated suite by suite."""
    from repro.errors import NotEnumerableError
    from repro.rng import as_generator

    try:
        pairs = list(generator.enumerate())
    except NotEnumerableError:
        suites = generator.sample_many(n_suites, as_generator(rng))
        pairs = [(suite, 1.0) for suite in suites]
        scale = 1.0 / n_suites
    else:
        scale = 1.0
    size = generator.space.size
    first_a = np.zeros(size)
    first_b = np.zeros(size)
    cross = np.zeros(size)
    for suite, probability in pairs:
        xi_a = population_a.tested_difficulty(suite.unique_demands)
        xi_b = population_b.tested_difficulty(suite.unique_demands)
        first_a += probability * xi_a
        first_b += probability * xi_b
        cross += probability * xi_a * xi_b
    return first_a * scale, first_b * scale, cross * scale


def _generators(space, profile):
    """The sampled cases use a generator with no closed form, so they keep
    exercising the block kernel against the per-suite loop."""
    from repro.testing import EnumerableSuiteGenerator, WithoutReplacementGenerator

    enumerable = EnumerableSuiteGenerator(
        space,
        [
            TestSuite.empty(space),
            TestSuite.of(space, [0]),
            TestSuite.of(space, [2, 4, 4]),
            TestSuite.of(space, [5, 7, 9]),
        ],
        [0.1, 0.4, 0.3, 0.2],
    )
    return {
        "enumerable": enumerable,
        "sampled": WithoutReplacementGenerator(profile, 3),
        "sampled-empty": WithoutReplacementGenerator(profile, 0),
        # more suites than one kernel block, so blocks are merged
        "sampled-large": WithoutReplacementGenerator(profile, 2),
    }


def _populations(universe, finite_population):
    return {
        "bernoulli": BernoulliFaultPopulation(universe, [0.5, 0.25, 0.4]),
        "bernoulli-p0": BernoulliFaultPopulation(universe, [0.0, 0.6, 0.0]),
        "bernoulli-p1": BernoulliFaultPopulation(universe, [1.0, 0.3, 1.0]),
        "finite": finite_population,
    }


_GENERATORS = ["enumerable", "sampled", "sampled-empty", "sampled-large"]
_POPULATIONS = ["bernoulli", "bernoulli-p0", "bernoulli-p1", "finite"]


class TestBlockKernelEquivalence:
    """Batched suite moments equal the per-suite ``tested_difficulty`` loop."""

    @pytest.mark.parametrize("generator_name", _GENERATORS)
    @pytest.mark.parametrize("population_name", _POPULATIONS)
    def test_suite_moments_match_loop(
        self,
        generator_name,
        population_name,
        universe,
        finite_population,
        space,
        profile,
    ):
        generator = _generators(space, profile)[generator_name]
        population = _populations(universe, finite_population)[population_name]
        n_suites = 700 if generator_name == "sampled-large" else 90
        moments = TestedPopulationView(population, generator).suite_moments(
            n_suites=n_suites, rng=11
        )
        first, _, second = _reference_moments(
            population, population, generator, n_suites, rng=11
        )
        np.testing.assert_allclose(moments.zeta, first, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            moments.second_moment, second, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("generator_name", _GENERATORS)
    @pytest.mark.parametrize(
        "pair",
        [
            ("bernoulli", "bernoulli-p0"),
            ("bernoulli-p1", "bernoulli"),
            ("finite", "bernoulli-p1"),
            ("bernoulli", "bernoulli"),
        ],
    )
    def test_cross_suite_moments_match_loop(
        self, generator_name, pair, universe, finite_population, space, profile
    ):
        generator = _generators(space, profile)[generator_name]
        populations = _populations(universe, finite_population)
        population_a, population_b = (populations[name] for name in pair)
        n_suites = 700 if generator_name == "sampled-large" else 90
        cross = cross_suite_moments(
            population_a, population_b, generator, n_suites=n_suites, rng=5
        )
        first_a, first_b, cross_moment = _reference_moments(
            population_a, population_b, generator, n_suites, rng=5
        )
        np.testing.assert_allclose(cross.zeta_a, first_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cross.zeta_b, first_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            cross.cross_moment, cross_moment, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("probs", [[0.5, 0.25, 0.4], [0.0, 1.0, 0.3], [1.0] * 3])
    def test_bernoulli_matrix_matches_enumerated_population(
        self, universe, space, probs
    ):
        """The closed-form block equals direct summation over the Bernoulli
        measure's enumerated support (an independent reference)."""
        from repro.populations import FinitePopulation

        bernoulli = BernoulliFaultPopulation(universe, probs)
        versions, weights = zip(*bernoulli.enumerate())
        finite = FinitePopulation(universe, versions, weights)
        masks = np.zeros((5, space.size), dtype=bool)
        masks[1, [0]] = True
        masks[2, [4]] = True
        masks[3, [2, 5, 9]] = True
        masks[4, :] = True
        np.testing.assert_allclose(
            bernoulli.tested_difficulty_matrix(masks),
            finite.tested_difficulty_matrix(masks),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            bernoulli.tested_difficulty_matrix(masks[:1])[0],
            bernoulli.difficulty(),
            rtol=0,
            atol=1e-15,
        )

    def test_matrix_rejects_wrong_width(self, bernoulli_population, finite_population):
        from repro.errors import IncompatibleSpaceError

        for population in (bernoulli_population, finite_population):
            with pytest.raises(IncompatibleSpaceError):
                population.tested_difficulty_matrix(np.zeros((2, 7), dtype=bool))
