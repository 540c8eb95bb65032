"""Tests for the full-pipeline Monte-Carlo experiment drivers."""

import numpy as np
import pytest

from repro.core import IndependentSuites, SameSuite, joint_failure_probability
from repro.errors import ModelError
from repro.mc import (
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_untested_joint_on_demand,
    simulate_version_pfd,
)


class TestUntestedJoint:
    def test_matches_theta_squared(self, bernoulli_population):
        theta = bernoulli_population.difficulty()
        demand = 4
        estimator = simulate_untested_joint_on_demand(
            bernoulli_population, demand, n_replications=4000, rng=0
        )
        assert estimator.contains(float(theta[demand] ** 2), confidence=0.999)

    def test_replication_validation(self, bernoulli_population):
        with pytest.raises(ModelError):
            simulate_untested_joint_on_demand(
                bernoulli_population, 0, n_replications=0
            )


class TestTestedJoint:
    def test_same_suite_matches_analytic(
        self, bernoulli_population, enumerable_generator
    ):
        regime = SameSuite(enumerable_generator)
        analytic = joint_failure_probability(regime, bernoulli_population)
        demand = 0
        estimator = simulate_joint_on_demand(
            regime, bernoulli_population, demand, n_replications=4000, rng=1
        )
        assert estimator.contains(
            float(analytic.joint[demand]), confidence=0.999
        )

    def test_independent_matches_analytic(
        self, bernoulli_population, enumerable_generator
    ):
        regime = IndependentSuites(enumerable_generator)
        analytic = joint_failure_probability(regime, bernoulli_population)
        demand = 0
        estimator = simulate_joint_on_demand(
            regime, bernoulli_population, demand, n_replications=4000, rng=2
        )
        assert estimator.contains(
            float(analytic.joint[demand]), confidence=0.999
        )

    def test_deterministic_under_seed(
        self, bernoulli_population, enumerable_generator
    ):
        regime = SameSuite(enumerable_generator)
        a = simulate_joint_on_demand(
            regime, bernoulli_population, 0, n_replications=100, rng=3
        )
        b = simulate_joint_on_demand(
            regime, bernoulli_population, 0, n_replications=100, rng=3
        )
        assert a.mean == b.mean


class TestMarginal:
    def test_rao_blackwell_matches_analytic(
        self, bernoulli_population, enumerable_generator, profile
    ):
        from repro.core import marginal_system_pfd

        regime = SameSuite(enumerable_generator)
        analytic = marginal_system_pfd(
            regime, bernoulli_population, profile
        ).system_pfd
        estimator = simulate_marginal_system_pfd(
            regime,
            bernoulli_population,
            profile,
            n_replications=800,
            rng=4,
        )
        assert estimator.contains(analytic, confidence=0.999)

    def test_raw_demand_draw_agrees(self, bernoulli_population, enumerable_generator, profile):
        regime = SameSuite(enumerable_generator)
        rao = simulate_marginal_system_pfd(
            regime,
            bernoulli_population,
            profile,
            n_replications=800,
            rng=5,
        )
        raw = simulate_marginal_system_pfd(
            regime,
            bernoulli_population,
            profile,
            n_replications=4000,
            rng=6,
            rao_blackwell=False,
        )
        assert raw.mean == pytest.approx(rao.mean, abs=0.05)

    def test_rao_blackwell_reduces_variance(
        self, bernoulli_population, enumerable_generator, profile
    ):
        regime = SameSuite(enumerable_generator)
        rao = simulate_marginal_system_pfd(
            regime, bernoulli_population, profile, n_replications=500, rng=7
        )
        raw = simulate_marginal_system_pfd(
            regime,
            bernoulli_population,
            profile,
            n_replications=500,
            rng=7,
            rao_blackwell=False,
        )
        assert rao.variance <= raw.variance


class TestVersionPfd:
    def test_matches_zeta_expectation(
        self, bernoulli_population, enumerable_generator, profile
    ):
        from repro.core import TestedPopulationView

        zeta = TestedPopulationView(
            bernoulli_population, enumerable_generator
        ).zeta()
        expected = profile.expectation(zeta)
        estimator = simulate_version_pfd(
            bernoulli_population,
            enumerable_generator,
            profile,
            n_replications=1500,
            rng=8,
        )
        assert estimator.contains(expected, confidence=0.999)


class TestPopulationSpaceValidation:
    @pytest.mark.parametrize(
        "engine", ["auto", "batch", "compiled", "fastest", "scalar"]
    )
    def test_population_b_on_another_space_rejected(
        self, bernoulli_population, enumerable_generator, profile, engine
    ):
        """A channel-B population over a different demand space fails up
        front with IncompatibleSpaceError on every engine (not a numpy
        broadcast error or a suite-mask shape complaint mid-run)."""
        from repro.demand import DemandSpace
        from repro.errors import IncompatibleSpaceError
        from repro.faults import FaultUniverse
        from repro.populations import BernoulliFaultPopulation

        wider = DemandSpace(profile.space.size + 5)
        other = BernoulliFaultPopulation(
            FaultUniverse.from_regions(wider, [[0, 1], [12, 13]]), [0.5, 0.5]
        )
        with pytest.raises(IncompatibleSpaceError, match="demand spaces differ"):
            simulate_marginal_system_pfd(
                IndependentSuites(enumerable_generator),
                bernoulli_population,
                profile,
                population_b=other,
                n_replications=50,
                rng=0,
                engine=engine,
            )
