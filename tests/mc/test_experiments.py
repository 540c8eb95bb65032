"""Tests for the full-pipeline Monte-Carlo experiment drivers."""

import sys
import types

import numpy as np
import pytest

from repro.core import IndependentSuites, SameSuite, joint_failure_probability
from repro.errors import ModelError
from repro.mc.experiments import ENGINES, resolve_engine
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
        "engine", ["auto", "batch", "scalar"]
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


class TestResolveEngine:
    """The one engine seam: every name × batch-support combination.  Its
    answer depends on nothing else: neither the retired
    ``REPRO_COMPILED_FALLBACK`` variable nor an importable ``numba``
    module changes it."""

    @pytest.mark.parametrize("numba_importable", [False, True])
    @pytest.mark.parametrize("fallback_env", [False, True])
    @pytest.mark.parametrize("batch_ok", [False, True])
    # "fastest" and "compiled" are retired names: they must fail like any
    # unknown name
    @pytest.mark.parametrize(
        "engine", ("auto", "batch", "compiled", "fastest", "gpu", "scalar")
    )
    def test_table(
        self, engine, batch_ok, fallback_env, numba_importable, monkeypatch
    ):
        if fallback_env:
            monkeypatch.setenv("REPRO_COMPILED_FALLBACK", "1")
        else:
            monkeypatch.delenv("REPRO_COMPILED_FALLBACK", raising=False)
        if numba_importable:
            monkeypatch.setitem(sys.modules, "numba", types.ModuleType("numba"))
        if engine not in ENGINES:
            expected = "engine must be one of"
        elif engine == "batch":
            expected = "batch" if batch_ok else f"engine='{engine}' runs on the batch"
        elif engine == "auto":
            expected = "batch" if batch_ok else "scalar"
        else:
            expected = "scalar"
        if expected in ("batch", "scalar"):
            assert resolve_engine(engine, batch_ok) == expected
        else:
            with pytest.raises(ModelError, match=expected):
                resolve_engine(engine, batch_ok)


def test_retired_compiled_name_rejected_on_every_surface(
    bernoulli_population, enumerable_generator, profile, tmp_path, capsys
):
    """``engine="compiled"`` is an unknown name through the drivers, the
    §4.2 envelope, the run-wide experiment configuration, sweeps, the
    service's job spec and the CLI's ``--engine`` choices."""
    from repro.core.bounds import back_to_back_envelope
    from repro.experiments.__main__ import main
    from repro.experiments.base import EngineConfig
    from repro.service.jobs import JobSpec
    from repro.store import ResultStore
    from repro.sweeps import Sweep, SweepSpec

    assert ENGINES == ("auto", "batch", "scalar")
    unknown = r"engine must be one of \('auto', 'batch', 'scalar'\), got 'compiled'"
    for call in _driver_calls(
        bernoulli_population, enumerable_generator, profile
    ).values():
        with pytest.raises(ModelError, match=unknown):
            call(n_replications=10, rng=0, engine="compiled")
    with pytest.raises(ModelError, match=unknown):
        back_to_back_envelope(
            bernoulli_population, enumerable_generator, profile,
            n_replications=10, rng=0, engine="compiled",
        )
    with pytest.raises(ModelError, match=unknown):
        EngineConfig(engine="compiled")
    with pytest.raises(ModelError, match=unknown):
        Sweep(
            SweepSpec(experiments=["a5"], seeds=[0]),
            ResultStore(tmp_path / "store.jsonl"),
            engine="compiled",
        )
    with pytest.raises(ModelError, match=unknown):
        JobSpec("a5", engine="compiled")
    with pytest.raises(SystemExit) as exit_info:
        main(["a5", "--engine", "compiled"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'compiled'" in capsys.readouterr().err


def _driver_calls(bernoulli_population, enumerable_generator, profile):
    regime = SameSuite(enumerable_generator)
    return {
        "untested_joint": lambda **kw: simulate_untested_joint_on_demand(
            bernoulli_population, 4, **kw
        ),
        "joint": lambda **kw: simulate_joint_on_demand(
            regime, bernoulli_population, 4, **kw
        ),
        "marginal": lambda **kw: simulate_marginal_system_pfd(
            regime, bernoulli_population, profile, **kw
        ),
        "version_pfd": lambda **kw: simulate_version_pfd(
            bernoulli_population, enumerable_generator, profile, **kw
        ),
    }


@pytest.mark.parametrize(
    "driver", ["untested_joint", "joint", "marginal", "version_pfd"]
)
def test_unknown_engine_rejected_with_precision(
    driver, bernoulli_population, enumerable_generator, profile
):
    """The engine name is checked before ``precision=`` routes the call to
    the adaptive engine, so a typo cannot run silently."""
    call = _driver_calls(bernoulli_population, enumerable_generator, profile)[
        driver
    ]
    with pytest.raises(ModelError, match=r"engine must be one of \('auto'"):
        call(
            n_replications=200,
            rng=0,
            engine="bogus",
            precision={"rel_hw": 0.2},
        )
