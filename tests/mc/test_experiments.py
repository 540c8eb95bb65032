"""Tests for the full-pipeline Monte-Carlo experiment drivers."""

import sys
import types

import pytest

from repro.core import IndependentSuites, SameSuite, joint_failure_probability
from repro.errors import ModelError
from repro.mc.batch import _testing_plan
from repro.testing import PerfectFixing, PerfectOracle
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


class _RowOracle(PerfectOracle):
    """The perfect oracle, on the per-row plan."""


#: the former engine names, as the testing pairs that now pick the path:
#: the default pair, an explicit kernel pair, and the per-row plan
_PATHS = {
    "auto": {},
    "batch": {"oracle": PerfectOracle(), "fixing": PerfectFixing()},
    "scalar": {"oracle": _RowOracle()},
}


class TestPopulationSpaceValidation:
    @pytest.mark.parametrize("engine", ["auto", "batch", "scalar"])
    def test_population_b_on_another_space_rejected(
        self, bernoulli_population, enumerable_generator, profile, engine
    ):
        """A channel-B population over a different demand space fails up
        front with IncompatibleSpaceError on the kernel plans and the
        per-row plan alike (not a numpy broadcast error or a suite-mask
        shape complaint mid-run)."""
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
                **_PATHS[engine],
            )


class TestResolveEngine:
    """The engine knob is retired: every former or unknown engine name is
    an unknown keyword, and the plan a testing pair runs on depends on the
    pair alone — neither the retired ``REPRO_COMPILED_FALLBACK`` variable
    nor an importable ``numba`` module changes it."""

    @pytest.mark.parametrize("numba_importable", [False, True])
    @pytest.mark.parametrize("fallback_env", [False, True])
    @pytest.mark.parametrize("batch_ok", [False, True])
    @pytest.mark.parametrize(
        "engine", ("auto", "batch", "compiled", "fastest", "gpu", "scalar")
    )
    def test_table(
        self,
        engine,
        batch_ok,
        fallback_env,
        numba_importable,
        monkeypatch,
        bernoulli_population,
        enumerable_generator,
        profile,
    ):
        if fallback_env:
            monkeypatch.setenv("REPRO_COMPILED_FALLBACK", "1")
        else:
            monkeypatch.delenv("REPRO_COMPILED_FALLBACK", raising=False)
        if numba_importable:
            monkeypatch.setitem(sys.modules, "numba", types.ModuleType("numba"))
        oracle = PerfectOracle() if batch_ok else _RowOracle()
        assert _testing_plan(oracle, None)[0] == ("perfect" if batch_ok else "rows")
        with pytest.raises(TypeError, match="engine"):
            simulate_version_pfd(
                bernoulli_population,
                enumerable_generator,
                profile,
                n_replications=10,
                rng=0,
                oracle=oracle,
                engine=engine,
            )


def test_retired_compiled_name_rejected_on_every_surface(
    bernoulli_population, enumerable_generator, profile, tmp_path, capsys
):
    """``engine="compiled"``, like every engine name, is an unknown keyword
    of the drivers, the §4.2 envelope, the run-wide experiment
    configuration, sweeps and the service's job spec, and ``--engine`` an
    unknown CLI flag."""
    from repro.core.bounds import back_to_back_envelope
    from repro.experiments.__main__ import main
    from repro.experiments.base import EngineConfig
    from repro.service.jobs import JobSpec
    from repro.store import ResultStore
    from repro.sweeps import Sweep, SweepSpec

    unknown = "unexpected keyword argument 'engine'"
    for call in _driver_calls(
        bernoulli_population, enumerable_generator, profile
    ).values():
        with pytest.raises(TypeError, match=unknown):
            call(n_replications=10, rng=0, engine="compiled")
    with pytest.raises(TypeError, match=unknown):
        back_to_back_envelope(
            bernoulli_population, enumerable_generator, profile,
            n_replications=10, rng=0, engine="compiled",
        )
    with pytest.raises(TypeError, match=unknown):
        EngineConfig(engine="compiled")
    with pytest.raises(TypeError, match=unknown):
        Sweep(
            SweepSpec(experiments=["a5"], seeds=[0]),
            ResultStore(tmp_path / "store.jsonl"),
            engine="compiled",
        )
    with pytest.raises(TypeError, match=unknown):
        JobSpec("a5", engine="compiled")
    with pytest.raises(SystemExit) as exit_info:
        main(["a5", "--engine", "compiled"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --engine compiled" in capsys.readouterr().err


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
    """A leftover ``engine=`` fails as an unknown keyword even when
    ``precision=`` would route the call to the adaptive engine, so it
    cannot be ignored silently."""
    call = _driver_calls(bernoulli_population, enumerable_generator, profile)[
        driver
    ]
    with pytest.raises(TypeError, match="engine"):
        call(
            n_replications=200,
            rng=0,
            engine="bogus",
            precision={"rel_hw": 0.2},
        )
