"""Tests for the adaptive controller: stopping, budgets, invariances,
and consistency with the fixed-n golden estimates."""

import math

import numpy as np
import pytest

from repro.adaptive import (
    PrecisionTarget,
    adaptive_campaign_pfd,
    adaptive_marginal_system_pfd,
    adaptive_untested_joint_pfd,
    adaptive_version_pfd,
    run_adaptive,
)
from repro.adaptive.accumulators import moments_of
from repro.adaptive.controller import MetricSpec
from repro.core import ELModel, SameSuite
from repro.errors import ModelError
from repro.experiments.models import standard_scenario
from repro.extensions import Activity, DevelopmentCampaign, SharedTestingActivity
from repro.mc import simulate_version_pfd
from repro.testing import ImperfectFixing, ImperfectOracle, PerfectOracle
from repro.testing.oracle import Oracle


class _RowOracle(PerfectOracle):
    """The perfect oracle, on the per-row plan."""


class _NeverOracle(Oracle):
    """An oracle that never sees a failure."""

    def detects(self, version, demand, rng=None):
        return False


class _Idle(Activity):
    """A do-nothing custom campaign activity."""

    kind = "idle"

    def apply(self, version_a, version_b, rng):
        return version_a, version_b


def _noise_kernel(task):
    """Deterministic pseudo-noise chunk kernel for driver-level tests."""
    index, count, seed = task
    values = np.random.default_rng(seed).normal(2.0, 0.5, size=count)
    return index, count, {0: moments_of(values)}


def _spec(name="metric", **kwargs):
    return MetricSpec(name=name, kernel=_noise_kernel, **kwargs)


class TestDriver:
    def test_stops_when_target_met(self):
        target = PrecisionTarget(rel_hw=0.05, budget=100_000, initial=64)
        report = run_adaptive([_spec()], target, rng=0)
        metric = report.only
        assert metric.converged
        assert metric.estimate.half_width <= 0.05 * abs(metric.estimate.mean)
        assert metric.replications < 100_000

    def test_budget_exhaustion_reports_unconverged(self):
        target = PrecisionTarget(abs_hw=1e-6, budget=500, initial=64)
        report = run_adaptive([_spec()], target, rng=0)
        metric = report.only
        assert not metric.converged
        assert metric.replications == 500
        assert not report.converged

    def test_deterministic_in_seed(self):
        target = PrecisionTarget(rel_hw=0.1, budget=10_000, initial=64)
        a = run_adaptive([_spec()], target, rng=3)
        b = run_adaptive([_spec()], target, rng=3)
        assert a.only.estimate == b.only.estimate
        assert a.only.replications == b.only.replications

    def test_n_jobs_invariant_bitwise(self):
        target = PrecisionTarget(rel_hw=0.1, budget=10_000, initial=64)
        serial = run_adaptive([_spec()], target, rng=3, chunk_size=32)
        sharded = run_adaptive([_spec()], target, rng=3, chunk_size=32, n_jobs=3)
        assert serial.only.estimate == sharded.only.estimate

    def test_needs_bounded_budget(self):
        with pytest.raises(ModelError, match="bounded"):
            run_adaptive([_spec()], PrecisionTarget(rel_hw=0.1), rng=0)

    def test_duplicate_metric_names_rejected(self):
        target = PrecisionTarget(rel_hw=0.1, budget=1000)
        with pytest.raises(ModelError, match="duplicate"):
            run_adaptive([_spec(), _spec()], target, rng=0)

    def test_converged_metric_stops_while_other_continues(self):
        target = PrecisionTarget(rel_hw=0.02, abs_hw=None, budget=50_000, initial=64)

        def tight_kernel(task):
            index, count, seed = task
            values = np.random.default_rng(seed).normal(5.0, 0.01, size=count)
            return index, count, {0: moments_of(values)}

        report = run_adaptive(
            [
                MetricSpec(name="tight", kernel=tight_kernel),
                _spec(name="noisy"),
            ],
            target,
            rng=1,
        )
        assert report.metrics["tight"].converged
        assert report.metrics["noisy"].converged
        assert report.metrics["tight"].replications < report.metrics["noisy"].replications

    def test_payload_shape(self):
        target = PrecisionTarget(rel_hw=0.1, budget=2000, initial=64)
        payload = run_adaptive([_spec()], target, rng=0).to_payload()
        assert set(payload) == {
            "converged",
            "replications",
            "rounds",
            "target",
            "metrics",
        }
        metric = payload["metrics"]["metric"]
        assert metric["replications"] >= 64
        assert isinstance(metric["converged"], bool)


class TestAdaptersAgainstFixedN:
    """Adaptive runs must agree with the fixed-n estimators they replace."""

    def test_version_pfd_vr_none_matches_fixed_n_within_half_width(self):
        scenario = standard_scenario(0)
        fixed = simulate_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            n_replications=20_000,
            rng=123,
        )
        target = PrecisionTarget(
            rel_hw=0.05, budget=50_000, initial=256, vr="none"
        )
        report = adaptive_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            target,
            rng=7,
        )
        metric = report.only
        assert metric.converged
        tolerance = metric.estimate.half_width + 2.6 * fixed.std_error()
        assert abs(metric.estimate.mean - fixed.mean) <= tolerance

    @pytest.mark.parametrize(
        "vr", ["none", "control", "stratified", "stratified+control"]
    )
    def test_version_pfd_all_vr_modes_agree(self, vr):
        scenario = standard_scenario(0)
        target = PrecisionTarget(rel_hw=0.04, budget=60_000, initial=512, vr=vr)
        report = adaptive_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            target,
            oracle=ImperfectOracle(0.5),
            fixing=ImperfectFixing(0.5),
            rng=11,
        )
        metric = report.only
        assert metric.converged
        # ground truth from an independent large fixed-n run
        fixed = simulate_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            n_replications=30_000,
            rng=999,
            oracle=ImperfectOracle(0.5),
            fixing=ImperfectFixing(0.5),
        )
        tolerance = metric.estimate.half_width + 2.6 * fixed.std_error()
        assert abs(metric.estimate.mean - fixed.mean) <= tolerance

    def test_untested_joint_matches_analytic_exactly_within_ci(self):
        from repro.demand import DemandSpace, uniform_profile
        from repro.faults import clustered_universe
        from repro.populations import BernoulliFaultPopulation

        space = DemandSpace(80)
        profile = uniform_profile(space)
        universe = clustered_universe(
            space, n_faults=16, region_size=5, concentration=8.0, rng=2
        )
        population = BernoulliFaultPopulation.uniform(universe, 0.25)
        analytic = ELModel.from_population(population, profile).prob_both_fail()
        target = PrecisionTarget(rel_hw=0.03, budget=200_000, initial=512)
        report = adaptive_untested_joint_pfd(
            population, profile, target, rng=5
        )
        metric = report.only
        assert metric.converged
        # a 99% CI at 3% relative width must cover the exact analytic value
        assert abs(metric.estimate.mean - analytic) <= metric.estimate.half_width

    def test_dead_oracle_control_variate_collapses_to_exact(self):
        scenario = standard_scenario(0)
        target = PrecisionTarget(
            rel_hw=0.05, budget=10_000, initial=128, vr="control"
        )
        report = adaptive_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            target,
            oracle=ImperfectOracle(0.0),
            fixing=ImperfectFixing(1.0),
            rng=1,
        )
        metric = report.only
        # d = 0: testing never changes anything, y == c exactly, so the
        # control variate nails the untested pfd with zero residual at the
        # very first round
        assert metric.replications == 128
        assert metric.estimate.mean == pytest.approx(
            scenario.population.pfd(scenario.profile), abs=1e-12
        )
        assert metric.estimate.half_width == pytest.approx(0.0, abs=1e-12)

    def test_system_pfd_adapter_runs_and_converges(self):
        scenario = standard_scenario(0)
        regime = SameSuite(scenario.generator)
        target = PrecisionTarget(rel_hw=0.1, budget=30_000, initial=256)
        report = adaptive_marginal_system_pfd(
            regime,
            scenario.population,
            scenario.profile,
            target,
            oracle=ImperfectOracle(0.5),
            fixing=ImperfectFixing(0.5),
            rng=2,
        )
        metric = report.only
        assert metric.converged
        assert 0.0 < metric.estimate.mean < 1.0

    def test_custom_policy_runs_on_the_per_row_plan(self):
        """A custom oracle rides the same adaptive chunks on the per-row
        plan: a trivial perfect-oracle subclass reproduces the kernel's
        report bit for bit, and a blind oracle leaves every version
        untested."""
        scenario = standard_scenario(0)
        target = PrecisionTarget(rel_hw=0.1, budget=1000)
        runs = [
            adaptive_version_pfd(
                scenario.population,
                scenario.generator,
                scenario.profile,
                target,
                oracle=oracle,
                rng=0,
            ).only
            for oracle in (None, _RowOracle())
        ]
        assert runs[0].replications == runs[1].replications
        assert runs[0].estimate.mean == runs[1].estimate.mean
        assert runs[0].estimate.half_width == runs[1].estimate.half_width
        never = adaptive_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            target,
            oracle=_NeverOracle(),
            rng=0,
        ).only
        assert never.estimate.mean == pytest.approx(
            scenario.population.pfd(scenario.profile), rel=0.1
        )

    def test_campaign_with_custom_activity_runs_adaptively(self):
        """Precision runs accept every campaign: a custom activity runs on
        the chunk blocks' per-row plan, and a do-nothing one appended
        leaves the report bit for bit as it was, with and without VR."""
        scenario = standard_scenario(0)
        plan = [SharedTestingActivity(scenario.generator)]
        for vr in ("none", "stratified+control"):
            target = PrecisionTarget(rel_hw=0.1, budget=2000, initial=256, vr=vr)
            runs = [
                adaptive_campaign_pfd(
                    DevelopmentCampaign(activities),
                    scenario.population,
                    scenario.profile,
                    target,
                    rng=3,
                ).only
                for activities in (plan, plan + [_Idle()])
            ]
            assert runs[0].replications == runs[1].replications
            assert runs[0].estimate.mean == runs[1].estimate.mean
            assert runs[0].estimate.half_width == runs[1].estimate.half_width


class TestSimulatePrecisionKwarg:
    def test_simulate_version_pfd_precision_returns_estimator(self):
        scenario = standard_scenario(0)
        estimator = simulate_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            n_replications=30_000,
            rng=3,
            precision={"rel_hw": 0.05},
        )
        report = estimator.adaptive
        assert report.converged
        assert estimator.mean == report.only.estimate.mean
        assert estimator.std_error() == pytest.approx(
            report.only.estimate.std_error
        )
        # the estimator's normal interval reproduces the adaptive one at
        # the target's confidence
        low, high = estimator.normal_interval(report.target.confidence)
        assert (high - low) / 2 == pytest.approx(
            report.only.estimate.half_width
        )

    def test_scalar_engine_rejected_with_precision(self):
        scenario = standard_scenario(0)
        with pytest.raises(TypeError, match="engine"):
            simulate_version_pfd(
                scenario.population,
                scenario.generator,
                scenario.profile,
                rng=0,
                engine="scalar",
                precision={"rel_hw": 0.1},
            )

    def test_proportion_rejects_explicit_vr(self):
        from repro.mc import simulate_untested_joint_on_demand

        scenario = standard_scenario(0)
        with pytest.raises(ModelError, match="proportion"):
            simulate_untested_joint_on_demand(
                scenario.population,
                0,
                rng=0,
                precision={"rel_hw": 0.2, "vr": "stratified"},
            )

    def test_x3_n_replications_knob_is_the_adaptive_budget(self):
        from repro.experiments import run_experiment

        result = run_experiment(
            "x3",
            seed=0,
            fast=True,
            params={
                "n_replications": 3000,
                "precision": {"rel_hw": 1e-6, "initial": 128},
            },
        )
        for payload in result.extra["adaptive"].values():
            metric = payload["metrics"]["campaign_pfd"]
            # an unreachable target runs each campaign to exactly the
            # user's replication budget, not the hardwired full count
            assert metric["replications"] <= 3000
            if not metric["converged"]:
                assert metric["replications"] == 3000

    def test_proportion_precision_path(self):
        from repro.mc import simulate_untested_joint_on_demand

        scenario = standard_scenario(0)
        demand = int(np.argmax(scenario.population.difficulty()))
        estimator = simulate_untested_joint_on_demand(
            scenario.population,
            demand,
            n_replications=50_000,
            rng=4,
            precision={"rel_hw": 0.25},
        )
        report = estimator.adaptive
        assert report.only.kind == "proportion"
        theta = scenario.population.difficulty()[demand]
        assert estimator.count == report.only.replications
        if report.converged:
            low, high = estimator.wilson_interval(0.99)
            assert low <= theta * theta <= high


class TestExperimentsAdaptive:
    """The acceptance-criterion experiments: early stop + golden coverage."""

    @pytest.mark.parametrize(
        "experiment_id,fixed_full",
        [("e01", 20_000 * 3), ("x3", 1_500 * 3)],
    )
    def test_adaptive_run_stops_early_and_passes(
        self, experiment_id, fixed_full
    ):
        from repro.experiments import run_experiment

        result = run_experiment(
            experiment_id,
            seed=0,
            fast=True,
            params={"precision": {"rel_hw": 0.05}},
        )
        assert result.passed
        adaptive = result.extra["adaptive"]
        total = sum(entry["replications"] for entry in adaptive.values())
        assert total < fixed_full

    @pytest.mark.slow
    def test_e11_adaptive_stops_early_and_covers_golden(self):
        import json
        from pathlib import Path

        from repro.experiments import run_experiment

        result = run_experiment(
            "e11", seed=0, fast=True, params={"precision": {"rel_hw": 0.05}}
        )
        assert result.passed
        adaptive = result.extra["adaptive"]
        total = sum(
            metric["replications"]
            for point in adaptive.values()
            for run in point.values()
            for metric in run["metrics"].values()
        )
        # 7 grid points x 2 measurements at the full-mode fixed count
        assert total < 7 * 2 * 3000
        # CI coverage of the golden fixed-n measurements: the golden fast
        # run is itself noisy, so allow its own (~se) slack on top of the
        # adaptive half-width
        golden = json.loads(
            (
                Path(__file__).parents[1]
                / "experiments"
                / "golden"
                / "e11.json"
            ).read_text()
        )
        golden_rows = {row[0]: row for row in golden["rows"]}
        for label, point in adaptive.items():
            version_metric = point["version"]["metrics"]["version_pfd"]
            golden_measured = golden_rows[label][2]
            slack = version_metric["half_width"] + 0.01
            assert abs(version_metric["mean"] - golden_measured) <= slack
