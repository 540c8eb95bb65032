"""Tests for the sweep layer's [precision] table and Neyman allocation."""

import json

import pytest

from repro.errors import ModelError
from repro.store import ResultStore
from repro.sweeps import (
    PrecisionPlan,
    Sweep,
    SweepSpec,
    allocate_budgets,
    load_grid,
    record_sigma,
)


class TestAllocateBudgets:
    def test_proportional_to_sigma(self):
        budgets = allocate_budgets({"a": 3.0, "b": 1.0}, total=4000, floor=100)
        assert budgets["a"] + budgets["b"] == 4000
        assert budgets["a"] > budgets["b"]
        # Neyman: 3:1 split of the 3800 above the floors
        assert budgets["a"] == 100 + 2850
        assert budgets["b"] == 100 + 950

    def test_floor_applies_to_zero_sigma_points(self):
        budgets = allocate_budgets({"a": 0.0, "b": 2.0}, total=1000, floor=64)
        assert budgets["a"] == 64
        assert budgets["a"] + budgets["b"] == 1000

    def test_all_zero_sigma_splits_evenly(self):
        budgets = allocate_budgets(
            {"a": 0.0, "b": 0.0, "c": 0.0}, total=301, floor=10
        )
        assert sum(budgets.values()) == 301
        assert max(budgets.values()) - min(budgets.values()) <= 1

    def test_total_below_floors_rejected_loudly(self):
        # silently spending floor * n_points would exceed the declared
        # total budget several-fold
        with pytest.raises(ModelError, match="cannot cover"):
            allocate_budgets({"a": 1.0, "b": 1.0}, total=10, floor=64)
        # exactly covering the floors is fine
        assert allocate_budgets({"a": 1.0, "b": 1.0}, total=128, floor=64) == {
            "a": 64,
            "b": 64,
        }

    def test_deterministic(self):
        sigmas = {"p3": 1.7, "p1": 1.7, "p2": 0.3}
        assert allocate_budgets(sigmas, 5000, 32) == allocate_budgets(
            dict(reversed(list(sigmas.items()))), 5000, 32
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            allocate_budgets({"a": 1.0}, total=0, floor=1)
        with pytest.raises(ModelError):
            allocate_budgets({"a": 1.0}, total=10, floor=0)


class TestRecordSigma:
    def test_reads_nested_adaptive_payloads(self):
        record = {
            "result": {
                "extra": {
                    "adaptive": {
                        "point": {
                            "metrics": {
                                "m": {
                                    "std_error": 0.01,
                                    "observations": 400,
                                    "converged": True,
                                }
                            },
                            "replications": 400,
                        }
                    }
                }
            }
        }
        assert record_sigma(record) == pytest.approx(0.01 * 20)

    def test_no_adaptive_metadata_is_zero(self):
        assert record_sigma({"result": {}}) == 0.0
        assert record_sigma({"result": {"extra": {}}}) == 0.0


class TestPrecisionSpec:
    def test_spec_requires_a_capable_experiment(self):
        with pytest.raises(ModelError, match="precision"):
            SweepSpec(experiments=["a1"], precision={"rel_hw": 0.1})

    def test_capable_experiments_recorded(self):
        spec = SweepSpec(
            experiments=["a1", "e01"], precision={"rel_hw": 0.1}
        )
        assert spec.precision_experiments == ("e01",)
        assert isinstance(spec.precision, PrecisionPlan)

    def test_plan_knob_budget_override(self):
        plan = PrecisionPlan.from_mapping(
            {"rel_hw": 0.1, "initial": 256, "budget_total": 10_000}
        )
        knob = plan.knob(budget=128)
        assert knob["budget"] == 128
        assert knob["initial"] == 128  # clamped under the budget
        assert plan.pilot_budget == 256

    def test_load_grid_precision_table(self, tmp_path):
        grid = tmp_path / "grid.toml"
        grid.write_text(
            "\n".join(
                [
                    "[sweep]",
                    'experiments = ["e01"]',
                    "",
                    "[precision]",
                    "rel_hw = 0.1",
                    'vr = "none"',
                    "budget_total = 4000",
                ]
            )
        )
        spec = load_grid(grid)
        assert spec.precision.target.rel_hw == 0.1
        assert spec.precision.target.vr == "none"
        assert spec.precision.budget_total == 4000

    def test_load_grid_rejects_retired_stratified_vr(self, tmp_path):
        grid = tmp_path / "grid.toml"
        grid.write_text(
            '[sweep]\nexperiments = ["e01"]\n\n[precision]\n'
            'rel_hw = 0.1\nvr = "stratified"\n'
        )
        with pytest.raises(ModelError, match="vr must be one of"):
            load_grid(grid)

    def test_load_grid_rejects_unknown_precision_key(self, tmp_path):
        grid = tmp_path / "grid.toml"
        grid.write_text(
            "[sweep]\nexperiments = [\"e01\"]\n\n[precision]\nrel_hww = 0.1\n"
        )
        with pytest.raises(ModelError, match="unknown precision key"):
            load_grid(grid)


class TestPrecisionSweepRuns:
    def _spec(self, **precision):
        precision.setdefault("rel_hw", 0.1)
        precision.setdefault("initial", 128)
        return SweepSpec(experiments=["e01"], precision=precision)

    def test_plain_precision_sweep_executes_and_caches(self, tmp_path):
        spec = self._spec()
        store = ResultStore(tmp_path)
        report = Sweep(spec, store).run()
        assert report.total == 1 and report.executed == 1
        # the precision knob is part of the point identity
        (point,) = Sweep(spec, store).effective_points()
        record = store.get(point.cache_key())
        assert record["params"]["precision"]["rel_hw"] == 0.1
        assert "adaptive" in record["result"]["extra"]
        again = Sweep(spec, store).run()
        assert again.cached == 1 and again.executed == 0

    def test_neyman_two_phase_run_and_resume(self, tmp_path):
        spec = SweepSpec(
            experiments=["e01", "x3"],
            precision={"rel_hw": 0.1, "initial": 128, "budget_total": 4000},
        )
        store = ResultStore(tmp_path)
        report = Sweep(spec, store).run()
        # 2 pilot points + 2 allocated points
        assert report.total == 4
        assert sum(report.allocations.values()) == 4000
        for key, budget in report.allocations.items():
            record = store.get(key)
            assert record is not None
            # the knob budget is per metric: the point allocation divided
            # by the metric count observed in the pilot (3 for both e01's
            # shapes and x3's campaigns)
            assert record["params"]["precision"]["budget"] == max(
                budget // 3, 1
            )
        # the final pass must honour budget_total in aggregate: each
        # point's allocation is divided across its adaptive metrics
        from repro.adaptive import iter_adaptive_runs

        final_spend = 0
        for key in report.allocations:
            record = store.get(key)
            final_spend += sum(
                run["replications"]
                for run in iter_adaptive_runs(
                    record["result"]["extra"]["adaptive"]
                )
            )
        assert final_spend <= 4000
        resumed = Sweep(spec, store).run()
        assert resumed.executed == 0
        assert resumed.cached == resumed.total

    def test_scalar_engine_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="engine"):
            Sweep(self._spec(), ResultStore(tmp_path), engine="scalar")
