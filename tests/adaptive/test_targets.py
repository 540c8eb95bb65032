"""Tests for precision-target specs and their parsing front ends."""

import math

import pytest

from repro.adaptive import PrecisionTarget
from repro.errors import ModelError


class TestValidation:
    def test_needs_some_target(self):
        with pytest.raises(ModelError):
            PrecisionTarget()

    @pytest.mark.parametrize("field", ["rel_hw", "abs_hw"])
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_nonpositive_half_widths(self, field, bad):
        with pytest.raises(ModelError):
            PrecisionTarget(**{field: bad})

    def test_rejects_bad_confidence(self):
        with pytest.raises(ModelError):
            PrecisionTarget(rel_hw=0.1, confidence=1.0)

    def test_rejects_budget_below_initial(self):
        with pytest.raises(ModelError):
            PrecisionTarget(rel_hw=0.1, budget=10, initial=100)

    def test_rejects_unknown_vr(self):
        with pytest.raises(ModelError):
            PrecisionTarget(rel_hw=0.1, vr="magic")
        with pytest.raises(ModelError, match="vr must be one of"):
            PrecisionTarget(rel_hw=0.1, vr="stratified")  # retired

    def test_rejects_growth_at_or_below_one(self):
        with pytest.raises(ModelError):
            PrecisionTarget(rel_hw=0.1, growth=1.0)


class TestStoppingPredicate:
    def test_absolute_target(self):
        target = PrecisionTarget(abs_hw=0.01)
        assert target.met(5.0, 0.01)
        assert not target.met(5.0, 0.0101)

    def test_relative_target_scales_with_mean(self):
        target = PrecisionTarget(rel_hw=0.05)
        assert target.met(2.0, 0.1)
        assert not target.met(1.0, 0.1)

    def test_either_criterion_suffices(self):
        target = PrecisionTarget(rel_hw=0.01, abs_hw=0.5)
        # relative says no (0.4 > 0.01*1), absolute says yes
        assert target.met(1.0, 0.4)

    def test_relative_target_with_pinned_scale(self):
        target = PrecisionTarget(rel_hw=0.05)
        # mean near zero, but the metric's natural scale is 0.1
        assert target.met(1e-9, 0.004, scale=0.1)
        assert not target.met(1e-9, 0.006, scale=0.1)

    def test_zero_mean_relative_needs_exactness(self):
        target = PrecisionTarget(rel_hw=0.05)
        assert target.met(0.0, 0.0)
        assert not target.met(0.0, 1e-12)

    def test_nan_half_width_is_never_met(self):
        target = PrecisionTarget(abs_hw=10.0)
        assert not target.met(0.0, math.nan)


class TestParsing:
    def test_from_mapping_roundtrip(self):
        target = PrecisionTarget.from_mapping(
            {"rel_hw": 0.05, "budget": 5000, "vr": "control"}
        )
        assert target.rel_hw == 0.05
        assert target.budget == 5000
        assert target.vr == "control"
        again = PrecisionTarget.from_mapping(target.to_params())
        assert again == target

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ModelError, match="unknown precision key"):
            PrecisionTarget.from_mapping({"rel_hw": 0.05, "rel_hww": 0.1})

    def test_coerce(self):
        target = PrecisionTarget(rel_hw=0.1)
        assert PrecisionTarget.coerce(None) is None
        assert PrecisionTarget.coerce(target) is target
        assert PrecisionTarget.coerce({"rel_hw": 0.1}) == target
        with pytest.raises(ModelError):
            PrecisionTarget.coerce(0.1)

    def test_with_defaults_fills_budget_only_when_unset(self):
        target = PrecisionTarget(rel_hw=0.1)
        assert target.with_defaults(budget=1234).budget == 1234
        pinned = PrecisionTarget(rel_hw=0.1, budget=99, initial=10)
        assert pinned.with_defaults(budget=1234).budget == 99

    def test_with_defaults_small_budget_clamps_initial_down(self):
        # the declared budget is a ceiling: it must never be raised to
        # accommodate the default first-round size
        target = PrecisionTarget(rel_hw=0.1, initial=256)
        filled = target.with_defaults(budget=10)
        assert filled.budget == 10
        assert filled.initial == 10
