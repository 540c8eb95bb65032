"""Instrument semantics: counters, gauges, histograms, bound children."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    histogram_summary,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increments_accumulate_per_label_set(self, registry):
        counter = registry.counter("c_total", "help", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="never") == 0.0

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        counter = registry.counter("c_total", "", ("kind",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="b")
        with pytest.raises(ValueError):
            counter.inc(other="a")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("0bad")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ("0bad",))
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ("le",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value() == 4.0


class TestHistogram:
    def test_observations_land_in_le_buckets(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        (key, state), = registry.snapshot()["h_seconds"]["samples"]
        # value == bound counts in that bucket (le semantics); the
        # overflow lands in the implicit +Inf slot
        assert state["buckets"] == [2, 1, 1]
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(2.65)

    def test_explicit_inf_bound_is_folded(self, registry):
        histogram = registry.histogram(
            "h_seconds", buckets=(0.5, math.inf)
        )
        assert histogram.bounds == (0.5,)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(0.5, 0.5))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestBoundChildren:
    """`labels()` pre-resolution must be observationally identical."""

    def test_bound_counter_matches_kwargs_path(self, registry):
        counter = registry.counter("c_total", "", ("kind",))
        child = counter.labels(kind="a")
        child.inc()
        child.inc(2)
        counter.inc(kind="a")
        assert counter.value(kind="a") == 4.0

    def test_bound_counter_reads_its_own_value(self, registry):
        counter = registry.counter("c_total", "", ("kind",))
        child = counter.labels(kind="a")
        assert child.value() == 0.0
        counter.inc(3, kind="a")
        counter.inc(kind="b")
        assert child.value() == 3.0

    def test_bound_counter_rejects_negative(self, registry):
        child = registry.counter("c_total").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_bound_gauge(self, registry):
        gauge = registry.gauge("g", "", ("kind",))
        child = gauge.labels(kind="x")
        child.set(7)
        child.inc()
        child.dec(2)
        assert gauge.value(kind="x") == 6.0

    def test_bound_histogram_matches_kwargs_path(self, registry):
        histogram = registry.histogram(
            "h_seconds", "", ("route",), buckets=(0.1, 1.0)
        )
        child = histogram.labels(route="/run")
        child.observe(0.05)
        histogram.observe(0.5, route="/run")
        (key, state), = registry.snapshot()["h_seconds"]["samples"]
        assert key == ["/run"]
        assert state["buckets"] == [1, 1, 0]

    def test_binding_validates_labels(self, registry):
        counter = registry.counter("c_total", "", ("kind",))
        with pytest.raises(ValueError):
            counter.labels(wrong="a")


class TestHistogramSummary:
    def test_empty_series(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        assert histogram_summary(histogram) == {
            "count": 0,
            "mean": None,
            "p50": None,
            "p99": None,
            "max": None,
        }

    def test_quantiles_are_bucket_bounds(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.06, 0.5, 5.0):
            histogram.observe(value)
        summary = histogram_summary(histogram)
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(5.61 / 4)
        # nearest ranks 3 (p50), 4 (p99) and 4 (max) of 4
        assert summary["p50"] == 1.0
        assert summary["p99"] == 10.0
        assert summary["max"] == 10.0

    def test_rank_in_the_inf_bucket_is_none(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(0.1,))
        for value in (0.05, 0.06, 7.0):
            histogram.observe(value)
        summary = histogram_summary(histogram)
        assert summary["p50"] == 0.1
        assert summary["max"] is None

    def test_null_instrument_reads_empty(self):
        histogram = NULL_REGISTRY.histogram("h_seconds")
        histogram.observe(1.0)
        assert histogram_summary(histogram)["count"] == 0


class TestRegistry:
    def test_reregistration_returns_same_instrument(self, registry):
        first = registry.counter("c_total", "help", ("k",))
        second = registry.counter("c_total", "help", ("k",))
        assert first is second

    def test_kind_conflict_rejected(self, registry):
        registry.counter("m", "", ())
        with pytest.raises(ValueError):
            registry.gauge("m", "", ())

    def test_label_conflict_rejected(self, registry):
        registry.counter("m", "", ("a",))
        with pytest.raises(ValueError):
            registry.counter("m", "", ("b",))

    def test_snapshot_is_json_safe_and_detached(self, registry):
        import json

        counter = registry.counter("c_total", "", ("k",))
        counter.inc(k="x")
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        counter.inc(k="x")
        # the snapshot is a copy, not a live view
        assert snapshot["c_total"]["samples"] == [[["x"], 1.0]]


class TestNullRegistry:
    def test_null_instruments_swallow_everything(self):
        counter = NULL_REGISTRY.counter("c_total", "", ("k",))
        counter.inc(k="x")
        counter.labels(k="x").inc()
        histogram = NULL_REGISTRY.histogram("h")
        histogram.observe(1.0)
        histogram.labels().observe(1.0)
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(1)
        assert counter.labels(k="x").value() == 0.0
        assert NULL_REGISTRY.snapshot() == {}
