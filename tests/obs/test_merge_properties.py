"""Property tests (hypothesis): snapshot merge is a commutative monoid.

The worker→parent aggregation channel folds per-job registry snapshots
in whatever order results arrive; correctness rests on
:meth:`repro.obs.metrics.MetricsRegistry.merge` being associative and
commutative with ``{}`` as identity.  Rather than trusting three unit
cases, generate random snapshots and check the laws directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry


def merge_snapshots(left, right):
    """Two snapshots merged into a fresh registry's snapshot."""
    registry = MetricsRegistry()
    registry.merge(left)
    registry.merge(right)
    return registry.snapshot()


_NAMES = ("alpha_total", "beta_total", "queue_depth")
_LABELS = ("", "a", "b")
_BOUNDS = (0.1, 1.0)


@st.composite
def snapshots(draw):
    """A random registry snapshot over a fixed instrument schema.

    A fixed schema (names, kinds, label sets, bucket layout) mirrors
    reality — every worker runs the same code, so instruments agree —
    and keeps merges well-defined.
    """
    registry = MetricsRegistry()
    counter = registry.counter("alpha_total", "", ("kind",))
    for _ in range(draw(st.integers(0, 4))):
        counter.inc(
            draw(st.floats(0, 100, allow_nan=False)),
            kind=draw(st.sampled_from(_LABELS)),
        )
    gauge = registry.gauge("queue_depth")
    if draw(st.booleans()):
        gauge.set(draw(st.floats(-50, 50, allow_nan=False)))
    histogram = registry.histogram("lat_seconds", buckets=_BOUNDS)
    for _ in range(draw(st.integers(0, 4))):
        histogram.observe(draw(st.floats(0, 5, allow_nan=False)))
    return registry.snapshot()


def _totals(snapshot):
    """Collapse a snapshot to comparable numbers (order-insensitive)."""
    out = {}
    for name, entry in sorted(snapshot.items()):
        for key, value in sorted(entry["samples"]):
            if entry["type"] == "histogram":
                out[(name, tuple(key))] = (
                    tuple(value["buckets"]),
                    round(value["sum"], 9),
                    value["count"],
                )
            else:
                out[(name, tuple(key))] = round(value, 9)
    return out


@settings(max_examples=60, deadline=None)
@given(snapshots(), snapshots())
def test_merge_is_commutative(a, b):
    assert _totals(merge_snapshots(a, b)) == _totals(merge_snapshots(b, a))


@settings(max_examples=60, deadline=None)
@given(snapshots(), snapshots(), snapshots())
def test_merge_is_associative(a, b, c):
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    assert _totals(left) == _totals(right)


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_empty_snapshot_is_identity(a):
    assert _totals(merge_snapshots(a, {})) == _totals(a)
    assert _totals(merge_snapshots({}, a)) == _totals(a)


@settings(max_examples=60, deadline=None)
@given(snapshots(), snapshots())
def test_merge_sums_counter_values(a, b):
    merged = _totals(merge_snapshots(a, b))
    ta, tb = _totals(a), _totals(b)
    for key in set(ta) | set(tb):
        if key[0] != "alpha_total":
            continue
        expected = round(
            (ta.get(key) or 0.0) + (tb.get(key) or 0.0), 9
        )
        assert abs(merged[key] - expected) < 1e-6
