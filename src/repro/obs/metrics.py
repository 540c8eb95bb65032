"""Process-wide metrics registry with Prometheus text exposition.

Three instrument kinds — :class:`Counter` (monotonic), :class:`Gauge`
(set), :class:`Histogram` (fixed buckets + sum + count) — each
optionally labelled.  Increments are a single short critical section
(one ``threading.Lock`` per instrument), cheap enough for the request
hot path; scrapes take a consistent snapshot without stopping writers.

Snapshots are plain JSON-safe dicts and **mergeable**:
:meth:`MetricsRegistry.merge` sums counters, gauges and histogram
buckets element-wise, so worker processes can ship their registry deltas
back to the parent over the existing manager-queue/result channel and
the parent folds them in.  The merge is associative and commutative with
the empty snapshot as identity (property-tested in
``tests/obs/test_merge_properties.py``).

Exposition: :func:`render_prometheus` renders a registry (or snapshot)
as Prometheus text format 0.0.4 — ``# HELP``/``# TYPE`` lines, escaped
label values, cumulative ``le`` buckets ending in ``+Inf``.
:func:`parse_prometheus_text` is the strict inverse used by the client
helpers, the smoke tools and CI to validate what the servers emit.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "default_registry",
    "histogram_summary",
    "parse_prometheus_text",
    "render_prometheus",
    "set_default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram bucket bounds (seconds-flavoured, like Prometheus')
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(labelnames)
    for label in out:
        if not _LABEL_RE.match(label or ""):
            raise ValueError(f"invalid label name: {label!r}")
        if label == "le":
            raise ValueError("label name 'le' is reserved for histograms")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label names: {out!r}")
    return out


class _Instrument:
    """Shared labelled-sample bookkeeping for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = str(help)
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._samples: Dict[Tuple[str, ...], object] = {}

    def _labelvalues(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        # hot path: length check + direct lookups, no set construction
        if len(labels) == len(self.labelnames):
            try:
                return tuple(str(labels[name]) for name in self.labelnames)
            except KeyError:
                pass
        raise ValueError(
            f"{self.name} takes labels {self.labelnames}, "
            f"got {sorted(labels)}"
        )

    def labels(self, **labels: object):
        """Pre-resolve one label combination into a bound child.

        The child skips kwargs packing and label validation on every
        update — the request hot path binds its children once (at server
        init, or memoised per route) and pays only the lock + add."""
        return self._BOUND(self, self._labelvalues(labels))


class _BoundCounter:
    """A Counter pinned to one label-value tuple."""

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: "_Instrument", key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        instrument = self._instrument
        with instrument._lock:
            samples = instrument._samples
            samples[self._key] = samples.get(self._key, 0.0) + amount

    def value(self) -> float:
        """Current count of this child (0.0 if never hit)."""
        instrument = self._instrument
        with instrument._lock:
            return float(instrument._samples.get(self._key, 0.0))


class _BoundHistogram:
    """A Histogram pinned to one label-value tuple."""

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: "Histogram", key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def observe(self, value: float) -> None:
        self._instrument._observe(self._key, float(value))


class Counter(_Instrument):
    """A monotonically increasing count (per label combination)."""

    kind = "counter"
    _BOUND = _BoundCounter

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        key = self._labelvalues(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current count for one label combination (0.0 if never hit)."""
        with self._lock:
            return float(self._samples.get(self._labelvalues(labels), 0.0))


class Gauge(Counter):
    """A value that is set (queue depth, half-width, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._labelvalues(labels)
        with self._lock:
            self._samples[key] = float(value)


class Histogram(_Instrument):
    """Cumulative-bucket distribution (Prometheus ``le`` semantics)."""

    kind = "histogram"
    _BOUND = _BoundHistogram

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {buckets!r}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {buckets!r}")
        if bounds and math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds

    def observe(self, value: float, **labels: object) -> None:
        self._observe(self._labelvalues(labels), float(value))

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        # bisect_left finds the first bound >= value, i.e. the bucket
        # with ``value <= le``; past the last bound it lands on +Inf
        index = bisect_left(self.bounds, value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = {
                    "buckets": [0] * (len(self.bounds) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._samples[key] = state
            state["buckets"][index] += 1
            state["sum"] += value
            state["count"] += 1


def histogram_summary(histogram) -> Dict[str, object]:
    """Count, mean and p50/p99/max of an unlabelled histogram.

    Each quantile is the ``le`` bound of the bucket holding its nearest
    rank, so it bounds the true value from above; it is None when that
    rank falls in the ``+Inf`` bucket.  An empty histogram, or one of a
    :class:`NullRegistry`, reads as count 0 with None elsewhere.
    """
    count = 0
    if isinstance(histogram, Histogram):
        with histogram._lock:
            state = histogram._samples.get(())
            if state is not None:
                buckets = list(state["buckets"])
                total = state["sum"]
                count = state["count"]
    if not count:
        return {"count": 0, "mean": None, "p50": None, "p99": None, "max": None}

    def bound_at(q: float) -> Optional[float]:
        rank = min(int(q * count), count - 1) + 1
        cumulative = 0
        for bound, n in zip(histogram.bounds, buckets):
            cumulative += n
            if cumulative >= rank:
                return bound
        return None

    return {
        "count": count,
        "mean": total / count,
        "p50": bound_at(0.50),
        "p99": bound_at(0.99),
        "max": bound_at(1.0),
    }


class MetricsRegistry:
    """A named collection of instruments with snapshot/merge/render."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name, help, labelnames, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-safe, mergeable copy of every instrument's samples."""
        out: Dict[str, dict] = {}
        for instrument in self.instruments():
            with instrument._lock:
                if isinstance(instrument, Histogram):
                    samples = [
                        [
                            list(key),
                            {
                                "buckets": list(state["buckets"]),
                                "sum": state["sum"],
                                "count": state["count"],
                            },
                        ]
                        for key, state in instrument._samples.items()
                    ]
                else:
                    samples = [
                        [list(key), value]
                        for key, value in instrument._samples.items()
                    ]
            entry = {
                "type": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "samples": samples,
            }
            if isinstance(instrument, Histogram):
                entry["bounds"] = list(instrument.bounds)
            out[instrument.name] = entry
        return out

    def merge(self, snapshot: Mapping[str, dict]) -> None:
        """Fold a snapshot (e.g. a worker process's deltas) into this
        registry, creating instruments as needed."""
        for name, entry in snapshot.items():
            kind = entry.get("type")
            labelnames = tuple(entry.get("labelnames", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                instrument = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                instrument = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                instrument = self.histogram(
                    name,
                    help_text,
                    labelnames,
                    buckets=entry.get("bounds", DEFAULT_BUCKETS),
                )
            else:
                raise ValueError(f"unknown instrument type {kind!r}")
            with instrument._lock:
                for key, value in entry.get("samples", []):
                    key = tuple(str(part) for part in key)
                    if kind == "histogram":
                        state = instrument._samples.get(key)
                        if state is None:
                            state = {
                                "buckets": [0]
                                * (len(instrument.bounds) + 1),
                                "sum": 0.0,
                                "count": 0,
                            }
                            instrument._samples[key] = state
                        incoming = value["buckets"]
                        if len(incoming) != len(state["buckets"]):
                            raise ValueError(
                                f"histogram {name!r} bucket layout mismatch"
                            )
                        for i, count in enumerate(incoming):
                            state["buckets"][i] += count
                        state["sum"] += value["sum"]
                        state["count"] += value["count"]
                    else:
                        instrument._samples[key] = (
                            instrument._samples.get(key, 0.0) + value
                        )

    def render(self) -> str:
        """This registry as Prometheus text exposition."""
        return render_prometheus(self.snapshot())


class _NullInstrument:
    """An instrument that records nothing (the uninstrumented path)."""

    def _drop(self, *args, **kwargs) -> None:
        pass

    inc = set = observe = _drop

    def value(self, *args, **kwargs) -> float:
        return 0.0

    def labels(self, **labels) -> "_NullInstrument":
        return self


class NullRegistry(MetricsRegistry):
    """A registry whose instruments drop every sample.

    Handed to the servers to measure (and bound) instrumentation
    overhead — the bench's uninstrumented baseline.
    """

    _NULL = _NullInstrument()

    def counter(self, name, help="", labelnames=()):  # type: ignore[override]
        return self._NULL

    def gauge(self, name, help="", labelnames=()):  # type: ignore[override]
        return self._NULL

    def histogram(  # type: ignore[override]
        self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS
    ):
        return self._NULL

    def merge(self, snapshot) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry ambient instrumentation reports to."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Worker processes install a fresh registry per job so the snapshot
    they ship back is exactly that job's deltas.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
        return previous


# ---------------------------------------------------------------------------
# merge (pure function form, for the property tests and worker channel)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _format_labels(
    labelnames: Sequence[str],
    labelvalues: Sequence[str],
    extra: Sequence[Tuple[str, str]] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs += [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in extra
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: Mapping[str, dict]) -> str:
    """Render a registry snapshot as Prometheus text format 0.0.4.

    Families are emitted name-sorted; each gets its ``# HELP`` and
    ``# TYPE`` line.  Histograms expand into cumulative ``_bucket``
    series (ending in ``le="+Inf"``) plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        help_text = entry.get("help") or name
        labelnames = entry.get("labelnames", [])
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        samples = sorted(entry.get("samples", []), key=lambda s: s[0])
        if kind == "histogram":
            bounds = [float(b) for b in entry.get("bounds", [])]
            for key, state in samples:
                cumulative = 0
                for bound, count in zip(
                    bounds + [math.inf], state["buckets"]
                ):
                    cumulative += count
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    labels = _format_labels(labelnames, key, [("le", le)])
                    lines.append(
                        f"{name}_bucket{labels} {cumulative}"
                    )
                labels = _format_labels(labelnames, key)
                lines.append(
                    f"{name}_sum{labels} {_format_value(state['sum'])}"
                )
                lines.append(f"{name}_count{labels} {state['count']}")
        else:
            for key, value in samples:
                labels = _format_labels(labelnames, key)
                lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# strict parser (client helpers, smoke tools, CI validation)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*'
)


def _unescape_label_value(raw: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        char = raw[i]
        if char == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            out.append(
                {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
            )
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _parse_labels(raw: Optional[str], line_no: int) -> Dict[str, str]:
    if not raw:
        return {}
    labels: Dict[str, str] = {}
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR_RE.match(raw, position)
        if match is None:
            raise ValueError(
                f"line {line_no}: malformed label pair in {{{raw}}}"
            )
        labels[match.group("name")] = _unescape_label_value(
            match.group("value")
        )
        position = match.end()
        if position < len(raw):
            if raw[position] != ",":
                raise ValueError(
                    f"line {line_no}: expected ',' between labels in "
                    f"{{{raw}}}"
                )
            position += 1
    return labels


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line_no}: bad sample value {raw!r}")


_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(sample_name: str, types: Mapping[str, str]) -> str:
    """The declared family a sample line belongs to."""
    if sample_name in types:
        return sample_name
    for suffix in _HISTOGRAM_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    raise ValueError(f"sample {sample_name!r} has no preceding # TYPE line")


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Strictly parse Prometheus text exposition into families.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value)]}}``.  Raises :class:`ValueError` on any conformance problem:
    samples without a ``# TYPE``, malformed labels, counter samples with
    negative values, histogram bucket series that are non-monotonic,
    missing their ``+Inf`` bucket, or whose ``_count`` disagrees with
    the ``+Inf`` bucket.
    """
    families: Dict[str, dict] = {}
    types: Dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_no}: malformed HELP line")
            name = parts[2]
            families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_no}: malformed TYPE line")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ValueError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            if name in types:
                raise ValueError(
                    f"line {line_no}: duplicate TYPE for {name!r}"
                )
            types[name] = kind
            families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample: {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels"), line_no)
        value = _parse_value(match.group("value"), line_no)
        family = _family_of(sample_name, types)
        if types[family] == "counter" and value < 0:
            raise ValueError(
                f"line {line_no}: counter {sample_name!r} is negative"
            )
        families[family]["samples"].append((sample_name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Mapping[str, dict]) -> None:
    for family, entry in families.items():
        if entry["type"] != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], List] = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for name, labels, value in entry["samples"]:
            if name == f"{family}_bucket":
                if "le" not in labels:
                    raise ValueError(
                        f"histogram {family!r} bucket without le label"
                    )
                key = tuple(
                    sorted((k, v) for k, v in labels.items() if k != "le")
                )
                series.setdefault(key, []).append(
                    (_parse_value(labels["le"], 0), value)
                )
            elif name == f"{family}_count":
                key = tuple(sorted(labels.items()))
                counts[key] = value
        for key, buckets in series.items():
            buckets.sort(key=lambda pair: pair[0])
            if not buckets or not math.isinf(buckets[-1][0]):
                raise ValueError(
                    f"histogram {family!r} missing +Inf bucket"
                )
            values = [count for _, count in buckets]
            if any(b > a for b, a in zip(values, values[1:])):
                raise ValueError(
                    f"histogram {family!r} buckets are non-monotonic"
                )
            if key in counts and counts[key] != values[-1]:
                raise ValueError(
                    f"histogram {family!r} _count disagrees with +Inf "
                    f"bucket"
                )
