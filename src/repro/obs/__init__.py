"""Unified observability: metrics, tracing spans, structured logging.

``repro.obs`` is the dependency-free substrate the service layer (and
the CLI) report through.  Three small pieces compose:

``repro.obs.metrics``
    A process-wide :class:`~repro.obs.metrics.MetricsRegistry` of
    :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments with
    labels, cheap in-the-loop increments, **mergeable snapshots** (the
    worker→parent aggregation channel) and a Prometheus text-exposition
    renderer plus a strict parser for it.

``repro.obs.trace``
    ``trace_id``/``span_id`` context propagated across threads and
    event loops (contextvars) and across processes/HTTP hops via the
    ``X-Repro-Trace`` header.  Spans are emitted as structured events
    with monotonic durations; ``tools/trace_tree.py`` reconstructs the
    tree for one request.

``repro.obs.log``
    Structured logging — one-line JSON events or a human format —
    behind ``--log-level``/``--log-format`` on the CLI, ``serve`` and
    ``router`` commands.

``repro.obs.timing``
    Ambient per-run phase timers backing the provenance payload
    (``ExperimentResult.extra["timings"]``) behind ``repro <id>
    --profile``.

Nothing in here imports the rest of ``repro`` — every layer can depend
on ``repro.obs`` without cycles.
"""

from __future__ import annotations

from .log import ObsLogger, configure_logging, get_logger, logging_config
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    default_registry,
    parse_prometheus_text,
    render_prometheus,
    set_default_registry,
)
from .timing import PhaseTimer, collect_timings, current_timer
from .trace import (
    TRACE_HEADER,
    TraceContext,
    add_span_sink,
    capture_spans,
    current_trace,
    emit_span,
    emit_span_record,
    format_trace_header,
    new_trace_context,
    parse_trace_header,
    remove_span_sink,
    set_trace_context,
    span,
    tracing_active,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "ObsLogger",
    "PhaseTimer",
    "TRACE_HEADER",
    "TraceContext",
    "add_span_sink",
    "capture_spans",
    "collect_timings",
    "configure_logging",
    "current_timer",
    "current_trace",
    "default_registry",
    "emit_span",
    "emit_span_record",
    "format_trace_header",
    "get_logger",
    "logging_config",
    "new_trace_context",
    "parse_prometheus_text",
    "parse_trace_header",
    "remove_span_sink",
    "render_prometheus",
    "set_default_registry",
    "set_trace_context",
    "span",
    "tracing_active",
]
