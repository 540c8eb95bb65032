"""Plain-text reporting for experiment results.

The paper contains no numeric tables, so the report format is ours: one
aligned table per experiment with the analytic prediction, the independent
validation (enumeration / Monte Carlo), and the claim verdicts.
"""

from __future__ import annotations

from typing import List, Sequence

from .base import ExperimentResult

__all__ = ["format_result", "format_summary"]


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 1e-3 or abs(value) >= 1e5:
            return f"{value:.4e}"
        return f"{value:.6f}"
    return str(value)


def _format_table(columns: Sequence[str], rows: List[Sequence[object]]) -> str:
    header = [str(column) for column in columns]
    body = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(column) for column in header]
    for row in body:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _adaptive_totals(extra: dict) -> tuple:
    """``(replications, converged, total)`` over nested adaptive payloads."""
    from ..adaptive.controller import iter_adaptive_runs

    replications = 0
    converged = 0
    total = 0
    for run in iter_adaptive_runs(extra):
        replications += int(run["replications"])
        metrics = run["metrics"].values()
        total += len(run["metrics"])
        converged += sum(bool(metric["converged"]) for metric in metrics)
    return replications, converged, total


def format_result(result: ExperimentResult) -> str:
    """Render one experiment as a plain-text block."""
    lines = []
    status = "PASS" if result.passed else "FAIL"
    lines.append(f"[{result.experiment_id.upper()}] {result.title}  ({status})")
    lines.append(f"paper: {result.paper_reference}")
    if result.notes:
        lines.append(f"notes: {result.notes}")
    adaptive = result.extra.get("adaptive") if result.extra else None
    if isinstance(adaptive, dict):
        replications, converged, total = _adaptive_totals(adaptive)
        lines.append(
            f"adaptive: {replications} replications, {converged}/{total} "
            "metrics converged to target"
        )
    timings = result.extra.get("timings") if result.extra else None
    if isinstance(timings, dict):
        phases = timings.get("phases", {})
        parts = [
            f"{name} {float(seconds):.3f}s"
            for name, seconds in phases.items()
            if isinstance(seconds, (int, float))
        ]
        profile = f"profile: {float(timings.get('total_seconds', 0.0)):.3f}s"
        if parts:
            profile += f" ({', '.join(parts)})"
        chunks = timings.get("chunks", 0)
        if chunks:
            profile += f", {chunks} chunk(s)"
        lines.append(profile)
    lines.append("")
    lines.append(_format_table(result.columns, result.rows))
    lines.append("")
    for claim in result.claims:
        mark = "ok " if claim.holds else "FAIL"
        detail = f"  [{claim.detail}]" if claim.detail else ""
        lines.append(f"  {mark} {claim.description}{detail}")
    return "\n".join(lines)


def format_summary(results: Sequence[ExperimentResult]) -> str:
    """One-line-per-experiment overview."""
    lines = ["experiment  claims  status  title"]
    lines.append("-" * 72)
    for result in results:
        held = sum(claim.holds for claim in result.claims)
        total = len(result.claims)
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{result.experiment_id:<11} {held}/{total:<6} {status:<7} "
            f"{result.title}"
        )
    return "\n".join(lines)
