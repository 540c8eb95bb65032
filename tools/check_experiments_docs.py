#!/usr/bin/env python
"""Check docs/experiments.md, docs/kernels.md and docs/observability.md
against the code.

The experiment catalog must list exactly the ids returned by
``repro.experiments.all_experiment_ids()`` — no missing rows, no stale
rows — the engine page (docs/kernels.md) must document exactly the
testing-plan kinds the batch planner returns, and the observability page's
metric catalog and span taxonomy
must cover exactly the families and span names the code registers.
Run from the repository root (CI runs it in the docs job)::

    PYTHONPATH=src python tools/check_experiments_docs.py

Exits non-zero with a diff-style report when a page is out of sync.
"""

from __future__ import annotations

import pathlib
import re
import sys

_DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
CATALOG = _DOCS / "experiments.md"
KERNELS_DOC = _DOCS / "kernels.md"

# catalog rows carry their id as the first, backticked table cell
_ROW_PATTERN = re.compile(r"^\|\s*`([a-z][a-z0-9]*)`", re.MULTILINE)

# a row's full line, for per-row column checks
_LINE_PATTERN = re.compile(r"^\|\s*`([a-z][a-z0-9]*)`.*$", re.MULTILINE)


def documented_ids(text: str) -> list:
    """Experiment ids listed in the catalog, in order of appearance."""
    return _ROW_PATTERN.findall(text)


def documented_precision_ids(text: str) -> list:
    """Ids whose catalog row marks the adaptive `precision` knob."""
    out = []
    for match in _LINE_PATTERN.finditer(text):
        if "`precision`" in match.group(0):
            out.append(match.group(1))
    return out


def catalog_rows(text: str) -> dict:
    """Mapping of documented id -> its full catalog row line."""
    return {
        match.group(1): match.group(0)
        for match in _LINE_PATTERN.finditer(text)
    }


def undocumented_knobs(registered, rows, runner_params) -> dict:
    """Sweepable knobs missing from their experiment's catalog row.

    Every knob a runner accepts (except `precision`, which the adaptive
    column already covers) must appear backticked in that id's row, so a
    reader browsing the catalog sees what each experiment can sweep.
    """
    out = {}
    for eid in registered:
        row = rows.get(eid)
        if row is None:
            continue  # reported separately as a missing row
        knobs = [
            name for name in runner_params(eid) if name != "precision"
        ]
        missing = [name for name in knobs if f"`{name}`" not in row]
        if missing:
            out[eid] = missing
    return out


def check_kernels_doc() -> list:
    """Problems with docs/kernels.md, as printable strings.

    The page's testing-plan rows (``| `name` |``) must be exactly the
    plan kinds ``repro.mc.batch._testing_plan`` returns, so the engine
    page can never silently lag a plan added, renamed or deleted.
    """
    from repro.mc.batch import _PLAN_KINDS

    problems = []
    if not KERNELS_DOC.exists():
        return [f"missing engine page: {KERNELS_DOC}"]
    text = KERNELS_DOC.read_text()
    documented = re.findall(r"^\|\s*`([a-z]+)`", text, re.MULTILINE)
    missing = [name for name in _PLAN_KINDS if name not in documented]
    extra = [name for name in documented if name not in _PLAN_KINDS]
    if missing:
        problems.append(
            f"testing plans _testing_plan returns but missing from the "
            f"docs/kernels.md plan table: {missing}"
        )
    if extra:
        problems.append(
            f"plan rows in docs/kernels.md that _testing_plan never "
            f"returns: {extra}"
        )
    return problems


LOCALIZATION_DOC = _DOCS / "localization.md"


def check_localization_doc() -> list:
    """Problems with docs/localization.md, as printable strings.

    The page must mention (backticked) every public name exported from
    ``repro.coverage`` and every SBFL metric name the code accepts, so
    the subsystem page can never silently lag an API rename or a new
    metric.
    """
    import repro.coverage
    from repro.coverage.sbfl import SBFL_METRICS

    if not LOCALIZATION_DOC.exists():
        return [f"missing localization page: {LOCALIZATION_DOC}"]
    text = LOCALIZATION_DOC.read_text()
    problems = []
    # a name counts as mentioned backticked either bare (`name`) or with a
    # call signature (`name(...)`)
    unmentioned = [
        name
        for name in repro.coverage.__all__
        if not re.search(rf"`{re.escape(name)}[(`]", text)
    ]
    if unmentioned:
        problems.append(
            f"names exported from repro.coverage but not mentioned in "
            f"docs/localization.md: {unmentioned}"
        )
    unlisted = [name for name in SBFL_METRICS if f"`{name}`" not in text]
    if unlisted:
        problems.append(
            f"SBFL metrics accepted by the code but missing from "
            f"docs/localization.md: {unlisted}"
        )
    return problems


OBS_DOC = _DOCS / "observability.md"
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# instrument registrations: .counter("repro_x", ...) across line breaks
_METRIC_REG_PATTERN = re.compile(
    r'\.(?:counter|gauge|histogram)\(\s*"(repro_[a-z0-9_]+)"'
)
# span openings: span("name"|emit_span("name" (also matches _obs_span()
_SPAN_PATTERN = re.compile(r'(?:emit_span|span)\(\s*"([a-z_]+(?:\.[a-z_]+)+)"')


def registered_metric_families() -> set:
    """Every metric family name registered anywhere under src/repro."""
    names = set()
    for path in sorted(_SRC.rglob("*.py")):
        names.update(_METRIC_REG_PATTERN.findall(path.read_text()))
    return names


def emitted_span_names() -> set:
    """Every span name opened or emitted anywhere under src/repro."""
    names = set()
    for path in sorted(_SRC.rglob("*.py")):
        names.update(_SPAN_PATTERN.findall(path.read_text()))
    return names


def check_observability_doc() -> list:
    """Problems with docs/observability.md, as printable strings.

    The metric catalog must name every family the code registers (and
    nothing the code doesn't), and the span taxonomy must cover every
    span name the code emits — so the page can never silently lag a
    rename or a new instrument.
    """
    problems = []
    if not OBS_DOC.exists():
        return [f"missing observability page: {OBS_DOC}"]
    text = OBS_DOC.read_text()
    documented_metrics = set(
        re.findall(r"`(repro_[a-z0-9_]+)`", text)
    )
    registered = registered_metric_families()
    missing = sorted(registered - documented_metrics)
    stale = sorted(documented_metrics - registered)
    if missing:
        problems.append(
            f"metric families registered in code but missing from the "
            f"docs/observability.md catalog: {missing}"
        )
    if stale:
        problems.append(
            f"metric families documented in docs/observability.md but "
            f"not registered anywhere in code: {stale}"
        )
    documented_spans = set(
        re.findall(r"`([a-z_]+(?:\.[a-z_]+)+)`", text)
    )
    undocumented_spans = sorted(emitted_span_names() - documented_spans)
    if undocumented_spans:
        problems.append(
            f"span names emitted in code but missing from the "
            f"docs/observability.md taxonomy: {undocumented_spans}"
        )
    return problems


def main() -> int:
    from repro.experiments import all_experiment_ids

    registered = all_experiment_ids()
    if not CATALOG.exists():
        print(f"missing catalog: {CATALOG}", file=sys.stderr)
        return 1
    from repro.experiments import runner_params

    text = CATALOG.read_text()
    documented = documented_ids(text)
    missing = [eid for eid in registered if eid not in documented]
    extra = [eid for eid in documented if eid not in registered]
    duplicated = sorted(
        {eid for eid in documented if documented.count(eid) > 1}
    )
    # the adaptive column must mirror which runners accept a `precision`
    # knob (the adaptive precision engine's entry point)
    capable = sorted(
        eid for eid in registered if "precision" in runner_params(eid)
    )
    marked = sorted(documented_precision_ids(text))
    unmarked = [eid for eid in capable if eid not in marked]
    overmarked = [eid for eid in marked if eid not in capable]
    # every other sweepable knob must be visible in its catalog row
    missing_knobs = undocumented_knobs(
        registered, catalog_rows(text), runner_params
    )
    kernel_problems = check_kernels_doc()
    obs_problems = check_observability_doc()
    localization_problems = check_localization_doc()
    if not (
        missing
        or extra
        or duplicated
        or unmarked
        or overmarked
        or missing_knobs
        or kernel_problems
        or obs_problems
        or localization_problems
    ):
        print(
            f"docs/experiments.md in sync: {len(registered)} experiment "
            f"ids, {len(capable)} precision-capable"
        )
        print("docs/kernels.md in sync: testing-plan table")
        import repro.coverage

        print(
            f"docs/localization.md in sync: "
            f"{len(repro.coverage.__all__)} repro.coverage exports"
        )
        print(
            f"docs/observability.md in sync: "
            f"{len(registered_metric_families())} metric families, "
            f"{len(emitted_span_names())} span names"
        )
        return 0
    if missing:
        print(f"ids registered but not documented: {missing}", file=sys.stderr)
    if extra:
        print(f"ids documented but not registered: {extra}", file=sys.stderr)
    if duplicated:
        print(f"ids documented more than once: {duplicated}", file=sys.stderr)
    if unmarked:
        print(
            f"precision-capable ids not marked in the adaptive column: "
            f"{unmarked}",
            file=sys.stderr,
        )
    if overmarked:
        print(
            f"ids marked `precision` but without the knob: {overmarked}",
            file=sys.stderr,
        )
    for eid, knobs in sorted(missing_knobs.items()):
        print(
            f"knob(s) of {eid!r} not mentioned in its catalog row: "
            f"{knobs}",
            file=sys.stderr,
        )
    for problem in kernel_problems:
        print(problem, file=sys.stderr)
    for problem in obs_problems:
        print(problem, file=sys.stderr)
    for problem in localization_problems:
        print(problem, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
