#!/usr/bin/env python
"""Re-run the bundled mutation campaigns and regenerate measured data.

Runs the full mutation campaign for every corpus target under
``examples/targets/`` (or a named subset), writing per-target campaign
stores to ``examples/campaigns/<name>.jsonl`` and rewriting
``src/repro/mutation/measured.py`` from the stored outcomes::

    PYTHONPATH=src python tools/update_measured.py             # all targets
    PYTHONPATH=src python tools/update_measured.py stats leap  # a subset

Campaign stores are resumable: an interrupted run picks up where it
stopped, and re-running after a target edit executes only the work the
store does not already hold (edited targets change their content hashes,
so every mutant re-runs — that is the point).

Commit both the stores and the regenerated ``measured.py``; the
consistency test ``tests/mutation/test_measured.py`` fails when a corpus
program changes without re-measurement.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CAMPAIGNS_DIR = REPO_ROOT / "examples" / "campaigns"
MEASURED_PATH = REPO_ROOT / "src" / "repro" / "mutation" / "measured.py"

#: campaign configuration the committed measurements are pinned to
CAMPAIGN_TIMEOUT = 20.0
CAMPAIGN_SEED = 0

_HEADER = '''"""Committed campaign measurements — GENERATED, do not edit by hand.

Regenerate with ``python tools/update_measured.py``, which runs the full
mutation campaign for every bundled corpus target (stores under
``examples/campaigns/``) and rewrites this module from the results.  The
``m*`` experiments read these measurements so that experiment runs stay
deterministic and dependency-free — no subprocess campaigns at
experiment time.

Each entry records the target's content hashes at measurement time; the
consistency test (``tests/mutation/test_measured.py``) fails when a
corpus program or its tests change without re-measuring.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ModelError
from .estimators import DetectionData

__all__ = [
    "MEASURED",
    "measured_detection_data",
    "measured_target_names",
]

# target name -> campaign measurement (populated by tools/update_measured.py)
'''

_FOOTER = '''

def measured_target_names() -> List[str]:
    """Bundled targets with committed measurements, sorted."""
    return sorted(MEASURED)


def measured_detection_data(target: str) -> DetectionData:
    """The committed :class:`DetectionData` for one bundled target."""
    try:
        entry = MEASURED[target]
    except KeyError:
        known = ", ".join(measured_target_names()) or "<none>"
        raise ModelError(
            f"no committed measurement for target {target!r} (known: {known})"
        ) from None
    mutants = entry["mutants"]
    return DetectionData(
        counts=tuple(int(m["count"]) for m in mutants),
        n_tests=int(entry["n_tests"]),
        labels=tuple(str(m["id"]) for m in mutants),
    )
'''


def _render_measured(entries: dict) -> str:
    lines = [_HEADER, "MEASURED: Dict[str, dict] = {"]
    for name in sorted(entries):
        entry = entries[name]
        lines.append(f"    {name!r}: {{")
        lines.append(f"        \"n_tests\": {entry['n_tests']},")
        lines.append(f"        \"program_sha\": {entry['program_sha']!r},")
        lines.append(f"        \"tests_sha\": {entry['tests_sha']!r},")
        lines.append("        \"mutants\": [")
        for mutant in entry["mutants"]:
            kills = "(" + ", ".join(str(i) for i in mutant["kills"]) + (
                ",)" if len(mutant["kills"]) == 1 else ")"
            )
            lines.append(
                "            {"
                f"\"id\": {mutant['id']!r}, "
                f"\"op\": {mutant['op']!r}, "
                f"\"line\": {mutant['line']}, "
                f"\"count\": {mutant['count']}, "
                f"\"status\": {mutant['status']!r}, "
                f"\"kills\": {kills}"
                "},"
            )
        lines.append("        ],")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + _FOOTER


def run_campaigns(names) -> int:
    from repro.mutation import MutationCampaign, bundled_targets, load_outcomes
    from repro.store import ResultStore

    targets = bundled_targets()
    unknown = [name for name in names if name not in targets]
    if unknown:
        print(
            f"unknown target(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(targets))})",
            file=sys.stderr,
        )
        return 2
    selected = names or sorted(targets)
    CAMPAIGNS_DIR.mkdir(parents=True, exist_ok=True)

    entries = {}
    for name in sorted(targets):
        target = targets[name]
        store = ResultStore(CAMPAIGNS_DIR / f"{name}.jsonl")
        if name in selected:
            campaign = MutationCampaign(
                target, store, timeout=CAMPAIGN_TIMEOUT, seed=CAMPAIGN_SEED
            )
            report = campaign.run()
            print(
                f"{name}: {report.total} mutants "
                f"({report.executed} executed, {report.cached} cached) — "
                f"{report.killed} killed, {report.survived} survived, "
                f"{report.timeouts} timeouts, {report.errors} errors; "
                f"score {report.mutation_score:.2f} "
                f"in {report.elapsed_seconds:.1f}s"
            )
        outcomes = load_outcomes(store, target)
        if not outcomes:
            print(f"{name}: no stored outcomes; skipping", file=sys.stderr)
            continue
        nodeids = sorted(outcomes[0].tests)
        entries[name] = {
            "n_tests": outcomes[0].n_tests,
            "program_sha": target.source_sha,
            "tests_sha": target.tests_sha,
            "mutants": [
                {
                    "id": outcome.mutant_id,
                    "op": outcome.operator,
                    "line": outcome.lineno,
                    "count": outcome.detected,
                    "status": outcome.status,
                    "kills": tuple(
                        index
                        for index, nodeid in enumerate(nodeids)
                        if outcome.tests.get(nodeid, "missing") != "passed"
                    ),
                }
                for outcome in outcomes
            ],
        }

    content = _render_measured(entries)
    changed = (
        not MEASURED_PATH.exists()
        or MEASURED_PATH.read_text(encoding="utf-8") != content
    )
    MEASURED_PATH.write_text(content, encoding="utf-8")
    status = "updated" if changed else "unchanged"
    print(f"{status} {MEASURED_PATH.relative_to(REPO_ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-run bundled mutation campaigns; regenerate measured.py."
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="target names to re-run (default: every bundled target)",
    )
    args = parser.parse_args(argv)
    return run_campaigns(args.targets)


if __name__ == "__main__":
    sys.exit(main())
