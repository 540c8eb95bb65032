#!/usr/bin/env python
"""Regenerate the golden experiment snapshots under tests/experiments/golden/.

The golden suite (``tests/experiments/test_golden.py``) locks every
registered experiment's fast-mode, seed-0 output — claim verdicts, result
tables, notes — against these checked-in JSON snapshots, so a refactor
that changes any reproduced number fails loudly.  When a change is
*intended*, regenerate from the repository root::

    PYTHONPATH=src python tools/update_golden.py            # all ids
    PYTHONPATH=src python tools/update_golden.py e07 a2     # selected ids

(equivalently: ``pytest tests/experiments/test_golden.py --update-golden``)
and commit the diff — the diff *is* the review artifact: every changed
number is visible to the reviewer.

Snapshots are ``ExperimentResult.to_payload()`` serialized with sorted
keys and repr-stable floats, so regeneration on any platform produces
byte-identical files for identical results.  A regenerated float that
agrees with the committed one within the golden tolerance keeps the
committed value, so last-ulp BLAS noise never shows in the diff.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

GOLDEN_DIR = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "experiments"
    / "golden"
)

#: run configuration the snapshots are pinned to; test_golden.py imports
#: these (by file path), so tool and test cannot drift apart
GOLDEN_SEED = 0
GOLDEN_FAST = True

#: floats agreeing within these tolerances are the same golden value; the
#: golden test compares with them, and regeneration keeps committed floats
#: that pass
REL_TOL = 1e-9
ABS_TOL = 1e-12


def snapshot_path(experiment_id: str) -> pathlib.Path:
    """The checked-in snapshot file for one experiment id."""
    return GOLDEN_DIR / f"{experiment_id}.json"


def render_snapshot(payload: dict) -> str:
    """Snapshot file content for a result payload (stable key order)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def keep_committed(fresh, committed):
    """``fresh`` with every float that agrees with its committed counterpart
    (same place in the payload) within the golden tolerance replaced by the
    committed float."""
    if isinstance(fresh, float) and isinstance(committed, float):
        agree = math.isclose(fresh, committed, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return committed if agree else fresh
    if isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            return fresh
        return [keep_committed(a, b) for a, b in zip(fresh, committed)]
    if isinstance(fresh, dict) and isinstance(committed, dict):
        return {
            key: keep_committed(value, committed[key]) if key in committed else value
            for key, value in fresh.items()
        }
    return fresh


def regenerated_snapshot(payload: dict, path: pathlib.Path) -> str:
    """Snapshot content for ``payload``, keeping the floats of the committed
    file at ``path`` (if any) that agree within the golden tolerance."""
    if path.exists():
        payload = keep_committed(payload, json.loads(path.read_text()))
    return render_snapshot(payload)


def update(experiment_ids) -> int:
    from repro.experiments import run_experiment

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, seed=GOLDEN_SEED, fast=GOLDEN_FAST)
        path = snapshot_path(experiment_id)
        content = regenerated_snapshot(result.to_payload(), path)
        changed = not path.exists() or path.read_text() != content
        path.write_text(content)
        status = "updated" if changed else "unchanged"
        verdict = "PASS" if result.passed else "FAIL"
        print(f"{status:<9} {path.relative_to(GOLDEN_DIR.parent.parent.parent)}"
              f"  ({verdict}, {len(result.claims)} claims)")
    return 0


def main(argv=None) -> int:
    from repro.errors import ModelError
    from repro.experiments import all_experiment_ids

    parser = argparse.ArgumentParser(
        description="Regenerate golden experiment snapshots."
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to regenerate (default: every registered id)",
    )
    args = parser.parse_args(argv)
    known = all_experiment_ids()
    unknown = [eid for eid in args.ids if eid not in known]
    if unknown:
        raise ModelError(
            f"unknown experiment id(s): {unknown}; known: {', '.join(known)}"
        )
    stale = sorted(
        path.stem
        for path in GOLDEN_DIR.glob("*.json")
        if path.stem not in known
    )
    if stale and not args.ids:
        for experiment_id in stale:
            snapshot_path(experiment_id).unlink()
            print(f"removed   stale snapshot {experiment_id}.json")
    return update(args.ids or known)


if __name__ == "__main__":
    sys.exit(main())
