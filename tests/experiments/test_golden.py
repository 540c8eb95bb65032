"""Golden-value regression suite over the whole experiment catalog.

Every registered experiment runs in fast mode at the golden seed and must
reproduce its checked-in snapshot (``golden/<id>.json``) — claim
descriptions and verdicts exactly, numeric cells to a tight relative
tolerance (floats are stored repr-stable, so on the same BLAS stack the
comparison is bit-for-bit; the tolerance only absorbs last-ulp
reduction-order differences across numpy builds).

When an output change is intentional, regenerate with either::

    PYTHONPATH=src python tools/update_golden.py
    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py --update-golden

and commit the snapshot diff.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.experiments import all_experiment_ids, run_experiment


def _load_update_golden_tool():
    """tools/update_golden.py is the single source of truth for snapshot
    serialization and the pinned run config; import it by path so the test
    and the regeneration CLI can never drift apart."""
    path = Path(__file__).parents[2] / "tools" / "update_golden.py"
    spec = importlib.util.spec_from_file_location("update_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TOOL = _load_update_golden_tool()
GOLDEN_DIR = _TOOL.GOLDEN_DIR
GOLDEN_SEED = _TOOL.GOLDEN_SEED

# ids cheap enough for the default (non-slow) tier; everything else is a
# simulation-driven experiment gated behind the `slow` marker, mirroring
# test_runs.py
CHEAP_IDS = {
    "e01", "e02", "e13", "a1", "a2", "a3", "a4", "a5", "a6", "x1",
    # m* read committed campaign measurements — exact, no simulation
    "m1", "m2", "m3",
    # c* localization workloads are small (counter-RNG vectorized rounds)
    "c1", "c2", "c3",
}

ALL_IDS = all_experiment_ids()

_PARAMS = [
    pytest.param(
        experiment_id,
        marks=() if experiment_id in CHEAP_IDS else pytest.mark.slow,
    )
    for experiment_id in ALL_IDS
]


def _assert_matches(actual, expected, context: str) -> None:
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and isinstance(
            expected, (int, float)
        ), f"{context}: {actual!r} vs golden {expected!r}"
        # floats are compared to a relative tolerance rather than bitwise
        # so a different BLAS reduction order cannot fail the suite; any
        # real modelling change moves numbers by far more than this
        assert math.isclose(
            actual, expected, rel_tol=_TOOL.REL_TOL, abs_tol=_TOOL.ABS_TOL
        ), f"{context}: {actual!r} vs golden {expected!r}"
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{context}: {actual!r} is not a list"
        assert len(actual) == len(expected), (
            f"{context}: length {len(actual)} vs golden {len(expected)}"
        )
        for index, (item, golden) in enumerate(zip(actual, expected)):
            _assert_matches(item, golden, f"{context}[{index}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{context}: {actual!r} is not a dict"
        assert set(actual) == set(expected), (
            f"{context}: keys {sorted(actual)} vs golden {sorted(expected)}"
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{context}.{key}")
    else:
        assert actual == expected, f"{context}: {actual!r} vs golden {expected!r}"


@pytest.mark.parametrize("experiment_id", _PARAMS)
def test_golden(experiment_id, request):
    result = run_experiment(
        experiment_id, seed=GOLDEN_SEED, fast=_TOOL.GOLDEN_FAST
    )
    payload = result.to_payload()
    path = _TOOL.snapshot_path(experiment_id)
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_TOOL.regenerated_snapshot(payload, path))
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; regenerate with "
        f"PYTHONPATH=src python tools/update_golden.py {experiment_id}"
    )
    snapshot = json.loads(path.read_text())
    _assert_matches(payload, snapshot, context=experiment_id)


def test_no_stale_snapshots():
    """Every checked-in snapshot corresponds to a registered experiment."""
    stale = sorted(
        path.stem
        for path in GOLDEN_DIR.glob("*.json")
        if path.stem not in ALL_IDS
    )
    assert not stale, (
        f"snapshots without a registered experiment: {stale}; "
        "tools/update_golden.py removes them"
    )


def test_snapshots_cover_every_experiment():
    """The net has no holes: each registered id has a snapshot on disk."""
    missing = [
        experiment_id
        for experiment_id in ALL_IDS
        if not (GOLDEN_DIR / f"{experiment_id}.json").exists()
    ]
    assert not missing, (
        f"experiments without golden snapshots: {missing}; run "
        "PYTHONPATH=src python tools/update_golden.py"
    )


def test_regeneration_keeps_committed_floats_within_tolerance(tmp_path, monkeypatch):
    """Regenerating a snapshot whose floats differ from the fresh run only
    within the tolerance leaves the file byte-identical; a real move is
    written."""
    monkeypatch.setattr(_TOOL, "GOLDEN_DIR", tmp_path)
    payload = run_experiment("e01", seed=GOLDEN_SEED, fast=_TOOL.GOLDEN_FAST).to_payload()
    fresh = payload["rows"][1][1]
    assert isinstance(fresh, float) and fresh > 0
    path = _TOOL.snapshot_path("e01")

    payload["rows"][1][1] = fresh * (1 + 1e-12)
    committed = _TOOL.render_snapshot(payload)
    path.write_text(committed)
    _TOOL.update(["e01"])
    assert path.read_text() == committed

    payload["rows"][1][1] = fresh * (1 + 1e-6)
    path.write_text(_TOOL.render_snapshot(payload))
    _TOOL.update(["e01"])
    assert json.loads(path.read_text())["rows"][1][1] == fresh
