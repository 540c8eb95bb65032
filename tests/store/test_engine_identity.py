"""Store identity across the engine knob's retirement.

Records keep an ``engine`` identity field, now the constant ``"auto"``, so
every cache key and record byte of a point that ran on the default engine
is unchanged, and stores written when the engine was a choice still load,
validate and aggregate.  The pinned digests and the files under
``data/`` were produced by the last release that had the knob:
``engine_records.jsonl`` holds a5 at seed 0 swept under
``engine="scalar"`` and under the default, and the two ``.txt`` files
its rendered summary and comparison tables.
"""

import shutil
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.service.jobs import JobSpec
from repro.store import ResultStore, cache_key, make_record
from repro.store.records import canonical_json, validate_record
from repro.sweeps import Sweep, SweepSpec
from repro.sweeps.aggregate import comparison_table, render_table, summary_table

DATA = Path(__file__).with_name("data")
STORE = DATA / "engine_records.jsonl"

#: (experiment id, params) -> key the default engine's runs were stored at
PINNED_KEYS = {
    ("e09", None): "63d1858aabb2813c7e84dd453148de4c36dd31c1b82e7fdb443f56842a16a9f5",
    ("a2", (("presence_prob", 0.5),)): (
        "d602765f723160cbd29118038db32e99053c978d305c7d89de0ee595136bfdfb"
    ),
}


@pytest.mark.parametrize("point", sorted(PINNED_KEYS, key=str), ids=["a2", "e09"])
def test_cache_keys_of_default_runs_are_pinned(point):
    experiment_id, params = point
    expected = PINNED_KEYS[point]
    knobs = dict(params) if params else None
    assert cache_key(experiment_id, 0, True, knobs) == expected
    assert JobSpec(experiment_id, params=params or ()).cache_key() == expected
    assert make_record(experiment_id, 0, True, knobs)["key"] == expected
    (swept,) = SweepSpec(
        experiments=[experiment_id],
        params={name: [value] for name, value in params or ()},
    ).points()
    assert swept.cache_key() == expected


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "store.jsonl"
    shutil.copy(STORE, path)
    return path


def test_default_record_bytes_are_unchanged():
    """Recomputing the stored default-engine point gives its stored line."""
    lines = STORE.read_text(encoding="utf-8").splitlines()
    record = make_record("a5", 0, True, result=run_experiment("a5", seed=0, fast=True))
    assert canonical_json(record) in lines


def test_store_with_scalar_record_loads_validates_and_aggregates(store_path):
    original = store_path.read_bytes()
    store = ResultStore(store_path)
    records = list(store)
    assert sorted(record["engine"] for record in records) == ["auto", "scalar"]
    for record in records:
        validate_record(record)
    assert render_table(summary_table(store)) == (
        DATA / "engine_records.summary.txt"
    ).read_text(encoding="utf-8")
    assert render_table(comparison_table(store, "a5")) == (
        DATA / "engine_records.comparison.txt"
    ).read_text(encoding="utf-8")
    store.compact()
    assert store_path.read_bytes() == original


def test_default_record_is_served_scalar_record_is_not(store_path):
    store = ResultStore(store_path)
    report = Sweep(SweepSpec(experiments=["a5"], seeds=[0]), store).run()
    assert (report.cached, report.executed) == (1, 0)
    scalar = next(record for record in store if record["engine"] == "scalar")
    assert scalar["key"] != cache_key("a5", 0, True)
