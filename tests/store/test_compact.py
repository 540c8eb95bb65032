"""Tests for ResultStore.compact() and the compact_store CLI tool."""

import json
import warnings

import pytest

from repro.experiments import run_experiment
from repro.store import ResultStore, make_record


@pytest.fixture(scope="module")
def records():
    results = {
        seed: run_experiment("a5", seed=seed, fast=True) for seed in (0, 1, 2)
    }
    return [
        make_record("a5", seed=seed, result=result)
        for seed, result in results.items()
    ]


class TestCompact:
    def test_drops_superseded_duplicates(self, tmp_path, records):
        store = ResultStore(tmp_path)
        for record in records:
            store.put(record)
        for record in records[:2]:  # re-appended: shadowed duplicates
            store.put(record)
        lines_before = store.path.read_text().count("\n")
        assert lines_before == 5
        stats = store.compact()
        assert stats["records"] == 3
        assert stats["dropped_duplicates"] == 2
        assert stats["dropped_unreadable"] == 0
        assert stats["bytes_after"] < stats["bytes_before"]
        assert store.path.read_text().count("\n") == 3

    def test_preserves_survivors_byte_for_byte(self, tmp_path, records):
        store = ResultStore(tmp_path)
        for record in records:
            store.put(record)
        before = {r["key"]: r for r in ResultStore(tmp_path).load().records()}
        store.put(records[0])  # duplicate
        store.compact()
        after = {r["key"]: r for r in ResultStore(tmp_path).load().records()}
        assert after == before

    def test_keeps_newest_payloads_in_first_written_order(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [make_record("a5", seed=i) for i in range(5)]
        for record in records:
            store.put(record)
        for record in records[:3]:  # superseded duplicates
            store.put(dict(record, extra_marker="v2"))
        before = store.records()
        stats = store.compact()
        assert (stats["records"], stats["dropped_duplicates"]) == (5, 3)
        assert stats["bytes_after"] == store.path.stat().st_size
        assert stats["bytes_after"] < stats["bytes_before"]
        assert store.records() == before
        assert ResultStore(tmp_path).records() == before

    def test_drops_partial_trailing_line(self, tmp_path, records):
        store = ResultStore(tmp_path)
        store.put(records[0])
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "interrupted mid-wri')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = ResultStore(tmp_path).compact()
        assert stats["records"] == 1
        assert stats["dropped_unreadable"] == 1
        # the compacted file loads silently — no partial lines left
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = ResultStore(tmp_path).load()
        assert len(reloaded) == 1
        content = store.path.read_text()
        assert content.endswith("\n")
        for line in content.splitlines():
            json.loads(line)

    def test_missing_store_is_a_noop(self, tmp_path):
        stats = ResultStore(tmp_path / "nowhere").compact()
        assert stats == {
            "records": 0,
            "dropped_duplicates": 0,
            "dropped_unreadable": 0,
            "bytes_before": 0,
            "bytes_after": 0,
        }

    def test_store_stays_usable_after_compact(self, tmp_path, records):
        store = ResultStore(tmp_path)
        store.put(records[0])
        store.put(records[0])
        store.compact()
        store.put(records[1])  # append-after-compact works
        assert len(ResultStore(tmp_path).load()) == 2


class TestCompactTool:
    def _run(self, argv):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "tools"
            / "compact_store.py"
        )
        spec = importlib.util.spec_from_file_location("compact_store", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(argv)

    def test_tool_compacts_and_reports(self, tmp_path, records, capsys):
        store = ResultStore(tmp_path)
        for record in records:
            store.put(record)
        store.put(records[0])
        assert self._run(["--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 3 records" in out
        assert "dropped 1 superseded duplicates" in out
        assert len(ResultStore(tmp_path).load()) == 3

    def test_tool_dry_run_leaves_file_alone(self, tmp_path, records, capsys):
        store = ResultStore(tmp_path)
        store.put(records[0])
        store.put(records[0])
        before = store.path.read_bytes()
        assert self._run(["--store", str(tmp_path), "--dry-run"]) == 0
        assert "dry run" in capsys.readouterr().out
        assert store.path.read_bytes() == before

    def test_tool_missing_store(self, tmp_path, capsys):
        assert self._run(["--store", str(tmp_path / "nope")]) == 0
        assert "nothing to compact" in capsys.readouterr().out
