"""Unit tests for the JSONL result store."""

import json

import pytest

from repro.errors import ModelError
from repro.experiments import run_experiment
from repro.store import ResultStore, cache_key, make_record, record_result
from repro.store.records import validate_record


@pytest.fixture(scope="module")
def a5_result():
    return run_experiment("a5", seed=0, fast=True)


class TestRecords:
    def test_make_record_includes_key_and_identity(self, a5_result):
        record = make_record("a5", seed=0, fast=True, result=a5_result)
        assert record["key"] == cache_key("a5", 0, True)
        assert record["experiment_id"] == "a5"
        assert record["result"]["passed"] is True
        validate_record(record)

    def test_record_result_roundtrips_bit_for_bit(self, a5_result):
        record = make_record("a5", seed=0, fast=True, result=a5_result)
        rebuilt = record_result(record)
        assert [list(r) for r in rebuilt.rows] == [
            list(r) for r in a5_result.rows
        ]
        assert rebuilt.claims == a5_result.claims
        assert rebuilt.notes == a5_result.notes

    def test_mismatched_result_id_rejected(self, a5_result):
        with pytest.raises(ModelError, match="a result of 'a5'"):
            make_record("a4", seed=0, fast=True, result=a5_result)

    def test_record_without_result_payload(self):
        record = make_record("a5", seed=1)
        with pytest.raises(ModelError, match="no result payload"):
            record_result(record)

    def test_tampered_key_fails_validation(self, a5_result):
        record = make_record("a5", seed=0, result=a5_result)
        record["seed"] = 1  # identity no longer matches the key
        with pytest.raises(ModelError, match="does not match its identity"):
            validate_record(record)

    def test_version_changes_key(self):
        assert cache_key("a5", 0, True, version="1.0.0") != cache_key(
            "a5", 0, True, version="1.0.1"
        )


class TestResultStore:
    def test_put_get_contains(self, tmp_path, a5_result):
        store = ResultStore(tmp_path)
        record = make_record("a5", seed=0, result=a5_result)
        key = store.put(record)
        assert store.get(key) is not None
        assert store.get(key) == record
        assert len(store) == 1
        assert store.records() == [record]
        assert [r["key"] for r in store.records()] == [key]

    def test_fresh_instance_reads_what_was_written(self, tmp_path, a5_result):
        record = make_record(
            "a5", seed=3, params={"deep": {"nested": [1, 2]}}, result=a5_result
        )
        ResultStore(tmp_path).put(record)
        reread = ResultStore(tmp_path)
        assert reread.get(record["key"]) == record

    def test_unicode_and_float_payloads_survive(self, tmp_path):
        record = make_record(
            "a5", seed=5, params={"label": "π≈3.14159", "ratio": 0.1 + 0.2}
        )
        ResultStore(tmp_path).put(record)
        loaded = ResultStore(tmp_path).get(record["key"])
        assert loaded["params"]["label"] == "π≈3.14159"
        assert loaded["params"]["ratio"] == 0.1 + 0.2  # bit-exact

    def test_explicit_jsonl_path(self, tmp_path, a5_result):
        path = tmp_path / "mine.jsonl"
        store = ResultStore(path)
        store.put(make_record("a5", seed=0, result=a5_result))
        assert store.path == path
        assert path.exists()
        assert len(ResultStore(path)) == 1

    def test_missing_file_is_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert len(store) == 0
        assert store.records() == []
        assert store.get("no-such-key") is None

    @pytest.mark.parametrize("name", ["notastore", "records.sqlite"])
    def test_existing_file_without_jsonl_suffix_is_rejected(
        self, tmp_path, name
    ):
        path = tmp_path / name
        path.write_text("not a store\n")
        with pytest.raises(ModelError, match="directory or a .jsonl file"):
            ResultStore(path)
        assert path.read_text() == "not a store\n"

    def test_truncated_trailing_line_skipped_with_warning(
        self, tmp_path, a5_result
    ):
        store = ResultStore(tmp_path)
        store.put(make_record("a5", seed=0, result=a5_result))
        store.put(make_record("a5", seed=1, result=None))
        # simulate an interrupt mid-append: chop the last record in half
        content = store.path.read_text()
        store.path.write_text(content[: len(content) - 40])
        with pytest.warns(UserWarning, match="skipping unreadable record"):
            reread = ResultStore(tmp_path).load()
        assert len(reread) == 1
        assert reread.get(cache_key("a5", 0, True)) is not None

    def test_append_after_truncated_tail_starts_a_fresh_line(
        self, tmp_path, a5_result
    ):
        """A put() after an interrupt must not merge into the partial line.

        Regression: without the newline repair, the record written on
        resume lands on the same line as the truncated garbage, stays
        unreadable forever, and the point is recomputed on *every* resume.
        """
        store = ResultStore(tmp_path)
        store.put(make_record("a5", seed=0, result=a5_result))
        store.put(make_record("a5", seed=1, result=a5_result))
        content = store.path.read_text()
        store.path.write_text(content[: len(content) - 40])  # kill mid-append
        with pytest.warns(UserWarning):
            recovering = ResultStore(tmp_path).load()
        recovering.put(make_record("a5", seed=1, result=a5_result))
        # second recovery reads BOTH records (the garbage line itself stays
        # in the file and is skipped, but no longer swallows its successor)
        with pytest.warns(UserWarning):
            healed = ResultStore(tmp_path).load()
        assert len(healed) == 2
        assert healed.get(cache_key("a5", 1, True)) is not None

    def test_duplicate_keys_resolve_last_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record("a5", seed=0)
        store.put(record)
        shadow = dict(record)
        shadow["result"] = {"passed": True, "marker": "second-write"}
        store.put(shadow)
        assert len(store) == 1
        assert store.get(record["key"]) == shadow
        reread = ResultStore(tmp_path)
        assert len(reread) == 1
        assert reread.get(record["key"])["result"]["marker"] == "second-write"

    def test_duplicate_keeps_first_written_order(self, tmp_path):
        store = ResultStore(tmp_path)
        early, middle, late = (make_record("a5", seed=s) for s in (1, 2, 3))
        for record in (early, middle, late):
            store.put(record)
        replacement = dict(early, extra_marker="v2")
        store.put(replacement)
        # dict semantics: the key stays where it first appeared
        assert store.records() == [replacement, middle, late]
        assert ResultStore(tmp_path).records() == [replacement, middle, late]

    def test_hand_edited_record_skipped_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_record("a5", seed=0))
        with open(store.path, "a", encoding="utf-8") as handle:
            bogus = make_record("a4", seed=9)
            bogus["seed"] = 7  # key no longer matches identity
            handle.write(json.dumps(bogus) + "\n")
        with pytest.warns(UserWarning, match="skipping unreadable record"):
            reread = ResultStore(tmp_path).load()
        assert [r["key"] for r in reread.records()] == [cache_key("a5", 0, True)]

    def test_records_filter_by_experiment(self, tmp_path):
        store = ResultStore(tmp_path)
        first, other, second = (
            make_record("a5", seed=0),
            make_record("a4", seed=0),
            make_record("a5", seed=1),
        )
        for record in (first, other, second):
            store.put(record)
        assert store.records("a5") == [first, second]
        assert store.records("a4") == [other]
        assert store.records() == [first, other, second]


GOLDEN_GRID = dict(
    experiments=["a4", "a2"],
    seeds=[0, 1],
    experiment_params={"a2": {"presence_prob": [0.2, 0.3]}},
)


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """One real sweep's store (computed once, shared read-only)."""
    from repro.sweeps import Sweep, SweepSpec

    store = ResultStore(tmp_path_factory.mktemp("golden"))
    report = Sweep(SweepSpec(**GOLDEN_GRID), store).run()
    assert report.passed
    return store


def _rehosted(golden_store, tmp_path):
    """The golden records replayed into a fresh ``.jsonl`` store, compacted
    and reopened from disk."""
    rehosted = ResultStore(tmp_path / "rehosted.jsonl")
    for record in golden_store.records():
        rehosted.put(record)
    rehosted.put(golden_store.records()[0])  # a superseded duplicate
    rehosted.compact()
    return ResultStore(rehosted.path)


class TestAggregate:
    """Aggregate output on the golden grid survives a write, reload and
    compaction byte for byte."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_summary_table_survives_reload_and_compact(
        self, golden_store, tmp_path, fmt
    ):
        from repro.sweeps import render_table, summary_table

        expected = render_table(summary_table(golden_store), fmt)
        rehosted = _rehosted(golden_store, tmp_path)
        assert render_table(summary_table(rehosted), fmt) == expected
        assert len(summary_table(golden_store)[1]) == 6

    def test_comparison_table_survives_reload_and_compact(
        self, golden_store, tmp_path
    ):
        from repro.sweeps import comparison_table, render_table

        expected = render_table(comparison_table(golden_store, "a2"), "csv")
        rehosted = _rehosted(golden_store, tmp_path)
        assert render_table(comparison_table(rehosted, "a2"), "csv") == expected
