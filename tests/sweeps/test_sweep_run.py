"""Tests for sweep execution, resume semantics and the aggregate join.

The acceptance path for the sweep subsystem lives here: a grid over
multiple experiment ids and parameter points runs, is "interrupted"
(store truncated mid-record, exactly what a kill during append leaves
behind), resumes with completed points served from the store, and the
aggregate reporter reproduces the single-run numbers bit-for-bit from the
stored records.
"""

import json

import pytest

from repro import __version__
from repro.errors import ModelError
from repro.experiments import run_experiment
from repro.store import ResultStore, make_record
from repro.sweeps import (
    Sweep,
    SweepSpec,
    comparison_table,
    render_table,
    summary_table,
)

# ≥2 experiment ids × ≥3 parameter points per the acceptance criterion;
# a4/a5 are exact/cheap, a2's knob adds a real model-parameter axis
GRID = dict(
    experiments=["a4", "a2"],
    seeds=[0, 1, 2],
    experiment_params={"a2": {"presence_prob": [0.2, 0.3]}},
)


@pytest.fixture(scope="module")
def completed_store(tmp_path_factory):
    """One fully-run sweep, shared by the read-only tests below."""
    store = ResultStore(tmp_path_factory.mktemp("sweep"))
    report = Sweep(SweepSpec(**GRID), store).run()
    assert report.executed == 3 + 3 * 2
    assert report.passed
    return store


class TestSweepRun:
    def test_second_run_is_all_cache_hits(self, completed_store):
        report = Sweep(SweepSpec(**GRID), completed_store).run()
        assert report.executed == 0
        assert report.cached == 9
        assert report.passed
        assert "9 cached" in report.summary()

    def test_resume_after_interrupt(self, completed_store, tmp_path):
        # replay an interrupt: copy the store, truncate mid-record (what a
        # kill during the final append leaves), then re-run the same grid
        store_path = tmp_path / "records.jsonl"
        content = completed_store.path.read_text()
        store_path.write_text(content[: len(content) - 80])
        with pytest.warns(UserWarning, match="skipping unreadable record"):
            store = ResultStore(store_path).load()
        assert len(store) == 8  # the interrupted point is gone
        statuses = {}
        report = Sweep(SweepSpec(**GRID), store).run(
            progress=lambda point, status: statuses.update({point: status})
        )
        # 8 completed points served from the store, only the lost one re-ran
        assert report.cached == 8
        assert report.executed == 1
        assert sorted(statuses.values()).count("executed") == 1
        assert sorted(_keys(store)) == sorted(_keys(completed_store))

    def test_partial_grid_then_superset_resumes(self, tmp_path):
        store = ResultStore(tmp_path)
        small = SweepSpec(experiments=["a4"], seeds=[0, 1])
        assert Sweep(small, store).run().executed == 2
        grown = SweepSpec(experiments=["a4", "a5"], seeds=[0, 1])
        report = Sweep(grown, store).run()
        assert report.cached == 2
        assert report.executed == 2

    def test_n_procs_invariance(self, completed_store, tmp_path):
        parallel_store = ResultStore(tmp_path)
        report = Sweep(SweepSpec(**GRID), parallel_store).run(n_procs=3)
        assert report.executed == 9
        assert sorted(_keys(parallel_store)) == sorted(_keys(completed_store))
        for key in _keys(completed_store):
            assert parallel_store.get(key) == completed_store.get(key)

    def test_double_interrupt_resume_converges(self, completed_store, tmp_path):
        """Resume after resume: the store heals, nothing re-runs twice.

        Regression: the partial line left by an interrupt must not swallow
        the record appended by the first resume, or the lost point would be
        recomputed on every subsequent run.
        """
        store_path = tmp_path / "records.jsonl"
        content = completed_store.path.read_text()
        store_path.write_text(content[: len(content) - 80])
        with pytest.warns(UserWarning):
            first = Sweep(SweepSpec(**GRID), ResultStore(store_path).load()).run()
        assert first.executed == 1
        with pytest.warns(UserWarning):  # the dead garbage line still warns
            second = Sweep(SweepSpec(**GRID), ResultStore(store_path).load()).run()
        assert second.executed == 0
        assert second.cached == 9

    def test_identity_only_record_is_not_a_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = SweepSpec(experiments=["a4"], seeds=[0])
        # a record without a result payload marks the point known, not done
        store.put(make_record("a4", seed=0, result=None))
        report = Sweep(spec, store).run()
        assert report.executed == 1
        assert report.cached == 0
        assert Sweep(spec, store).run().cached == 1

    def test_engine_change_is_not_a_cache_hit(self, tmp_path):
        """A record a retired engine wrote keeps its own key, so it is
        never served for the current run (regression: cross-engine cache
        hits), while the current run's rerun is its own cache hit."""
        from repro.store.records import _identity

        store = ResultStore(tmp_path)
        spec = SweepSpec(experiments=["a5"], seeds=[0])
        result = run_experiment("a5", seed=0, fast=True)
        scalar = _identity("a5", 0, True, None, __version__, tag="scalar")
        store.put(dict(scalar, result=result.to_payload()))
        current = Sweep(spec, store).run()
        assert current.executed == 1
        assert current.cached == 0
        assert Sweep(spec, store).run().cached == 1
        engines = {record["engine"] for record in store.records()}
        assert engines == {"scalar", "auto"}

    def test_invalid_arguments(self, completed_store):
        spec = SweepSpec(**GRID)
        with pytest.raises(TypeError, match="engine"):
            Sweep(spec, completed_store, engine="warp")
        with pytest.raises(ModelError, match="n_jobs must be"):
            Sweep(spec, completed_store, n_jobs=0)
        with pytest.raises(ModelError, match="n_procs must be"):
            Sweep(spec, completed_store).run(n_procs=0)


class TestAggregate:
    def test_summary_table_covers_every_point(self, completed_store):
        columns, rows = summary_table(completed_store)
        assert len(rows) == 9
        assert columns[:3] == ["experiment", "seed", "fast"]
        assert "presence_prob" in columns
        assert all(row[-1] == "PASS" for row in rows)

    def test_comparison_table_reproduces_single_runs_bit_for_bit(
        self, completed_store
    ):
        columns, rows = comparison_table(completed_store, "a2")
        fresh = run_experiment("a2", seed=1, fast=True, params={"presence_prob": 0.3})
        prefix_width = len(columns) - len(fresh.columns)
        joined = [
            row[prefix_width:]
            for row in rows
            if row[0] == 1 and row[1] == 0.3
        ]
        assert len(joined) == len(fresh.rows)
        for stored_row, fresh_row in zip(joined, fresh.rows):
            for stored_cell, fresh_cell in zip(stored_row, fresh_row):
                assert stored_cell == fresh_cell  # exact, not approx

    def test_json_render_round_trips_floats(self, completed_store):
        table = comparison_table(completed_store, "a2")
        parsed = json.loads(render_table(table, "json"))
        assert parsed["columns"] == table[0]
        assert parsed["rows"] == [list(row) for row in table[1]]

    def test_csv_render_uses_repr_floats(self, completed_store):
        table = comparison_table(completed_store, "a2")
        rendered = render_table(table, "csv")
        first_float = next(
            cell for cell in table[1][0] if isinstance(cell, float)
        )
        assert repr(first_float) in rendered

    def test_unknown_format_and_empty_store(self, completed_store, tmp_path):
        with pytest.raises(ModelError, match="unknown aggregate format"):
            render_table((["a"], []), "yaml")
        with pytest.raises(ModelError, match="no records to aggregate"):
            summary_table(ResultStore(tmp_path))
        with pytest.raises(ModelError, match="no records for 'e01'"):
            comparison_table(completed_store, "e01")

    def test_json_render_keeps_non_finite_cells_strict_json(self):
        """NaN/inf cells re-encode as tagged objects, never a dumps crash."""
        rendered = render_table(
            (["v"], [[float("nan")], [float("inf")], [1.5]]), "json"
        )
        parsed = json.loads(rendered)
        assert parsed["rows"] == [
            [{"__nonfinite__": "nan"}],
            [{"__nonfinite__": "inf"}],
            [1.5],
        ]

    def test_identity_only_records_excluded_from_aggregation(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        Sweep(SweepSpec(experiments=["a4"], seeds=[0]), store).run()
        store.put(make_record("a4", seed=99, result=None))
        columns, rows = summary_table(store)
        assert len(rows) == 1  # the identity-only record has nothing to report


def _keys(store):
    """The stored keys, in first-written order."""
    return [record["key"] for record in store.records()]
