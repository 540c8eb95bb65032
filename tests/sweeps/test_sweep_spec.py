"""Tests for sweep specs and the grid loader."""

import pytest

from repro import __version__
from repro.errors import ModelError
from repro.sweeps import SweepPoint, SweepSpec, load_grid


class TestSweepSpec:
    def test_grid_is_cartesian_product(self):
        spec = SweepSpec(
            experiments=["a2"],
            seeds=[0, 1, 2],
            params={"presence_prob": [0.2, 0.3]},
        )
        points = spec.points()
        assert len(points) == 3 * 2
        assert len({point.cache_key() for point in points}) == 6

    def test_points_order_deterministic(self):
        spec = SweepSpec(
            experiments=["a2"],
            seeds=[1, 0],
            params={"presence_prob": [0.3, 0.2]},
        )
        labels = [point.label() for point in spec.points()]
        assert labels == [
            "a2 seed=1 presence_prob=0.3",
            "a2 seed=1 presence_prob=0.2",
            "a2 seed=0 presence_prob=0.3",
            "a2 seed=0 presence_prob=0.2",
        ]

    def test_point_identity_is_order_independent(self):
        a = SweepPoint("a2", 0, True, (("x", 1), ("y", 2)))
        b = SweepPoint("a2", 0, True, (("x", 1), ("y", 2)))
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ModelError, match="unknown experiment"):
            SweepSpec(experiments=["nope"])

    def test_unknown_knob_rejected_at_build_time(self):
        with pytest.raises(ModelError, match="does not accept param"):
            SweepSpec(experiments=["a4"], params={"presence_prob": [0.2]})

    def test_per_experiment_knob_scope(self):
        spec = SweepSpec(
            experiments=["a4", "a2"],
            experiment_params={"a2": {"presence_prob": [0.2, 0.3]}},
        )
        points = spec.points()
        assert len(points) == 1 + 2  # a4 bare, a2 twice
        assert spec._axes_by_experiment["a4"] == {}
        assert spec._axes_by_experiment["a2"] == {"presence_prob": [0.2, 0.3]}

    def test_experiment_params_for_absent_id_rejected(self):
        with pytest.raises(ModelError, match="not in the sweep"):
            SweepSpec(
                experiments=["a4"],
                experiment_params={"a2": {"presence_prob": [0.2]}},
            )

    def test_scalar_axis_promoted(self):
        spec = SweepSpec(
            experiments=["a2"], params={"presence_prob": 0.2}
        )
        assert len(spec.points()) == 1

    def test_empty_axes_and_duplicates_rejected(self):
        with pytest.raises(ModelError, match="no values"):
            SweepSpec(experiments=["a2"], params={"presence_prob": []})
        with pytest.raises(ModelError, match="more than once"):
            SweepSpec(experiments=["a4", "a4"])
        with pytest.raises(ModelError, match="at least one experiment"):
            SweepSpec(experiments=[])
        with pytest.raises(ModelError, match="at least one seed"):
            SweepSpec(experiments=["a4"], seeds=[])
        with pytest.raises(ModelError, match="seed.*more than once"):
            SweepSpec(experiments=["a4"], seeds=[0, 1, 0])
        with pytest.raises(ModelError, match="duplicate value"):
            SweepSpec(
                experiments=["a2"], params={"presence_prob": [0.2, 0.2]}
            )

    def test_engine_changes_point_cache_key(self):
        """The point key hashes the constant ``engine: "auto"`` identity; a
        record of the same point under another engine name keys apart."""
        from repro.store.records import _identity

        point = SweepSpec(experiments=["a5"]).points()[0]
        keys = {
            tag: _identity("a5", 0, True, None, __version__, tag)["key"]
            for tag in ("auto", "batch", "scalar")
        }
        assert point.cache_key() == keys["auto"]
        assert len(set(keys.values())) == 3


class TestLoadGrid:
    def _write(self, tmp_path, content, name="grid.toml"):
        path = tmp_path / name
        path.write_text(content)
        return path

    def test_toml_grid(self, tmp_path):
        path = self._write(
            tmp_path,
            """
[sweep]
experiments = ["a4", "a2"]
seeds = [0, 1]

[experiment_params.a2]
presence_prob = [0.2, 0.3]
""",
        )
        spec = load_grid(path)
        assert len(spec.points()) == 2 + 4
        assert spec.fast is True

    def test_json_grid(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"sweep": {"experiments": ["a4"], "seeds": [0], "fast": false}}',
            name="grid.json",
        )
        spec = load_grid(path)
        assert spec.fast is False
        assert [p.label() for p in spec.points()] == ["a4 seed=0 full"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="not found"):
            load_grid(tmp_path / "absent.toml")

    def test_unparseable_toml(self, tmp_path):
        path = self._write(tmp_path, "[sweep\nexperiments=")
        with pytest.raises(ModelError, match="invalid TOML"):
            load_grid(path)

    def test_missing_sweep_table(self, tmp_path):
        path = self._write(tmp_path, "[params]\nx = [1]\n")
        with pytest.raises(ModelError, match=r"no \[sweep\] table"):
            load_grid(path)

    def test_unknown_tables_and_keys_rejected(self, tmp_path):
        path = self._write(
            tmp_path, '[sweep]\nexperiments = ["a4"]\n[sweeps]\nx = 1\n'
        )
        with pytest.raises(ModelError, match="unknown table"):
            load_grid(path)
        path = self._write(
            tmp_path, '[sweep]\nexperiments = ["a4"]\nseed = 3\n'
        )
        with pytest.raises(ModelError, match=r"unknown \[sweep\] key"):
            load_grid(path)

    def test_schema_type_errors(self, tmp_path):
        path = self._write(tmp_path, '[sweep]\nexperiments = "a4"\n')
        with pytest.raises(ModelError, match="list of id strings"):
            load_grid(path)
        path = self._write(
            tmp_path, '[sweep]\nexperiments = ["a4"]\nseeds = [true]\n'
        )
        with pytest.raises(ModelError, match="list of ints"):
            load_grid(path)
        path = self._write(
            tmp_path, '[sweep]\nexperiments = ["a4"]\nfast = "yes"\n'
        )
        with pytest.raises(ModelError, match="must be a boolean"):
            load_grid(path)
