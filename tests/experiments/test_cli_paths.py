"""CLI coverage beyond test_cli.py: exit codes, subcommand dispatch,
engine failure paths and usage errors across run/sweep/aggregate/serve.
"""

import json
from contextlib import contextmanager

import pytest

from repro.experiments.__main__ import (
    EXIT_CLAIM_FAILURES,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.experiments.base import Claim, ExperimentResult
from repro.experiments.registry import _REGISTRY


@contextmanager
def temporary_experiment(experiment_id, runner):
    _REGISTRY[experiment_id] = runner
    try:
        yield
    finally:
        del _REGISTRY[experiment_id]


def _failing_runner(seed, fast):
    return ExperimentResult(
        experiment_id="ztest_fail",
        title="always fails",
        paper_reference="none",
        columns=["value"],
        rows=[[1.0]],
        claims=[Claim("a claim that cannot hold", holds=False)],
    )


def _raising_runner(seed, fast):
    from repro.errors import ModelError

    raise ModelError("runner exploded mid-run")


class TestRunExitCodes:
    def test_claim_failure_exits_1(self, capsys):
        with temporary_experiment("ztest_fail", _failing_runner):
            assert main(["ztest_fail"]) == EXIT_CLAIM_FAILURES
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_runtime_model_error_exits_2(self, capsys):
        with temporary_experiment("ztest_raise", _raising_runner):
            assert main(["ztest_raise"]) == EXIT_USAGE
        assert "runner exploded" in capsys.readouterr().err

    def test_success_exits_0(self, capsys):
        assert main(["a4", "--summary-only"]) == EXIT_OK


class TestSweepExitCodes:
    def test_missing_grid_file_exits_2(self, capsys):
        assert main(["sweep", "--grid", "no-such-grid.toml"]) == EXIT_USAGE
        assert "grid file not found" in capsys.readouterr().err

    def test_malformed_grid_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"nope": True}))
        code = main(
            ["sweep", "--grid", str(grid), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE
        assert "no [sweep] table" in capsys.readouterr().err

    def test_unknown_grid_experiment_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"sweep": {"experiments": ["e99"]}}))
        code = main(
            ["sweep", "--grid", str(grid), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE
        assert "unknown experiment" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"sweep": {"experiments": ["a4"]}}))
        code = main(
            [
                "sweep",
                "--grid",
                str(grid),
                "--out",
                str(tmp_path / "out"),
                "--via-service",
                "http://127.0.0.1:9",
            ]
        )
        assert code == EXIT_USAGE
        assert "cannot reach service" in capsys.readouterr().err

    def test_dry_run_exits_0_and_runs_nothing(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"sweep": {"experiments": ["a4"]}}))
        out = tmp_path / "out"
        code = main(
            ["sweep", "--grid", str(grid), "--out", str(out), "--dry-run"]
        )
        assert code == EXIT_OK
        assert "dry run" in capsys.readouterr().out
        assert not out.exists()


    def test_out_at_an_existing_file_exits_2_before_running(
        self, tmp_path, capsys
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"sweep": {"experiments": ["a5"]}}))
        out = tmp_path / "notastore"
        out.write_text("keep me\n")
        code = main(["sweep", "--grid", str(grid), "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "a result store is a directory or a .jsonl file" in captured.err
        assert "a5" not in captured.out  # no point ran
        assert out.read_text() == "keep me\n"


class TestAggregateExitCodes:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        code = main(["aggregate", "--store", str(tmp_path / "nope")])
        assert code == EXIT_USAGE
        assert "no result store" in capsys.readouterr().err

    def test_store_backend_flag_is_gone(self, tmp_path):
        argv = ["aggregate", "--store", str(tmp_path), "--store-backend", "jsonl"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USAGE


class TestServeExitCodes:
    def test_bad_procs_exits_2(self, capsys):
        assert main(["serve", "--procs", "-1"]) == EXIT_USAGE
        assert "procs must be >= 0" in capsys.readouterr().err

    def test_bad_queue_limit_exits_2(self, capsys):
        assert main(["serve", "--queue-limit", "0"]) == EXIT_USAGE
        assert "queue_limit" in capsys.readouterr().err

    def test_bad_cache_size_exits_2(self, capsys):
        assert main(["serve", "--cache-size", "0"]) == EXIT_USAGE
        assert "capacity" in capsys.readouterr().err

    def test_store_at_an_existing_file_exits_2(self, tmp_path, capsys):
        store = tmp_path / "records.sqlite"
        store.write_bytes(b"SQLite format 3\x00")
        assert main(["serve", "--store", str(store)]) == EXIT_USAGE
        assert "directory or a .jsonl file" in capsys.readouterr().err

    def test_store_backend_accepts_only_jsonl(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--store-backend", "sqlite"])
        assert exit_info.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err


class TestEngineFlagPaths:
    def test_scalar_and_batch_agree_on_verdict(self, capsys):
        assert main(["e12", "--engine", "scalar", "--summary-only"]) == EXIT_OK
        scalar_out = capsys.readouterr().out
        assert main(["e12", "--engine", "batch", "--summary-only"]) == EXIT_OK
        batch_out = capsys.readouterr().out
        assert "PASS" in scalar_out and "PASS" in batch_out

    def test_scalar_engine_rejects_precision_runs(self, capsys):
        # the adaptive engine rides the batch kernels; --engine scalar
        # with a precision target must fail loudly, not silently ignore
        code = main(
            ["e01", "--engine", "scalar", "--target-rel-hw", "0.5"]
        )
        assert code == EXIT_USAGE
        assert "scalar" in capsys.readouterr().err

    def test_multiple_unknown_ids_reported_together(self, capsys):
        assert main(["e99", "zzz", "a5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "e99" in err and "zzz" in err
