"""Tests for the python -m repro.experiments CLI (default run path)."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        code = main(["a5", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "A5" in captured.out.upper()
        assert "PASS" in captured.out

    def test_summary_only(self, capsys):
        code = main(["a5", "a4", "--summary-only"])
        captured = capsys.readouterr()
        assert code == 0
        # summary lines only: no per-claim "ok" markers
        assert "experiment  claims" in captured.out
        assert captured.out.count("PASS") == 2

    def test_unknown_id_fails_up_front_with_suggestion(self, capsys):
        # validation happens before any experiment runs, and close typos
        # get a "did you mean" hint; usage errors exit 2 (not a traceback)
        assert main(["e21", "a5"]) == 2
        captured = capsys.readouterr()
        assert "did you mean" in captured.err
        assert "e12" in captured.err
        assert "a5" not in captured.out  # nothing ran

    def test_unknown_id_without_close_match_lists_known(self, capsys):
        assert main(["nope"]) == 2
        assert "Known ids" in capsys.readouterr().err

    def test_seed_changes_tables_not_verdicts(self, capsys):
        assert main(["a5", "--seed", "3", "--summary-only"]) == 0

    def test_engine_flags_accepted(self, capsys):
        """``--n-jobs`` is the one engine flag left; the retired
        ``--engine`` is an unknown flag."""
        assert main(["a5", "--n-jobs", "2", "--summary-only"]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["a5", "--engine", "batch", "--summary-only"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_engine_config_restored_after_run(self):
        from repro.experiments.base import engine_kwargs

        main(["a5", "--n-jobs", "2", "--summary-only"])
        assert engine_kwargs() == {"n_jobs": 1}


class TestCliPrecisionFlags:
    def test_adaptive_run_prints_convergence_line(self, capsys):
        code = main(["e01", "--target-rel-hw", "0.1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "adaptive:" in captured.out
        assert "metrics converged to target" in captured.out

    def test_incapable_ids_fall_back_with_note(self, capsys):
        code = main(["a5", "--target-rel-hw", "0.1", "--summary-only"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no 'precision' knob on a5" in captured.err

    def test_budget_requires_a_target(self, capsys):
        assert main(["e01", "--budget", "500"]) == 2
        assert "--budget needs" in capsys.readouterr().err

    def test_vr_requires_a_target(self, capsys):
        # an explicit --vr with no target would otherwise be silently
        # ignored (the run falls back to fixed-n with no adaptive report)
        assert main(["e01", "--vr", "control"]) == 2
        assert "--vr needs" in capsys.readouterr().err

    def test_retired_stratified_vr_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["e01", "--target-rel-hw", "0.2", "--vr", "stratified"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_vr_and_budget_flags_flow_through(self, capsys):
        code = main(
            [
                "e01",
                "--target-rel-hw",
                "0.2",
                "--budget",
                "600",
                "--vr",
                "control",
                "--summary-only",
            ]
        )
        assert code == 0
