"""Interrupting a campaign loses at most the mutant in flight.

A child process runs a real campaign; the test SIGINTs it after a couple
of mutants have reached the store, then verifies the interrupt contract:
the store contains only whole records, and resuming executes exactly the
mutants the first run did not finish.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.mutation import MutationCampaign
from repro.store import ResultStore

_CHILD = """\
import sys
from pathlib import Path

from repro.mutation import MutationCampaign, TargetProgram
from repro.store import ResultStore

target_dir, store_path = Path(sys.argv[1]), sys.argv[2]
target = TargetProgram(
    name="tiny",
    module="program",
    source_path=target_dir / "program.py",
    test_paths=(target_dir / "test_program.py",),
)
MutationCampaign(target, ResultStore(store_path), timeout=30.0).run()
"""


def _wait_for_records(path: Path, minimum: int, timeout: float = 90.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            lines = path.read_text(encoding="utf-8").count("\n")
            if lines >= minimum:
                return lines
        time.sleep(0.05)
    raise AssertionError(
        f"store never reached {minimum} records within {timeout}s"
    )


def test_sigint_mid_campaign_keeps_whole_records_and_resumes(
    tiny_target, tmp_path
):
    store_path = tmp_path / "interrupted.jsonl"
    script = tmp_path / "child.py"
    script.write_text(_CHILD, encoding="utf-8")
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(repo_src))
    child = subprocess.Popen(
        [
            sys.executable,
            str(script),
            str(tiny_target.source_path.parent),
            str(store_path),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # baseline + at least two mutants measured, campaign mid-flight
        _wait_for_records(store_path, minimum=3)
        os.kill(child.pid, signal.SIGINT)
        returncode = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert returncode != 0  # the interrupt really interrupted

    # every stored line is a complete, parseable record with a payload
    lines = store_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert records, "interrupted store is empty"
    for record in records:
        assert "mutation" in record
        assert record["mutation"]["tests"]

    store = ResultStore(store_path)
    campaign = MutationCampaign(tiny_target, store, timeout=30.0)
    done, pending = campaign.partition()
    stored_mutants = {
        r["params"]["mutant"]
        for r in records
        if r["params"]["mutant"] != "baseline"
    }
    assert sorted(done) == sorted(stored_mutants)
    assert 0 < len(done) < campaign_total(campaign)
    assert len(done) + len(pending) == campaign_total(campaign)

    # the resume executes exactly the remainder, once
    report = campaign.run()
    assert report.cached == len(done)
    assert report.executed == len(pending)
    assert report.cached + report.executed == report.total
    # first run + resume together executed each mutant exactly once: the
    # store holds exactly one record per mutant plus the baseline
    assert len(ResultStore(store_path).records()) == report.total + 1

    # a further run is a pure cache hit
    rerun = MutationCampaign(tiny_target, store, timeout=30.0).run()
    assert rerun.executed == 0
    assert rerun.cached == rerun.total


def campaign_total(campaign: MutationCampaign) -> int:
    return len(campaign.mutants)


def test_partition_on_a_fresh_store_is_all_pending(tiny_target, tmp_path):
    store = ResultStore(tmp_path / "fresh.jsonl")
    campaign = MutationCampaign(tiny_target, store, timeout=30.0)
    done, pending = campaign.partition()
    assert done == []
    assert len(pending) == len(campaign.mutants)
