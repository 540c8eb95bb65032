"""Experiment-level determinism for the localization c-family.

The counter-based workload RNG promises replication ``i`` the same draws
no matter how the replication range is chunked or sharded, so the
*payload* of a c-experiment — every table cell, claim verdict, and extra
— must be byte-identical under any ``--n-jobs`` setting and between the
``auto`` and ``batch`` engine spellings.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ModelError
from repro.experiments import run_experiment
from repro.experiments.base import set_engine_config


def _payload_bytes(experiment_id: str, engine: str, n_jobs: int) -> bytes:
    previous = set_engine_config(engine=engine, n_jobs=n_jobs)
    try:
        result = run_experiment(experiment_id, seed=0, fast=True)
    finally:
        set_engine_config(engine=previous.engine, n_jobs=previous.n_jobs)
    return json.dumps(result.to_payload(), sort_keys=True).encode()


@pytest.mark.parametrize("experiment_id", ["c1", "c3"])
def test_payload_byte_identical_across_n_jobs(experiment_id):
    baseline = _payload_bytes(experiment_id, "auto", 1)
    assert _payload_bytes(experiment_id, "auto", 2) == baseline
    assert _payload_bytes(experiment_id, "batch", 1) == baseline


def test_compiled_engine_rejected_loudly():
    """The retired ``compiled`` name is rejected as the run-wide engine
    before any c-family workload could run."""
    with pytest.raises(ModelError, match="engine must be one of"):
        set_engine_config(engine="compiled", n_jobs=1)


def test_scalar_engine_runs_and_agrees_on_outcomes():
    """--engine scalar drives the workload's reference path; its integer
    outcomes (fix effort, reached fraction) match the vectorized path
    exactly, so the claim verdicts cannot flip with the engine."""
    baseline = json.loads(_payload_bytes("c3", "auto", 1))
    scalar = json.loads(_payload_bytes("c3", "scalar", 1))
    assert [claim["holds"] for claim in scalar["claims"]] == [
        claim["holds"] for claim in baseline["claims"]
    ]
    for row_scalar, row_auto in zip(scalar["rows"], baseline["rows"]):
        assert row_scalar[5] == pytest.approx(row_auto[5], rel=1e-12)
