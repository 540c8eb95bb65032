"""Claims that hold across seeds, not only at the golden seed.

The joint-failure and marginal experiments (e03-e10) and the common-mistake
experiment (x2) check Monte-Carlo estimates against exact references, so a
claim failing at some seed is a defect of the claim or the reference, not
bad luck.  Each is pinned across the vetted seed range in both modes,
following the e02 pattern in ``test_runs.py``.
"""

import pytest

from repro.experiments import format_result, run_experiment

ROBUST_IDS = ["e03", "e04", "e05", "e06", "e07", "e08", "e09", "e10", "x2"]
SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("experiment_id", ROBUST_IDS)
def test_claims_hold_across_seeds(experiment_id, seed):
    result = run_experiment(experiment_id, seed=seed, fast=True)
    assert result.passed, format_result(result)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("experiment_id", ROBUST_IDS)
def test_claims_hold_across_seeds_full(experiment_id, seed):
    result = run_experiment(experiment_id, seed=seed, fast=False)
    assert result.passed, format_result(result)
