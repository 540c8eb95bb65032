"""Every registered experiment must run green in fast mode.

These are the executable form of EXPERIMENTS.md: each experiment's claims
encode the paper's qualitative results, so a claim failure here is a
reproduction regression.
"""

import pytest

from repro.experiments import all_experiment_ids, format_result, run_experiment

CHEAP_IDS = [
    "e01", "e02", "e13", "a1", "a2", "a3", "a4", "a5", "a6",
    "c1", "c2", "c3", "m1", "m2", "m3", "x1",
]
SIMULATION_IDS = [
    "e03",
    "e04",
    "e05",
    "e06",
    "e07",
    "e08",
    "e09",
    "e10",
    "e11",
    "e12",
    "e14",
    "x2",
    "x3",
]


@pytest.mark.parametrize("experiment_id", CHEAP_IDS)
def test_cheap_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, seed=0, fast=True)
    assert result.passed, format_result(result)


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", SIMULATION_IDS)
def test_simulation_experiments_pass(experiment_id):
    result = run_experiment(experiment_id, seed=0, fast=True)
    assert result.passed, format_result(result)


def test_registry_covers_design_md_index():
    """DESIGN.md promises E1-E14 and A1-A5; the registry must provide them."""
    ids = set(all_experiment_ids())
    for n in range(1, 15):
        assert f"e{n:02d}" in ids
    for n in range(1, 6):
        assert f"a{n}" in ids


def test_experiments_have_paper_references():
    for experiment_id in ("e01", "e07", "e12", "a5"):
        result = run_experiment(experiment_id, seed=0, fast=True)
        assert result.paper_reference
        assert result.columns
        assert result.rows


def test_different_seed_still_passes():
    """The claims are structural, not seed-lucky: a different seed must
    pass too (spot-checked on the cheapest experiments)."""
    for experiment_id in ("e01", "e13", "a5"):
        result = run_experiment(experiment_id, seed=7, fast=True)
        assert result.passed, format_result(result)


# e02's Monte-Carlo check runs on the engine's own stream, so its claims are
# pinned across the vetted seed range rather than at the golden seed alone
E02_SEEDS = range(12)


@pytest.mark.parametrize("seed", E02_SEEDS)
def test_e02_claims_hold_across_seeds(seed):
    result = run_experiment("e02", seed=seed, fast=True)
    assert result.passed, format_result(result)


@pytest.mark.slow
@pytest.mark.parametrize("seed", E02_SEEDS)
def test_e02_claims_hold_across_seeds_full(seed):
    result = run_experiment("e02", seed=seed, fast=False)
    assert result.passed, format_result(result)
