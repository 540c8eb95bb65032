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


def _a2_excess_peak_is_positive(result):
    # the claims place the peak at an intermediate effort, not above zero
    assert max(row[3] for row in result.rows) > 0


def _e09_excess_term_needs_a_shared_suite(result):
    # E_Q[Var_T xi] is positive under a shared suite and zero without one
    by_regime = {row[0]: row for row in result.rows}
    assert by_regime["same suite"][5] > 0
    assert abs(by_regime["independent suites"][5]) <= 1e-12


def _e11_measured_pfds_within_fixed_slack(result):
    # the claims widen their slack to the achieved CI half-width; the
    # table must also sit within a fixed 0.015 of the envelope
    slack = 0.015
    for _, v_low, v_measured, v_high, s_low, s_measured, s_high in result.rows:
        assert v_low - slack <= v_measured <= v_high + slack
        assert s_low - slack <= s_measured <= s_high + slack


#: table-shape checks no claim makes
TABLE_SHAPES = [
    pytest.param("a2", _a2_excess_peak_is_positive, id="a2"),
    pytest.param(
        "e09",
        _e09_excess_term_needs_a_shared_suite,
        id="e09",
        marks=pytest.mark.slow,
    ),
    pytest.param(
        "e11",
        _e11_measured_pfds_within_fixed_slack,
        id="e11",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("experiment_id, check", TABLE_SHAPES)
def test_table_shape(experiment_id, check):
    check(run_experiment(experiment_id, seed=0, fast=True))


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
