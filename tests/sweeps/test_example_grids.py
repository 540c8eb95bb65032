"""Every grid shipped under examples/grids/ must load and validate.

The example grids are executable documentation — README and the docs
reference them by path, and CI sweeps some of them — so a registry
rename or a knob change that orphans one must fail here, not in a
user's shell.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.registry import runner_params
from repro.sweeps import load_grid

GRIDS_DIR = Path(__file__).parents[2] / "examples" / "grids"
GRID_PATHS = sorted(GRIDS_DIR.glob("*.toml")) + sorted(GRIDS_DIR.glob("*.json"))


def test_examples_ship_grids():
    assert GRID_PATHS, f"no grid files under {GRIDS_DIR}"


@pytest.mark.parametrize(
    "path", GRID_PATHS, ids=[path.name for path in GRID_PATHS]
)
def test_grid_loads_and_validates(path):
    spec = load_grid(path)
    assert len(spec.points()) > 0
    # load_grid already rejects unknown ids and knobs; double-check the
    # axes resolve against each runner's signature so a default-value
    # rename cannot slip through either
    for experiment_id in spec.experiments:
        known = set(runner_params(experiment_id)) | {"precision"}
        for name, values in spec._axes_by_experiment[experiment_id].items():
            assert name in known, (
                f"{path.name}: {experiment_id} has no knob {name!r}"
            )
            assert values, f"{path.name}: empty axis {name!r}"


def test_coverage_grid_covers_the_c_family():
    spec = load_grid(GRIDS_DIR / "coverage.toml")
    assert set(spec.experiments) == {"c1", "c2", "c3"}
    assert "metric" in spec._axes_by_experiment["c1"]
    assert "target" in spec._axes_by_experiment["c3"]
