"""Import guard: which third-party modules a fresh interpreter loads.

scipy costs from 0.3 s (``scipy.special``) to a second (``scipy.stats``)
per process, and every CLI call, benchmark part and service shard starts
a fresh interpreter.  No runtime path loads scipy at all: not the library
core, even through a first adaptive run (which imports
:mod:`repro.extensions.stopping` lazily), and not the experiment catalog,
even through a1's Beta quantiles, the size-biased fit behind m1–m3 and
the Bayesian stopping bound.  scipy is a test-only dependency.

Nothing under ``src/`` imports :mod:`repro.mc.kernels`, the dense
reference kernels only the tests and the benchmark's tracer name, so the
catalog does not load it either.

A result store is one JSONL file, so neither the service nor the store
loads :mod:`sqlite3`.

The checks are deterministic: they inspect ``sys.modules`` in a fresh
interpreter and never time anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CORE = """
import json, sys
import repro, repro.analytic, repro.core, repro.mc, repro.adaptive
import repro.extensions

space = repro.DemandSpace(20)
profile = repro.uniform_profile(space)
universe = repro.clustered_universe(space, n_faults=4, region_size=2, rng=1)
population = repro.BernoulliFaultPopulation.uniform(universe, 0.3)
regime = repro.SameSuite(repro.OperationalSuiteGenerator(profile, 5))
estimate = repro.mc.simulate_marginal_system_pfd(
    regime, population, profile, n_replications=2000, rng=0,
    precision={"rel_hw": 0.5},
)
assert estimate.adaptive is not None
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_CATALOG = """
import json, sys
import repro.experiments
from repro.experiments import run_experiment
from repro.extensions import bayes_pfd_upper_bound

run_experiment("a1", seed=0, fast=True)
run_experiment("a1", seed=0, fast=False)
run_experiment("m2", seed=0, fast=True)
bayes_pfd_upper_bound(10, 0.9, 0.5, 0.5)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


_EXPERIMENTS = """
import json, sys
import repro.experiments
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.mc."))))
"""


_SERVICE = """
import json, sys
import repro.service
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "sqlite3")))
"""


def _modules_after(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_core_and_first_adaptive_run_load_no_scipy():
    assert _modules_after(_CORE) == []


def test_experiment_catalog_loads_no_scipy_stats():
    """No scipy module at all, ``scipy.stats`` included."""
    assert _modules_after(_CATALOG) == []


def test_experiments_import_does_not_load_the_reference_kernels():
    loaded = _modules_after(_EXPERIMENTS)
    assert "repro.mc.batch" in loaded  # the probe sees the engine load
    assert "repro.mc.kernels" not in loaded


def test_service_import_does_not_load_sqlite3():
    assert _modules_after(_SERVICE) == []
