"""Import guard: which third-party modules a fresh interpreter loads.

``scipy.stats`` alone costs about a second per process, and every CLI
call, benchmark part and service shard starts a fresh interpreter.  The
library core therefore loads no scipy at all, even through a first
adaptive run (which imports :mod:`repro.extensions.stopping` lazily), and
the experiment catalog loads only the scipy submodules it needs
(``scipy.special`` for a1, ``scipy.optimize`` for the size-biased fit),
never ``scipy.stats``.

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
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(code: str) -> list:
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
    assert _scipy_modules_after(_CORE) == []


def test_experiment_catalog_loads_no_scipy_stats():
    loaded = _scipy_modules_after(_CATALOG)
    assert "scipy.special" in loaded  # a1's Beta quantiles, imported eagerly
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "stats"]]
