"""Benchmarks of the adaptive precision engine.

Two quantities matter here and both are *replication counts*, not wall
times: how many replications a precision target costs under plain
sampling, and how much variance reduction shaves off it.  Each estimand
in :data:`ESTIMANDS` is adaptively estimated to a fixed relative
half-width under ``vr="none"`` and under ``vr="control"``, and
the **VR speedup ratio** (plain replications / VR replications) must be
at least 1 — variance reduction must never cost replications on the
estimands it targets.

The measured counts and ratios are attached to ``extra_info`` so
``--benchmark-json`` output carries them; ``tools/bench_all.py`` runs the
same :func:`measure` entry point directly and consolidates everything
into ``BENCH_adaptive.json``.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.adaptive import (
    AdaptiveReport,
    PrecisionTarget,
    adaptive_marginal_system_pfd,
    adaptive_untested_joint_pfd,
    adaptive_version_pfd,
)
from repro.core import SameSuite
from repro.demand import DemandSpace, uniform_profile
from repro.experiments.models import standard_scenario
from repro.faults import clustered_universe
from repro.populations import BernoulliFaultPopulation
from repro.testing import ImperfectFixing, ImperfectOracle

REL_HW = 0.05
BUDGET = 120_000


def _e01_untested_joint(target: PrecisionTarget) -> AdaptiveReport:
    space = DemandSpace(80)
    profile = uniform_profile(space)
    universe = clustered_universe(
        space, n_faults=16, region_size=5, concentration=8.0, rng=2
    )
    population = BernoulliFaultPopulation.uniform(universe, 0.25)
    return adaptive_untested_joint_pfd(population, profile, target, rng=101)


def _e11_version_pfd(target: PrecisionTarget) -> AdaptiveReport:
    scenario = standard_scenario(0)
    return adaptive_version_pfd(
        scenario.population,
        scenario.generator,
        scenario.profile,
        target,
        oracle=ImperfectOracle(0.5),
        fixing=ImperfectFixing(0.5),
        rng=102,
    )


def _e11_system_pfd(target: PrecisionTarget) -> AdaptiveReport:
    scenario = standard_scenario(0)
    return adaptive_marginal_system_pfd(
        SameSuite(scenario.generator),
        scenario.population,
        scenario.profile,
        target,
        oracle=ImperfectOracle(0.5),
        fixing=ImperfectFixing(0.5),
        rng=103,
    )


#: the replications-to-target comparison suite; tools/bench_all.py
#: consumes this registry directly
ESTIMANDS: Dict[str, Callable[[PrecisionTarget], AdaptiveReport]] = {
    "e01_untested_joint_pfd": _e01_untested_joint,
    "e11_version_pfd_d0.5_f0.5": _e11_version_pfd,
    "e11_system_pfd_d0.5_f0.5": _e11_system_pfd,
}


def measure(
    label: str, rel_hw: float = REL_HW, budget: int = BUDGET
) -> Dict[str, object]:
    """Replications-to-target for one estimand, plain vs variance-reduced.

    Returns the consolidated record ``tools/bench_all.py`` writes into
    ``BENCH_adaptive.json``.  Raises if either mode fails to converge —
    the comparison is only meaningful between two runs that both hit the
    target.
    """
    run = ESTIMANDS[label]
    results = {}
    for mode, vr in (("plain", "none"), ("vr", "control")):
        report = run(
            PrecisionTarget(rel_hw=rel_hw, budget=budget, initial=256, vr=vr)
        )
        metric = report.only
        if not metric.converged:
            raise AssertionError(
                f"{label}/{mode} failed to reach rel_hw={rel_hw} "
                f"within {budget}"
            )
        results[mode] = metric
    return {
        "rel_hw": rel_hw,
        "replications_plain": results["plain"].replications,
        "replications_vr": results["vr"].replications,
        "vr_speedup": results["plain"].replications
        / results["vr"].replications,
        "mean_plain": results["plain"].estimate.mean,
        "mean_vr": results["vr"].estimate.mean,
        "vr_mode": results["vr"].vr,
    }


@pytest.mark.parametrize("label", sorted(ESTIMANDS))
def test_adaptive_replications_to_target(benchmark, label):
    record = benchmark.pedantic(measure, args=(label,), rounds=1, iterations=1)
    benchmark.extra_info.update(record, estimand=label)
    assert record["vr_speedup"] >= 1.0, (
        f"{label}: variance reduction cost replications "
        f"({record['replications_plain']} -> {record['replications_vr']})"
    )


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_adaptive_controller_overhead(benchmark, n_jobs):
    """Wall-clock of one adaptive run (chunked, optionally sharded)."""
    scenario = standard_scenario(0)
    target = PrecisionTarget(rel_hw=0.1, budget=30_000, initial=1024, vr="none")

    report = benchmark.pedantic(
        lambda: adaptive_version_pfd(
            scenario.population,
            scenario.generator,
            scenario.profile,
            target,
            rng=104,
            n_jobs=n_jobs,
            chunk_size=2048,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["replications"] = report.only.replications
    benchmark.extra_info["n_jobs"] = n_jobs
    assert report.only.converged
