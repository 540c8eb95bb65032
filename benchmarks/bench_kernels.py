"""Micro-benchmarks of the computational kernels.

These time the hot paths a user of the library actually pays for: the
inclusion-exclusion closed forms, the testing closure, the suite-moment
sweeps and the full-pipeline Monte-Carlo replication loop.  Useful for
catching performance regressions; they carry no reproduction claims.
"""

import os
import time

import numpy as np
import pytest

from repro.analytic import BernoulliExactEngine
from repro.core import SameSuite, TestedPopulationView, marginal_system_pfd
from repro.core.bounds import back_to_back_envelope
from repro.demand import DemandSpace, uniform_profile
from repro.faults import FaultUniverse, clustered_universe
from repro.mc import (
    apply_imperfect_testing_batch,
    apply_testing_batch,
    back_to_back_batch,
    simulate_marginal_system_pfd,
)
from repro.populations import BernoulliFaultPopulation
from repro.rng import inverse_cdf_indices
from repro.testing import (
    BackToBackComparator,
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    PerfectFixing,
    PerfectOracle,
    apply_testing,
)
from repro.testing.generators import _suite_runs
from repro.versions import shared_fault_outputs


# trivial subclasses: the planner serves kernels to exact types only, so
# these run the per-row plan (apply_testing, or back_to_back_testing, on
# every row of the drawn blocks)
class _RowOracle(PerfectOracle):
    pass


class _RowImperfectOracle(ImperfectOracle):
    pass


class _RowImperfectFixing(ImperfectFixing):
    pass


class _RowFixing(PerfectFixing):
    pass


@pytest.fixture(scope="module")
def kernel_model():
    space = DemandSpace(300)
    profile = uniform_profile(space)
    universe = clustered_universe(space, n_faults=25, region_size=8, rng=0)
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    generator = OperationalSuiteGenerator(profile, 60)
    return space, profile, universe, population, generator


def test_kernel_exact_zeta(benchmark, kernel_model):
    _space, profile, universe, population, _generator = kernel_model
    engine = BernoulliExactEngine(universe, profile)
    benchmark(engine.zeta, population, 60)


def test_kernel_exact_second_moment(benchmark, kernel_model):
    _space, profile, universe, population, _generator = kernel_model
    engine = BernoulliExactEngine(universe, profile)
    benchmark(engine.xi_second_moment, population, 60)


def test_kernel_testing_closure(benchmark, kernel_model):
    _space, _profile, _universe, population, generator = kernel_model
    version = population.sample(np.random.default_rng(1))
    suite = generator.sample(np.random.default_rng(2))
    benchmark(apply_testing, version, suite)


def test_kernel_suite_moments_sampled(benchmark, kernel_model):
    _space, _profile, _universe, population, generator = kernel_model
    view = TestedPopulationView(population, generator)
    benchmark.pedantic(
        view.suite_moments,
        kwargs={"n_suites": 100, "rng": 3},
        rounds=3,
        iterations=1,
    )


def test_kernel_marginal_analytic(benchmark, kernel_model):
    _space, profile, _universe, population, generator = kernel_model
    benchmark.pedantic(
        marginal_system_pfd,
        args=(SameSuite(generator), population, profile),
        kwargs={"n_suites": 100, "rng": 4},
        rounds=3,
        iterations=1,
    )


def test_kernel_mc_replications(benchmark, kernel_model):
    _space, profile, _universe, population, generator = kernel_model
    benchmark.pedantic(
        simulate_marginal_system_pfd,
        args=(SameSuite(generator), population, profile),
        kwargs={"n_replications": 50, "rng": 5, "oracle": _RowOracle()},
        rounds=3,
        iterations=1,
    )


def test_kernel_mc_replications_batch(benchmark, kernel_model):
    _space, profile, _universe, population, generator = kernel_model
    benchmark.pedantic(
        simulate_marginal_system_pfd,
        args=(SameSuite(generator), population, profile),
        kwargs={"n_replications": 50, "rng": 5},
        rounds=3,
        iterations=1,
    )


def test_kernel_testing_closure_batch(benchmark, kernel_model):
    _space, _profile, universe, population, generator = kernel_model
    faults = population.sample_fault_matrix(2000, np.random.default_rng(1))
    masks = generator.sample_demand_masks(2000, np.random.default_rng(2))
    benchmark(apply_testing_batch, faults, masks, universe)


@pytest.fixture(scope="module")
def imperfect_model():
    """The e11/e12 bench model: the experiments' standard-scenario shape."""
    space = DemandSpace(80)
    profile = uniform_profile(space)
    universe = clustered_universe(space, n_faults=14, region_size=5, rng=0)
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    generator = OperationalSuiteGenerator(profile, 30)
    return space, profile, universe, population, generator


def test_kernel_imperfect_closure_batch(benchmark, imperfect_model):
    _space, _profile, universe, population, generator = imperfect_model
    faults = population.sample_fault_matrix(2000, np.random.default_rng(1))
    runs = _suite_runs(
        generator.sample_demand_sequences(2000, np.random.default_rng(2)),
        universe.space.size,
    )
    benchmark(
        apply_imperfect_testing_batch,
        faults,
        runs,
        universe,
        0.75,
        0.5,
        np.random.default_rng(3),
    )


def test_kernel_back_to_back_batch(benchmark, imperfect_model):
    _space, _profile, universe, population, generator = imperfect_model
    faults_a = population.sample_fault_matrix(1000, np.random.default_rng(1))
    faults_b = population.sample_fault_matrix(1000, np.random.default_rng(2))
    sequences = generator.sample_demand_sequences(1000, np.random.default_rng(3))
    comparator = BackToBackComparator(shared_fault_outputs())
    benchmark(
        back_to_back_batch,
        faults_a,
        faults_b,
        sequences,
        universe,
        universe,
        comparator,
    )


def _timed(callable_, *args, **kwargs):
    start = time.perf_counter()
    callable_(*args, **kwargs)
    return time.perf_counter() - start


def _best_of(callable_, repeats=3):
    return min(_timed(callable_) for _ in range(repeats))


def test_kernel_e11_imperfect_speedup(benchmark, imperfect_model):
    """Acceptance check: the §4.1 kernel >= 10x the per-row plan (e11 model).

    Also records the measured per-row-vs-batch ratio in the benchmark JSON
    (``extra_info``, under its historical ``scalar`` keys) so regressions
    in the imperfect path are visible in CI artifacts.  The wall-clock bar
    drops to 3x on shared CI runners.
    """
    min_speedup = 3.0 if os.environ.get("CI") else 10.0
    _space, profile, _universe, population, generator = imperfect_model
    regime = SameSuite(generator)
    oracle, fixing = ImperfectOracle(0.75), ImperfectFixing(0.5)
    n_replications = 2000
    kwargs = dict(oracle=oracle, fixing=fixing, rng=5)
    rows = dict(
        oracle=_RowImperfectOracle(0.75), fixing=_RowImperfectFixing(0.5), rng=5
    )
    # warm both paths before timing
    simulate_marginal_system_pfd(
        regime, population, profile, n_replications=10, **kwargs
    )
    simulate_marginal_system_pfd(
        regime, population, profile, n_replications=10, **rows
    )
    scalar_elapsed = _timed(
        simulate_marginal_system_pfd,
        regime,
        population,
        profile,
        n_replications=n_replications,
        **rows,
    )
    batch_elapsed = _timed(
        simulate_marginal_system_pfd,
        regime,
        population,
        profile,
        n_replications=n_replications,
        **kwargs,
    )
    speedup = scalar_elapsed / batch_elapsed
    benchmark.extra_info["scalar_seconds"] = round(scalar_elapsed, 4)
    benchmark.extra_info["scalar_vs_batch_ratio"] = round(speedup, 1)
    benchmark.pedantic(
        simulate_marginal_system_pfd,
        args=(regime, population, profile),
        kwargs=dict(n_replications=n_replications, **kwargs),
        rounds=3,
        iterations=1,
    )
    assert speedup >= min_speedup, (
        f"imperfect batch path only {speedup:.1f}x faster "
        f"({scalar_elapsed:.3f}s vs {batch_elapsed:.3f}s)"
    )


def test_kernel_e12_back_to_back_speedup(benchmark, imperfect_model):
    """Acceptance check: the §4.2 envelope's block kernel >= 10x its
    per-row plan (e12 model), which a trivial fixing subclass selects.

    Records the rows-vs-kernel ratio in the benchmark JSON, mirroring the
    e11 check; the bar drops to 3x on shared CI runners.
    """
    min_speedup = 3.0 if os.environ.get("CI") else 10.0
    _space, profile, _universe, population, generator = imperfect_model
    n_replications = 1000
    back_to_back_envelope(
        population, generator, profile, n_replications=10, rng=7
    )
    back_to_back_envelope(
        population, generator, profile, fixing=_RowFixing(), n_replications=10,
        rng=7,
    )
    scalar_elapsed = _timed(
        back_to_back_envelope,
        population,
        generator,
        profile,
        fixing=_RowFixing(),
        n_replications=n_replications,
        rng=7,
    )
    batch_elapsed = _timed(
        back_to_back_envelope,
        population,
        generator,
        profile,
        n_replications=n_replications,
        rng=7,
    )
    speedup = scalar_elapsed / batch_elapsed
    benchmark.extra_info["scalar_seconds"] = round(scalar_elapsed, 4)
    benchmark.extra_info["scalar_vs_batch_ratio"] = round(speedup, 1)
    benchmark.pedantic(
        back_to_back_envelope,
        args=(population, generator, profile),
        kwargs=dict(n_replications=n_replications, rng=7),
        rounds=3,
        iterations=1,
    )
    assert speedup >= min_speedup, (
        f"back-to-back batch path only {speedup:.1f}x faster "
        f"({scalar_elapsed:.3f}s vs {batch_elapsed:.3f}s)"
    )


# ---------------------------------------------------------------------------
# suite draw and exact subset walk (the BENCH_kernels.json record)
# ---------------------------------------------------------------------------

SUITE_DRAW_BLOCK = (8192, 100)
SUITE_DRAW_DEMANDS = 2000
EXACT_WALK_COVER = 16


def _binary_search(cdf, uniforms):
    """The plain search-and-clamp the guide table replaced."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def measure_suite_draw(repeats: int = 3) -> dict:
    """Guided inverse-CDF suite draw vs plain ``np.searchsorted``, one block.

    The block is ``SUITE_DRAW_BLOCK`` uniforms on a uniform profile over
    ``SUITE_DRAW_DEMANDS`` demands; the gate asks for equal arrays and a
    guided search at least 2x faster.
    """
    cdf = np.cumsum(uniform_profile(DemandSpace(SUITE_DRAW_DEMANDS)).probabilities)
    uniforms = np.random.default_rng(11).random(SUITE_DRAW_BLOCK)
    equal = bool(
        np.array_equal(
            inverse_cdf_indices(cdf, None, uniforms=uniforms),
            _binary_search(cdf, uniforms),
        )
    )
    guided = _best_of(
        lambda: inverse_cdf_indices(cdf, None, uniforms=uniforms), repeats
    )
    plain = _best_of(lambda: _binary_search(cdf, uniforms), repeats)
    speedup = plain / guided
    return {
        "block": list(SUITE_DRAW_BLOCK),
        "n_demands": SUITE_DRAW_DEMANDS,
        "searchsorted_seconds": round(plain, 6),
        "guided_seconds": round(guided, 6),
        "speedup": round(speedup, 2),
        "equal": equal,
        "gate_guided_speedup_ge_2": equal and speedup >= 2.0,
    }


def _wide_cover_model(n_faults: int):
    """``n_faults`` faults all covering demand 0, each with one own demand."""
    space = DemandSpace(200)
    universe = FaultUniverse.from_regions(space, [[0, 1 + f] for f in range(n_faults)])
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    return universe, uniform_profile(space), population


def measure_exact_walk(n_faults: int = EXACT_WALK_COVER, repeats: int = 3) -> dict:
    """A fresh exact engine's ``ζ`` with one demand covered by ``n_faults``."""
    universe, profile, population = _wide_cover_model(n_faults)
    seconds = _best_of(
        lambda: BernoulliExactEngine(universe, profile).zeta(population, 60), repeats
    )
    return {"cover": n_faults, "seconds": round(seconds, 6)}


def test_kernel_guided_suite_draw_speedup():
    """Acceptance check: the guided suite draw >= 2x plain searchsorted."""
    record = measure_suite_draw(repeats=3)
    assert record["equal"], record
    assert record["speedup"] >= 2.0, record


def test_kernel_exact_walk_wide_cover(benchmark):
    universe, profile, population = _wide_cover_model(EXACT_WALK_COVER)
    benchmark.pedantic(
        lambda: BernoulliExactEngine(universe, profile).zeta(population, 60),
        rounds=3,
        iterations=1,
    )


def main(argv=None) -> int:
    """Write the kernel record (``BENCH_kernels.json``)."""
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--out", default="BENCH_kernels.json", metavar="FILE")
    parser.add_argument("--smoke", action="store_true", help="fewer repeats")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else 3
    record = {
        "suite": "kernels",
        "nproc": os.cpu_count(),
        "suite_draw": measure_suite_draw(repeats),
        "exact_walk": measure_exact_walk(repeats=repeats),
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    draw = record["suite_draw"]
    print(f"guided suite draw: {draw['speedup']:.2f}x searchsorted (gate: >= 2)")
    if not draw["gate_guided_speedup_ge_2"]:
        print("FAIL: guided suite draw gate (>= 2x, equal) not met", file=sys.stderr)
        return 1
    return 0


def test_kernel_mc_batch_speedup(kernel_model):
    """Acceptance check: batch path >= 10x the per-row plan.

    Also asserts the two paths agree — overlapping 95% confidence
    intervals on the marginal system pfd — so the speedup is not bought
    with a different estimand.  The per-row plan runs
    :func:`~repro.testing.apply_testing` on every row of the blocks the
    perfect kernel draws (a trivial :class:`PerfectOracle` subclass
    selects it).  On shared CI runners (CI env var set) the
    wall-clock bar drops to 3x so neighbour contention cannot fail an
    unrelated PR; the 10x acceptance bar applies to local runs.
    """
    min_speedup = 3.0 if os.environ.get("CI") else 10.0
    _space, profile, _universe, population, generator = kernel_model
    regime = SameSuite(generator)
    n_replications = 2000
    # warm both paths (lazy imports, BLAS thread spin-up) before timing
    simulate_marginal_system_pfd(
        regime, population, profile, n_replications=10, rng=0
    )
    simulate_marginal_system_pfd(
        regime, population, profile, n_replications=10, rng=0, oracle=_RowOracle()
    )
    start = time.perf_counter()
    scalar = simulate_marginal_system_pfd(
        regime,
        population,
        profile,
        n_replications=n_replications,
        rng=5,
        oracle=_RowOracle(),
    )
    scalar_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    batch = simulate_marginal_system_pfd(
        regime, population, profile, n_replications=n_replications, rng=5,
    )
    batch_elapsed = time.perf_counter() - start

    speedup = scalar_elapsed / batch_elapsed
    assert speedup >= min_speedup, (
        f"batch path only {speedup:.1f}x faster "
        f"({scalar_elapsed:.3f}s vs {batch_elapsed:.3f}s)"
    )
    scalar_low, scalar_high = scalar.normal_interval(0.95)
    batch_low, batch_high = batch.normal_interval(0.95)
    assert scalar_low <= batch_high and batch_low <= scalar_high, (
        f"paths disagree: per-row CI ({scalar_low:.6f}, {scalar_high:.6f}) "
        f"vs batch CI ({batch_low:.6f}, {batch_high:.6f})"
    )
