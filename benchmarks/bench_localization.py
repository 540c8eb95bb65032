"""Benchmarks for the SBFL localized-growth workload (repro.coverage).

The workload's vectorized path runs every replication's round as one
counter-RNG block operation; the per-replication reference path defines
the semantics (identical draws, bit-identical trajectories).  The
headline number is the speedup of vectorized over reference on a
representative model, gated at >= 10x — the margin that justifies the
block implementation's complexity.  ``main()`` writes the consolidated
record (``BENCH_localization.json``, via ``tools/bench_all.py --suites
localization``).
"""

import time

import numpy as np
import pytest

from repro.coverage import ComponentModel, synthetic_coverage
from repro.coverage.workload import simulate_localized_growth
from repro.demand import DemandSpace, zipf_profile
from repro.faults import clustered_universe
from repro.populations import BernoulliFaultPopulation

SPEEDUP_GATE = 10.0


def _bench_model():
    space = DemandSpace(100)
    profile = zipf_profile(space, exponent=0.8)
    universe = clustered_universe(space, n_faults=14, region_size=6, rng=2)
    population = BernoulliFaultPopulation.uniform(universe, 0.4)
    model = ComponentModel.blocked(universe, 6)
    matrix = synthetic_coverage(16, 6, density=0.5, rng=4)
    return population, profile, matrix, model


def _run(vectorized: bool, n_replications: int, policy: str = "sbfl"):
    population, profile, matrix, model = _bench_model()
    return simulate_localized_growth(
        population,
        profile,
        matrix,
        model,
        policy=policy,
        rounds=8,
        n_replications=n_replications,
        rng=0,
        vectorized=vectorized,
    )


def _timed(vectorized: bool, n_replications: int, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = _run(vectorized, n_replications)
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_localization(n_replications: int = 400, repeats: int = 2) -> dict:
    """Vectorized-vs-reference timings and the workload's outcome parity."""
    vec_seconds, vec_result = _timed(True, n_replications, repeats)
    ref_seconds, ref_result = _timed(False, n_replications, repeats)
    speedup = ref_seconds / vec_seconds
    trajectories_match = bool(
        np.array_equal(vec_result.mean_pfd, ref_result.mean_pfd)
    )
    return {
        "suite": "localization-workload",
        "n_replications": n_replications,
        "rounds": 8,
        "timing_repeats": repeats,
        "vectorized_seconds": vec_seconds,
        "reference_seconds": ref_seconds,
        "speedup": speedup,
        "gate_vectorized_speedup_ge_10": speedup >= SPEEDUP_GATE,
        "trajectories_match": trajectories_match,
        "final_pfd": float(vec_result.final_pfd),
        "mean_rounds_to_target": float(vec_result.mean_rounds_to_target),
    }


def test_localization_vectorized_speedup_gate():
    """Acceptance check: the vectorized workload >= 10x the reference
    path.  Pure numpy on both sides, so the gate applies on every host."""
    record = measure_localization(n_replications=300, repeats=2)
    assert record["trajectories_match"], "vectorized/reference divergence"
    assert record["speedup"] >= SPEEDUP_GATE, record


def test_localization_vectorized_sbfl(benchmark):
    benchmark.pedantic(
        _run, args=(True, 400), rounds=3, iterations=1
    )


def test_localization_vectorized_random_policy(benchmark):
    benchmark.pedantic(
        _run,
        args=(True, 400),
        kwargs={"policy": "random"},
        rounds=3,
        iterations=1,
    )


def test_localization_reference_path(benchmark):
    benchmark.pedantic(
        _run, args=(False, 50), rounds=2, iterations=1
    )


def main(argv=None) -> int:
    """Write the localization-workload record (``BENCH_localization.json``)."""
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--out", default="BENCH_localization.json", metavar="FILE"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="fewer replications and repeats"
    )
    args = parser.parse_args(argv)
    record = measure_localization(
        n_replications=200 if args.smoke else 400,
        repeats=2 if args.smoke else 3,
    )
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    print(
        f"vectorized speedup: {record['speedup']:.1f}x "
        f"(gate: >= {SPEEDUP_GATE:.0f})"
    )
    if not record["trajectories_match"]:
        print("FAIL: vectorized/reference divergence", file=sys.stderr)
        return 1
    if not record["gate_vectorized_speedup_ge_10"]:
        print(
            f"FAIL: vectorized speedup gate (>= {SPEEDUP_GATE:.0f}x) not met",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
