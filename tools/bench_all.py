#!/usr/bin/env python
"""Run the benchmark suites: ``BENCH_adaptive.json`` + ``BENCH_service.json``
+ ``BENCH_mutation.json`` + ``BENCH_kernels.json`` +
``BENCH_localization.json``.

Five suites, selectable with ``--suites`` (default: all):

* **adaptive** — the precision engine's headline numbers are *replication
  counts*: how many replications each estimand needs to reach a relative
  half-width target under plain sampling, and the speedup variance
  reduction buys (plain / VR replications-to-target), measured through
  :func:`benchmarks.bench_adaptive.measure`;
* **service** — the serving layer's load harness
  (``benchmarks/bench_service.py``): cold vs warm (cached) latency,
  request coalescing, and mixed-workload throughput/p50/p99 against an
  in-process server;
* **mutation** — the mutation harness (``benchmarks/bench_mutation.py``):
  mutant-generation throughput, a real campaign's cold-vs-warm (resume
  cache hit) ratio, and estimator fit throughput;
* **kernels** — two kernel records (``benchmarks/bench_kernels.py``):
  the guided inverse-CDF suite draw vs plain ``np.searchsorted`` (>= 2x
  and equal arrays) and the exact engine's time on a 16-fault cover;
* **localization** — the SBFL localized-growth workload
  (``benchmarks/bench_localization.py``): vectorized counter-RNG rounds
  vs the per-replication reference path, with a >= 10x speedup gate
  (pure numpy on both sides, so it applies on every host).

::

    PYTHONPATH=src python tools/bench_all.py                 # all suites
    PYTHONPATH=src python tools/bench_all.py --suites adaptive
    PYTHONPATH=src python tools/bench_all.py --suites service --service-smoke
    PYTHONPATH=src python tools/bench_all.py --suites mutation
    PYTHONPATH=src python tools/bench_all.py --suites kernels
    PYTHONPATH=src python tools/bench_all.py --suites localization

Exit status is non-zero when any gate fails (VR speedup < 1, warm
speedup < 50x, guided suite draw < 2x, or broken coalescing — the same
gates CI enforces), so the files are only written from healthy runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_adaptive.json"
DEFAULT_SERVICE_OUT = ROOT / "BENCH_service.json"
DEFAULT_MUTATION_OUT = ROOT / "BENCH_mutation.json"
DEFAULT_KERNELS_OUT = ROOT / "BENCH_kernels.json"
DEFAULT_LOCALIZATION_OUT = ROOT / "BENCH_localization.json"
SUITES = ("adaptive", "service", "mutation", "kernels", "localization")


def _load_bench(name: str):
    """Import a benchmarks/*.py module by path (benchmarks/ is not a
    package); each module's registry/measure functions are the single
    source of truth for what gets benchmarked."""
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_adaptive():
    return _load_bench("bench_adaptive")


def run_adaptive_suite(rel_hw: float, budget: int) -> dict:
    """Replications-to-target and VR speedups for every estimand."""
    bench = _load_bench_adaptive()
    estimands = {}
    for label in sorted(bench.ESTIMANDS):
        print(f"measuring {label} (rel_hw={rel_hw}) ...", flush=True)
        record = bench.measure(label, rel_hw=rel_hw, budget=budget)
        estimands[label] = record
        print(
            f"  plain {record['replications_plain']} -> vr "
            f"{record['replications_vr']} replications "
            f"(speedup {record['vr_speedup']:.2f}x)",
            flush=True,
        )
    return estimands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Consolidate the benchmark suite into BENCH_adaptive.json"
    )
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        metavar="FILE",
        help=f"output path (default {DEFAULT_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--rel-hw",
        type=float,
        default=0.05,
        help="relative half-width target for the replications-to-target "
        "measurements (default 0.05)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=120_000,
        help="replication budget per measurement (default 120000)",
    )
    parser.add_argument(
        "--suites",
        default="adaptive,service,mutation,kernels,localization",
        metavar="LIST",
        help="comma-separated suites to run "
        "(default: adaptive,service,mutation,kernels,localization)",
    )
    parser.add_argument(
        "--service-out",
        default=str(DEFAULT_SERVICE_OUT),
        metavar="FILE",
        help="service-suite output path "
        f"(default {DEFAULT_SERVICE_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--service-smoke",
        action="store_true",
        help="short service burst (cheaper cold experiment, fewer requests)",
    )
    parser.add_argument(
        "--mutation-out",
        default=str(DEFAULT_MUTATION_OUT),
        metavar="FILE",
        help="mutation-suite output path "
        f"(default {DEFAULT_MUTATION_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--kernels-out",
        default=str(DEFAULT_KERNELS_OUT),
        metavar="FILE",
        help="kernels-suite output path "
        f"(default {DEFAULT_KERNELS_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--kernels-smoke",
        action="store_true",
        help="fewer kernel timing repeats",
    )
    parser.add_argument(
        "--localization-out",
        default=str(DEFAULT_LOCALIZATION_OUT),
        metavar="FILE",
        help="localization-suite output path "
        f"(default {DEFAULT_LOCALIZATION_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--localization-smoke",
        action="store_true",
        help="fewer workload replications and timing repeats",
    )
    args = parser.parse_args(argv)

    suites = [name.strip() for name in args.suites.split(",") if name.strip()]
    unknown = sorted(set(suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; known: {list(SUITES)}")

    exit_code = 0
    if "adaptive" in suites:
        record = {
            "suite": "adaptive-precision",
            "rel_hw": args.rel_hw,
            "budget": args.budget,
            "estimands": run_adaptive_suite(args.rel_hw, args.budget),
        }
        speedups = [
            entry["vr_speedup"] for entry in record["estimands"].values()
        ]
        record["min_vr_speedup"] = min(speedups)
        record["gate_vr_speedup_ge_1"] = all(s >= 1.0 for s in speedups)

        out = pathlib.Path(args.out)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        if not record["gate_vr_speedup_ge_1"]:
            print(
                f"FAIL: min VR speedup {record['min_vr_speedup']:.2f} < 1",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(
                f"min VR speedup: {record['min_vr_speedup']:.2f}x (gate: >= 1)"
            )
    if "service" in suites:
        bench_service = _load_bench("bench_service")
        service_argv = ["--out", args.service_out]
        if args.service_smoke:
            service_argv.append("--smoke")
        exit_code = max(exit_code, bench_service.main(service_argv))
    if "mutation" in suites:
        bench_mutation = _load_bench("bench_mutation")
        exit_code = max(
            exit_code, bench_mutation.main(["--out", args.mutation_out])
        )
    if "kernels" in suites:
        bench_kernels = _load_bench("bench_kernels")
        kernels_argv = ["--out", args.kernels_out]
        if args.kernels_smoke:
            kernels_argv.append("--smoke")
        exit_code = max(exit_code, bench_kernels.main(kernels_argv))
    if "localization" in suites:
        bench_localization = _load_bench("bench_localization")
        localization_argv = ["--out", args.localization_out]
        if args.localization_smoke:
            localization_argv.append("--smoke")
        exit_code = max(exit_code, bench_localization.main(localization_argv))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
