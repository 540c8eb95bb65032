"""Repo benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 6 --trace 0

Each workload runs the three surfaces a user touches -- the experiment
catalog, the Monte-Carlo engine and the routed service -- as parts whose
slices interleave, with the workload's namesake at full size, so that
every end-to-end metric is measured on every workload (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload under span tracing and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each run
is also written, with a host fingerprint, to ``perfbench/results/``
(``perfbench/compare.py`` compares two such result sets).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)

from fingerprint import host_fingerprint  # noqa: E402
from inputs import ENGINE_MODEL_SEED, ENGINE_SIZES, service_points  # noqa: E402
from stats import median  # noqa: E402

# which size the catalog and the service run at, per workload; the engine
# part is the same in both
WORKLOADS = {
    "catalog": {"catalog": "full", "service": "light"},
    "service": {"catalog": "fast", "service": "full"},
}
PARTS = ("catalog", "engine", "service")
# every part runs in this many slices, interleaved with the other parts'
SLICES = 4
# fresh interpreters (or cluster launches) timed for set-up
SETUP_SAMPLES = 3
PART_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "catalog_s": "s",
    "small_reps_per_s": "replications/s",
    "large_reps_per_s": "replications/s",
    "time_to_target_s": "s",
    "cold_p50_s": "s",
    "cold_p90_s": "s",
    "warm_p50_s": "s",
    "warm_p90_s": "s",
    "warm_rps": "requests/s",
}
MC_LAYERS = (
    "mc.fault_draw", "mc.suite_draw", "mc.closure", "mc.scoring", "mc.reduce",
    "mc.scalar", "rng.counter",
)
SELF_ONLY_LAYERS = ("growth", "analytic", "coverage")


def _specs(workload: str, seed: int, seconds: float) -> dict:
    sizes = WORKLOADS[workload]
    full_service = sizes["service"] == "full"
    service = {
        "launches": SETUP_SAMPLES if full_service else 1,
        "seconds": seconds if full_service else 2.0,
        "slices": SLICES,
        "scrape_every": 10,
    }
    service.update(service_points(seed, 160 if full_service else 100))
    return {
        "catalog": {"part": "catalog", "seed": seed, "mode": sizes["catalog"], "slices": SLICES},
        "engine": {
            "part": "engine",
            "seed": seed,
            "model_seed": ENGINE_MODEL_SEED,
            "sizes": {
                "small": dict(ENGINE_SIZES["small"], repeat=2, reps={"mc": 2000, "b2b": 1000}),
                "large": dict(ENGINE_SIZES["large"], reps={"mc": 8192, "b2b": 256}),
            },
            "adaptive": {"target": {"rel_hw": 0.05, "budget": 10**6}, "per_slice": 2},
        },
        "service": service,
    }


class ChildPart:
    """A ``parts.py`` child, driven slice by slice over its standard input."""

    def __init__(self, spec: dict) -> None:
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "parts.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        first = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - began
        if first.strip() != "ready":
            self.stop()
            raise RuntimeError(f"{spec['part']} part did not start: {first!r}")
        if not spec.get("setup_only"):
            self._read()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"part exited with {self.process.wait(timeout=PART_TIMEOUT)}")
        return json.loads(line)

    def _command(self, payload: dict) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        return self._read()

    def run_slice(self, index: int) -> None:
        self._command({"slice": index})

    def finish(self) -> dict:
        result = self._command({"finish": True})
        self.stop()
        return result

    def stop(self) -> None:
        """End of input makes the child exit; wait until it has."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=PART_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def run_workload(
    workload: str, seed: int, seconds: float, work: str, spans_prefix=None, only=PARTS
) -> dict:
    """Run the parts of ``workload`` named in ``only``, their slices interleaved.

    With ``spans_prefix`` set every part runs traced and leaves its spans
    in ``<spans_prefix>-<part>-spans.*``.  Set-up is sampled in several
    fresh interpreters (or cluster launches) only when every part runs
    untraced, the run that reports ``setup_s``.
    """
    from service import ServiceRun

    traced = spans_prefix is not None
    sample_setup = not traced and only == PARTS
    specs = _specs(workload, seed, seconds)
    setups = []
    if workload == "catalog" and sample_setup:
        for _ in range(SETUP_SAMPLES - 1):
            probe = ChildPart(dict(specs["catalog"], setup_only=True))
            probe.stop()
            setups.append(probe.setup_s)
    if not sample_setup:
        specs["service"]["launches"] = 1
    if traced:
        for part in ("catalog", "engine"):
            specs[part]["trace"] = f"{spans_prefix}-{part}-spans.npz"
    parts = {}
    try:
        for part in only:
            if part == "service":
                parts[part] = ServiceRun(
                    specs["service"],
                    os.path.join(work, f"service-{int(traced)}"),
                    f"{spans_prefix}-service-spans.jsonl" if traced else None,
                )
                parts[part].start()
            else:
                parts[part] = ChildPart(specs[part])
        for index in range(SLICES):
            for part in only:
                parts[part].run_slice(index)
        results = {part: parts[part].finish() for part in only}
    finally:
        for part in parts.values():
            part.stop()
    if "catalog" in only:
        results["catalog"]["setup_s"] = median(setups + [parts["catalog"].setup_s])
    return results


def end_to_end_metrics(workload: str, results: dict) -> dict:
    focus = results[workload]
    values = {
        "setup_s": focus["setup_s"],
        "peak_rss_mb": focus["peak_rss_mb"],
        "catalog_s": results["catalog"]["catalog_s"],
    }
    for name in ("small_reps_per_s", "large_reps_per_s", "time_to_target_s"):
        values[name] = results["engine"][name]
    for name in ("cold_p50_s", "cold_p90_s", "warm_p50_s", "warm_p90_s", "warm_rps"):
        values[name] = results["service"][name]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(workload: str, untraced: dict, results: dict) -> dict:
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    layers = {}
    for part in ("catalog", "engine"):
        for layer, (calls, self_s) in results[part]["trace"]["layers"].items():
            before = layers.get(layer, (0, 0.0))
            layers[layer] = (before[0] + calls, before[1] + self_s)
    for layer in MC_LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", self_s, "s")
    for layer in SELF_ONLY_LAYERS:
        put(f"{layer}.self_s", layers.get(layer, (0, 0.0))[1], "s")
    put("mc.chunks", sum(results[p]["trace"]["chunks"] for p in ("catalog", "engine")), "count")
    put(
        "mc.bytes_computed",
        sum(results[p]["trace"]["bytes_computed"] for p in ("catalog", "engine")),
        "B",
    )
    put("adaptive.rounds", results["engine"]["adaptive_rounds"], "count")
    put("adaptive.replications", results["engine"]["adaptive_replications"], "count")
    for experiment_id, seconds in results["catalog"]["per_id_s"].items():
        put(f"catalog.{experiment_id}_s", seconds, "s")
    put("catalog.unattributed_share", results["catalog"]["trace"]["unattributed_share"], "ratio")

    service = results["service"]
    spans = service["trace"]
    put("service.router.relay_p50_s", median(spans["relay"]), "s")
    put("service.http.self_p50_s", median(spans["http_self"]), "s")
    put("service.cache.hit_ratio", service["cache_hit_ratio"], "hits/lookups")
    put("service.metrics_scrape_p50_s", service["metrics_scrape_p50_s"], "s")
    put("service.jobs.queue_wait_p50_s", median(spans["queue_wait"]), "s")
    put("service.jobs.execute_p50_s", median(spans["execute"]), "s")
    put("service.store.persist_p50_s", median(spans["persist"]), "s")
    put("service.jobs.executions", service["executions"], "count")
    put("service.jobs.coalesced", service["coalesced"], "count")
    put("service.jobs.rejected", service["rejected"], "count")
    put("trace_overhead", results[workload]["unit_s"] / untraced[workload]["unit_s"], "ratio")
    return metrics


def _describe(workload: str, results: dict, metrics: dict) -> None:
    service = results["service"]
    counts = {
        "cold_p50_s": service["cold_n"], "cold_p90_s": service["cold_n"],
        "warm_p50_s": service["warm_n"], "warm_p90_s": service["warm_n"],
    }
    for name, metric in metrics.items():
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"{workload:8} {name:34} {metric['value']:.6g} {metric['unit']}{note}")
    if "service.cache.hit_ratio" in metrics:
        print(f"{workload:8} service.cache.hit_ratio base: {service['cache_lookups']} lookups")
    for part, result in results.items():
        for failure in result.get("failures", []):
            print(f"FAILED {part}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}"
    )
    try:
        if args.trace:
            # trace_overhead's baseline: the workload's namesake part alone
            untraced = run_workload(
                args.workload, args.seed, args.seconds, work, only=(args.workload,)
            )
            results = run_workload(args.workload, args.seed, args.seconds, work, stem)
            metrics = per_layer_metrics(args.workload, untraced, results)
        else:
            results = run_workload(args.workload, args.seed, args.seconds, work)
            metrics = end_to_end_metrics(args.workload, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    _describe(args.workload, results, metrics)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_unix": time.time(),
        "host": host_fingerprint(ROOT, args.seed),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "parts": {
            part: {k: v for k, v in result.items() if k != "trace"}
            for part, result in results.items()
        },
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
