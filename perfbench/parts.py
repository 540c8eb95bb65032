"""One measured part of a workload, in a fresh interpreter, sliced on command.

``python3 perfbench/parts.py '<spec json>'`` imports the program from the
checkout's ``src/`` and prints ``ready`` (the parent times set-up up to
that line).  It then reads one JSON command a line from standard input:
``{"slice": i}`` runs slice ``i`` of the part and answers ``{"done": i}``;
``{"finish": true}`` answers the part's result as one JSON line and
exits.  The parent interleaves the slices of every part of a workload,
so each part's samples span the whole run.  Parts:

* ``catalog`` -- every registered experiment at the spec's per-experiment
  seeds, in full or fast mode, serially in this process, a contiguous
  share of the registry per slice; the output check is that every claim
  holds.
* ``engine`` -- the public Monte-Carlo drivers on the default engine at
  two model sizes and adaptive runs to a fixed relative half-width; the
  output check compares every ``small`` estimate with the exact analytic
  value.

With ``"trace"`` set the part runs under :mod:`spans` and adds the
per-layer totals to its result.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# a wide multiple of the standard error: a correct engine lands outside
# it with probability ~2e-9 per estimate
SE_MULTIPLE = 6.0
DRIVERS = ("marginal_perfect", "marginal_imperfect", "version_pfd", "back_to_back")


def _import_program(part: str):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source at {SRC}", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  (set-up includes the package import)

    if part == "catalog":
        import repro.experiments  # noqa: F401  (registers every id)
    else:
        import repro.analytic  # noqa: F401
        import repro.core  # noqa: F401
        import repro.mc  # noqa: F401


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class CatalogPart:
    def __init__(self, spec: dict, tracer) -> None:
        from repro.experiments.registry import all_experiment_ids

        self.spec = spec
        self.tracer = tracer
        self.ids = all_experiment_ids()
        self.per_id = {}
        self.attempted = 0
        self.failures = []

    def run_slice(self, index: int) -> None:
        from repro.experiments.registry import run_experiment

        from inputs import experiment_seed

        count, slices = len(self.ids), self.spec["slices"]
        fast = self.spec["mode"] == "fast"
        for experiment_id in self.ids[index * count // slices:(index + 1) * count // slices]:
            seed = experiment_seed(self.spec["seed"], experiment_id, self.spec["mode"])
            began = time.perf_counter()
            if self.tracer is None:
                result = run_experiment(experiment_id, seed=seed, fast=fast)
            else:
                with self.tracer.span(f"catalog.{experiment_id}"):
                    result = run_experiment(experiment_id, seed=seed, fast=fast)
            self.per_id[experiment_id] = time.perf_counter() - began
            self.attempted += len(result.claims)
            self.failures += [
                f"{experiment_id}: {claim.description}" for claim in result.claim_failures()
            ]

    def finish(self) -> dict:
        wall = sum(self.per_id.values())
        return {
            "catalog_s": wall,
            "per_id_s": self.per_id,
            "unit_s": wall,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _model(size: dict, seed: int):
    from repro.demand import DemandSpace, uniform_profile
    from repro.faults import clustered_universe
    from repro.populations import BernoulliFaultPopulation
    from repro.testing import OperationalSuiteGenerator

    space = DemandSpace(size["demands"])
    profile = uniform_profile(space)
    universe = clustered_universe(
        space, n_faults=size["faults"], region_size=size["region"], rng=seed
    )
    population = BernoulliFaultPopulation.uniform(universe, size["presence"])
    generator = OperationalSuiteGenerator(profile, size["suite"])
    return profile, universe, population, generator


class _Exact:
    """Exact analytic values of the small model (``repro.analytic``)."""

    def __init__(self, universe, profile, population, n_tests: int) -> None:
        from repro.analytic import BernoulliExactEngine

        engine = BernoulliExactEngine(universe, profile)
        self.independent = engine.system_pfd_independent_suites(population, n_tests)
        self.same_suite = engine.system_pfd_same_suite(population, n_tests)
        self.version = engine.version_pfd(population, n_tests)
        # a zero-length suite leaves every version untested
        self.untested_system = engine.system_pfd_same_suite(population, 0)


def _within(estimate: float, exact: float, std_error: float) -> bool:
    return abs(estimate - exact) <= SE_MULTIPLE * std_error + 1e-12


def _mean_bound_se(exact: float, count: int) -> float:
    """Upper bound on the standard error of a mean of [0, 1] values."""
    return math.sqrt(max(exact * (1.0 - exact), 0.0) / count)


def _call(driver: str, model, reps: dict, rng):
    """One call of a public driver on ``model``."""
    from repro.core import IndependentSuites, SameSuite, back_to_back_envelope
    from repro.mc import simulate_marginal_system_pfd, simulate_version_pfd
    from repro.testing import ImperfectFixing, ImperfectOracle

    profile, _universe, population, generator = model
    if driver == "marginal_perfect":
        return simulate_marginal_system_pfd(
            IndependentSuites(generator), population, profile,
            n_replications=reps["mc"], rng=rng,
        )
    if driver == "marginal_imperfect":
        return simulate_marginal_system_pfd(
            SameSuite(generator), population, profile, n_replications=reps["mc"],
            rng=rng, oracle=ImperfectOracle(0.7), fixing=ImperfectFixing(0.8),
        )
    if driver == "version_pfd":
        return simulate_version_pfd(
            population, generator, profile, n_replications=reps["mc"], rng=rng
        )
    return back_to_back_envelope(
        population, generator, profile, n_replications=reps["b2b"], rng=rng
    )


def _check(driver: str, estimate, exact, reps: dict) -> bool:
    """Does a ``small`` estimate agree with the exact analytic value?"""
    if driver == "marginal_perfect":
        return _within(estimate.mean, exact.independent, estimate.std_error())
    if driver == "marginal_imperfect":
        # imperfect testing removes a subset of what perfect testing would
        margin = SE_MULTIPLE * estimate.std_error()
        return exact.same_suite - margin <= estimate.mean <= exact.untested_system + margin
    if driver == "version_pfd":
        return _within(estimate.mean, exact.version, estimate.std_error())
    count = reps["b2b"]
    return _within(
        estimate.untested_system_pfd,
        exact.untested_system,
        _mean_bound_se(exact.untested_system, count),
    ) and _within(
        estimate.perfect_system_pfd, exact.same_suite, _mean_bound_se(exact.same_suite, count)
    )


def _replications(driver: str, reps: dict) -> int:
    return reps["b2b"] if driver == "back_to_back" else reps["mc"]


class EnginePart:
    """Per slice: ``small`` calls of every driver, one ``large`` driver call
    (the drivers take turns across slices), and adaptive runs."""

    def __init__(self, spec: dict, tracer) -> None:
        from repro.adaptive import PrecisionTarget

        self.spec = spec
        sizes = spec["sizes"]
        # the model structure is fixed so rates compare across seeds; the
        # workload seed drives every random draw
        self.models = {name: _model(size, spec["model_seed"]) for name, size in sizes.items()}
        profile, universe, population, _generator = self.models["small"]
        self.exact = _Exact(universe, profile, population, sizes["small"]["suite"])
        self.target = PrecisionTarget(**spec["adaptive"]["target"])
        self.durations = {name: {driver: [] for driver in DRIVERS} for name in sizes}
        self.adaptive_times = []
        self.adaptive_rounds = 0
        self.adaptive_replications = 0
        self.checks = []
        # lazy imports and BLAS start-up happen once per process, not per call
        for name, model in self.models.items():
            for driver in DRIVERS:
                _call(driver, model, {"mc": 64, "b2b": 16}, self._rng(10**7, len(name)))

    def _rng(self, *key):
        import numpy as np

        return np.random.default_rng([self.spec["seed"], *key])

    def _timed(self, name: str, driver: str, key: tuple) -> None:
        reps = self.spec["sizes"][name]["reps"]
        began = time.perf_counter()
        estimate = _call(driver, self.models[name], reps, self._rng(*key))
        self.durations[name][driver].append(time.perf_counter() - began)
        if name == "small":
            self.checks.append((f"small {driver}", _check(driver, estimate, self.exact, reps)))

    def run_slice(self, index: int) -> None:
        from repro.mc import simulate_marginal_system_pfd
        from repro.core import IndependentSuites

        for repeat in range(self.spec["sizes"]["small"]["repeat"]):
            for number, driver in enumerate(DRIVERS):
                self._timed("small", driver, (index, repeat, number, 0))
        number = index % len(DRIVERS)
        self._timed("large", DRIVERS[number], (index, 0, number, 1))
        profile, _universe, population, generator = self.models["small"]
        for repeat in range(self.spec["adaptive"]["per_slice"]):
            began = time.perf_counter()
            estimate = simulate_marginal_system_pfd(
                IndependentSuites(generator), population, profile,
                rng=self._rng(10**6, index, repeat), precision=self.target,
            )
            self.adaptive_times.append(time.perf_counter() - began)
            report = estimate.adaptive
            self.adaptive_rounds += report.rounds
            self.adaptive_replications += report.replications
            self.checks.append((
                "adaptive converged",
                bool(report.converged)
                and _within(estimate.mean, self.exact.independent, estimate.std_error()),
            ))

    def finish(self) -> dict:
        import numpy as np

        # one call of every driver over the sum of each driver's median time
        round_seconds, round_reps = {}, {}
        for name, size in self.spec["sizes"].items():
            timed = [d for d in DRIVERS if self.durations[name][d]]
            round_seconds[name] = sum(float(np.median(self.durations[name][d])) for d in timed)
            round_reps[name] = sum(_replications(d, size["reps"]) for d in timed)
        failures = [name for name, ok in self.checks if not ok]
        return {
            "small_reps_per_s": round_reps["small"] / round_seconds["small"],
            "large_reps_per_s": round_reps["large"] / round_seconds["large"],
            "time_to_target_s": float(np.median(self.adaptive_times)),
            "adaptive_rounds": self.adaptive_rounds,
            "adaptive_replications": self.adaptive_replications,
            "unit_s": sum(round_seconds.values()) / sum(round_reps.values()),
            "attempted": len(self.checks),
            "failed": len(failures),
            "failures": failures,
        }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _layer_report(tracer) -> dict:
    import numpy as np

    layer, start, end, _parent = tracer.arrays()
    self_time = tracer.self_times()
    report = {
        "layers": tracer.layer_totals(),
        "chunks": tracer.chunks,
        "bytes_computed": tracer.bytes_computed,
        "spans": int(len(start)),
    }
    catalog_ids = [
        index for index, name in enumerate(tracer.names) if name.startswith("catalog.")
    ]
    if catalog_ids:
        chosen = np.isin(layer, catalog_ids)
        wall = float((end - start)[chosen].sum())
        report["unattributed_share"] = float(self_time[chosen].sum()) / wall
    return report


def _reply(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv) -> int:
    spec = json.loads(argv[0])
    _import_program(spec["part"])
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0
    sys.path.insert(0, HERE)
    tracer = None
    if spec.get("trace"):
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    part = {"catalog": CatalogPart, "engine": EnginePart}[spec["part"]](spec, tracer)
    _reply({"started": True})
    for line in sys.stdin:
        command = json.loads(line)
        if "slice" in command:
            part.run_slice(command["slice"])
            _reply({"done": command["slice"]})
            continue
        result = part.finish()
        if tracer is not None:
            result["trace"] = _layer_report(tracer)
            tracer.save(spec["trace"])
        result["peak_rss_mb"] = _peak_rss_mb()
        _reply(result)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
