#!/usr/bin/env python
"""Reachability census: the ``src/`` definitions no shipped entry point runs.

Traces every Python call here, in this process's threads and in the Python
children it starts (pool workers included), while it drives the fast and
full catalog with and without full reports, precision runs under each
variance-reduction mode, the example sweeps (the precision one and a
``--dry-run`` too), a ``serve --procs 1`` shard behind a ``router`` child
answering ``POST /run``, ``/jobs`` (a cancel, a full queue, a slow job),
``/shards``, ``/metrics`` and a ``sweep --via-service``, an in-process
service streaming an adaptive job's progress, an adaptive run of each
``simulate_*`` driver, imperfect-oracle runs of two regimes, mutation
campaigns of a bundled target and of the package itself, ``examples/``,
the tools CI runs, ``benchmarks/`` and perfbench's catalog workload.
Prints each unreached ``def``/``class`` with its line count, then gates
the list against ``tools/census_allow.txt``::

    PYTHONPATH=src python tools/census.py

A class counts as reached when a method of it runs or code that ran names
it; a definition inside an unreached one is folded into it.  Children that
replace ``PYTHONPATH`` (perfbench's service cluster, mutation sandboxes)
run untraced.  Each allow-list line is ``module:qualname reason``; the run
exits 1 when an unreached definition is not listed, and when a listed one
no longer exists, is now reached or has no reason.  Takes about 27 s on a
2-core host.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import io
import os
import re
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOW = ROOT / "tools" / "census_allow.txt"
# copied into each mutation sandbox and run there as a script
SCRIPTS = {"repro.mutation._driver"}
# the sitecustomize that makes each child interpreter trace itself
_SITE = (
    "import sys\nsys.path.insert(0, {!r})\nimport census\ncensus.trace_child({!r})\n"
)


class Collector:
    """Records the code object of every Python function that runs."""

    def __init__(self) -> None:
        self.codes = set()

    def _trace(self, frame, event, arg):
        self.codes.add(frame.f_code)  # returning None: no line events

    def start(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def reached(self) -> set:
        """``(filename, qualname)`` of every code object that ran."""
        return {(code.co_filename, code.co_qualname) for code in self.codes}


def trace_child(out_dir: str) -> None:
    """Trace this whole interpreter; write what it reached at exit."""
    from multiprocessing import util

    collector = Collector()
    collector.start()

    def dump() -> None:
        collector.stop()
        rows = "".join(f"{f}\t{q}\n" for f, q in collector.reached())
        Path(out_dir, f"reached-{os.getpid()}.tsv").write_text(rows)

    atexit.register(dump)
    # forked pool workers leave through os._exit, past atexit but not
    # past multiprocessing's own exit finalizers
    util.register_after_fork(
        collector, lambda _: util.Finalize(None, dump, exitpriority=0)
    )


def _module(package: Path, path: Path) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _names(nodes) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def definitions(package: Path) -> dict:
    """``(module, qualname) -> (lines, is_class, names used, parent key)``.

    A class uses the names in its bases, decorators and class-level
    statements; a function, those in its whole body.
    """
    found = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(body, module, prefix, parent):
        for node in (n for n in body if isinstance(n, kinds)):
            key = (module, prefix + node.name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            is_class = isinstance(node, ast.ClassDef)
            own = [s for s in node.body if not isinstance(s, kinds)]
            heads = node.bases + node.decorator_list + own if is_class else [node]
            found[key] = (node.end_lineno - first + 1, is_class, _names(heads), parent)
            visit(node.body, module, key[1] + ("." if is_class else ".<locals>."), key)

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, _module(package, path), "", None)
    return found


def unreached(package: Path, reached: set) -> list:
    """Sorted ``(module, qualname, lines)`` of the definitions nothing reached."""
    defs = definitions(package)
    modules = {str(p.resolve()): _module(package, p) for p in package.rglob("*.py")}
    files = {name: modules.get(str(Path(name).resolve())) for name, _ in reached}
    ran = {(files[name], qualname) for name, qualname in reached} & defs.keys()
    for key in list(ran):
        while defs[key][3] is not None:
            key = defs[key][3]
            ran.add(key)
    while True:
        named = set().union(*(defs[key][2] for key in ran))
        more = {k for k, d in defs.items() if d[1] and k[1].split(".")[-1] in named}
        if more <= ran:
            break
        ran |= more
    missed = {key for key in defs if key not in ran and key[0] not in SCRIPTS}
    return sorted((*k, defs[k][0]) for k in missed if defs[k][3] not in missed)


def load_allow(path: Path) -> dict:
    """``"module:qualname" -> reason`` from an allow-list file."""
    allow = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            allow[name] = reason.strip()
    return allow


def gate(package: Path, missed: list, allow: dict) -> list:
    """Why the census fails: each unreached definition the allow-list does
    not name, and each listed name without a reason, gone, or reached."""
    defs = {f"{module}:{qualname}" for module, qualname in definitions(package)}
    unreached_names = {f"{module}:{qualname}" for module, qualname, _ in missed}
    problems = [
        f"unreached, not allow-listed: {name}"
        for name in sorted(unreached_names - allow.keys())
    ]
    for name, reason in sorted(allow.items()):
        if name not in defs:
            problems.append(f"allow-listed, no longer defined: {name}")
        elif name not in unreached_names:
            problems.append(f"allow-listed, now reached: {name}")
        elif not reason:
            problems.append(f"allow-listed without a reason: {name}")
    return problems


def _drive(work: Path) -> None:
    """The entry points that run in this process."""
    from repro import demand, faults, populations, testing
    from repro.core import ForcedTestingDiversity, IndependentSuites
    from repro.experiments.__main__ import main
    from repro.adaptive import VR_MODES
    from repro.mc import experiments as mc
    from repro.service import (
        ServiceClient, ServiceError, ThreadedRouter, ThreadedServer,
    )

    main(["--summary-only"])
    main(["--full", "--summary-only"])
    main(["e01", "e11", "x3", "--target-rel-hw", "0.5", "--summary-only"])
    main(["a4", "e01", "--target-rel-hw", "0.5"])  # full reports
    grids = ROOT / "examples" / "grids"
    for grid in ("quick", "coverage", "adaptive"):
        toml = str(grids / f"{grid}.toml")
        for _ in range(2):  # the second pass resumes from the store
            main(["sweep", "--grid", toml, "--out", str(work / grid)])
        main(["aggregate", "--store", str(work / grid)])
    main(["aggregate", "--store", str(work / "quick"), "--experiment", "a2"])
    main(["sweep", "--grid", str(grids / "quick.toml"), "--out",
          str(work / "quick"), "--dry-run"])
    for _ in range(2):  # the second pass resumes from the store
        main(["mutate", "--target", "triangle", "--store",
              str(work / "campaigns")])
    main(["mutate", "--target", "self", "--max-mutants", "1", "--store",
          str(work / "self")])

    profile = demand.uniform_profile(demand.DemandSpace(40))
    universe = faults.clustered_universe(profile.space, 8, 4, rng=0)
    population = populations.BernoulliFaultPopulation.uniform(universe, 0.3)
    generator = testing.OperationalSuiteGenerator(profile, 10)
    regime, target = IndependentSuites(generator), {"rel_hw": 0.2}
    mc.simulate_untested_joint_on_demand(population, 0, rng=1, precision=target)
    mc.simulate_joint_on_demand(regime, population, 0, rng=1, precision=target)
    mc.simulate_marginal_system_pfd(
        regime, population, profile, rng=1, precision=target
    )
    for vr in VR_MODES:
        mc.simulate_version_pfd(
            population, generator, profile, rng=1, precision=dict(target, vr=vr)
        )
    # an imperfect oracle draws each regime's suites as demand sequences
    other = testing.OperationalSuiteGenerator(profile, 6)
    for regime in (IndependentSuites(generator),
                   ForcedTestingDiversity(generator, other)):
        mc.simulate_marginal_system_pfd(
            regime, population, profile, n_replications=2000, rng=1,
            oracle=testing.ImperfectOracle(0.9),
        )

    # the adaptive job below also outlasts the slow-job threshold
    shard, shard_url = _child(["serve", "--procs", "1", "--name", "s0",
                               "--queue-limit", "1", "--slow-job-seconds",
                               "0.1", "--log-file", str(work / "shard.log"),
                               "--store", str(work / "served")])
    router, url = _child(["router", "--shard", f"s0={shard_url}"])
    try:
        main(["sweep", "--grid", str(grids / "quick.toml"), "--out",
              str(work / "via"), "--via-service", url])
        with ServiceClient(url) as client:
            client.experiments()
            # one slot: the adaptive job runs about a second, long enough
            # that the second job is still queued when the third is
            # refused by the one-job queue and the second is cancelled
            slow = client.submit(
                "e01", params={"precision": {"rel_hw": 1e-6, "budget": 500_000}}
            )
            queued = client.submit("a4", seed=2)
            try:
                client.submit("a5", seed=2)
                raise RuntimeError("the one-job queue took a second job")
            except ServiceError as full:
                if full.status != 429:
                    raise
            if not client.cancel(queued["id"])["cancelled"]:
                raise RuntimeError("the queued job ran before its cancel")
            client.jobs()
            client.wait(slow["id"], timeout=120.0)
            client.metrics()
            client.metrics(format="prometheus")
        urllib.request.urlopen(f"{url}/shards").read()
        try:
            urllib.request.urlopen(f"{url}/run")  # GET on a POST route
        except urllib.error.HTTPError as refused:
            if refused.code != 405:
                raise
        else:
            raise RuntimeError("GET /run was not refused")
    finally:
        for child in (router, shard):
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=60.0)

    with ThreadedServer(store_path=str(work / "service")) as shard, \
            ThreadedRouter({"s0": shard.url}) as router, \
            ServiceClient(router.url) as client:
        client.run("a4")
        # an in-thread worker streams an adaptive job's round progress
        client.run("e01", params={"precision": {"rel_hw": 0.5}})

    scripts = sorted((ROOT / "examples").glob("*.py"))
    for script in scripts + [ROOT / "tools" / "check_experiments_docs.py"]:
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as done:
            if done.code:
                raise


def _child(argv: list) -> tuple:
    """A ``python -m repro.experiments`` server child and its address."""
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *argv, "--port", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    for line in child.stdout:
        match = re.search(r"http://[\w.:]+", line)
        if match:
            return child, match.group(0)
    raise RuntimeError(f"{argv[0]} exited before its banner")


def _children(work: Path) -> None:
    """The entry points that run as processes of their own."""
    for argv in (
        ["tools/compact_store.py", "--store", str(work / "quick")],
        ["tools/shard_smoke.py"],
        ["tools/obs_smoke.py"],
        ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        ["perfbench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1"],
    ):
        subprocess.run([sys.executable, *argv], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
    # its throughput gates are timing checks, which tracing may fail;
    # what it runs does not depend on them
    subprocess.run([sys.executable, "benchmarks/bench_service.py", "--smoke",
                    "--no-cluster", "--out", str(work / "bench_service.json")],
                   cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def main() -> int:
    collector = Collector()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        site = _SITE.format(str(ROOT / "tools"), tmp)
        (work / "sitecustomize.py").write_text(site)
        os.environ["PYTHONPATH"] = f"{work}{os.pathsep}{ROOT / 'src'}"
        collector.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _drive(work)
        finally:
            collector.stop()
        _children(work)
        reached = collector.reached()
        for dump in work.glob("reached-*.tsv"):
            reached |= {tuple(r.split("\t")) for r in dump.read_text().splitlines()}
    defs = definitions(PACKAGE)
    missed = unreached(PACKAGE, reached)
    for module, qualname, lines in missed:
        print(f"{lines:5d}  {module}:{qualname}")
    top_lines = sum(d[0] for d in defs.values() if d[3] is None)
    print(f"unreached: {len(missed)} definitions, {sum(m[2] for m in missed)} "
          f"lines (of {len(defs)} definitions, {top_lines} lines)")
    problems = gate(PACKAGE, missed, load_allow(ALLOW))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
