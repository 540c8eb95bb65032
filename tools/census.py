#!/usr/bin/env python
"""Reachability census: the ``src/`` definitions no shipped entry point runs.

Traces every Python call here, in this process's threads and in the Python
children it starts, while it drives the fast and full catalog, precision
runs, the example sweeps, a service and router answering ``POST /run``, an
adaptive run of each ``simulate_*`` driver, a mutation campaign,
``examples/``, the tools CI runs, ``benchmarks/`` and perfbench's catalog
workload.  Prints each unreached ``def``/``class`` with its line count::

    PYTHONPATH=src python tools/census.py

A class counts as reached when a method of it runs or code that ran names
it; a definition inside an unreached one is folded into it.  Children that
replace ``PYTHONPATH`` (perfbench's service cluster, mutation sandboxes)
run untraced, and code behind an option no entry point here passes stays
unreached: the list is a candidate list.  About two minutes on 2 cores.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import io
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
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
    collector = Collector()
    collector.start()

    def dump() -> None:
        collector.stop()
        rows = "".join(f"{f}\t{q}\n" for f, q in collector.reached())
        Path(out_dir, f"reached-{os.getpid()}.tsv").write_text(rows)

    atexit.register(dump)


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


def _drive(work: Path) -> None:
    """The entry points that run in this process."""
    from repro import demand, faults, populations, testing
    from repro.core import IndependentSuites
    from repro.experiments.__main__ import main
    from repro.mc import experiments as mc
    from repro.service import ServiceClient, ThreadedRouter, ThreadedServer

    main(["--summary-only"])
    main(["--full", "--summary-only"])
    main(["e01", "e11", "x3", "--target-rel-hw", "0.5", "--summary-only"])
    for grid in ("quick", "coverage"):
        toml = str(ROOT / "examples" / "grids" / f"{grid}.toml")
        for _ in range(2):  # the second pass resumes from the store
            main(["sweep", "--grid", toml, "--out", str(work / grid)])
        main(["aggregate", "--store", str(work / grid)])
    main(["mutate", "--target", "triangle", "--store", str(work / "campaigns")])

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
    mc.simulate_version_pfd(population, generator, profile, rng=1, precision=target)

    shard = ThreadedServer(store_path=str(work / "service"))
    router = ThreadedRouter({"s0": shard.url})
    try:
        with ServiceClient(router.url) as client:
            client.run("a4")
    finally:
        router.stop()
        shard.stop()

    scripts = sorted((ROOT / "examples").glob("*.py"))
    for script in scripts + [ROOT / "tools" / "check_experiments_docs.py"]:
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as done:
            if done.code:
                raise


def _children(work: Path) -> None:
    """The entry points that run as processes of their own."""
    env = dict(os.environ, PYTHONPATH=f"{work}{os.pathsep}{ROOT / 'src'}")
    for argv in (
        ["tools/compact_store.py", "--store", str(work / "quick")],
        ["tools/shard_smoke.py"],
        ["tools/obs_smoke.py"],
        ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        ["perfbench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1"],
    ):
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)


def main() -> int:
    collector = Collector()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        site = _SITE.format(str(ROOT / "tools"), tmp)
        (work / "sitecustomize.py").write_text(site)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
