"""In-memory span tracing applied to the program from outside.

The traced run wraps the public functions and methods that make up each
layer (table :data:`LAYERS`) at every place the program can reach them:
every loaded ``repro`` module attribute bound to the original function,
and every class in the hierarchy that defines its own override of a
wrapped method.  Nothing under ``src/`` changes.

Spans are kept as parallel arrays (layer id, start, end, parent index)
and written out as one ``.npz`` file when the run ends.  A layer's self
time is its spans' durations minus the part of each interval covered by
child spans; with one thread per process the spans nest exactly, so that
is the duration minus the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

# layer name -> public calls it times.  "module:function" names a function;
# "module:Class.method" names a method, wrapped on the class and on every
# subclass that overrides it; "package:*" names every public function and
# every public method of the public classes the package exports.
LAYERS = {
    "mc.fault_draw": ["repro.populations.base:VersionPopulation.sample_fault_matrix"],
    "mc.suite_draw": [
        "repro.core.regimes:TestingRegime.draw_suite_masks",
        "repro.core.regimes:TestingRegime.draw_suite_counts",
        "repro.testing.generators:SuiteGenerator.sample_demand_masks",
        "repro.testing.generators:SuiteGenerator.sample_demand_counts",
        "repro.testing.generators:SuiteGenerator.sample_demand_sequences",
    ],
    "mc.closure": [
        "repro.mc.batch:apply_testing_batch",
        "repro.mc.batch:apply_imperfect_testing_batch",
        "repro.mc.batch:apply_blind_testing_batch",
        "repro.mc.batch:apply_coverage_testing_batch",
        "repro.mc.batch:back_to_back_batch",
        "repro.faults.universe:FaultUniverse.triggered_matrix",
        "repro.mc.kernels:perfect_closure",
        "repro.mc.kernels:imperfect_closure",
        "repro.mc.kernels:back_to_back_counter",
    ],
    "mc.scoring": ["repro.faults.universe:FaultUniverse.failure_matrix"],
    "mc.reduce": [
        "repro.mc.estimator:MeanEstimator.add_moments",
        "repro.mc.estimator:MeanEstimator.add_many",
        "repro.mc.estimator:ProportionEstimator.add_many",
    ],
    "mc.run_tasks": ["repro.mc.batch:run_tasks"],
    "mc.scalar": [
        "repro.populations.base:VersionPopulation.sample",
        "repro.testing.generators:SuiteGenerator.sample",
        "repro.testing.engine:apply_testing",
    ],
    "rng.counter": ["repro.rng:counter_uniforms"],
    "growth": ["repro.growth:*"],
    "analytic": ["repro.analytic:*"],
    "coverage": ["repro.coverage:*"],
}

# layers whose outputs count towards mc.bytes_computed
_BYTE_LAYERS = ("mc.fault_draw", "mc.suite_draw", "mc.closure", "mc.scoring")


def _output_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(_output_bytes(item) for item in value)
    return 0


class Tracer:
    """Records spans from the thread that created it; other threads pass."""

    def __init__(self) -> None:
        self.names: list = []
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.chunks = 0
        self.bytes_computed = 0
        self._stack: list = []
        self._thread = threading.get_ident()

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span of layer ``name``."""
        index = self.open(self.layer_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, function):
        layer_id = self.layer_id(name)
        counts_bytes = name in _BYTE_LAYERS
        counts_chunks = name == "mc.run_tasks"
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            index = tracer.open(layer_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if counts_bytes:
                tracer.bytes_computed += _output_bytes(result)
            if counts_chunks:
                tracer.chunks += len(args[1] if len(args) > 1 else kwargs["tasks"])
            return result

        traced.__perfbench_original__ = function
        return traced

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.layer, dtype=np.int16).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        _layer, start, end, parent = self.arrays()
        duration = end - start
        self_time = duration.copy()
        has_parent = parent >= 0
        np.subtract.at(self_time, parent[has_parent], duration[has_parent])
        return self_time

    def layer_totals(self):
        """``{layer: (calls, self_seconds)}`` over every recorded span."""
        layer, _start, _end, _parent = self.arrays()
        self_time = self.self_times()
        totals = {}
        for layer_id, name in enumerate(self.names):
            chosen = layer == layer_id
            totals[name] = (int(chosen.sum()), float(self_time[chosen].sum()))
        return totals

    def save(self, path) -> None:
        layer, start, end, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=layer,
            start=start,
            end=end,
            parent=parent,
        )


def _targets(spec: str) -> list:
    """``("function", f)`` and ``("method", cls, name)`` items one spec names."""
    module_name, _, attribute = spec.partition(":")
    module = importlib.import_module(module_name)
    if attribute == "*":
        return _package_targets(module)
    if "." in attribute:
        class_name, method = attribute.split(".")
        return [("method", getattr(module, class_name), method)]
    return [("function", getattr(module, attribute))]


def _package_targets(package):
    """Every public function and public-class method a package exports."""
    targets = []
    for name in getattr(package, "__all__", []):
        value = getattr(package, name)
        if not getattr(value, "__module__", "").startswith(package.__name__):
            continue
        if inspect.isfunction(value):
            targets.append(("function", value))
        elif inspect.isclass(value):
            for method, member in vars(value).items():
                if method.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                    targets.append(("method", value, method))
    return targets


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in seen:
                seen.append(item)
    return seen


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every loaded ``repro`` module attribute that is ``original``.

    Module-level dispatch tables (dicts of functions) are rebound too.
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                replaced += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        replaced += 1
    return replaced


def _wrap_method(tracer: Tracer, layer: str, cls, method: str, done: set) -> None:
    for owner in _subclasses(cls):
        member = owner.__dict__.get(method)
        if member is None or (owner, method) in done:
            continue
        done.add((owner, method))
        if isinstance(member, staticmethod):
            setattr(owner, method, staticmethod(tracer.wrap(layer, member.__func__)))
        elif isinstance(member, classmethod):
            setattr(owner, method, classmethod(tracer.wrap(layer, member.__func__)))
        elif inspect.isfunction(member):
            setattr(owner, method, tracer.wrap(layer, member))


def install(tracer: Tracer) -> dict:
    """Wrap every :data:`LAYERS` target; returns ``{layer: sites patched}``.

    Call after the program is imported, so subclasses and ``from``-imports
    exist to be found.
    """
    done: set = set()
    patched = {}
    for layer, specs in LAYERS.items():
        count = 0
        for spec in specs:
            for item in _targets(spec):
                if item[0] == "method":
                    before = len(done)
                    _wrap_method(tracer, layer, item[1], item[2], done)
                    count += len(done) - before
                elif not hasattr(item[1], "__perfbench_original__"):
                    count += _replace_everywhere(item[1], tracer.wrap(layer, item[1]))
        patched[layer] = count
    return patched
