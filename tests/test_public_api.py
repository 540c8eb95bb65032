"""Tests of the public API surface: exports resolve and doctests run."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if info.ispkg
)
SNAPSHOT = Path(__file__).with_name("public_api.txt")


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackage_all_names_resolve(self):
        # perfbench's tracer getattrs every name in repro.coverage.__all__
        # (and growth's and analytic's), so a stale entry would crash it
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_public_surface_matches_snapshot(self):
        """Every ``__all__`` name, one per line in ``public_api.txt``, so an
        added or removed public name is an explicit one-line diff there."""
        names = sorted(
            f"{module_name}:{name}"
            for module_name in ("repro", *SUBPACKAGES)
            for name in importlib.import_module(module_name).__all__
        )
        snapshot = SNAPSHOT.read_text(encoding="utf-8").split()
        added = sorted(set(names) - set(snapshot))
        removed = sorted(set(snapshot) - set(names))
        assert names == snapshot, f"added {added}, removed {removed}"

    def test_every_module_importable(self):
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            try:
                importlib.import_module(info.name)
            except Exception as error:  # pragma: no cover - failure reporting
                failures.append((info.name, error))
        assert not failures, failures


DOCTEST_MODULES = [
    "repro",
    "repro.core.el",
    "repro.core.lm",
    "repro.demand.space",
    "repro.populations.bernoulli",
    "repro.extensions.stopping",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
    assert results.attempted > 0, f"no doctests found in {module_name}"
