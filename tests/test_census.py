"""The reachability census (tools/census.py): its collector, diff and gate."""

import importlib.util
import pathlib
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

FIXTURE = '''def reached():
    return 1


def unreached():
    return 2
'''


@pytest.fixture
def census():
    sys.path.insert(0, str(_REPO_ROOT / "tools"))
    try:
        import census
    finally:
        sys.path.pop(0)
    return census


@pytest.fixture
def fixture_package(tmp_path, census):
    """A one-module package, its unreached list after calling ``reached``."""
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    spec = importlib.util.spec_from_file_location("fixture.mod", package / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    collector = census.Collector()
    collector.start()
    try:
        module.reached()
    finally:
        collector.stop()
    return package, census.unreached(package, collector.reached())


def test_unreached_lists_only_the_function_nothing_called(fixture_package):
    _, missed = fixture_package
    assert missed == [("fixture.mod", "unreached", 2)]


def _allow(tmp_path, census, *lines):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\n" + "\n".join(lines) + "\n")
    return census.load_allow(path)


def test_gate_passes_when_every_unreached_name_is_listed(
    tmp_path, census, fixture_package
):
    package, missed = fixture_package
    allow = _allow(tmp_path, census, "fixture.mod:unreached eq. (1)")
    assert allow == {"fixture.mod:unreached": "eq. (1)"}
    assert census.gate(package, missed, allow) == []


def test_gate_fails_on_an_unlisted_unreached_function(
    tmp_path, census, fixture_package
):
    package, missed = fixture_package
    assert census.gate(package, missed, _allow(tmp_path, census)) == [
        "unreached, not allow-listed: fixture.mod:unreached"
    ]


def test_gate_fails_on_a_listed_name_that_no_longer_exists(
    tmp_path, census, fixture_package
):
    package, missed = fixture_package
    allow = _allow(
        tmp_path,
        census,
        "fixture.mod:unreached eq. (1)",
        "fixture.mod:deleted subclass hook",
    )
    assert census.gate(package, missed, allow) == [
        "allow-listed, no longer defined: fixture.mod:deleted"
    ]


def test_gate_fails_on_a_listed_name_that_is_reached(
    tmp_path, census, fixture_package
):
    package, missed = fixture_package
    allow = _allow(
        tmp_path,
        census,
        "fixture.mod:unreached eq. (1)",
        "fixture.mod:reached eq. (2)",
    )
    assert census.gate(package, missed, allow) == [
        "allow-listed, now reached: fixture.mod:reached"
    ]


def test_gate_fails_on_a_listed_name_without_a_reason(
    tmp_path, census, fixture_package
):
    package, missed = fixture_package
    allow = _allow(tmp_path, census, "fixture.mod:unreached")
    assert census.gate(package, missed, allow) == [
        "allow-listed without a reason: fixture.mod:unreached"
    ]
