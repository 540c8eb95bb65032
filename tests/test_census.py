"""The reachability census (tools/census.py): its collector and its diff."""

import importlib.util
import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

FIXTURE = '''def reached():
    return 1


def unreached():
    return 2
'''


def test_unreached_lists_only_the_function_nothing_called(tmp_path):
    sys.path.insert(0, str(_REPO_ROOT / "tools"))
    try:
        import census
    finally:
        sys.path.pop(0)
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

    assert census.unreached(package, collector.reached()) == [
        ("fixture.mod", "unreached", 2)
    ]
