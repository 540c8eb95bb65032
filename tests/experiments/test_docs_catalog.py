"""The experiment catalog must stay in sync with the registry.

docs/experiments.md is the user-facing map from experiment ids to the
paper claims they reproduce; a registered experiment without a catalog row
(or a stale row for a removed experiment) is a doc bug.  CI also runs
tools/check_experiments_docs.py, which shares the row-parsing convention
tested here.
"""

import pathlib
import sys

import pytest

from repro.experiments import all_experiment_ids

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def checker():
    sys.path.insert(0, str(_REPO_ROOT / "tools"))
    try:
        import check_experiments_docs
    finally:
        sys.path.pop(0)
    return check_experiments_docs


@pytest.fixture(scope="module")
def catalog_text():
    path = _REPO_ROOT / "docs" / "experiments.md"
    assert path.exists(), "docs/experiments.md is missing"
    return path.read_text()


def test_every_registered_id_is_documented(checker, catalog_text):
    documented = checker.documented_ids(catalog_text)
    missing = [eid for eid in all_experiment_ids() if eid not in documented]
    assert not missing, f"catalog rows missing for: {missing}"


def test_no_stale_or_duplicate_catalog_rows(checker, catalog_text):
    documented = checker.documented_ids(catalog_text)
    registered = set(all_experiment_ids())
    stale = [eid for eid in documented if eid not in registered]
    assert not stale, f"catalog documents unknown ids: {stale}"
    assert len(documented) == len(set(documented)), "duplicate catalog rows"


def test_checker_script_passes(checker, capsys):
    assert checker.main() == 0


def test_kernels_doc_check_gates_on_plan_kinds(checker, tmp_path, monkeypatch):
    """The engine page must list exactly the plan kinds the batch planner
    returns: a dropped row and a stale row are both reported."""
    text = (_REPO_ROOT / "docs" / "kernels.md").read_text()
    edited = tmp_path / "kernels.md"
    edited.write_text(
        text.replace("| `rows` |", "| `scalar` |")
    )
    monkeypatch.setattr(checker, "KERNELS_DOC", edited)
    problems = checker.check_kernels_doc()
    assert len(problems) == 2
    assert "['rows']" in problems[0] and "['scalar']" in problems[1]
