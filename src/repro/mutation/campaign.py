"""Sandboxed mutation campaigns with store-backed resume.

A campaign takes a :class:`~repro.mutation.targets.TargetProgram`,
generates its mutants, and executes the target's pytest suite against
each mutant **in a subprocess** with a wall-clock timeout (mutants of
loop bounds routinely diverge).  Each finished mutant becomes one record
in a :class:`~repro.store.ResultStore`, keyed by the campaign identity —
target content hashes, mutant id, mutator version and timeout — so an
interrupted campaign resumes by executing only the mutants the store
does not already hold, exactly like a sweep.

Sandboxing: every pytest run happens in a throwaway directory containing
only the (possibly mutated) target module, the judging tests, their
support files and a standalone driver script.  The driver runs with
``cwd`` set to that directory and ``PYTHONPATH`` pointing only at it, so
the repo's own ``pyproject.toml`` (and its ``pythonpath = ["src"]``
pytest setting) can never shadow the mutated module with the installed
one.

Records are deterministic: no timestamps or durations are stored, so a
committed campaign store is a reproducible artifact (wall-clock numbers
live only in the in-memory :class:`CampaignReport`).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import ModelError
from .mutants import MUTATOR_VERSION, Mutant, generate_mutants
from .targets import TargetProgram

if TYPE_CHECKING:  # runtime import is deferred: repro.store's __init__
    # imports repro.experiments (via records.py), which imports this
    # module — a module-level store import here closes that cycle and
    # breaks ``import repro.store`` as a process's first repro import
    from ..store import ResultStore

__all__ = [
    "MutantOutcome",
    "CampaignReport",
    "MutationCampaign",
    "load_outcomes",
]

_DRIVER_NAME = "_mutation_driver.py"
_BASELINE_ID = "baseline"

#: statuses counted as detected when a mutant's suite run never produced
#: per-test outcomes (a diverging or crashing mutant is a caught mutant)
_FATAL_STATUSES = ("timeout", "error")


@dataclass(frozen=True)
class MutantOutcome:
    """The judged result of one mutant's suite run.

    ``tests`` maps every baseline test nodeid to the outcome it produced
    against this mutant (``passed`` / ``failed`` / ``error`` /
    ``missing`` — the last when the mutant made the test disappear from
    collection).  ``detected`` counts the nodeids that did not pass;
    for ``timeout``/``error`` statuses the whole suite counts as
    detecting (the mutant observably broke execution).
    """

    mutant_id: str
    operator: str
    lineno: int
    description: str
    status: str  # killed | survived | timeout | error
    detected: int
    n_tests: int
    tests: Mapping[str, str]

    def to_payload(self) -> Dict[str, object]:
        return {
            "mutant_id": self.mutant_id,
            "operator": self.operator,
            "lineno": self.lineno,
            "description": self.description,
            "status": self.status,
            "detected": self.detected,
            "n_tests": self.n_tests,
            "tests": dict(sorted(self.tests.items())),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "MutantOutcome":
        return cls(
            mutant_id=str(payload["mutant_id"]),
            operator=str(payload["operator"]),
            lineno=int(payload["lineno"]),
            description=str(payload["description"]),
            status=str(payload["status"]),
            detected=int(payload["detected"]),
            n_tests=int(payload["n_tests"]),
            tests=dict(payload["tests"]),
        )


@dataclass
class CampaignReport:
    """Summary of one :meth:`MutationCampaign.run` invocation."""

    target: str
    total: int
    executed: int
    cached: int
    killed: int
    survived: int
    timeouts: int
    errors: int
    n_tests: int
    outcomes: List[MutantOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def mutation_score(self) -> float:
        """Fraction of mutants detected by at least one test."""
        if self.total == 0:
            return 0.0
        return (self.total - self.survived) / self.total


def _suite_outcome(
    mutant: Mutant,
    status: str,
    baseline_ids: Tuple[str, ...],
    tests: Optional[Mapping[str, str]] = None,
) -> MutantOutcome:
    n_tests = len(baseline_ids)
    if status in _FATAL_STATUSES:
        full = {nodeid: status for nodeid in baseline_ids}
        detected = n_tests
    else:
        observed = dict(tests or {})
        full = {
            nodeid: observed.get(nodeid, "missing") for nodeid in baseline_ids
        }
        detected = sum(1 for outcome in full.values() if outcome != "passed")
        status = "killed" if detected else "survived"
    return MutantOutcome(
        mutant_id=mutant.mutant_id,
        operator=mutant.mutation.operator,
        lineno=mutant.mutation.lineno,
        description=mutant.mutation.description,
        status=status,
        detected=detected,
        n_tests=n_tests,
        tests=full,
    )


class MutationCampaign:
    """Run a target's test suite against every mutant, resumably."""

    def __init__(
        self,
        target: TargetProgram,
        store: ResultStore,
        timeout: float = 20.0,
        max_mutants: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if timeout <= 0:
            raise ModelError(f"timeout must be positive, got {timeout}")
        self.target = target
        self.store = store
        self.timeout = float(timeout)
        self.max_mutants = max_mutants
        self.seed = int(seed)
        self._mutants: Optional[List[Mutant]] = None

    # -- identity --------------------------------------------------------

    @property
    def experiment_id(self) -> str:
        return f"mutation:{self.target.name}"

    @property
    def mutants(self) -> List[Mutant]:
        if self._mutants is None:
            self._mutants = generate_mutants(
                self.target.source, max_mutants=self.max_mutants, seed=self.seed
            )
        return self._mutants

    def _identity_params(self, mutant_id: str) -> Dict[str, object]:
        """The cache identity of one unit of campaign work.

        Deliberately excludes ``max_mutants`` and the subsampling seed:
        a mutant id names the same rewrite regardless of how the
        campaign sampled it, so differently-capped campaigns share
        cached outcomes.
        """
        return {
            "mutant": mutant_id,
            "program_sha": self.target.source_sha,
            "tests_sha": self.target.tests_sha,
            "timeout": self.timeout,
            "mutator": MUTATOR_VERSION,
        }

    def _record_for(
        self, mutant_id: str, outcome: Optional[MutantOutcome]
    ) -> Dict[str, object]:
        from ..store.records import _identity

        record = _identity(
            self.experiment_id,
            # pinned, not self.seed: the seed only picks the subsample,
            # never a mutant's outcome, so a pilot campaign under one
            # seed must hit the cache of a full campaign under another
            seed=0,
            fast=True,
            params=self._identity_params(mutant_id),
            version=MUTATOR_VERSION,
            tag="mutation",
        )
        if outcome is not None:
            record["mutation"] = outcome.to_payload()
        return record

    def _cached(self, mutant_id: str) -> Optional[Dict[str, object]]:
        record = self.store.get(self._record_for(mutant_id, None)["key"])
        if record is not None and "mutation" in record:
            return record
        return None

    def partition(self) -> Tuple[List[str], List[str]]:
        """(already-stored, pending) mutant ids for this campaign."""
        done: List[str] = []
        pending: List[str] = []
        for mutant in self.mutants:
            if self._cached(mutant.mutant_id) is not None:
                done.append(mutant.mutant_id)
            else:
                pending.append(mutant.mutant_id)
        return done, pending

    # -- sandbox ---------------------------------------------------------

    def _install_sandbox(self, sandbox: Path) -> None:
        """Copy the immutable pieces: driver, tests, support, package."""
        driver_source = Path(__file__).with_name("_driver.py")
        (sandbox / _DRIVER_NAME).write_text(
            driver_source.read_text(encoding="utf-8"), encoding="utf-8"
        )
        for path in (*self.target.test_paths, *self.target.support_paths):
            shutil.copy(path, sandbox / path.name)
        if self.target.package_root is not None:
            top_package = self.target.module.split(".")[0]
            shutil.copytree(
                self.target.package_root / top_package,
                sandbox / top_package,
                ignore=shutil.ignore_patterns("__pycache__"),
            )

    def _module_file(self, sandbox: Path) -> Path:
        if self.target.package_root is None:
            return sandbox / f"{self.target.module}.py"
        parts = self.target.module.split(".")
        return sandbox.joinpath(*parts[:-1]) / f"{parts[-1]}.py"

    def _run_suite(
        self, sandbox: Path, source: str
    ) -> Tuple[str, Dict[str, str]]:
        """Install ``source`` as the target module and run the suite.

        Returns ``(status, tests)`` where status is ``"ok"`` (the driver
        produced per-test outcomes), ``"timeout"`` or ``"error"``.
        """
        self._module_file(sandbox).write_text(source, encoding="utf-8")
        out_path = sandbox / "out.json"
        if out_path.exists():
            out_path.unlink()
        command = [
            sys.executable,
            _DRIVER_NAME,
            "out.json",
            *(path.name for path in self.target.test_paths),
        ]
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(sandbox),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
            "HOME": str(sandbox),
        }
        try:
            subprocess.run(
                command,
                cwd=sandbox,
                env=env,
                timeout=self.timeout,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=False,
            )
        except subprocess.TimeoutExpired:
            return "timeout", {}
        if not out_path.exists():
            return "error", {}
        try:
            payload = json.loads(out_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return "error", {}
        tests = {str(k): str(v) for k, v in payload.get("tests", {}).items()}
        if not tests:
            # nonzero collection: the mutant broke import or collection
            return "error", {}
        return "ok", tests

    def _baseline_ids(self, sandbox: Path) -> Tuple[str, ...]:
        """Run the unmutated program; require a fully green suite."""
        cached = self._cached(_BASELINE_ID)
        if cached is not None:
            return tuple(sorted(cached["mutation"]["tests"]))
        status, tests = self._run_suite(sandbox, self.target.source)
        if status != "ok":
            raise ModelError(
                f"target {self.target.name!r}: baseline suite run "
                f"{'timed out' if status == 'timeout' else 'failed to produce results'}"
            )
        failing = sorted(n for n, o in tests.items() if o != "passed")
        if failing:
            raise ModelError(
                f"target {self.target.name!r}: baseline suite is not green "
                f"({len(failing)} failing: {', '.join(failing[:5])})"
            )
        baseline = MutantOutcome(
            mutant_id=_BASELINE_ID,
            operator="none",
            lineno=0,
            description="unmutated program",
            status="baseline",
            detected=0,
            n_tests=len(tests),
            tests=tests,
        )
        self.store.put(self._record_for(_BASELINE_ID, baseline))
        return tuple(sorted(tests))

    # -- the campaign ----------------------------------------------------

    def run(
        self,
        on_mutant: Optional[Callable[[MutantOutcome, bool], None]] = None,
    ) -> CampaignReport:
        """Execute (or resume) the campaign.

        ``on_mutant(outcome, was_cached)`` is called after every mutant,
        cached or fresh — a progress hook for the CLI.  Interrupting the
        run (SIGINT) between or during mutants loses at most the mutant
        in flight; everything already stored is served from cache on the
        next call.
        """
        start = time.monotonic()
        mutants = self.mutants
        report = CampaignReport(
            target=self.target.name,
            total=len(mutants),
            executed=0,
            cached=0,
            killed=0,
            survived=0,
            timeouts=0,
            errors=0,
            n_tests=0,
        )
        with tempfile.TemporaryDirectory(prefix="repro-mutation-") as tmp:
            sandbox = Path(tmp)
            self._install_sandbox(sandbox)
            baseline_ids = self._baseline_ids(sandbox)
            report.n_tests = len(baseline_ids)
            for mutant in mutants:
                cached = self._cached(mutant.mutant_id)
                if cached is not None:
                    outcome = MutantOutcome.from_payload(cached["mutation"])
                    report.cached += 1
                else:
                    status, tests = self._run_suite(sandbox, mutant.source)
                    outcome = _suite_outcome(
                        mutant, status, baseline_ids, tests
                    )
                    self.store.put(
                        self._record_for(mutant.mutant_id, outcome)
                    )
                    report.executed += 1
                report.outcomes.append(outcome)
                if outcome.status == "killed":
                    report.killed += 1
                elif outcome.status == "survived":
                    report.survived += 1
                elif outcome.status == "timeout":
                    report.timeouts += 1
                elif outcome.status == "error":
                    report.errors += 1
                if on_mutant is not None:
                    on_mutant(outcome, cached is not None)
        report.elapsed_seconds = time.monotonic() - start
        return report


def load_outcomes(
    store: ResultStore, target: TargetProgram
) -> List[MutantOutcome]:
    """All stored mutant outcomes for ``target``'s current content.

    Returns outcomes sorted by mutant id, excluding the baseline record.
    Records whose identity hashes disagree with the target's current
    source or tests are ignored (they describe a different program).
    """
    outcomes: List[MutantOutcome] = []
    for record in store.records(f"mutation:{target.name}"):
        params = record.get("params", {})
        if params.get("program_sha") != target.source_sha:
            continue
        if params.get("tests_sha") != target.tests_sha:
            continue
        if params.get("mutator") != MUTATOR_VERSION:
            continue
        if "mutation" not in record or params.get("mutant") == _BASELINE_ID:
            continue
        outcomes.append(MutantOutcome.from_payload(record["mutation"]))
    return sorted(outcomes, key=lambda outcome: outcome.mutant_id)
