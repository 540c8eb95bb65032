"""Common result types and the run-wide worker count for experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..errors import ModelError

__all__ = [
    "Claim",
    "ExperimentResult",
    "EngineConfig",
    "canonical_cell",
    "engine_kwargs",
    "set_engine_config",
]


@dataclass(frozen=True)
class EngineConfig:
    """Monte-Carlo settings shared by every experiment in one run.

    Experiment runners keep the registry signature ``(seed, fast)``; the
    CLI's ``--n-jobs`` flag is communicated to them through this
    process-wide configuration instead, which the simulation-driven
    experiments read via :func:`engine_kwargs` and pass down to the
    ``simulate_*`` / bounds / campaign drivers.

    Attributes
    ----------
    n_jobs:
        Worker processes for chunk sharding; results are bit-identical
        for any value.
    """

    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ModelError(f"n_jobs must be >= 1, got {self.n_jobs}")


_ENGINE_CONFIG = EngineConfig()


def set_engine_config(n_jobs: int = 1) -> EngineConfig:
    """Install the run-wide configuration; returns the previous one."""
    global _ENGINE_CONFIG
    previous = _ENGINE_CONFIG
    _ENGINE_CONFIG = EngineConfig(n_jobs=n_jobs)
    return previous


def engine_kwargs() -> dict:
    """The configuration as keyword arguments for the simulation drivers."""
    return {"n_jobs": _ENGINE_CONFIG.n_jobs}


# Non-finite floats are not valid JSON; canonical payloads spell them out
# as a tagged one-key object — unambiguous because the tag key is reserved
# (canonical mappings may not use it) — so every record stays loadable by
# any strict JSON parser.
_NONFINITE_TAG = "__nonfinite__"
_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def canonical_cell(value: object):
    """A table cell (or param value) as a JSON-safe, platform-stable value.

    Floats are the delicate case: snapshots and store records must not
    churn across platforms, so every float is reduced to a Python ``float``
    whose JSON form is ``repr``-stable (the shortest round-tripping decimal
    of its IEEE-754 double — identical on every platform for the same
    bits).  NumPy scalars are converted to their Python counterparts;
    non-finite floats become tagged strings (JSON has no NaN/Infinity).
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            if math.isnan(value):
                return {_NONFINITE_TAG: "nan"}
            return {_NONFINITE_TAG: "inf" if value > 0 else "-inf"}
        return value
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return [canonical_cell(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonical_cell(item) for item in value]
    if isinstance(value, Mapping):
        if _NONFINITE_TAG in value:
            raise ModelError(
                f"mapping key {_NONFINITE_TAG!r} is reserved for tagged "
                "non-finite floats"
            )
        # key-sorted so the same mapping always produces the same insertion
        # order (and therefore the same JSON bytes); string keys only, to
        # stay within the JSON object model — precision targets and
        # adaptive metadata are the motivating payloads
        return {
            str(key): canonical_cell(value[key])
            for key in sorted(value, key=str)
        }
    raise ModelError(
        f"cannot serialize cell of type {type(value).__name__}: {value!r}"
    )


def _decode_cell(value: object):
    """Inverse of :func:`canonical_cell` for the tagged non-finite objects."""
    if (
        isinstance(value, dict)
        and len(value) == 1
        and _NONFINITE_TAG in value
        and value[_NONFINITE_TAG] in _NONFINITE
    ):
        return _NONFINITE[value[_NONFINITE_TAG]]
    if isinstance(value, dict):
        return {key: _decode_cell(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_cell(v) for v in value]
    return value


@dataclass(frozen=True)
class Claim:
    """One qualitative statement from the paper, checked against data.

    Attributes
    ----------
    description:
        The claim in plain words (quoting/paraphrasing the paper).
    holds:
        Whether the reproduction supports it.
    detail:
        The numbers behind the verdict, for the report.
    """

    description: str
    holds: bool
    detail: str = ""

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe form; ``holds`` is coerced to a plain bool so numpy
        bools (a common experiment-code slip) serialize deterministically."""
        return {
            "description": str(self.description),
            "holds": bool(self.holds),
            "detail": str(self.detail),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Claim":
        """Rebuild a claim from :meth:`to_payload` output."""
        return cls(
            description=payload["description"],
            holds=payload["holds"],
            detail=payload.get("detail", ""),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one reproduction experiment.

    Attributes
    ----------
    experiment_id:
        Registry id, e.g. ``"e07"``.
    title:
        One-line experiment description.
    paper_reference:
        Which equation/section of the paper this reproduces.
    columns:
        Header of the result table.
    rows:
        Table body; cells are formatted by the reporter (floats get
        6 significant digits).
    claims:
        The qualitative checks.
    notes:
        Free-form remarks (model sizes, replication counts, substitutions).
    extra:
        Structured machine-readable metadata beyond the table — the
        adaptive precision engine records its convergence report here
        (``extra["adaptive"]``: replications used, achieved half-widths,
        per-metric ``converged`` flags), and the sweep layer's Neyman
        allocator reads it back.  Empty for classic fixed-n runs, and
        omitted from payloads when empty, so snapshots of non-adaptive
        runs are byte-identical to earlier releases.
    """

    experiment_id: str
    title: str
    paper_reference: str
    columns: Sequence[str]
    rows: List[Sequence[object]]
    claims: List[Claim]
    notes: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True iff every claim holds."""
        return all(claim.holds for claim in self.claims)

    def claim_failures(self) -> List[Claim]:
        """The claims that did not hold (empty when :attr:`passed`)."""
        return [claim for claim in self.claims if not claim.holds]

    def to_payload(self) -> Dict[str, object]:
        """The full result as a JSON-safe, deterministic dictionary.

        This is the structured counterpart of the printed report: golden
        snapshots, the result store and the ``aggregate`` reporter all
        consume this payload.  Cells go through :func:`canonical_cell`, so
        the same result produces byte-identical JSON on every platform.
        """
        payload = {
            "experiment_id": str(self.experiment_id),
            "title": str(self.title),
            "paper_reference": str(self.paper_reference),
            "columns": [str(column) for column in self.columns],
            "rows": [[canonical_cell(cell) for cell in row] for row in self.rows],
            "claims": [claim.to_payload() for claim in self.claims],
            "notes": str(self.notes),
            "passed": bool(self.passed),
        }
        if self.extra:
            payload["extra"] = canonical_cell(self.extra)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_payload` output.

        Round-trips bit-for-bit: numeric cells come back as the exact
        floats/ints that went in (non-finite floats included).
        """
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            paper_reference=payload["paper_reference"],
            columns=list(payload["columns"]),
            rows=[[_decode_cell(cell) for cell in row] for row in payload["rows"]],
            claims=[Claim.from_payload(claim) for claim in payload["claims"]],
            notes=payload.get("notes", ""),
            extra=_decode_cell(payload.get("extra", {})),
        )
