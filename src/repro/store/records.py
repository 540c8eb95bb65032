"""Record schema, canonical JSON and cache keys for the result store.

A *record* is one completed experiment run:

.. code-block:: json

    {
      "key":           "<sha256 of the run identity>",
      "experiment_id": "a2",
      "seed":          0,
      "fast":          true,
      "params":        {"presence_prob": 0.3},
      "engine":        "auto",
      "version":       "1.0.0",
      "result":        { ... ExperimentResult.to_payload() ... }
    }

The **cache key** hashes the run *identity* — ``(experiment_id, params,
seed, fast, version)`` plus the constant ``engine`` field, which earlier
releases let vary — never the result, so a stored record answers "has
this exact point already been computed by this code?".  Identity fields are
serialized with :func:`canonical_json` (sorted keys, no whitespace,
``repr``-stable floats), which makes the key independent of dict insertion
order and of the platform the hash is computed on.

Records carry no timestamps: the same run produces byte-identical records
everywhere, so stores themselves are reproducible artifacts and golden
tests can diff them directly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

from .._version import __version__
from ..errors import ModelError
from ..experiments.base import ExperimentResult, canonical_cell

__all__ = [
    "cache_key",
    "canonical_json",
    "canonical_params",
    "make_record",
    "record_result",
    "validate_record",
]

#: the ``engine`` identity field of every experiment record: constant
#: since the Monte-Carlo drivers have one engine, so the keys of runs
#: stored when it was the default still hit
_ENGINE = "auto"

_REQUIRED_FIELDS = (
    "key",
    "experiment_id",
    "seed",
    "fast",
    "params",
    "engine",
    "version",
)


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, compact separators, strict floats.

    ``allow_nan=False`` forces non-finite floats to be tagged up front (via
    :func:`~repro.experiments.base.canonical_cell`) instead of leaking the
    non-standard ``NaN``/``Infinity`` literals into records.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_params(params: Optional[Mapping[str, object]]) -> Dict[str, object]:
    """Knob params as a JSON-safe dict (numpy scalars and sequences included)."""
    if not params:
        return {}
    return {str(name): canonical_cell(value) for name, value in params.items()}


def cache_key(
    experiment_id: str,
    seed: int = 0,
    fast: bool = True,
    params: Optional[Mapping[str, object]] = None,
    version: str = __version__,
) -> str:
    """The content hash identifying one sweep point.

    Two calls with the same identity produce the same key regardless of the
    ``params`` dict's insertion order; any change to the experiment id, a
    knob value, the seed, the mode or the package version changes the key
    (so results computed by older code are never served as cache hits).
    ``n_jobs`` is deliberately *not* part of the identity: results are
    bit-identical for any worker count.
    """
    return _identity(experiment_id, seed, fast, params, version)["key"]


def _identity(
    experiment_id, seed, fast, params, version, tag: str = _ENGINE
) -> Dict[str, object]:
    """A record's identity fields under their ``key``.

    ``tag`` fills the ``engine`` field: the constant ``"auto"`` for
    experiment runs, ``"mutation"`` for mutation-campaign records, and
    whatever a record written when the engine was a choice holds, so its
    stored key still validates.
    """
    identity: Dict[str, object] = {
        "experiment_id": str(experiment_id),
        "seed": int(seed),
        "fast": bool(fast),
        "params": canonical_params(params),
        "engine": str(tag),
        "version": str(version),
    }
    key = hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()
    return {"key": key, **identity}


def make_record(
    experiment_id: str,
    seed: int = 0,
    fast: bool = True,
    params: Optional[Mapping[str, object]] = None,
    result: Optional[ExperimentResult] = None,
    version: str = __version__,
) -> Dict[str, object]:
    """Build a store record for one completed run."""
    record = _identity(experiment_id, seed, fast, params, version)
    if result is not None:
        if result.experiment_id != experiment_id:
            raise ModelError(
                f"record for {experiment_id!r} given a result of "
                f"{result.experiment_id!r}"
            )
        record["result"] = result.to_payload()
    return record


def record_result(record: Mapping[str, object]) -> ExperimentResult:
    """The stored :class:`ExperimentResult`, rebuilt bit-for-bit."""
    try:
        payload = record["result"]
    except KeyError:
        raise ModelError(
            f"record {record.get('key', '<unkeyed>')!r} has no result payload"
        ) from None
    return ExperimentResult.from_payload(payload)


def validate_record(record: Mapping[str, object]) -> None:
    """Check the record schema and that the key matches the identity fields.

    Raises
    ------
    ModelError
        For missing fields or a key that does not hash the record's own
        identity (a corrupted or hand-edited store line).
    """
    missing = [field for field in _REQUIRED_FIELDS if field not in record]
    if missing:
        raise ModelError(f"record is missing field(s): {', '.join(missing)}")
    expected = _identity(
        record["experiment_id"],
        record["seed"],
        record["fast"],
        record["params"],
        record["version"],
        record["engine"],
    )["key"]
    if record["key"] != expected:
        raise ModelError(
            f"record key {record['key']!r} does not match its identity "
            f"(expected {expected!r})"
        )
