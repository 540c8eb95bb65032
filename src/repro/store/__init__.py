"""Persistent experiment-result store.

Sweeps (and any caller that wants cached experiment runs) persist results
as records keyed by a content hash of *what was run*: experiment id,
knob params, seed, fast/full mode and the package version.  Re-running the
same point is a cache hit; an interrupted sweep resumes from the last
record that reached disk.

The one store is :class:`ResultStore`: append-only JSONL, one
canonical-JSON record per line, human-greppable and diff-able.  Its path
is a directory (holding ``records.jsonl``) or an explicit ``.jsonl`` file.

>>> from repro.store import ResultStore, make_record
>>> from repro.experiments import run_experiment
>>> store = ResultStore("results")            # doctest: +SKIP
>>> record = make_record("a5", seed=0, fast=True,
...                      result=run_experiment("a5"))  # doctest: +SKIP
>>> store.put(record)                          # doctest: +SKIP
>>> record["key"] in store                     # doctest: +SKIP
True
"""

from .records import (
    cache_key,
    canonical_json,
    canonical_params,
    make_record,
    record_result,
    validate_record,
)
from .store import ResultStore

__all__ = [
    "ResultStore",
    "cache_key",
    "canonical_json",
    "canonical_params",
    "make_record",
    "record_result",
    "validate_record",
]
