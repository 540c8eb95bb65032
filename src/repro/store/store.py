"""Append-only JSONL result store with interrupt-safe resume semantics.

The on-disk format is one JSON record per line (``records.jsonl`` inside
the store directory, or any explicit ``*.jsonl`` path).  Writes are
append-and-flush, so a killed sweep loses at most the record being written
when it died; on load, a trailing partial line (the signature of that
interrupt) is skipped with a warning instead of poisoning the store, and
every complete record written before the interrupt is served as a cache
hit on resume.

Concurrent writers are safe: each record is appended as a **single
``write(2)`` on an ``O_APPEND`` descriptor**, so two processes appending
to one store cannot interleave bytes inside each other's lines — the
kernel serialises whole-buffer appends on regular files.  (The previous
implementation used buffered ``"a"``-mode writes, which can split one
logical record across several syscalls and let a concurrent writer land
in the middle.)

Duplicate keys are legal on disk (append-only stores cannot retract) and
resolve last-wins in memory, so re-running a point after a code rollback
simply shadows the older record.  Long-lived stores (e.g. behind
``repro.service``) accumulate those superseded duplicates forever;
:meth:`ResultStore.compact` rewrites the file keeping only the surviving
record per key (``tools/compact_store.py`` is the CLI for it).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ModelError
from .records import canonical_json, validate_record

__all__ = ["ResultStore"]


def _scan(content: str, origin: str) -> Tuple[Dict[str, dict], int, int]:
    """Parse a store file's content into a last-wins key index.

    Returns ``(records, parsed_lines, unreadable_lines)``.  Shared by
    :meth:`ResultStore.load` (which warns per unreadable line) and
    :meth:`ResultStore.compact` (which reports them as dropped).
    """
    records: Dict[str, dict] = {}
    parsed = 0
    unreadable = 0
    for number, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            validate_record(record)
        except (json.JSONDecodeError, ModelError) as error:
            # a partial trailing line is the normal signature of an
            # interrupted append; anything else is worth a warning too,
            # but never fatal — resume must always be possible
            unreadable += 1
            warnings.warn(
                f"{origin}:{number}: skipping unreadable record ({error})",
                stacklevel=3,
            )
            continue
        parsed += 1
        records[record["key"]] = record
    return records, parsed, unreadable


class ResultStore:
    """A persistent, resumable map from cache key to experiment record."""

    #: file name used when the store path is a directory
    RECORDS_FILE = "records.jsonl"

    def __init__(self, path: os.PathLike | str) -> None:
        path = Path(path)
        if path.suffix == ".jsonl":
            self._file = path
        elif path.exists() and not path.is_dir():
            # caught here, not at the first put() after the work is done
            raise ModelError(
                f"store path {path} is a file; a result store is a "
                f"directory or a .jsonl file"
            )
        else:
            self._file = path / self.RECORDS_FILE
        self._records: Dict[str, dict] = {}
        self._loaded = False
        self._needs_newline = False

    @property
    def path(self) -> Path:
        """The backing JSONL file."""
        return self._file

    # -- loading ---------------------------------------------------------

    def load(self) -> "ResultStore":
        """(Re)read the backing file into memory; missing file = empty store."""
        self._records = {}
        self._loaded = True
        self._needs_newline = False
        if not self._file.exists():
            return self
        with open(self._file, "r", encoding="utf-8") as handle:
            content = handle.read()
        # a file not ending in a newline has a partial trailing record (an
        # interrupted append); the next put() must start on a fresh line or
        # it would merge into the garbage and itself become unreadable
        self._needs_newline = bool(content) and not content.endswith("\n")
        self._records, _, _ = _scan(content, str(self._file))
        return self

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._records)

    def get(self, key: str) -> Optional[dict]:
        """The record under ``key``, or None."""
        self._ensure_loaded()
        return self._records.get(key)

    def records(
        self, experiment_id: Optional[str] = None
    ) -> List[dict]:
        """All records (optionally restricted to one experiment id)."""
        self._ensure_loaded()
        out = list(self._records.values())
        if experiment_id is not None:
            out = [r for r in out if r["experiment_id"] == experiment_id]
        return out

    # -- writing ---------------------------------------------------------

    def put(self, record: Mapping[str, object]) -> str:
        """Validate, append to disk, fsync, and index the record.

        Returns the record's key.  The record (plus, after an interrupted
        append, the newline terminating the partial line it left behind)
        goes to disk as one ``write(2)`` on an ``O_APPEND`` descriptor:
        concurrent writers from other processes cannot interleave inside
        it, and the fsync guarantees it survives a subsequent interrupt —
        the property the resume path relies on.
        """
        validate_record(record)
        self._ensure_loaded()
        self._file.parent.mkdir(parents=True, exist_ok=True)
        data = (canonical_json(record) + "\n").encode("utf-8")
        if self._needs_newline:
            # terminate a partial trailing record left by an interrupt
            data = b"\n" + data
        fd = os.open(
            self._file, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            written = os.write(fd, data)
            while written < len(data):  # regular files write fully in
                written += os.write(fd, data[written:])  # practice
            os.fsync(fd)
        finally:
            os.close(fd)
        self._needs_newline = False
        key = record["key"]
        self._records[key] = dict(record)
        return key

    # -- maintenance -----------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Rewrite the backing file keeping one surviving record per key.

        Drops superseded duplicates (last-wins, exactly as :meth:`load`
        resolves them) and unreadable/partial lines, preserving
        first-written key order.  The rewrite is atomic — records are
        written to a temporary sibling file, fsynced, then ``os.replace``d
        over the original — so a crash mid-compaction leaves the store
        either untouched or fully compacted, never truncated.

        Returns a stats mapping: ``records`` kept, ``dropped_duplicates``,
        ``dropped_unreadable``, ``bytes_before`` and ``bytes_after``.
        Compacting a missing store is a no-op reporting zeros.
        """
        stats = {
            "records": 0,
            "dropped_duplicates": 0,
            "dropped_unreadable": 0,
            "bytes_before": 0,
            "bytes_after": 0,
        }
        if not self._file.exists():
            self._records = {}
            self._loaded = True
            self._needs_newline = False
            return stats
        with open(self._file, "r", encoding="utf-8") as handle:
            content = handle.read()
        records, parsed, unreadable = _scan(content, str(self._file))
        lines = [canonical_json(record) + "\n" for record in records.values()]
        payload = "".join(lines).encode("utf-8")
        temporary = self._file.with_name(self._file.name + ".compact")
        fd = os.open(
            temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        try:
            written = 0
            while written < len(payload):
                written += os.write(fd, payload[written:])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temporary, self._file)
        self._records = records
        self._loaded = True
        self._needs_newline = False
        stats["records"] = len(records)
        stats["dropped_duplicates"] = parsed - len(records)
        stats["dropped_unreadable"] = unreadable
        stats["bytes_before"] = len(content.encode("utf-8"))
        stats["bytes_after"] = len(payload)
        return stats
