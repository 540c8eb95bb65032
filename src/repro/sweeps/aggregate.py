"""Join stored sweep records into comparison tables.

Two shapes, matching how the paper's figures are read:

* the **summary table** — one line per stored point (id, seed, knobs,
  claim verdicts), the sweep-level analogue of the CLI's per-run summary;
* a **comparison table** for one experiment id — every stored run's result
  rows, concatenated, with ``seed`` and the knob values prepended as
  columns.  This is the long-form data behind a figure: e.g. sweep
  ``presence_prob`` over ``a2`` and the table holds one same-suite-excess
  curve per (seed, presence_prob) cell.

Rendering preserves the stored numbers bit-for-bit in ``json`` and ``csv``
formats (floats are emitted via ``repr``-stable JSON); ``text`` rounds for
the terminal like the single-run reporter does.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Sequence, Tuple

from ..errors import ModelError
from ..experiments.base import canonical_cell
from ..experiments.report import _format_table
from ..store import ResultStore
from ..store.records import canonical_json, record_result

__all__ = ["summary_table", "comparison_table", "render_table"]

Table = Tuple[List[str], List[List[object]]]


def _value_order(value: object) -> Tuple[int, object]:
    """A total order over knob values: numbers numerically, then strings,
    then everything else by canonical JSON (mixed-type axes stay sortable,
    and ``suite_size = [15, 25, 100]`` reports as 15, 25, 100 — not
    lexicographically as "100", "15", "25")."""
    if isinstance(value, bool):
        return (1, canonical_json(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    if isinstance(value, str):
        return (1, value)
    return (2, canonical_json(value))


def _sorted_records(records: Sequence[dict]) -> List[dict]:
    """Result-carrying records in deterministic report order.

    Identity-only records (no result payload) have nothing to report and
    are dropped; order is id, seed, version, then knob values (numeric
    knobs in numeric order).
    """
    return sorted(
        (record for record in records if "result" in record),
        key=lambda record: (
            record["experiment_id"],
            record["seed"],
            record["engine"],
            record["version"],
            [
                (name, _value_order(record["params"][name]))
                for name in sorted(record["params"])
            ],
        ),
    )


def _param_names(records: Sequence[dict]) -> List[str]:
    names: Dict[str, None] = {}
    for record in records:
        for name in sorted(record["params"]):
            names.setdefault(name, None)
    return list(names)


def summary_table(store: ResultStore) -> Table:
    """One row per stored point: identity, claim counts, verdict."""
    records = _sorted_records(store.records())
    if not records:
        raise ModelError(f"store {store.path} has no records to aggregate")
    param_names = _param_names(records)
    columns = (
        ["experiment", "seed", "fast", "engine", "version"]
        + param_names
        + ["claims held", "claims", "status"]
    )
    rows: List[List[object]] = []
    for record in records:
        claims = record["result"]["claims"]
        rows.append(
            [
                record["experiment_id"],
                record["seed"],
                record["fast"],
                record["engine"],
                record["version"],
            ]
            + [record["params"].get(name, "") for name in param_names]
            + [
                sum(1 for claim in claims if claim["holds"]),
                len(claims),
                "PASS" if record["result"]["passed"] else "FAIL",
            ]
        )
    return columns, rows


def comparison_table(store: ResultStore, experiment_id: str) -> Table:
    """All stored result rows for one id, keyed by seed and knob columns.

    Every stored run of ``experiment_id`` must share one table shape
    (identical result columns) — sweeping a knob that changes the shape is
    a modelling error worth failing loudly on.
    """
    records = _sorted_records(store.records(experiment_id))
    if not records:
        ids = dict.fromkeys(r["experiment_id"] for r in store.records())
        known = ", ".join(ids) or "none"
        raise ModelError(
            f"store {store.path} has no records for {experiment_id!r}; "
            f"stored ids: {known}"
        )
    result_columns = list(records[0]["result"]["columns"])
    for record in records:
        if list(record["result"]["columns"]) != result_columns:
            raise ModelError(
                f"stored runs of {experiment_id!r} disagree on result "
                f"columns: {result_columns} vs {record['result']['columns']}"
            )
    param_names = _param_names(records)
    # a store can legally hold the same point computed by several package
    # versions or engines (both are part of the cache key); when it does,
    # the rows would be indistinguishable duplicates without those columns
    extra_names = [
        name
        for name in ("engine", "version")
        if len({record[name] for record in records}) > 1
    ]
    columns = ["seed"] + extra_names + param_names + result_columns
    rows: List[List[object]] = []
    for record in records:
        prefix = [record["seed"]]
        prefix += [record[name] for name in extra_names]
        prefix += [record["params"].get(name, "") for name in param_names]
        for row in record_result(record).rows:
            rows.append(prefix + list(row))
    return columns, rows


def render_table(table: Table, fmt: str = "text") -> str:
    """Render ``(columns, rows)`` as ``text``, ``csv`` or ``json``.

    ``csv``/``json`` carry floats in shortest-round-trip form, so numbers
    read back from either format equal the stored (and hence the original
    in-process) values bit-for-bit.
    """
    columns, rows = table
    if fmt == "text":
        return _format_table(columns, rows)
    if fmt == "json":
        # decoded rows may hold real NaN/inf again; canonical_cell restores
        # the tagged-object encoding so the output stays strict JSON
        payload = {
            "columns": columns,
            "rows": [[canonical_cell(cell) for cell in row] for row in rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(cell) if isinstance(cell, float) else cell for cell in row]
            )
        return buffer.getvalue().rstrip("\n")
    raise ModelError(
        f"unknown aggregate format {fmt!r}; known: text, csv, json"
    )
