#!/usr/bin/env python
"""Compact a result store: drop superseded duplicates and reclaim space.

Long-lived stores (resumed sweeps, the ``repro.service`` server) grow:
the JSONL store is append-only, so every re-run of a point adds a line
that shadows — but never removes — the previous one, and an interrupted
append can leave a partial trailing line.  This tool rewrites the store
keeping one record per key::

    PYTHONPATH=src python tools/compact_store.py --store results/
    PYTHONPATH=src python tools/compact_store.py --store results/ --dry-run

Safe to run while readers are open (they see either the old or the new
state), but not while another process is appending to the store — a
record written between the read and the ``os.replace`` would be lost.
Stop writers (or the server) first.
"""

from __future__ import annotations

import argparse
import sys
import warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compact a result store: drop superseded duplicate "
        "keys and unreadable/partial lines."
    )
    parser.add_argument(
        "--store",
        default="results",
        metavar="PATH",
        help="store directory or .jsonl file (default: results/)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what compaction would drop without rewriting",
    )
    args = parser.parse_args(argv)

    from repro.errors import ModelError
    from repro.store import ResultStore
    from repro.store.store import _scan

    try:
        store = ResultStore(args.store)
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not store.path.exists():
        print(f"no store at {store.path}; nothing to compact")
        return 0
    if args.dry_run:
        content = store.path.read_text(encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records, parsed, unreadable = _scan(content, str(store.path))
        print(
            f"{store.path}: {len(records)} records would survive "
            f"({parsed - len(records)} superseded duplicates and "
            f"{unreadable} unreadable lines would be dropped; dry run)"
        )
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = store.compact()
    saved = stats["bytes_before"] - stats["bytes_after"]
    print(
        f"{store.path}: kept {stats['records']} records, dropped "
        f"{stats['dropped_duplicates']} superseded duplicates and "
        f"{stats['dropped_unreadable']} unreadable lines "
        f"({stats['bytes_before']} -> {stats['bytes_after']} bytes, "
        f"{saved} saved)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
