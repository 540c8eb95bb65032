"""The ``serve`` subcommand still accepts ``--store-backend jsonl``.

perfbench's service workload starts its shards with that flag; the only
store is JSONL, so the flag is hidden and its value unused.
"""

import signal

from repro.service import ServiceClient
from repro.store import ResultStore

from .conftest import spawn_server


def test_serve_with_store_backend_jsonl_starts_and_serves(tmp_path):
    store_dir = tmp_path / "store"
    process, url = spawn_server(store_dir, "--store-backend", "jsonl")
    try:
        with ServiceClient(url) as client:
            job = client.run("a4", seed=0)
        assert job["state"] == "done"
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
    assert ResultStore(store_dir).get(job["key"]) is not None
