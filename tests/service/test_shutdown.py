"""Clean-shutdown guarantee: SIGINT drains in-flight work, store stays whole.

Covers the serving layer's crash-consistency contract end to end, against
a real ``serve`` subprocess: on SIGINT the in-flight job completes and
persists, queued jobs are marked cancelled (never partially written), and
the store file contains only complete JSONL lines afterwards.
"""

import json
import os
import signal
import warnings

import pytest

from repro.service import ServiceClient
from repro.store import ResultStore

from .conftest import spawn_server, wait_until


@pytest.mark.slow
class TestSigintShutdown:
    def test_inflight_persists_queued_cancels_store_stays_whole(
        self, tmp_path
    ):
        store_dir = tmp_path / "store"
        process, url = spawn_server(store_dir, "--procs", "1")
        try:
            client = ServiceClient(url)
            # e02 (~0.6 s) occupies the single worker; a4 queues behind it
            running = client.submit("e02", seed=900, wait=False)
            queued = client.submit("a4", seed=901, wait=False)
            wait_until(
                lambda: client.job(running["id"])["state"] == "running",
                message="job never started",
            )
            client.close()
            os.kill(process.pid, signal.SIGINT)
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutdown complete" in output
        # the in-flight job completed and persisted; the queued one did not
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no partial-line warnings
            loaded = ResultStore(store_dir).load()
        keys = {record["key"] for record in loaded.records()}
        assert running["key"] in keys
        assert queued["key"] not in keys
        # every line on disk is complete, parseable JSON
        content = loaded.path.read_text(encoding="utf-8")
        assert content.endswith("\n")
        for line in content.splitlines():
            json.loads(line)
