"""Multiprocess tests: concurrent appenders and a killed writer cannot
corrupt a store.

Each record goes to disk as a single ``write(2)`` on an ``O_APPEND``
descriptor, so writers in different processes may interleave *records*
but never *bytes within a record*.  The padding knob makes records a few
hundred bytes wide — big enough that buffered multi-syscall writes (the
bug this guards against) would interleave with near-certainty over a few
hundred appends.  A writer SIGKILLed mid-stream loses at most the record
in flight.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.store import ResultStore, make_record

ROOT = Path(__file__).resolve().parents[2]

_WRITERS = 4
_RECORDS_EACH = 50


def _append_records(path: str, worker: int) -> None:
    """Worker process: append records with worker-unique identities."""
    store = ResultStore(path)
    for index in range(_RECORDS_EACH):
        record = make_record(
            "a5",
            seed=worker * 10_000 + index,
            params={"pad": "x" * 400, "worker": worker},
        )
        store.put(record)


class TestConcurrentWriters:
    def test_parallel_appends_never_interleave(self, tmp_path):
        path = str(tmp_path)
        workers = [
            multiprocessing.Process(target=_append_records, args=(path, w))
            for w in range(_WRITERS)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0
        # every line is complete, valid JSON — loading emits no warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(path).load()
        assert len(store) == _WRITERS * _RECORDS_EACH
        content = store.path.read_text(encoding="utf-8")
        assert content.endswith("\n")
        for line in content.splitlines():
            json.loads(line)

    def test_writer_and_fresh_reader_agree(self, tmp_path):
        # a reader constructed mid-run sees only complete records; after a
        # reload it also sees records other handles appended meanwhile
        first = ResultStore(tmp_path)
        first.put(make_record("a5", seed=1))
        second = ResultStore(tmp_path)
        assert len(second) == 1
        first.put(make_record("a5", seed=2))
        assert len(second.load()) == 2


_INTERRUPT_SCRIPT = """
import sys
from repro.store import ResultStore, make_record

store = ResultStore(sys.argv[1])
for index in range(10_000):
    store.put(make_record("a5", seed=index, params={"pad": "y" * 200}))
    print(index, flush=True)  # parent watches acknowledged seq numbers
"""


class TestInterruptSafety:
    @pytest.mark.slow
    def test_sigkill_mid_stream_loses_at_most_the_record_in_flight(
        self, tmp_path
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _INTERRUPT_SCRIPT, str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        acknowledged = -1
        deadline = time.monotonic() + 60
        while acknowledged < 40:  # let a few dozen records land first
            line = process.stdout.readline()
            assert line, "writer exited before producing records"
            acknowledged = int(line)
            assert time.monotonic() < deadline
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        process.stdout.close()
        # recovery: the store loads, and every acknowledged record is
        # present and complete (the unacknowledged in-flight one may or
        # may not have reached disk)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a torn tail is skipped
            records = {r["seed"]: r for r in ResultStore(tmp_path).records()}
        for seed in range(acknowledged + 1):
            assert seed in records, f"acknowledged record {seed} lost"
            assert records[seed]["params"]["pad"] == "y" * 200
