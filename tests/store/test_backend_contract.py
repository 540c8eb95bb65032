"""Store contract: what the sweep, service and mutation callers rely on.

The result store is the append-only JSONL :class:`~repro.store.ResultStore`;
the cases are parametrized by its on-disk format (``jsonl``, the only one):

* roundtrip — ``put`` then ``get``/``records``/``keys`` returns the
  record unchanged, and a fresh handle reads it back from disk;
* last-wins duplicates — re-putting a key replaces the payload;
* concurrent writers — multiprocess ``put()`` stress, no corruption.
"""

import multiprocessing

import pytest

from repro.store import ResultStore, make_record

FORMATS = ("jsonl",)


def _open(tmp_path, backend):
    return ResultStore(tmp_path / backend)


@pytest.fixture(params=FORMATS)
def backend(request):
    return request.param


@pytest.fixture
def store(tmp_path, backend):
    return _open(tmp_path, backend)


class TestRoundtrip:
    def test_put_get_roundtrip(self, store):
        record = make_record("a5", seed=7, params={"x": 1.5, "name": "n"})
        store.put(record)
        assert store.get(record["key"]) is not None
        assert store.get(record["key"]) == record
        assert len(store) == 1
        assert store.records() == [record]
        assert [r["key"] for r in store.records()] == [record["key"]]

    def test_records_filter_by_experiment(self, store):
        a_record = make_record("a5", seed=1)
        b_record = make_record("a4", seed=1)
        store.put(a_record)
        store.put(b_record)
        assert store.records("a5") == [a_record]
        assert store.records("a4") == [b_record]
        assert store.records() == [a_record, b_record]

    def test_missing_key_is_absent(self, store):
        assert store.get("no-such-key") is None

    def test_reload_from_disk(self, tmp_path, backend):
        writer = _open(tmp_path, backend)
        record = make_record("a5", seed=3, params={"deep": {"nested": [1, 2]}})
        writer.put(record)
        reader = _open(tmp_path, backend)
        assert reader.get(record["key"]) == record


class TestLastWins:
    def test_duplicate_key_keeps_newest_payload(self, store):
        first = make_record("a5", seed=9)
        store.put(first)
        newer = dict(first, extra_marker="newer")
        store.put(newer)
        assert len(store) == 1
        assert store.get(first["key"]) == newer


def _stress_writer(path, worker):
    store = ResultStore(path)
    for index in range(25):
        store.put(
            make_record(
                "a5",
                seed=worker * 10_000 + index,
                params={"pad": "x" * 300, "worker": worker},
            )
        )


class TestConcurrency:
    def test_multiprocess_put_stress(self, tmp_path, backend):
        path = str(tmp_path / backend)
        ResultStore(path)  # create before forking
        workers = [
            multiprocessing.Process(target=_stress_writer, args=(path, w))
            for w in range(4)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = ResultStore(path)
        assert len(store) == 4 * 25
        for record in store.records():
            assert record["params"]["pad"] == "x" * 300
