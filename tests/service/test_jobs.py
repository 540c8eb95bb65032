"""Tests for the async job scheduler: coalescing, priorities, lifecycle.

Most tests run the scheduler in thread mode (``procs=0`` — no
subprocesses, millisecond experiments); one end-to-end test covers the
process-pool mode including adaptive progress streaming.
"""

import asyncio

import pytest

from repro.errors import ModelError
from repro.service import (
    JobScheduler,
    JobSpec,
    QueueFullError,
    ServiceError,
    TwoTierCache,
)
from repro.store import ResultStore

from .conftest import await_until, wait_job_state


def run(coroutine):
    return asyncio.run(coroutine)


async def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("procs", 0)
    cache = TwoTierCache(ResultStore(tmp_path))
    scheduler = JobScheduler(cache, **kwargs)
    await scheduler.start()
    return scheduler


async def _wait_running(job, timeout=30.0):
    await wait_job_state(job, "running", timeout=timeout)


class TestJobSpec:
    def test_cache_key_matches_sweep_identity(self):
        from repro.store.records import cache_key

        spec = JobSpec("a4", seed=3, params=(("n_versions", 5),))
        assert spec.cache_key() == cache_key(
            "a4", 3, True, {"n_versions": 5}
        )

    def test_from_request_validates_id_with_suggestion(self):
        with pytest.raises(ModelError, match="did you mean"):
            JobSpec.from_request({"experiment_id": "e21"})

    def test_from_request_validates_knobs(self):
        with pytest.raises(ModelError, match="supported knobs"):
            JobSpec.from_request({"experiment_id": "a4", "params": {"nope": 1}})

    def test_from_request_rejects_stray_fields(self):
        with pytest.raises(ModelError, match="unknown request field"):
            JobSpec.from_request({"experiment_id": "a4", "bogus": 1})

    def test_from_request_type_errors(self):
        with pytest.raises(ModelError, match="seed must be an integer"):
            JobSpec.from_request({"experiment_id": "a4", "seed": "zero"})
        with pytest.raises(ModelError, match="seed must be an integer"):
            JobSpec.from_request({"experiment_id": "a4", "seed": True})
        with pytest.raises(ModelError, match="fast must be a boolean"):
            JobSpec.from_request({"experiment_id": "a4", "fast": "yes"})
        with pytest.raises(ModelError, match="body must be a JSON object"):
            JobSpec.from_request(["a4"])

    def test_engine_and_n_jobs_validation(self):
        # engine is no longer a spec field or a request field
        with pytest.raises(TypeError, match="engine"):
            JobSpec("a4", engine="warp")
        with pytest.raises(ModelError, match=r"unknown request field\(s\): \['engine'\]"):
            JobSpec.from_request({"experiment_id": "a4", "engine": "auto"})
        with pytest.raises(ModelError, match="n_jobs"):
            JobSpec("a4", n_jobs=0)


class TestScheduler:
    def test_compute_then_cache_then_store(self, tmp_path):
        async def main():
            scheduler = await _scheduler(tmp_path)
            spec = JobSpec("a4", seed=5)
            job = await (scheduler.submit(spec)).wait(timeout=60)
            assert job.state == "done"
            assert job.source == "computed"
            assert job.record["result"]["passed"] is True
            # same spec again: memory hit, already done at submit time
            warm = scheduler.submit(spec)
            assert warm.done and warm.cached and warm.source == "memory"
            await scheduler.close()
            # a fresh scheduler over the same store serves from disk
            scheduler = await _scheduler(tmp_path)
            cold_start = scheduler.submit(spec)
            assert cold_start.cached and cold_start.source == "store"
            await scheduler.close()

        run(main())

    def test_identical_requests_coalesce_to_one_computation(self, tmp_path):
        async def main():
            scheduler = await _scheduler(tmp_path)
            spec = JobSpec("a4", seed=42)
            jobs = [scheduler.submit(spec) for _ in range(8)]
            assert len({job.id for job in jobs}) == 1
            await jobs[0].wait(timeout=60)
            assert jobs[0].coalesced == 7
            assert scheduler.metrics_snapshot()["jobs"]["completed"] == 1
            assert scheduler.metrics_snapshot()["jobs"]["coalesced"] == 7
            await scheduler.close()

        run(main())

    def test_priorities_pop_before_fifo(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path)
            blocker = scheduler.submit(JobSpec("e07", seed=11))
            await _wait_running(blocker)
            low = scheduler.submit(JobSpec("a4", seed=1), priority=0)
            high = scheduler.submit(JobSpec("a4", seed=2), priority=5)
            gate.set()
            await low.wait(timeout=60)
            await high.wait(timeout=60)
            assert high.finished < low.finished
            await scheduler.close()

        run(main())

    def test_coalesced_caller_escalates_queued_priority(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path)
            blocker = scheduler.submit(JobSpec("e07", seed=16))
            await _wait_running(blocker)
            shared = scheduler.submit(JobSpec("a4", seed=10), priority=0)
            other = scheduler.submit(JobSpec("a4", seed=11), priority=3)
            again = scheduler.submit(JobSpec("a4", seed=10), priority=9)
            assert again is shared
            assert shared.priority == 9  # escalated by the coalesced caller
            gate.set()
            await shared.wait(timeout=60)
            await other.wait(timeout=60)
            assert shared.finished < other.finished
            await scheduler.close()

        run(main())

    def test_cancel_queued_but_not_running(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path)
            blocker = scheduler.submit(JobSpec("e07", seed=12))
            await _wait_running(blocker)
            queued = scheduler.submit(JobSpec("a4", seed=3))
            assert scheduler.cancel(queued.id) is True
            assert queued.state == "cancelled"
            assert scheduler.cancel(blocker.id) is False
            assert scheduler.cancel("job-999999") is False
            gate.set()
            await blocker.wait(timeout=60)
            await scheduler.close()
            # the cancelled job never reached the store
            store = ResultStore(tmp_path).load()
            assert queued.key not in store
            assert blocker.key in store

        run(main())

    def test_cancelled_key_can_be_resubmitted(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path)
            blocker = scheduler.submit(JobSpec("e07", seed=13))
            await _wait_running(blocker)
            first = scheduler.submit(JobSpec("a4", seed=4))
            scheduler.cancel(first.id)
            second = scheduler.submit(JobSpec("a4", seed=4))
            assert second.id != first.id
            gate.set()
            await second.wait(timeout=60)
            assert second.state == "done"
            await scheduler.close()

        run(main())

    def test_bounded_queue_rejects_with_429(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path, queue_limit=2)
            blocker = scheduler.submit(JobSpec("e07", seed=14))
            await _wait_running(blocker)
            scheduler.submit(JobSpec("a4", seed=5))
            scheduler.submit(JobSpec("a4", seed=6))
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(JobSpec("a4", seed=7))
            assert excinfo.value.status == 429
            assert scheduler.metrics_snapshot()["jobs"]["rejected"] == 1
            gate.set()
            await scheduler.close()

        run(main())

    def test_failed_job_reports_error(self, tmp_path):
        async def main():
            scheduler = await _scheduler(tmp_path)
            job = scheduler.submit(
                JobSpec("x3", seed=0, params=(("suite_size", -5),))
            )
            await job.wait(timeout=60)
            assert job.state == "failed"
            assert "suite size must be >= 0" in job.error
            assert scheduler.metrics_snapshot()["jobs"]["failed"] == 1
            # a failed key is not cached; resubmitting retries
            retry = scheduler.submit(
                JobSpec("x3", seed=0, params=(("suite_size", -5),))
            )
            assert retry.id != job.id
            await retry.wait(timeout=60)
            await scheduler.close()

        run(main())

    def test_close_drains_running_and_cancels_queued(self, tmp_path, hold):
        gate = hold("e07")

        async def main():
            scheduler = await _scheduler(tmp_path)
            running = scheduler.submit(JobSpec("e07", seed=15))
            await _wait_running(running)
            queued = scheduler.submit(JobSpec("a4", seed=8))
            # release the running job only once close() has cancelled the
            # queue, so the queued job cannot take the freed slot first
            closing = asyncio.create_task(scheduler.close())
            await wait_job_state(queued, "cancelled")
            gate.set()
            await closing
            assert running.state == "done"
            assert queued.state == "cancelled"
            with pytest.raises(ServiceError) as excinfo:
                scheduler.submit(JobSpec("a4", seed=9))
            assert excinfo.value.status == 503
            store = ResultStore(tmp_path).load()
            assert running.key in store
            assert queued.key not in store

        run(main())

    def test_payload_shape(self, tmp_path):
        async def main():
            scheduler = await _scheduler(tmp_path)
            job = scheduler.submit(JobSpec("a4", seed=20))
            await job.wait(timeout=60)
            payload = job.to_payload(include_record=True)
            assert payload["state"] == "done"
            assert payload["experiment_id"] == "a4"
            assert payload["duration_seconds"] >= 0.0
            assert payload["record"]["key"] == job.key
            snapshot = scheduler.metrics_snapshot()
            assert snapshot["jobs"]["completed"] == 1
            assert snapshot["compute_seconds"]["count"] == 1
            assert snapshot["cache"]["store_records"] == 1
            await scheduler.close()

        run(main())

    def test_constructor_validation(self):
        with pytest.raises(ModelError, match="procs"):
            JobScheduler(procs=-1)
        with pytest.raises(ModelError, match="queue_limit"):
            JobScheduler(queue_limit=0)


class TestProcessMode:
    def test_process_pool_job_streams_adaptive_progress(self, tmp_path):
        async def main():
            scheduler = await _scheduler(tmp_path, procs=1)
            spec = JobSpec(
                "e01",
                seed=0,
                params=(("precision", {"rel_hw": 0.05, "budget": 20000}),),
            )
            job = scheduler.submit(spec)
            await job.wait(timeout=180)
            assert job.state == "done"
            # progress events may still be in the manager queue right
            # after completion; give the drain task a few beats
            await await_until(
                lambda: job.progress_history,
                timeout=10.0,
                message="no adaptive rounds streamed",
            )
            latest = job.progress
            assert latest["round"] >= 1
            metric = next(iter(latest["metrics"].values()))
            assert metric["replications"] > 0
            assert "half_width" in metric
            adaptive = job.record["result"]["extra"]["adaptive"]
            assert adaptive  # the report also reached the stored record
            await scheduler.close()

        run(main())
