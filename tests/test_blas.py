"""The library computes on one BLAS thread and restores the caller's count.

OpenBLAS's helper threads busy-wait after a threaded product, so a
computation that woke one keeps a second core busy that a pool worker, a
shard or the next computation would have used.  ``run_tasks`` (every
simulation driver) and ``run_experiment`` (the catalog, the CLI, service
jobs and sweeps) therefore compute inside :func:`repro._blas.one_blas_thread`.
The dense products are exact 0/1 or integer sums and the scoring slabs
stay below OpenBLAS's threading threshold, so results do not depend on it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from contextlib import contextmanager

import pytest

from repro import _blas
from repro.experiments import run_experiment
from repro.experiments.base import Claim, ExperimentResult
from repro.experiments.registry import _REGISTRY
from repro.mc.batch import run_tasks

pytestmark = pytest.mark.skipif(
    _blas._pair() is None, reason="no OpenBLAS thread-count pair is loaded"
)

#: the caller's count in these tests: neither 1 nor (usually) the default
CALLER = 3


def _threads(_task=None) -> int:
    get, _set = _blas._pair()
    return int(get())


def _raise(_task) -> None:
    raise RuntimeError("kernel failed")


def _threads_runner(seed, fast):
    return ExperimentResult(
        experiment_id="zblas",
        title="records the BLAS thread count",
        paper_reference="none",
        columns=["threads"],
        rows=[[_threads()]],
        claims=[Claim("computes on one BLAS thread", holds=_threads() == 1)],
    )


@contextmanager
def _registered(experiment_id, runner):
    _REGISTRY[experiment_id] = runner
    try:
        yield
    finally:
        del _REGISTRY[experiment_id]


@pytest.fixture()
def caller():
    """Set the caller's count to CALLER; put the process's count back after."""
    _get, set_ = _blas._pair()
    before = _threads()
    set_(CALLER)
    try:
        yield CALLER
    finally:
        set_(before)


class TestEntryPoints:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_run_tasks_kernels_read_one(self, caller, n_jobs):
        assert run_tasks(_threads, [0, 1, 2, 3], n_jobs=n_jobs) == [1, 1, 1, 1]
        assert _threads() == caller

    def test_run_tasks_restores_after_a_raise(self, caller):
        with pytest.raises(RuntimeError, match="kernel failed"):
            run_tasks(_raise, [0], n_jobs=1)
        assert _threads() == caller

    def test_run_experiment_reads_one(self, caller):
        with _registered("zblas", _threads_runner):
            result = run_experiment("zblas", seed=0)
        assert result.rows == [[1]]
        assert _threads() == caller

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the temporary experiment reaches the pool worker by fork",
    )
    def test_process_pool_service_job_reads_one(self, caller, tmp_path):
        from repro.service import JobScheduler, JobSpec, TwoTierCache
        from repro.store import ResultStore

        async def main():
            scheduler = JobScheduler(TwoTierCache(ResultStore(tmp_path)), procs=1)
            await scheduler.start()
            try:
                job = scheduler.submit(JobSpec("zblas", seed=0))
                await job.wait(timeout=120)
                assert job.state == "done", job.error
                return job.record["result"]["rows"]
            finally:
                await scheduler.close()

        with _registered("zblas", _threads_runner):
            assert asyncio.run(main()) == [[1]]
        assert _threads() == caller


class TestScope:
    def test_restores_after_return_and_raise(self, caller):
        with _blas.one_blas_thread():
            assert _threads() == 1
        assert _threads() == caller
        with pytest.raises(ValueError):
            with _blas.one_blas_thread():
                assert _threads() == 1
                raise ValueError("inside the scope")
        assert _threads() == caller

    def test_nested_scopes_restore_at_the_outermost_exit(self, caller):
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert _threads() == 1
            assert _threads() == 1
        assert _threads() == caller
        assert _blas._depth == 0

    def test_concurrent_threads_restore_after_the_last_exit(self, caller):
        entered = [threading.Event(), threading.Event()]
        first_left = threading.Event()
        inside = {}

        def first():
            with _blas.one_blas_thread():
                entered[0].set()
                assert entered[1].wait(10)
            first_left.set()

        def second():
            assert entered[0].wait(10)
            with _blas.one_blas_thread():
                entered[1].set()
                assert first_left.wait(10)
                # the first thread's exit must not restore the caller's
                # count while this one still computes
                inside["after_first_left"] = _threads()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
            assert not worker.is_alive()
        assert inside == {"after_first_left": 1}
        assert _threads() == caller
        assert _blas._depth == 0

    def test_no_pair_leaves_the_count_alone(self, caller, monkeypatch):
        get, _set = _blas._pair()
        monkeypatch.setattr(_blas, "_pair", lambda: None)
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert get() == caller
        assert get() == caller
        assert _blas._depth == 0


def _small_marginal():
    from repro.core import IndependentSuites
    from repro.demand import DemandSpace, uniform_profile
    from repro.faults import clustered_universe
    from repro.mc import simulate_marginal_system_pfd
    from repro.populations import BernoulliFaultPopulation
    from repro.testing import OperationalSuiteGenerator

    space = DemandSpace(80)
    profile = uniform_profile(space)
    universe = clustered_universe(space, n_faults=14, region_size=5, rng=0)
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    generator = OperationalSuiteGenerator(profile, 30)
    estimate = simulate_marginal_system_pfd(
        IndependentSuites(generator), population, profile,
        n_replications=2000, rng=11,
    )
    return estimate.mean, estimate.std_error()


def _same_bits_outputs():
    payloads = {
        experiment_id: run_experiment(experiment_id, seed=0, fast=False).to_payload()
        for experiment_id in ("e07", "e11", "e14", "c1")
    }
    return payloads, _small_marginal()


def test_results_are_the_same_bits_with_and_without_the_scope(monkeypatch):
    active = _same_bits_outputs()
    monkeypatch.setattr(_blas, "_pair", lambda: None)
    assert _blas._depth == 0
    inactive = _same_bits_outputs()
    assert active == inactive
