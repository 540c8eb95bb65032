"""Async job scheduler: priority queue, coalescing, process-pool workers.

The serving core.  A :class:`JobScheduler` accepts :class:`JobSpec`
submissions on the event loop and resolves each one along the cheapest
path available:

1. **cache** — the spec's cache key (identical to ``repro.store``'s sweep
   key) is already in the :class:`~repro.service.cache.TwoTierCache`: a
   completed :class:`Job` is returned immediately, no worker touched;
2. **coalescing** — an identical request (same cache key) is already
   queued or running: the caller is attached to *that* job, so N
   concurrent identical requests cost exactly one computation;
3. **compute** — the job enters a bounded priority queue (higher
   ``priority`` pops first, FIFO within a priority) and runs on a worker
   — a process from a :class:`~concurrent.futures.ProcessPoolExecutor`
   (``procs >= 1``), or a single in-process thread (``procs = 0``, the
   test- and notebook-friendly mode).  Completed records persist through
   the cache into the store *before* the job is marked done, so a crash
   after completion can never have acknowledged an unpersisted result.

Experiments run under the adaptive precision engine (a ``precision``
knob in ``params``) stream convergence progress back into
:attr:`Job.progress`: the worker installs
:func:`repro.adaptive.set_round_observer` and forwards each round's
payload — via a manager queue from worker processes, or directly from the
worker thread.

Cancellation is honest about what a process pool can do: a *queued* job
cancels immediately; a *running* job cannot be preempted mid-computation
(:meth:`JobScheduler.cancel` returns False) — its result is persisted so
the spent work at least warms the cache.  :meth:`JobScheduler.close`
drains the same way: queued jobs are marked cancelled, in-flight jobs
complete and persist.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import signal
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .._version import __version__
from ..errors import ModelError

# the package import (not .registry directly) so worker processes register
# the experiment modules before running their job
from ..experiments import run_experiment, validate_params
from ..experiments.__main__ import validate_ids
from ..experiments.base import canonical_cell, set_engine_config
from ..obs import (
    TraceContext,
    capture_spans,
    collect_timings,
    current_trace,
    emit_span,
    emit_span_record,
    get_logger,
    set_trace_context,
    span,
)
from ..obs.metrics import (
    MetricsRegistry,
    histogram_summary,
    set_default_registry,
)
from ..store.records import cache_key, canonical_params, make_record
from .cache import TwoTierCache
from .errors import QueueFullError, ServiceError

_log = get_logger("repro.service.jobs")

__all__ = [
    "Job",
    "JobScheduler",
    "JobSpec",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: finished jobs kept in the history index for ``GET /jobs/<id>``
_MAX_FINISHED = 4096

#: progress payloads retained per job (newest last)
_MAX_PROGRESS_HISTORY = 50


# ---------------------------------------------------------------------------
# worker kernel (module level: process pools must pickle it)
# ---------------------------------------------------------------------------

_PROGRESS_QUEUE = None  # set per worker process by _worker_init

#: sentinel the scheduler pushes through the progress queue at close so
#: the blocking drain thread wakes up and exits
_PROGRESS_STOP = "__progress_stop__"

#: ``(job_id, experiment_id, seed, fast, params, n_jobs, trace_id,
#: parent_span_id)`` — the last two are None untraced
_JobTask = Tuple[
    str,
    str,
    int,
    bool,
    Tuple[Tuple[str, object], ...],
    int,
    Optional[str],
    Optional[str],
]


def _worker_init(progress_queue) -> None:
    """Process-pool initializer: progress pipe + SIGINT immunity.

    Workers ignore SIGINT so a Ctrl-C aimed at the server (delivered to
    the whole foreground process group) cannot kill a worker mid-job; the
    parent decides how to drain.
    """
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = progress_queue
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _process_progress_put(item) -> None:
    if _PROGRESS_QUEUE is not None:
        _PROGRESS_QUEUE.put_nowait(item)


def _execute_job(
    task: _JobTask, progress_put: Optional[Callable] = None
) -> Tuple[dict, dict]:
    """Run one job in a worker; returns ``(store_record, obs_payload)``.

    Installs the job's worker count and a round observer for the
    duration of the run.  In a pool worker that state is private to the
    worker; on the thread path the previous values are restored afterwards
    (the observer is thread-local, so concurrent thread jobs cannot cross).
    Progress delivery is fire-and-forget: a dead progress pipe (e.g. during
    shutdown) never fails the computation.

    ``obs_payload`` carries the run's observability freight home over the
    result channel: the spans recorded worker-side (the parent re-emits
    them, so the trace tree connects across the process boundary), a
    snapshot of a fresh per-job metrics registry (the parent merges it —
    the worker→parent aggregation path), and the phase-timing breakdown.
    """
    (
        job_id,
        experiment_id,
        seed,
        fast,
        params,
        n_jobs,
        trace_id,
        parent_span_id,
    ) = task
    if progress_put is None:
        progress_put = _process_progress_put
    from ..adaptive.controller import set_round_observer

    def observe(payload) -> None:
        try:
            progress_put((job_id, payload))
        except Exception:
            pass

    trace = (
        TraceContext(trace_id, parent_span_id)
        if trace_id and parent_span_id
        else None
    )
    job_registry = MetricsRegistry()
    previous_registry = set_default_registry(job_registry)
    previous_trace = set_trace_context(trace)
    previous_config = set_engine_config(n_jobs=n_jobs)
    previous_observer = set_round_observer(observe)
    try:
        with capture_spans(exclusive=True) as spans, \
                collect_timings() as timer:
            with span(
                "job.execute",
                job_id=job_id,
                experiment_id=experiment_id,
            ):
                result = run_experiment(
                    experiment_id, seed=seed, fast=fast, params=dict(params)
                )
        timings = timer.payload(n_jobs=n_jobs)
    finally:
        set_round_observer(previous_observer)
        set_engine_config(n_jobs=previous_config.n_jobs)
        set_trace_context(previous_trace)
        set_default_registry(previous_registry)
    record = make_record(
        experiment_id,
        seed=seed,
        fast=fast,
        params=dict(params),
        result=result,
    )
    obs_payload = {
        "spans": spans if trace is not None else [],
        "metrics": job_registry.snapshot(),
        "timings": timings,
    }
    return record, obs_payload


# ---------------------------------------------------------------------------
# job model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One run request's identity: what to compute, with how many workers.

    ``params`` is a name-sorted tuple of pairs (hashable, insertion-order
    independent) exactly like :class:`~repro.sweeps.SweepPoint`; the cache
    key is the sweep layer's, so the service, sweeps and stores all agree
    on what "the same run" means.
    """

    experiment_id: str
    seed: int = 0
    fast: bool = True
    params: Tuple[Tuple[str, object], ...] = ()
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ModelError(f"n_jobs must be >= 1, got {self.n_jobs}")

    @property
    def params_dict(self) -> Dict[str, object]:
        """The knobs as a plain dict."""
        return dict(self.params)

    def cache_key(self, version: str = __version__) -> str:
        """The store key this spec's record lives under."""
        return cache_key(
            self.experiment_id, self.seed, self.fast, self.params_dict, version
        )

    @classmethod
    def from_request(cls, body: Mapping[str, object]) -> "JobSpec":
        """Build a validated spec from a ``POST /run`` JSON body.

        Unknown experiment ids fail with the CLI's did-you-mean message;
        unknown knobs with the runner's supported-knob list.  The
        request-level keys ``priority`` and ``wait`` are allowed and
        ignored here (the HTTP layer consumes them).
        """
        if not isinstance(body, Mapping):
            raise ModelError("request body must be a JSON object")
        known = {
            "experiment_id",
            "id",
            "seed",
            "fast",
            "params",
            "n_jobs",
            "priority",
            "wait",
        }
        stray = sorted(set(body) - known)
        if stray:
            raise ModelError(
                f"unknown request field(s): {stray} (known: {sorted(known)})"
            )
        experiment_id = body.get("experiment_id", body.get("id"))
        if not isinstance(experiment_id, str):
            raise ModelError(
                "request needs an 'experiment_id' (or 'id') string"
            )
        validate_ids([experiment_id])
        seed = body.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ModelError(f"seed must be an integer, got {seed!r}")
        fast = body.get("fast", True)
        if not isinstance(fast, bool):
            raise ModelError(f"fast must be a boolean, got {fast!r}")
        params = body.get("params") or {}
        if not isinstance(params, Mapping):
            raise ModelError(f"params must be an object, got {params!r}")
        validate_params(experiment_id, params)
        n_jobs = body.get("n_jobs", 1)
        if isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
            raise ModelError(f"n_jobs must be an integer, got {n_jobs!r}")
        return cls(
            experiment_id=experiment_id,
            seed=seed,
            fast=fast,
            params=tuple(sorted(params.items())),
            n_jobs=n_jobs,
        )


class Job:
    """One scheduled (or cache-served) run and its lifecycle state."""

    def __init__(self, job_id: str, spec: JobSpec, priority: int = 0) -> None:
        self.id = job_id
        self.spec = spec
        self.priority = int(priority)
        self.key = spec.cache_key()
        self.state = QUEUED
        self.cached = False
        #: where the answer came from: "memory" | "store" | "computed"
        self.source: Optional[str] = None
        self.coalesced = 0
        self.error: Optional[str] = None
        self.record: Optional[dict] = None
        self.progress: Optional[dict] = None
        self.progress_history: List[dict] = []
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: the submitting request's trace context (span parent for the
        #: job's queue-wait/execute/persist spans); None untraced
        self.trace: Optional[TraceContext] = current_trace()
        #: phase breakdown (queue wait, worker phases, persist), seconds
        self.timings: Optional[Dict[str, object]] = None
        # monotonic twins of the wall-clock stamps: span durations must
        # never go negative under a clock step
        self._created_mono = time.perf_counter()
        self._started_mono: Optional[float] = None
        self._done = asyncio.Event()

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in (DONE, FAILED, CANCELLED)

    async def wait(self, timeout: Optional[float] = None) -> "Job":
        """Block until the job reaches a terminal state."""
        await asyncio.wait_for(self._done.wait(), timeout)
        return self

    def _task(self) -> _JobTask:
        spec = self.spec
        return (
            self.id,
            spec.experiment_id,
            spec.seed,
            spec.fast,
            spec.params,
            spec.n_jobs,
            self.trace.trace_id if self.trace is not None else None,
            self.trace.span_id if self.trace is not None else None,
        )

    def to_payload(self, include_record: bool = False) -> Dict[str, object]:
        """JSON-safe job status for the HTTP API."""
        spec = self.spec
        payload: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "experiment_id": spec.experiment_id,
            "seed": spec.seed,
            "fast": spec.fast,
            "params": canonical_params(spec.params_dict),
            "n_jobs": spec.n_jobs,
            "priority": self.priority,
            "key": self.key,
            "cached": self.cached,
            "source": self.source,
            "coalesced": self.coalesced,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "wait_seconds": (
                self.started - self.created
                if self.started is not None
                else None
            ),
            "duration_seconds": (
                self.finished - self.started
                if self.started is not None and self.finished is not None
                else None
            ),
            "progress": self.progress,
            "progress_rounds": len(self.progress_history),
            "trace_id": (
                self.trace.trace_id if self.trace is not None else None
            ),
        }
        if self.timings is not None:
            payload["timings"] = self.timings
        if include_record and self.record is not None:
            payload["record"] = self.record
        return payload


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


class JobScheduler:
    """Bounded-priority-queue scheduler over a worker pool and a cache.

    Event-loop-thread only (like the cache it owns): every public method
    must be called from the loop :meth:`start` ran on.  ``procs >= 1``
    executes jobs in a process pool; ``procs = 0`` in a single in-process
    worker thread (no subprocesses — the mode tests and notebooks use).

    Every counter lives in one metrics registry, shared with the cache:
    the cache's own when no ``registry`` is given, and a scheduler handed
    a cache with a different registry is refused (the two ``GET
    /metrics`` views would split).
    """

    def __init__(
        self,
        cache: Optional[TwoTierCache] = None,
        procs: int = 1,
        queue_limit: int = 64,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        slow_job_seconds: float = 30.0,
    ) -> None:
        if procs < 0:
            raise ModelError(f"procs must be >= 0, got {procs}")
        if queue_limit < 1:
            raise ModelError(f"queue_limit must be >= 1, got {queue_limit}")
        if name is not None and (not name or "/" in name or " " in name):
            raise ModelError(
                f"scheduler name must be a non-empty token without '/' or "
                f"spaces, got {name!r}"
            )
        if cache is None:
            cache = TwoTierCache(registry=registry)
        if registry is None:
            registry = cache.registry
        elif registry is not cache.registry:
            raise ModelError(
                "scheduler and cache must share one metrics registry: "
                "build the cache with registry=, or pass none here"
            )
        self.registry = registry
        self.cache = cache
        #: instance name; job ids become ``<name>-job-NNNNNN`` so a router
        #: can route ``GET /jobs/<id>`` back to the shard that minted it
        self.name = name
        self.procs = procs
        self.queue_limit = queue_limit
        self.slots = max(procs, 1)
        self.started_at = time.time()
        #: completed jobs slower than this log a ``job.slow`` warning
        self.slow_job_seconds = slow_job_seconds
        self._jobs_events = registry.counter(
            "repro_jobs_total",
            "Job lifecycle events (submitted, cache_served, coalesced, "
            "completed, failed, cancelled, rejected).",
            ("event",),
        )
        #: pre-bound per-event children — submit() is the request hot
        #: path (cache hits included), so label resolution happens once
        self._event_children = {
            event: self._jobs_events.labels(event=event)
            for event in (
                "submitted",
                "cache_served",
                "coalesced",
                "completed",
                "failed",
                "cancelled",
                "rejected",
            )
        }
        self._compute_seconds = registry.histogram(
            "repro_job_compute_seconds",
            "Worker compute duration per completed or failed job.",
        )
        self._queue_wait_seconds = registry.histogram(
            "repro_job_queue_wait_seconds",
            "Time jobs spend queued before taking a worker slot.",
        )
        self._queue_depth_gauge = registry.gauge(
            "repro_queue_depth", "Jobs waiting for a worker slot."
        )
        self._running_gauge = registry.gauge(
            "repro_jobs_running", "Jobs currently on a worker."
        )
        self._adaptive_half_width = registry.gauge(
            "repro_adaptive_half_width",
            "Latest adaptive-round CI half-width, per metric name.",
            ("metric",),
        )
        self._adaptive_replications = registry.gauge(
            "repro_adaptive_replications",
            "Latest adaptive-round cumulative replications, per metric "
            "name.",
            ("metric",),
        )
        self._adaptive_rounds = registry.counter(
            "repro_adaptive_rounds_total",
            "Adaptive precision rounds observed across all jobs.",
        )
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._queued = 0
        self._running = 0
        self._closed = False
        self._wakeup: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[Executor] = None
        self._manager = None
        self._progress_queue = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._progress_task: Optional[asyncio.Task] = None
        self._job_tasks: set = set()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "JobScheduler":
        """Spin up the worker pool, the dispatcher and the progress drain."""
        if self._loop is not None:
            raise ServiceError("scheduler already started", status=500)
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        if self.procs >= 1:
            import multiprocessing

            self._manager = multiprocessing.Manager()
            self._progress_queue = self._manager.Queue()
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                initializer=_worker_init,
                initargs=(self._progress_queue,),
            )
            self._progress_task = self._loop.create_task(
                self._drain_progress()
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-worker"
            )
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        return self

    async def close(self) -> None:
        """Drain and shut down: queued jobs cancel, running jobs finish.

        In-flight computations cannot be preempted; they complete and their
        records persist to the store before the pool shuts down — the
        guarantee the server's SIGINT handler (and its clean-store test)
        relies on.
        """
        if self._closed:
            return
        self._closed = True
        for job in list(self._jobs.values()):
            if job.state == QUEUED:
                self._cancel_queued(job)
        if self._wakeup is not None:
            self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._progress_task is not None:
            # the pool is down: no producer remains, so a sentinel cleanly
            # unblocks the drain thread (cancel would leak it mid-get)
            try:
                self._progress_queue.put(_PROGRESS_STOP)
            except Exception:
                self._progress_task.cancel()
            try:
                await self._progress_task
            except asyncio.CancelledError:
                pass
        if self._manager is not None:
            self._manager.shutdown()

    # -- submission ------------------------------------------------------

    def submit(self, spec: JobSpec, priority: int = 0) -> Job:
        """Resolve a request: cache hit, coalesce, or enqueue.

        Returns the job serving this request — possibly an already-running
        job other callers share (coalescing), or an already-done synthetic
        job for cache hits.  Raises :class:`QueueFullError` when the
        bounded queue is at capacity and :class:`ServiceError` (503) after
        :meth:`close`.
        """
        if self._closed:
            raise ServiceError("scheduler is shutting down", status=503)
        if self._loop is None:
            raise ServiceError("scheduler not started", status=500)
        self._event_children["submitted"].inc()
        key = spec.cache_key()
        record, source = self.cache.lookup(key)
        if record is not None:
            job = Job(self._next_id(), spec, priority)
            job.state = DONE
            job.cached = True
            job.source = source
            job.record = record
            now = time.time()
            job.started = job.finished = now
            job._done.set()
            self._remember(job)
            self._event_children["cache_served"].inc()
            return job
        active = self._by_key.get(key)
        if active is not None and not active.done:
            active.coalesced += 1
            self._event_children["coalesced"].inc()
            if active.state == QUEUED and priority > active.priority:
                # honor the priority contract for coalesced callers: the
                # shared job escalates to the highest attached priority
                # (the stale heap entry is skipped lazily once this one,
                # which sorts earlier, has started the job)
                active.priority = priority
                heapq.heappush(
                    self._heap, (-priority, next(self._sequence), active)
                )
                self._wakeup.set()
            return active
        if self._queued >= self.queue_limit:
            self._event_children["rejected"].inc()
            raise QueueFullError(
                f"job queue is full ({self._queued}/{self.queue_limit} "
                f"queued); retry later or raise --queue-limit"
            )
        job = Job(self._next_id(), spec, priority)
        self._remember(job)
        self._by_key[key] = job
        heapq.heappush(self._heap, (-job.priority, next(self._sequence), job))
        self._queued += 1
        self._wakeup.set()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job under ``job_id``, or None (e.g. evicted history)."""
        return self._jobs.get(job_id)

    def jobs_snapshot(self, limit: int = 100) -> List[Dict[str, object]]:
        """Payloads of the most recently submitted jobs, newest first."""
        out = []
        for job in reversed(list(self._jobs.values())):
            out.append(job.to_payload())
            if len(out) >= limit:
                break
        return out

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/finished jobs are not cancellable.

        A running job's computation cannot be preempted (it lives in a
        worker process); letting it finish persists the record, so the
        spent work warms the cache instead of evaporating.
        """
        job = self._jobs.get(job_id)
        if job is None or job.state != QUEUED:
            return False
        self._cancel_queued(job)
        return True

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker slot."""
        return self._queued

    @property
    def running(self) -> int:
        """Jobs currently on a worker."""
        return self._running

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``GET /metrics`` payload, read from the registry (counters
        read 0 under a :class:`~repro.obs.metrics.NullRegistry`)."""
        jobs: Dict[str, object] = {
            event: int(child.value())
            for event, child in self._event_children.items()
        }
        jobs.update(
            queue_depth=self.queue_depth,
            queue_limit=self.queue_limit,
            running=self.running,
            slots=self.slots,
            procs=self.procs,
        )
        return {
            "name": self.name,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": jobs,
            "cache": self.cache.stats(),
            "compute_seconds": histogram_summary(self._compute_seconds),
        }

    def prometheus_text(self) -> str:
        """The ``GET /metrics?format=prometheus`` exposition body.

        Counters and histograms accumulate live; point-in-time gauges
        (queue depth, cache occupancy, uptime) are refreshed here so
        every scrape sees current values.
        """
        registry = self.registry
        self._queue_depth_gauge.set(self._queued)
        self._running_gauge.set(self._running)
        registry.gauge(
            "repro_worker_slots", "Concurrent worker slots."
        ).set(self.slots)
        registry.gauge(
            "repro_uptime_seconds", "Seconds since scheduler start."
        ).set(time.time() - self.started_at)
        stats = self.cache.stats()
        registry.gauge(
            "repro_cache_memory_items", "Records in the memory tier."
        ).set(stats["memory_size"])
        registry.gauge(
            "repro_cache_store_records", "Records in the persistent store."
        ).set(stats["store_records"])
        return registry.render()

    # -- internals -------------------------------------------------------

    def _next_id(self) -> str:
        base = f"job-{next(self._sequence):06d}"
        return f"{self.name}-{base}" if self.name else base

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        if len(self._jobs) > _MAX_FINISHED:
            for job_id, old in list(self._jobs.items()):
                if len(self._jobs) <= _MAX_FINISHED:
                    break
                if old.done:
                    del self._jobs[job_id]

    def _cancel_queued(self, job: Job) -> None:
        job.state = CANCELLED
        job.finished = time.time()
        self._queued -= 1
        self._event_children["cancelled"].inc()
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]
        job._done.set()
        # the heap entry stays; _fill_slots skips non-queued jobs lazily

    async def _dispatch_loop(self) -> None:
        while True:
            self._fill_slots()
            if self._closed and self._running == 0:
                break
            await self._wakeup.wait()
            self._wakeup.clear()

    def _fill_slots(self) -> None:
        if self._closed:
            return
        while self._running < self.slots and self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state != QUEUED:
                continue  # cancelled while queued; already accounted
            self._queued -= 1
            self._running += 1
            job.state = RUNNING
            job.started = time.time()
            job._started_mono = time.perf_counter()
            wait = job._started_mono - job._created_mono
            self._queue_wait_seconds.observe(wait)
            if job.trace is not None:
                emit_span(
                    "job.queue_wait",
                    job.trace.child(),
                    job.trace.span_id,
                    job.created,
                    wait,
                    job_id=job.id,
                )
            task = self._loop.create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job: Job) -> None:
        try:
            if self.procs >= 1:
                record, obs_payload = await self._loop.run_in_executor(
                    self._executor, _execute_job, job._task()
                )
            else:
                record, obs_payload = await self._loop.run_in_executor(
                    self._executor,
                    _execute_job,
                    job._task(),
                    self._thread_progress_put(),
                )
            persist_wall = time.time()
            persist_start = time.perf_counter()
            self.cache.put(record)
            persist_seconds = time.perf_counter() - persist_start
        except Exception as error:
            job.error = f"{type(error).__name__}: {error}"
            job.state = FAILED
            self._event_children["failed"].inc()
        else:
            job.record = record
            job.source = "computed"
            job.state = DONE
            self._event_children["completed"].inc()
            self._absorb_worker_obs(job, obs_payload, persist_seconds)
            if job.trace is not None:
                emit_span(
                    "job.persist",
                    job.trace.child(),
                    job.trace.span_id,
                    persist_wall,
                    persist_seconds,
                    job_id=job.id,
                )
        finally:
            job.finished = time.time()
            if job.started is not None:
                duration = job.finished - job.started
                self._compute_seconds.observe(duration)
                if duration > self.slow_job_seconds:
                    _log.warning(
                        "job.slow",
                        job_id=job.id,
                        experiment_id=job.spec.experiment_id,
                        state=job.state,
                        duration_seconds=duration,
                        threshold_seconds=self.slow_job_seconds,
                    )
                elif _log.enabled("info"):
                    _log.info(
                        "job.finished",
                        job_id=job.id,
                        experiment_id=job.spec.experiment_id,
                        state=job.state,
                        duration_seconds=duration,
                        error=job.error,
                    )
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
            self._running -= 1
            job._done.set()
            self._wakeup.set()

    def _absorb_worker_obs(
        self, job: Job, obs_payload: object, persist_seconds: float
    ) -> None:
        """Fold a worker's observability freight into scheduler state:
        re-emit its spans (the trace tree crosses the process boundary),
        merge its metric deltas, and assemble the job's phase timings."""
        if not isinstance(obs_payload, dict):
            return
        for record in obs_payload.get("spans") or []:
            if isinstance(record, dict):
                emit_span_record(record)
        metrics_snapshot = obs_payload.get("metrics")
        if isinstance(metrics_snapshot, dict) and metrics_snapshot:
            try:
                self.registry.merge(metrics_snapshot)
            except ValueError:
                pass  # layout drift from a mixed-version worker: skip
        timings = obs_payload.get("timings")
        job.timings = {
            "queue_wait_seconds": (
                round(job._started_mono - job._created_mono, 6)
                if job._started_mono is not None
                else None
            ),
            "persist_seconds": round(persist_seconds, 6),
            "execute": timings if isinstance(timings, dict) else None,
        }

    # -- progress --------------------------------------------------------

    def _thread_progress_put(self) -> Callable:
        loop = self._loop

        def put(item) -> None:
            loop.call_soon_threadsafe(self._apply_progress, item)

        return put

    def _apply_progress(self, item) -> None:
        try:
            job_id, payload = item
        except (TypeError, ValueError):
            return
        job = self._jobs.get(job_id)
        if job is None or not isinstance(payload, dict):
            return
        safe = canonical_cell(payload)
        job.progress = safe
        job.progress_history.append(safe)
        if len(job.progress_history) > _MAX_PROGRESS_HISTORY:
            del job.progress_history[0]
        self._observe_round(safe)

    def _observe_round(self, payload: Mapping) -> None:
        """Feed adaptive per-round gauges from a round-observer payload."""
        self._adaptive_rounds.inc()
        metrics = payload.get("metrics")
        if not isinstance(metrics, Mapping):
            return
        for metric_name, info in metrics.items():
            if not isinstance(info, Mapping):
                continue
            half_width = info.get("half_width")
            if isinstance(half_width, (int, float)):
                self._adaptive_half_width.set(
                    half_width, metric=str(metric_name)
                )
            replications = info.get("replications")
            if isinstance(replications, (int, float)):
                self._adaptive_replications.set(
                    replications, metric=str(metric_name)
                )

    async def _drain_progress(self) -> None:
        """Pump worker-process round reports into job state (process mode).

        Blocks on the manager queue in a default-executor thread (zero
        idle cost, immediate delivery); :meth:`close` unblocks it with a
        sentinel once no worker can produce more.
        """
        while True:
            try:
                item = await self._loop.run_in_executor(
                    None, self._progress_queue.get
                )
            except (EOFError, BrokenPipeError, ConnectionError, OSError):
                return  # manager gone (shutdown)
            if item == _PROGRESS_STOP:
                return
            self._apply_progress(item)
