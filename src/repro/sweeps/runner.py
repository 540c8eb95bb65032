"""Sweep execution: cache-aware fan-out of grid points over processes.

``Sweep(spec, store).run()`` partitions the grid into *cached* points
(their key is already in the store — served instantly, nothing recomputed)
and *pending* points, then executes the pending ones through the batch
engine's shared process fan-out layer (:func:`repro.mc.batch.run_tasks`).
Each completed point is appended to the store the moment it finishes, so a
sweep killed mid-flight resumes exactly where it stopped: re-running the
same command skips every point that reached disk.

Inside each point the experiment runs with the sweep's
:class:`~repro.experiments.base.EngineConfig` (``engine``/``n_jobs``)
installed, mirroring the single-run CLI.  Point-level workers
(``n_procs``) and chunk-level workers (``n_jobs``) compose; results are
bit-identical for any combination because every point derives its
randomness from its own ``(seed, fast, params)`` identity alone.

A grid's ``[precision]`` table routes precision-capable experiments
through the adaptive engine (the target becomes each point's ``precision``
knob — part of its cache identity).  With ``budget_total`` set the sweep
runs **Neyman-style cross-point allocation**: a pilot pass (the target's
``initial`` replications per point, cached like any other point) estimates
each point's per-replication spread σ̂, the total budget is split across
points proportionally to σ̂ (:func:`allocate_budgets` — the equal-cost
Neyman optimum), and a final pass runs each point to its allocated budget.
Both passes are ordinary cached points, so an interrupted allocation run
resumes deterministically: the same pilot results reproduce the same
allocation, hence the same final-point identities.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ModelError

# the package import (not .registry directly) so worker processes register
# the experiment modules before running their point
from ..experiments import run_experiment
from ..experiments.base import set_engine_config
from ..mc.batch import run_tasks
from ..mc.experiments import check_engine
from ..obs import get_logger
from ..store import ResultStore, make_record
from .spec import SweepPoint, SweepSpec

__all__ = ["Sweep", "SweepReport", "allocate_budgets", "record_sigma"]

_log = get_logger("repro.sweeps")


def _log_point(point: SweepPoint, status: str, **fields: object) -> None:
    """One structured event per sweep point (``--log-level info``)."""
    if _log.enabled("info"):
        _log.info(
            "sweep.point",
            experiment_id=point.experiment_id,
            seed=point.seed,
            fast=point.fast,
            status=status,
            **fields,
        )

# one sweep-point task: everything a worker process needs, all picklable
_PointTask = Tuple[str, int, bool, Tuple[Tuple[str, object], ...], str, int]


def _execute_point(task: _PointTask) -> dict:
    """Run one grid point and return its store record (worker kernel).

    Module level so process pools can pickle it.  Installs the sweep's
    engine configuration for the duration of the run — in a pool worker
    that process-global state is private to the worker; on the serial path
    the previous configuration is restored afterwards.
    """
    experiment_id, seed, fast, params, engine, n_jobs = task
    previous = set_engine_config(engine=engine, n_jobs=n_jobs)
    try:
        result = run_experiment(
            experiment_id, seed=seed, fast=fast, params=dict(params)
        )
    finally:
        set_engine_config(engine=previous.engine, n_jobs=previous.n_jobs)
    return make_record(
        experiment_id,
        seed=seed,
        fast=fast,
        params=dict(params),
        result=result,
        engine=engine,
    )


def _record_metric_count(record: Optional[Mapping[str, object]]) -> int:
    """How many adaptive metrics a point's experiment runs (from its pilot)."""
    from ..adaptive.controller import iter_adaptive_runs

    if record is None:
        return 1
    result = record.get("result") or {}
    extra = result.get("extra") or {}
    count = sum(
        len(run["metrics"])
        for run in iter_adaptive_runs(extra.get("adaptive"))
    )
    return max(count, 1)


def record_sigma(record: Mapping[str, object]) -> float:
    """A point's per-replication spread σ̂ from its stored adaptive report.

    The largest per-observation standard deviation across the record's
    adaptive metrics (``std_error · √observations``) — the quantity Neyman
    allocation weighs points by.  Records without adaptive metadata (or
    with degenerate, zero-spread metrics) report 0.0 and receive only the
    floor allocation.
    """
    from ..adaptive.controller import iter_adaptive_runs

    result = record.get("result") or {}
    extra = result.get("extra") or {}
    sigma = 0.0
    for run in iter_adaptive_runs(extra.get("adaptive")):
        for metric in run["metrics"].values():
            std_error = float(metric.get("std_error", 0.0))
            observations = int(metric.get("observations", 0))
            if math.isfinite(std_error) and observations > 0:
                sigma = max(sigma, std_error * math.sqrt(observations))
    return sigma


def allocate_budgets(
    sigmas: Mapping[str, float], total: int, floor: int
) -> Dict[str, int]:
    """Split ``total`` replications across points proportionally to σ̂.

    The equal-cost Neyman optimum for minimising the summed variance of
    the point estimates: ``n_i ∝ σ̂_i``, with every point floored at
    ``floor`` (zero-spread pilots still deserve a verification budget) and
    the remainder after flooring distributed over the positive-σ̂ points.
    Deterministic: ties and rounding depend only on the sorted point keys.

    A ``total`` that cannot cover the floors is rejected loudly — the
    alternative (spending ``floor × n_points`` anyway) would silently
    exceed the caller's declared budget.
    """
    if total < 1:
        raise ModelError(f"total must be >= 1, got {total}")
    if floor < 1:
        raise ModelError(f"floor must be >= 1, got {floor}")
    keys = sorted(sigmas)
    if not keys:
        return {}
    if total < floor * len(keys):
        raise ModelError(
            f"budget total {total} cannot cover the per-point floor: "
            f"{len(keys)} points need at least {floor * len(keys)} "
            f"(floor {floor} each) — raise budget_total or lower the "
            "target's initial"
        )
    budgets = {key: floor for key in keys}
    remainder = total - floor * len(keys)
    if remainder <= 0:
        return budgets
    mass = sum(max(float(sigmas[key]), 0.0) for key in keys)
    if mass <= 0.0:
        # no spread information: split the remainder evenly
        share, spare = divmod(remainder, len(keys))
        for index, key in enumerate(keys):
            budgets[key] += share + (1 if index < spare else 0)
        return budgets
    allocated = 0
    for key in keys:
        extra = int(remainder * max(float(sigmas[key]), 0.0) / mass)
        budgets[key] += extra
        allocated += extra
    # hand rounding leftovers to the highest-spread points, key-ordered
    leftovers = remainder - allocated
    for key in sorted(keys, key=lambda k: (-float(sigmas[k]), k)):
        if leftovers <= 0:
            break
        budgets[key] += 1
        leftovers -= 1
    return budgets


@dataclass
class SweepReport:
    """What one :meth:`Sweep.run` did, point by point."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    #: cache keys of points whose stored result has failing claims
    failed_keys: List[str] = field(default_factory=list)
    #: (point, "cached" | "executed") in completion order
    outcomes: List[Tuple[SweepPoint, str]] = field(default_factory=list)
    #: final per-point replication budgets of a Neyman allocation run,
    #: keyed by the *final-phase* cache key (empty otherwise)
    allocations: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True iff every point's claims held (cached points included)."""
        return not self.failed_keys

    def summary(self) -> str:
        """One-line machine-greppable totals, used by the CLI and CI smoke."""
        return (
            f"sweep: {self.total} points, {self.executed} executed, "
            f"{self.cached} cached, {len(self.failed_keys)} with failing "
            "claims"
        )


class Sweep:
    """A declarative grid bound to a result store and an engine config."""

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore,
        engine: str = "auto",
        n_jobs: int = 1,
    ) -> None:
        check_engine(
            engine, n_jobs, None if spec.precision is None else "a [precision] sweep"
        )
        self.spec = spec
        self.store = store
        self.engine = engine
        self.n_jobs = n_jobs

    # -- precision plumbing -------------------------------------------------

    def _with_precision(
        self, point: SweepPoint, budget: Optional[int] = None
    ) -> SweepPoint:
        """The point with the sweep's precision knob pinned (if capable)."""
        plan = self.spec.precision
        if (
            plan is None
            or point.experiment_id not in self.spec.precision_experiments
        ):
            return point
        params = dict(point.params)
        params["precision"] = plan.knob(budget)
        return SweepPoint(
            experiment_id=point.experiment_id,
            seed=point.seed,
            fast=point.fast,
            params=tuple(sorted(params.items())),
        )

    def effective_points(self) -> List[SweepPoint]:
        """The grid as actually executed (default-budget precision knobs).

        Under Neyman allocation (``budget_total``) the *final* per-point
        budgets additionally depend on the pilot results, so this is the
        pilot-phase view of the grid.
        """
        plan = self.spec.precision
        if plan is None:
            return list(self.spec.points())
        budget = (
            plan.pilot_budget if plan.budget_total is not None else None
        )
        return [
            self._with_precision(point, budget)
            for point in self.spec.points()
        ]

    # -- execution ----------------------------------------------------------

    def partition(self) -> Tuple[List[SweepPoint], List[SweepPoint]]:
        """Split the grid into ``(cached, pending)`` against the store.

        Only records carrying a result payload count as cache hits —
        identity-only records (``make_record(..., result=None)``) mark a
        point as known, not as computed, and are re-executed (the fresh
        record shadows them last-wins).
        """
        return self._partition(self.effective_points())

    def _partition(
        self, points: List[SweepPoint]
    ) -> Tuple[List[SweepPoint], List[SweepPoint]]:
        cached: List[SweepPoint] = []
        pending: List[SweepPoint] = []
        for point in points:
            record = self.store.get(point.cache_key(engine=self.engine))
            is_hit = record is not None and "result" in record
            (cached if is_hit else pending).append(point)
        return cached, pending

    def _run_points(
        self,
        points: List[SweepPoint],
        report: SweepReport,
        n_procs: int,
        progress: Optional[Callable[[SweepPoint, str], None]],
    ) -> None:
        """Execute one batch of points into ``report`` (cache-aware)."""
        cached, pending = self._partition(points)
        report.total += len(cached) + len(pending)
        report.cached += len(cached)
        for point in cached:
            key = point.cache_key(engine=self.engine)
            record = self.store.get(key)
            if not record["result"]["passed"]:
                report.failed_keys.append(key)
            report.outcomes.append((point, "cached"))
            _log_point(point, "cached")
            if progress is not None:
                progress(point, "cached")
        if not pending:
            return
        tasks = [
            (
                point.experiment_id,
                point.seed,
                point.fast,
                point.params,
                self.engine,
                self.n_jobs,
            )
            for point in pending
        ]
        point_by_key = {
            point.cache_key(engine=self.engine): point for point in pending
        }

        def persist(record: dict) -> None:
            # invoked in completion order (out of task order when
            # n_procs > 1), so the point is recovered from the record key
            point = point_by_key[record["key"]]
            self.store.put(record)
            report.executed += 1
            if not record["result"]["passed"]:
                report.failed_keys.append(record["key"])
            report.outcomes.append((point, "executed"))
            _log_point(point, "executed", key=record["key"])
            if progress is not None:
                progress(point, "executed")

        run_tasks(_execute_point, tasks, n_procs, on_result=persist)

    def run_via_service(
        self,
        service,
        n_procs: int = 1,
        progress: Optional[Callable[[SweepPoint, str], None]] = None,
    ) -> SweepReport:
        """Execute the grid by fanning points through a running service.

        ``service`` is a base URL (or a
        :class:`~repro.service.ServiceClient`, whose address is reused —
        clients are not thread-safe, so each worker thread opens its own
        connection).  The cheap-path split happens twice: points whose
        records are already in the *local* store are served locally
        without a request, and points the *service* answers from its
        cache count as cached in the report.  Every record the service
        computes is mirrored into the local store, so a later offline
        ``aggregate`` or re-run needs no service at all.

        Points run with this sweep's ``engine``/``n_jobs`` (part of the
        cache identity / forwarded per request), and ``n_procs`` becomes
        the number of concurrent client threads — the service's own queue
        and worker pool bound actual compute concurrency.  A
        ``[precision]`` plan's per-point targets flow through like any
        other knob, but ``budget_total`` (Neyman allocation) needs the
        two-phase local driver and is rejected.
        """
        from ..service.client import ServiceClient

        if n_procs < 1:
            raise ModelError(f"n_procs must be >= 1, got {n_procs}")
        plan = self.spec.precision
        if plan is not None and plan.budget_total is not None:
            raise ModelError(
                "a [precision] budget_total (Neyman allocation) sweep "
                "needs the two-phase local driver; run without "
                "--via-service or drop budget_total"
            )
        if isinstance(service, ServiceClient):
            url = f"http://{service.host}:{service.port}"
        else:
            url = str(service)
        report = SweepReport()
        cached, pending = self._partition(self.effective_points())
        report.total = len(cached) + len(pending)
        report.cached = len(cached)
        for point in cached:
            key = point.cache_key(engine=self.engine)
            if not self.store.get(key)["result"]["passed"]:
                report.failed_keys.append(key)
            report.outcomes.append((point, "cached"))
            _log_point(point, "cached")
            if progress is not None:
                progress(point, "cached")
        if not pending:
            return report
        local = threading.local()

        def call(point: SweepPoint) -> dict:
            if not hasattr(local, "client"):
                local.client = ServiceClient(url)
            return local.client.run(
                point.experiment_id,
                seed=point.seed,
                fast=point.fast,
                params=point.params_dict or None,
                engine=self.engine,
                n_jobs=self.n_jobs,
            )

        workers = min(n_procs, len(pending))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(call, point): point for point in pending}
            for future in as_completed(futures):
                point = futures[future]
                job = future.result()  # ServiceError propagates loudly
                record = job["record"]
                self.store.put(record)
                status = "cached" if job.get("cached") else "executed"
                if status == "cached":
                    report.cached += 1
                else:
                    report.executed += 1
                if not record["result"]["passed"]:
                    report.failed_keys.append(record["key"])
                report.outcomes.append((point, status))
                _log_point(point, status, key=record["key"], via="service")
                if progress is not None:
                    progress(point, status)
        return report

    def run(
        self,
        n_procs: int = 1,
        progress: Optional[Callable[[SweepPoint, str], None]] = None,
    ) -> SweepReport:
        """Execute the grid, serving completed points from the store.

        Parameters
        ----------
        n_procs:
            Worker processes across sweep *points* (each point may itself
            shard replication chunks over ``n_jobs`` workers).
        progress:
            Optional ``(point, status)`` callback; status is ``"cached"``
            or ``"executed"``, invoked in completion order.

        With a ``[precision]`` plan carrying ``budget_total``, the run is
        two phases — pilot, then Neyman-allocated final — and the report
        counts both phases' points (``allocations`` records the final
        budgets).
        """
        if n_procs < 1:
            raise ModelError(f"n_procs must be >= 1, got {n_procs}")
        plan = self.spec.precision
        report = SweepReport()
        if plan is None or plan.budget_total is None:
            self._run_points(self.effective_points(), report, n_procs, progress)
            return report
        # phase 1 — pilot (plain points for precision-incapable experiments
        # run here once and are not revisited)
        pilot_points = self.effective_points()
        self._run_points(pilot_points, report, n_procs, progress)
        # phase 2 — Neyman-allocated final pass over the capable points
        capable = [
            point
            for point in pilot_points
            if point.experiment_id in self.spec.precision_experiments
        ]
        if not capable:
            return report
        sigmas = {}
        metric_counts = {}
        for point in capable:
            key = point.cache_key(engine=self.engine)
            record = self.store.get(key)
            sigmas[key] = record_sigma(record) if record is not None else 0.0
            metric_counts[key] = _record_metric_count(record)
        budgets = allocate_budgets(
            sigmas, total=plan.budget_total, floor=plan.target.initial
        )
        point_by_key = {
            point.cache_key(engine=self.engine): point for point in capable
        }
        final_points = []
        for key, budget in budgets.items():
            pilot_point = point_by_key[key]
            raw = SweepPoint(
                experiment_id=pilot_point.experiment_id,
                seed=pilot_point.seed,
                fast=pilot_point.fast,
                params=tuple(
                    (name, value)
                    for name, value in pilot_point.params
                    if name != "precision"
                ),
            )
            # the PrecisionTarget budget caps each *metric*; a point's
            # experiment may run several adaptive metrics (e11: 14, e01:
            # 3), so divide the point's allocation by the metric count
            # observed in its pilot — otherwise the sweep would spend up
            # to metric-count times the declared budget_total
            per_metric = max(budget // metric_counts[key], 1)
            final = self._with_precision(raw, per_metric)
            final_points.append(final)
            report.allocations[final.cache_key(engine=self.engine)] = budget
        self._run_points(final_points, report, n_procs, progress)
        return report
