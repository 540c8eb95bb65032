"""The adaptive precision controller: escalating rounds until targets hold.

:func:`run_adaptive` drives one or more *metrics* — named chunk samplers —
through escalating replication rounds on the batch engine's shared process
fan-out (:func:`repro.mc.batch.run_tasks`):

1. run every still-unconverged metric for the current round's replication
   allotment, chunked and (optionally) sharded across workers;
2. merge each chunk into the metric's accumulator
   (:mod:`repro.adaptive.accumulators` — exactly order- and worker-count
   invariant);
3. reduce to an :class:`~repro.adaptive.accumulators.Estimate` (applying
   the metric's variance-reduction arithmetic) and check it against the
   :class:`~repro.adaptive.targets.PrecisionTarget`;
4. size the next round from the *projected* requirement
   (:func:`repro.extensions.stopping.replications_for_half_width` on the
   observed spread), clamped by the target's ``growth`` factor and hard
   ``budget``.

A metric stops as soon as its target is met; the run stops when every
metric has stopped or exhausted its budget.  The resulting
:class:`AdaptiveReport` records, per metric, the estimate, the achieved
half-width, whether it converged, and the replications actually spent —
the payload experiments persist into ``ExperimentResult.extra`` and the
result store.

The concrete adapters at the bottom (:func:`adaptive_version_pfd`,
:func:`adaptive_untested_joint_pfd`, :func:`adaptive_marginal_system_pfd`,
:func:`adaptive_campaign_pfd`, :func:`adaptive_joint_on_demand`) bind the
variance-reduction chunk kernels of :mod:`repro.adaptive.variance` to the
controller for the library's standard estimands.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError
from ..mc.batch import (
    _DEFAULT_CHUNK,
    _chunk_tested_joint,
    _chunk_untested_joint,
    _testing_plan,
)
from ..rng import as_generator, spawn_many
from ..types import SeedLike
from .accumulators import (
    Estimate,
    ProportionAccumulator,
    StratifiedAccumulator,
)
from .targets import PrecisionTarget
from .variance import (
    POOLED,
    campaign_pfd_chunk,
    fault_count_pmf,
    marginal_system_pfd_chunk,
    pair_fault_count_pmf,
    proportion_chunk,
    resolve_vr,
    untested_joint_pfd_chunk,
    version_pfd_chunk,
)

__all__ = [
    "AdaptiveReport",
    "MetricReport",
    "MetricSpec",
    "iter_adaptive_runs",
    "round_observer",
    "run_adaptive",
    "set_round_observer",
    "adaptive_version_pfd",
    "adaptive_untested_joint_pfd",
    "adaptive_untested_joint_on_demand",
    "adaptive_marginal_system_pfd",
    "adaptive_campaign_pfd",
    "adaptive_joint_on_demand",
]

#: smallest round worth dispatching — avoids long tails of tiny top-up
#: rounds when the projection lands just short
_MIN_ROUND = 64

# ambient per-thread round observer (see set_round_observer); thread-local
# so concurrent adaptive runs in different worker threads cannot observe
# each other's rounds
_ROUND_OBSERVER = threading.local()


def set_round_observer(
    callback: Optional[Callable[[Dict[str, object]], None]],
) -> Optional[Callable[[Dict[str, object]], None]]:
    """Install an ambient per-thread progress callback; returns the previous.

    While installed, every :func:`run_adaptive` round on this thread calls
    ``callback`` with the same payload an explicit ``on_round`` argument
    receives (see :func:`run_adaptive`).  This is how long-lived hosts —
    the ``repro.service`` job scheduler in particular — observe convergence
    progress from adaptive runs buried deep inside experiment runners
    without threading a callback through every layer, mirroring
    :func:`repro.experiments.base.set_engine_config`.  Pass ``None`` to
    uninstall.  Callback exceptions propagate: observers must be
    fire-and-forget.
    """
    previous = getattr(_ROUND_OBSERVER, "callback", None)
    _ROUND_OBSERVER.callback = callback
    return previous


def round_observer() -> Optional[Callable[[Dict[str, object]], None]]:
    """The ambient round observer installed on this thread, if any."""
    return getattr(_ROUND_OBSERVER, "callback", None)


@dataclass(frozen=True)
class MetricSpec:
    """One adaptively-estimated quantity.

    Attributes
    ----------
    name:
        Metric key in the report.
    kernel:
        Picklable chunk callable ``(index, count, seed) -> (index,
        replications, payload)``; payload is a per-stratum moments mapping
        for ``kind="mean"`` or a ``(successes, count)`` pair for
        ``kind="proportion"``.
    kind:
        ``"mean"`` or ``"proportion"``.
    weights:
        Exact stratum weights for post-stratified reduction (``None`` for
        pooled estimation).
    anchor:
        Exactly-known control mean for the control-variate estimator.
    scale:
        Optional reference scale for *relative* targets (defaults to the
        running ``|mean|``); pinned by metrics whose mean can sit
        arbitrarily close to zero.
    vr:
        The resolved variance-reduction technique (for reporting).
    """

    name: str
    kernel: Callable
    kind: str = "mean"
    weights: Optional[Dict[int, float]] = None
    anchor: Optional[float] = None
    scale: Optional[float] = None
    vr: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in ("mean", "proportion"):
            raise ModelError(
                f"metric kind must be 'mean' or 'proportion', got {self.kind!r}"
            )


@dataclass(frozen=True)
class MetricReport:
    """Outcome of one metric's adaptive estimation."""

    name: str
    estimate: Estimate
    converged: bool
    replications: int
    rounds: int
    threshold: float
    vr: str
    kind: str = "mean"

    def as_estimator(self, report: Optional["AdaptiveReport"] = None):
        """Package the estimate as a standard streaming estimator.

        This is how the ``simulate_*`` drivers keep their return types
        under ``precision=``: a :class:`~repro.mc.estimator.MeanEstimator`
        (or :class:`~repro.mc.estimator.ProportionEstimator`) whose mean,
        standard error and intervals reproduce the adaptive estimate —
        for variance-reduced means the moments are *synthesised* from the
        adjusted estimate, so ``mean``/``std_error()`` report the
        variance-reduced values, not the raw sample's.  When ``report``
        is given it is attached as an ``adaptive`` attribute for callers
        that want the convergence metadata.
        """
        from ..mc.estimator import MeanEstimator, ProportionEstimator

        estimate = self.estimate
        if self.kind == "proportion":
            estimator = ProportionEstimator()
            estimator.add_many(
                int(round(estimate.mean * estimate.count)), estimate.count
            )
        else:
            estimator = MeanEstimator()
            if estimate.count:
                if not math.isfinite(estimate.std_error):
                    raise ModelError(
                        "cannot package an estimate without a finite "
                        "standard error"
                    )
                m2 = (
                    estimate.std_error**2
                    * estimate.count
                    * max(estimate.count - 1, 0)
                )
                estimator.add_moments(estimate.count, estimate.mean, m2)
        if report is not None:
            estimator.adaptive = report
        return estimator

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe summary for ``ExperimentResult.extra`` / the store."""
        return {
            "mean": float(self.estimate.mean),
            "std_error": float(self.estimate.std_error),
            "half_width": float(self.estimate.half_width),
            "threshold": float(self.threshold),
            "confidence": float(self.estimate.confidence),
            "observations": int(self.estimate.count),
            "replications": int(self.replications),
            "rounds": int(self.rounds),
            "converged": bool(self.converged),
            "vr": str(self.vr),
        }


@dataclass(frozen=True)
class AdaptiveReport:
    """Outcome of one :func:`run_adaptive` call across all its metrics."""

    metrics: Dict[str, MetricReport]
    target: PrecisionTarget
    rounds: int

    @property
    def converged(self) -> bool:
        """True iff every metric met its target within budget."""
        return all(metric.converged for metric in self.metrics.values())

    @property
    def replications(self) -> int:
        """Total replications spent across all metrics."""
        return sum(metric.replications for metric in self.metrics.values())

    @property
    def only(self) -> MetricReport:
        """The single metric of a one-metric run."""
        if len(self.metrics) != 1:
            raise ModelError(
                f"report tracks {len(self.metrics)} metrics; ask by name"
            )
        return next(iter(self.metrics.values()))

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe summary for ``ExperimentResult.extra`` / the store."""
        return {
            "converged": bool(self.converged),
            "replications": int(self.replications),
            "rounds": int(self.rounds),
            "target": self.target.to_params(),
            "metrics": {
                name: metric.to_payload()
                for name, metric in sorted(self.metrics.items())
            },
        }


def iter_adaptive_runs(payload):
    """Yield every :meth:`AdaptiveReport.to_payload` dict inside ``payload``.

    Experiments nest their adaptive reports under arbitrary labels in
    ``ExperimentResult.extra["adaptive"]`` (per shape, per grid point, per
    campaign); this walker is the single definition of that shape, shared
    by the printed report's summary line and the sweep layer's Neyman
    sigma extraction — so the payload structure cannot silently drift
    apart between consumers.
    """
    if not isinstance(payload, dict):
        return
    if "metrics" in payload and "replications" in payload:
        yield payload
        return
    for value in payload.values():
        yield from iter_adaptive_runs(value)


class _MetricState:
    """Mutable per-metric bookkeeping inside the controller loop."""

    def __init__(self, spec: MetricSpec, stream) -> None:
        self.spec = spec
        self.stream = stream
        self.accumulator = (
            ProportionAccumulator()
            if spec.kind == "proportion"
            else StratifiedAccumulator()
        )
        self.replications = 0
        self.rounds = 0
        self.next_index = 0
        self.done = False

    def estimate(self, confidence: float) -> Estimate:
        spec = self.spec
        if spec.kind == "proportion":
            return self.accumulator.estimate(confidence)
        weights = spec.weights if spec.weights is not None else {POOLED: 1.0}
        return self.accumulator.estimate(
            weights, confidence, anchor=spec.anchor
        )

    def absorb(self, index: int, replications: int, payload) -> None:
        if self.spec.kind == "proportion":
            successes, count = payload
            self.accumulator.add_chunk(index, successes, count)
        else:
            self.accumulator.add_chunk(index, payload)
        self.replications += int(replications)


def _dispatch_chunk(kernels: Dict[str, Callable], task):
    """Run one (metric, chunk) task — module level for process pools."""
    name, chunk_task = task
    index, replications, payload = kernels[name](chunk_task)
    return name, index, replications, payload


def _round_allotment(
    state: _MetricState, estimate: Estimate, target: PrecisionTarget
) -> int:
    """Replications the next round should add for one unmet metric."""
    budget = target.budget
    remaining = (
        math.inf if budget is None else budget - state.replications
    )
    if remaining <= 0:
        return 0
    if state.replications == 0:
        allotment = target.initial
    else:
        threshold = target.threshold(estimate.mean, state.spec.scale)
        allotment = None
        if threshold > 0.0 and math.isfinite(estimate.std_error):
            # project the total sample the observed spread implies, with a
            # 10% safety margin for the spread estimate's own noise
            from ..extensions.stopping import replications_for_half_width

            spread = estimate.std_error * math.sqrt(max(estimate.count, 1))
            if spread > 0.0:
                needed = replications_for_half_width(
                    spread, threshold, estimate.confidence
                )
                allotment = math.ceil(1.1 * needed) - state.replications
        if allotment is None or allotment <= 0:
            allotment = state.replications  # geometric fallback: double
        # never escalate the cumulative count past the growth cap
        cap = math.ceil(state.replications * target.growth) - state.replications
        allotment = min(allotment, cap)
        allotment = max(allotment, min(_MIN_ROUND, cap))
    if allotment > remaining:
        allotment = int(remaining)
    return max(int(allotment), 0)


def _round_payload(
    round_number: int,
    names: Sequence[str],
    states: Dict[str, "_MetricState"],
    target: PrecisionTarget,
) -> Dict[str, object]:
    """The progress payload emitted after one controller round."""
    metrics: Dict[str, object] = {}
    for name in sorted(names):
        state = states[name]
        estimate = state.estimate(target.confidence)
        threshold = target.threshold(estimate.mean, state.spec.scale)
        metrics[name] = {
            "replications": int(state.replications),
            "mean": float(estimate.mean),
            "half_width": float(estimate.half_width),
            "threshold": float(threshold),
            "converged": bool(
                target.met(estimate.mean, estimate.half_width, state.spec.scale)
            ),
        }
    return {"round": int(round_number), "metrics": metrics}


def run_adaptive(
    metrics: Sequence[MetricSpec],
    target: PrecisionTarget,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    on_round: Optional[Callable[[Dict[str, object]], None]] = None,
) -> AdaptiveReport:
    """Estimate every metric to its precision target (or budget).

    Results are deterministic in ``rng`` and bit-identical for any
    ``n_jobs``: chunk seeds are drawn per metric in declaration order
    before any work runs, and accumulators reduce in chunk-index order
    regardless of completion order.

    After each round, ``on_round`` (and the ambient per-thread observer
    installed with :func:`set_round_observer`, if any) receives a progress
    payload — ``{"round": n, "metrics": {name: {"replications",
    "mean", "half_width", "threshold", "converged"}}}`` covering the
    metrics that ran in that round.  Observation never changes results:
    the payload is derived from the same accumulator state the stopping
    decision reads.
    """
    if not metrics:
        raise ModelError("run_adaptive needs at least one metric")
    names = [spec.name for spec in metrics]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate metric name(s) in {names}")
    if target.budget is None:
        raise ModelError(
            "run_adaptive needs a bounded target; call "
            "target.with_defaults(budget=...) first"
        )
    if chunk_size is None:
        chunk_size = _DEFAULT_CHUNK
    if chunk_size < 1:
        raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")
    from ..mc.batch import run_tasks

    root = as_generator(rng)
    streams = spawn_many(root, len(metrics))
    states = {
        spec.name: _MetricState(spec, stream)
        for spec, stream in zip(metrics, streams)
    }
    kernels = {spec.name: spec.kernel for spec in metrics}
    rounds = 0
    while True:
        tasks: List[Tuple[str, Tuple[int, int, int]]] = []
        for name in names:
            state = states[name]
            if state.done:
                continue
            estimate = (
                state.estimate(target.confidence)
                if state.replications
                else None
            )
            if estimate is not None and target.met(
                estimate.mean, estimate.half_width, state.spec.scale
            ):
                state.done = True
                continue
            allotment = _round_allotment(
                state,
                estimate
                if estimate is not None
                else Estimate(math.nan, math.inf, math.inf, 0, target.confidence),
                target,
            )
            if allotment <= 0:
                state.done = True  # budget exhausted
                continue
            state.rounds += 1
            remaining = allotment
            while remaining > 0:
                step = min(chunk_size, remaining)
                seed = int(
                    state.stream.integers(0, 2**63 - 1, dtype="int64")
                )
                tasks.append((name, (state.next_index, step, seed)))
                state.next_index += 1
                remaining -= step
        if not tasks:
            break
        rounds += 1
        from ..obs import span as _obs_span

        with _obs_span(
            "adaptive.round",
            round=rounds,
            chunks=len(tasks),
            replications=sum(step for _, (_, step, _) in tasks),
        ):
            results = run_tasks(
                partial(_dispatch_chunk, kernels), tasks, n_jobs
            )
            for name, index, replications, payload in results:
                states[name].absorb(index, replications, payload)
        observer = round_observer()
        if on_round is not None or observer is not None:
            progress = _round_payload(
                rounds, sorted({name for name, _ in tasks}), states, target
            )
            if on_round is not None:
                on_round(progress)
            if observer is not None:
                observer(progress)
    reports = {}
    for name in names:
        state = states[name]
        estimate = state.estimate(target.confidence)
        threshold = target.threshold(estimate.mean, state.spec.scale)
        reports[name] = MetricReport(
            name=name,
            estimate=estimate,
            converged=target.met(
                estimate.mean, estimate.half_width, state.spec.scale
            ),
            replications=state.replications,
            rounds=state.rounds,
            threshold=threshold,
            vr=state.spec.vr,
            kind=state.spec.kind,
        )
    return AdaptiveReport(metrics=reports, target=target, rounds=rounds)


# ---------------------------------------------------------------------------
# adapters for the library's standard estimands
# ---------------------------------------------------------------------------


def adaptive_version_pfd(
    population,
    generator,
    profile,
    target: PrecisionTarget,
    oracle=None,
    fixing=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    name: str = "version_pfd",
) -> AdaptiveReport:
    """Adaptive mean post-test version pfd — eq. (14)'s ``E_Q[ζ(X)]``.

    The precision-targeted counterpart of
    :func:`repro.mc.simulate_version_pfd`: control variate anchored on the
    exact untested mean ``E_Q[θ]``, post-stratified on the version's fault
    count when the population's pmf is exact.
    """
    plan = _testing_plan(oracle, fixing)
    population.space.require_same(profile.space)
    target = target.with_defaults(budget=default_budget)
    weights = fault_count_pmf(population)
    vr = resolve_vr(target.vr, has_strata=weights is not None, has_anchor=True)
    spec = MetricSpec(
        name=name,
        kernel=partial(
            version_pfd_chunk, population, generator, profile, plan, vr
        ),
        weights=weights if vr in ("stratified", "stratified+control") else None,
        anchor=(
            population.pfd(profile)
            if vr in ("control", "stratified+control")
            else None
        ),
        vr=vr,
    )
    return run_adaptive(
        [spec], target, rng=rng, n_jobs=n_jobs, chunk_size=chunk_size
    )


def adaptive_untested_joint_pfd(
    population_a,
    profile,
    target: PrecisionTarget,
    population_b=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    name: str = "untested_joint_pfd",
) -> AdaptiveReport:
    """Adaptive untested joint pfd ``E[Θ_A(X) Θ_B(X)]`` — eqs. (4)/(6).

    Control variate: the pair's average marginal pfd, whose exact mean is
    ``(E[Θ_A] + E[Θ_B]) / 2``; strata: the pair's total fault count.
    """
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    target = target.with_defaults(budget=default_budget)
    weights = pair_fault_count_pmf(population_a, population_b)
    vr = resolve_vr(
        target.vr, has_strata=weights is not None, has_anchor=True
    )
    spec = MetricSpec(
        name=name,
        kernel=partial(
            untested_joint_pfd_chunk, population_a, population_b, profile, vr
        ),
        weights=weights if vr in ("stratified", "stratified+control") else None,
        anchor=(
            0.5 * (population_a.pfd(profile) + population_b.pfd(profile))
            if vr in ("control", "stratified+control")
            else None
        ),
        vr=vr,
    )
    return run_adaptive(
        [spec], target, rng=rng, n_jobs=n_jobs, chunk_size=chunk_size
    )


def adaptive_marginal_system_pfd(
    regime,
    population_a,
    profile,
    target: PrecisionTarget,
    population_b=None,
    oracle=None,
    fixing=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    name: str = "system_pfd",
) -> AdaptiveReport:
    """Adaptive tested 1-out-of-2 system pfd — eqs. (22)–(25).

    Control variate: the *untested* joint pfd of the same drawn pair,
    whose exact mean is ``E_Q[θ_A θ_B]``; strata: pair fault count.
    """
    plan = _testing_plan(oracle, fixing)
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    target = target.with_defaults(budget=default_budget)
    weights = pair_fault_count_pmf(population_a, population_b)
    vr = resolve_vr(
        target.vr, has_strata=weights is not None, has_anchor=True
    )
    anchor = None
    if vr in ("control", "stratified+control"):
        anchor = float(
            profile.expectation(
                population_a.difficulty() * population_b.difficulty()
            )
        )
    spec = MetricSpec(
        name=name,
        kernel=partial(
            marginal_system_pfd_chunk,
            regime,
            population_a,
            population_b,
            profile,
            plan,
            vr,
        ),
        weights=weights if vr in ("stratified", "stratified+control") else None,
        anchor=anchor,
        vr=vr,
    )
    return run_adaptive(
        [spec], target, rng=rng, n_jobs=n_jobs, chunk_size=chunk_size
    )


def adaptive_campaign_pfd(
    campaign,
    population_a,
    profile,
    target: PrecisionTarget,
    population_b=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    scale: Optional[float] = None,
    name: str = "campaign_pfd",
) -> AdaptiveReport:
    """Adaptive mean final system pfd of a development campaign (§5).

    Any campaign runs: its activities transform the chunk's fault-matrix
    blocks, custom ones on the blocks' per-row plan
    (:meth:`repro.extensions.Activity.apply_batch`).  ``scale`` anchors
    relative targets for campaigns whose delivered pfd sits near zero —
    ``x3`` passes the exact untested system pfd, so ``rel_hw`` reads as
    "this fraction of the untested baseline".
    """
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    target = target.with_defaults(budget=default_budget)
    weights = pair_fault_count_pmf(population_a, population_b)
    vr = resolve_vr(
        target.vr, has_strata=weights is not None, has_anchor=True
    )
    anchor = None
    if vr in ("control", "stratified+control"):
        anchor = float(
            profile.expectation(
                population_a.difficulty() * population_b.difficulty()
            )
        )
    spec = MetricSpec(
        name=name,
        kernel=partial(
            campaign_pfd_chunk, campaign, population_a, population_b, profile, vr
        ),
        weights=weights if vr in ("stratified", "stratified+control") else None,
        anchor=anchor,
        scale=scale,
        vr=vr,
    )
    return run_adaptive(
        [spec], target, rng=rng, n_jobs=n_jobs, chunk_size=chunk_size
    )


def _adaptive_proportion(
    name, kernel, target, rng, n_jobs, chunk_size, default_budget
) -> AdaptiveReport:
    """Run one proportion metric; ``kernel`` maps ``(count, seed)`` to
    ``(successes, count)``.  Chunks accumulate exact integer counts and the
    stopping half-width is the Wilson interval's, so no VR transform
    exists: an *explicit* request for one fails loudly (as
    :func:`repro.adaptive.variance.resolve_vr` does) instead of silently
    running plain sampling under a misleading label.
    """
    if target.vr not in ("auto", "none"):
        raise ModelError(
            f"vr={target.vr!r} does not apply to proportion metrics "
            "(exact integer counts, Wilson intervals); use vr='none' or "
            "vr='auto'"
        )
    spec = MetricSpec(
        name=name,
        kernel=partial(proportion_chunk, kernel),
        kind="proportion",
        vr="none",
    )
    target = target.with_defaults(budget=default_budget)
    return run_adaptive(
        [spec], target, rng=rng, n_jobs=n_jobs, chunk_size=chunk_size
    )


def adaptive_untested_joint_on_demand(
    population_a,
    demand: int,
    target: PrecisionTarget,
    population_b=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    name: str = "untested_joint_on_demand",
) -> AdaptiveReport:
    """Adaptive ``P(both untested versions fail on x)`` — the eq. (4) check."""
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    kernel = partial(_chunk_untested_joint, population_a, population_b, demand)
    return _adaptive_proportion(
        name, kernel, target, rng, n_jobs, chunk_size, default_budget
    )


def adaptive_joint_on_demand(
    regime,
    population_a,
    demand: int,
    target: PrecisionTarget,
    population_b=None,
    oracle=None,
    fixing=None,
    rng: SeedLike = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    default_budget: Optional[int] = None,
    name: str = "joint_on_demand",
) -> AdaptiveReport:
    """Adaptive ``P(both tested versions fail on x)`` — eqs. (16)–(21).

    A proportion metric on the fixed-n tested-pair chunk, bound to the one
    demand.
    """
    plan = _testing_plan(oracle, fixing)
    population_b = population_b if population_b is not None else population_a
    demand = population_a.space.validate_demand(demand)
    kernel = partial(
        _chunk_tested_joint, regime, population_a, population_b, [demand], plan
    )
    return _adaptive_proportion(
        name, kernel, target, rng, n_jobs, chunk_size, default_budget
    )
