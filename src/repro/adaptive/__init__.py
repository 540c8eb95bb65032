"""Adaptive precision engine: precision-targeted replication control.

Instead of burning a fixed ``n_replications`` per Monte-Carlo experiment —
oversampling tight points and undersampling noisy tails — this subsystem
runs *sequential escalating rounds* until each tracked metric's
confidence-interval half-width meets a declarative
:class:`~repro.adaptive.targets.PrecisionTarget` (or a hard budget runs
out), with variance-reduction kernels (control variates anchored on the
analytic layer's exact means, post-stratification on exact fault-count
pmfs) cutting the replications-to-target further.

Layers, bottom up:

* :mod:`~repro.adaptive.targets` — the declarative stopping criteria,
  parseable from Python, TOML sweep grids and the CLI;
* :mod:`~repro.adaptive.accumulators` — chunk-keyed mergeable moment
  accumulators whose reductions are exactly chunk-order and worker-count
  invariant;
* :mod:`~repro.adaptive.variance` — the variance-reduction chunk kernels
  riding the batch engine's matrix primitives;
* :mod:`~repro.adaptive.controller` — the escalating-round driver and the
  per-estimand adapters.

See ``docs/adaptive.md`` for the user-level guide.
"""

from .accumulators import (
    BivariateMoments,
    Estimate,
    MeanAccumulator,
    ProportionAccumulator,
    StratifiedAccumulator,
    moments_of,
)
from .controller import (
    AdaptiveReport,
    MetricReport,
    MetricSpec,
    adaptive_campaign_pfd,
    adaptive_joint_on_demand,
    adaptive_marginal_system_pfd,
    adaptive_untested_joint_on_demand,
    adaptive_untested_joint_pfd,
    adaptive_version_pfd,
    iter_adaptive_runs,
    round_observer,
    run_adaptive,
    set_round_observer,
)
from .targets import VR_MODES, PrecisionTarget
from .variance import fault_count_pmf, pair_fault_count_pmf, resolve_vr

__all__ = [
    "AdaptiveReport",
    "BivariateMoments",
    "Estimate",
    "MeanAccumulator",
    "MetricReport",
    "MetricSpec",
    "PrecisionTarget",
    "ProportionAccumulator",
    "StratifiedAccumulator",
    "VR_MODES",
    "adaptive_campaign_pfd",
    "adaptive_joint_on_demand",
    "adaptive_marginal_system_pfd",
    "adaptive_untested_joint_on_demand",
    "adaptive_untested_joint_pfd",
    "adaptive_version_pfd",
    "fault_count_pmf",
    "iter_adaptive_runs",
    "moments_of",
    "pair_fault_count_pmf",
    "resolve_vr",
    "round_observer",
    "run_adaptive",
    "set_round_observer",
]
