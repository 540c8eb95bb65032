"""Adaptive precision engine: precision-targeted replication control.

Instead of burning a fixed ``n_replications`` per Monte-Carlo experiment —
oversampling tight points and undersampling noisy tails — this subsystem
runs *sequential escalating rounds* until each tracked metric's
confidence-interval half-width meets a declarative
:class:`~repro.adaptive.targets.PrecisionTarget` (or a hard budget runs
out), with control variates anchored on the analytic layer's exact means
cutting the replications-to-target further.

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
from .variance import resolve_vr

__all__ = [
    "AdaptiveReport",
    "BivariateMoments",
    "Estimate",
    "MeanAccumulator",
    "MetricReport",
    "MetricSpec",
    "PrecisionTarget",
    "ProportionAccumulator",
    "VR_MODES",
    "adaptive_campaign_pfd",
    "adaptive_joint_on_demand",
    "adaptive_marginal_system_pfd",
    "adaptive_untested_joint_on_demand",
    "adaptive_untested_joint_pfd",
    "adaptive_version_pfd",
    "iter_adaptive_runs",
    "moments_of",
    "resolve_vr",
    "round_observer",
    "run_adaptive",
    "set_round_observer",
]
