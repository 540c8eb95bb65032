"""Monte-Carlo estimation layer.

Simulates the paper's *full generative process* — draw versions from ``S``,
suites from ``M`` per the regime's coupling, apply testing, evaluate failures
— and reports estimates with confidence intervals.  Used to validate the
analytic layer and to handle models outside its reach (non-enumerable suite
measures, imperfect oracles, back-to-back dynamics).
"""

from .estimator import MeanEstimator, ProportionEstimator
from .experiments import (
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_untested_joint_on_demand,
    simulate_version_pfd,
)
from .batch import (
    apply_blind_testing_batch,
    apply_coverage_testing_batch,
    apply_imperfect_testing_batch,
    apply_testing_batch,
    back_to_back_batch,
    back_to_back_supported,
    batch_supported,
    run_tasks,
)

__all__ = [
    "ProportionEstimator",
    "MeanEstimator",
    "simulate_joint_on_demand",
    "simulate_untested_joint_on_demand",
    "simulate_marginal_system_pfd",
    "simulate_version_pfd",
    "apply_testing_batch",
    "apply_imperfect_testing_batch",
    "apply_blind_testing_batch",
    "apply_coverage_testing_batch",
    "back_to_back_batch",
    "back_to_back_supported",
    "batch_supported",
    "run_tasks",
]
