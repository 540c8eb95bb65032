"""Exact analytics.

Two independent exact engines validate the whole stack:

* :mod:`repro.analytic.enumeration` — brute-force summation of the paper's
  defining expectations (eq. (15) and friends) over finitely enumerable
  populations and suite measures.  It deliberately does *not* use the
  paper's derived formulas, so agreement with :mod:`repro.core` confirms
  the derivations (16)–(25) as implemented.
* :mod:`repro.analytic.bernoulli_exact` — closed forms for Bernoulli fault
  populations under i.i.d. operational suites, via inclusion–exclusion
  over the faults covering each demand.  Polynomial in everything except
  the per-demand fault cover (exponential there, fine for sparse covers).
"""

from .enumeration import (
    exact_joint_per_demand,
    exact_marginal_system_pfd,
    exact_zeta,
)
from .bernoulli_exact import (
    BernoulliExactEngine,
    suite_miss_probability,
)

__all__ = [
    "exact_zeta",
    "exact_joint_per_demand",
    "exact_marginal_system_pfd",
    "BernoulliExactEngine",
    "suite_miss_probability",
]
