"""Core models: the paper's probabilistic framework.

* :mod:`repro.core.score` — the score functions ``υ(π,x)`` and ``υ(π,x,t)``.
* :mod:`repro.core.el` — the Eckhardt–Lee model (eqs. (1)–(7)).
* :mod:`repro.core.lm` — the Littlewood–Miller model (eqs. (8)–(10)).
* :mod:`repro.core.tested` — tested-population quantities ``ς``, ``ξ``,
  ``η``, ``ζ`` (eqs. (12)–(14)) with exact and sampled evaluation.
* :mod:`repro.core.regimes` — testing regimes as first-class objects.
* :mod:`repro.core.joint` — joint failure probability on a fixed demand for
  every regime (eqs. (15)–(21)).
* :mod:`repro.core.marginal` — marginal system pfd (eqs. (22)–(25)).
* :mod:`repro.core.bounds` — §4 bounds (imperfect oracle/fixing,
  back-to-back envelope).
* :mod:`repro.core.systems` — 1-out-of-2 / 1-out-of-N system wrappers.
"""

from .score import score_after_perfect_testing, score_before_testing
from .el import ELModel
from .lm import LMModel
from .tested import SuiteMoments, TestedPopulationView, cross_suite_moments
from .regimes import (
    ForcedTestingDiversity,
    IndependentSuites,
    SameSuite,
    TestingRegime,
)
from .joint import JointFailureDecomposition, joint_failure_probability
from .marginal import MarginalDecomposition, marginal_system_pfd
from .bounds import (
    BackToBackEnvelope,
    BoundsReport,
    back_to_back_envelope,
    imperfect_system_bounds,
    imperfect_system_envelope,
    imperfect_testing_bounds,
    imperfect_version_envelope,
)
from .systems import OneOutOfNSystem, OneOutOfTwoSystem

__all__ = [
    "score_before_testing",
    "score_after_perfect_testing",
    "ELModel",
    "LMModel",
    "TestedPopulationView",
    "SuiteMoments",
    "cross_suite_moments",
    "TestingRegime",
    "IndependentSuites",
    "SameSuite",
    "ForcedTestingDiversity",
    "JointFailureDecomposition",
    "joint_failure_probability",
    "MarginalDecomposition",
    "marginal_system_pfd",
    "BoundsReport",
    "BackToBackEnvelope",
    "imperfect_testing_bounds",
    "imperfect_system_bounds",
    "imperfect_version_envelope",
    "imperfect_system_envelope",
    "back_to_back_envelope",
    "OneOutOfTwoSystem",
    "OneOutOfNSystem",
]
