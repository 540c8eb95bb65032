"""Coverage-derived detection: the matched oracle/fixing pair.

A test can only detect faults in components it covers.  Under a uniform
pick over the suite pool, the chance that the test exercising a demand
covers fault ``f``'s component is that component's *column density* in
the coverage matrix — :func:`fault_detection_probs` turns a
:class:`~repro.coverage.ComponentModel` plus a
:class:`~repro.coverage.CoverageMatrix` into that per-fault vector.

:class:`CoverageOracle` / :class:`CoverageFixing` package the vector as a
matched pair for the testing engine: failures are always *observed* (the
output is visibly wrong), but each causing fault is *diagnosed* — traced
to its component and repaired — only with its coverage-derived
probability, independently per fault and per execution.  Independence
across faults is a deliberate simplification (the same one §4.1 makes for
imperfect fixing): it keeps each fault's removal a geometric process,
which is exactly what the batch engine vectorizes
(:func:`repro.mc.batch.apply_coverage_testing_batch`), equal in
distribution to the demand-ordered process.

The batch planner spots the pair by its ``fault_detection_probs``
attribute and imports this module only then (the same pattern as the
blind-spot pairs of :mod:`repro.extensions.mistakes`).  Only the exact
pair with equal tuples runs the vectorized closure; subclasses,
mismatched or half-supplied pairs run on the per-row plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ProbabilityError
from ..rng import as_generator
from ..testing.fixing import FixingPolicy
from ..testing.oracle import Oracle
from ..versions import Version
from .components import ComponentModel
from .matrix import CoverageMatrix

__all__ = [
    "CoverageFixing",
    "CoverageOracle",
    "coverage_testing_pair",
    "fault_detection_probs",
]


def fault_detection_probs(
    model: ComponentModel, matrix: CoverageMatrix
) -> np.ndarray:
    """Per-fault detection probability from coverage, length ``F``.

    ``probs[f]`` is the fraction of tests covering fault ``f``'s
    component — the marginal chance that the test exercising a demand can
    see the fault at all.  Faults in never-covered components get 0 and
    are undetectable (hence unfixable) under the pair built from this
    vector.
    """
    from ..errors import ModelError

    if matrix.n_components != model.n_components:
        raise ModelError(
            f"coverage matrix has {matrix.n_components} components but the "
            f"component model has {model.n_components}"
        )
    return matrix.component_densities()[model.assignment]


def _coerce_probs(probs) -> Tuple[float, ...]:
    """Validate a probability vector and freeze it as a float tuple."""
    values = np.asarray(probs, dtype=np.float64)
    if values.ndim != 1:
        raise ProbabilityError(
            f"fault_detection_probs must be a flat sequence, got shape "
            f"{values.shape}"
        )
    if values.size and (
        np.any(values < 0.0)
        or np.any(values > 1.0)
        or np.any(~np.isfinite(values))
    ):
        raise ProbabilityError(
            "per-fault detection probabilities must lie in [0, 1]"
        )
    return tuple(float(p) for p in values)


@dataclass(frozen=True)
class CoverageOracle(Oracle):
    """Failure observation under coverage-limited diagnosis.

    Every failure is *observed* (``detects`` is always True — a wrong
    output is visibly wrong); which causing faults get *diagnosed* is the
    matched :class:`CoverageFixing`'s per-fault decision.  Splitting the
    model this way keeps :func:`~repro.testing.apply_testing`'s
    oracle-then-fixing contract intact while the pair jointly realises
    "each fault detected and fixed with its coverage probability".
    """

    fault_detection_probs: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "fault_detection_probs",
            _coerce_probs(self.fault_detection_probs),
        )

    def detects(
        self, version: Version, demand: int, rng: np.random.Generator
    ) -> bool:
        return True


@dataclass(frozen=True)
class CoverageFixing(FixingPolicy):
    """Remove each causing fault with its coverage-derived probability.

    ``fault_detection_probs`` is indexed by *global* fault id, so it must
    span the full universe the tested versions live in.
    """

    fault_detection_probs: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "fault_detection_probs",
            _coerce_probs(self.fault_detection_probs),
        )

    def faults_removed(
        self, version: Version, demand: int, rng: np.random.Generator
    ) -> np.ndarray:
        causes = version.faults_causing_failure(demand)
        if causes.size == 0:
            return causes
        probs = np.asarray(self.fault_detection_probs, dtype=np.float64)
        generator = as_generator(rng)
        keep = generator.random(causes.size) < probs[causes]
        return causes[keep]


def coverage_testing_pair(
    model: ComponentModel, matrix: CoverageMatrix
) -> Tuple[CoverageOracle, CoverageFixing]:
    """The matched (oracle, fixing) pair for one model + coverage matrix.

    Pass both to the testing engine together; the batch planner
    recognises the exact pair and runs the vectorized closure.
    """
    probs = tuple(float(p) for p in fault_detection_probs(model, matrix))
    return CoverageOracle(probs), CoverageFixing(probs)
