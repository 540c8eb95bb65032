"""Difficulty functions derived from fault structure.

Under the Bernoulli population model — each fault ``f`` independently
present in a random version with probability ``p_f`` — the EL difficulty
function has the closed form

    theta(x) = P(some fault covering x is present)
             = 1 - prod_{f : x in R_f} (1 - p_f)                       (eq. (1))

and, for a *fixed* test suite ``t`` under perfect detection and fixing, the
post-test difficulty (the paper's ``ξ(x, t)``, eq. (13)) is the same product
restricted to faults whose regions the suite misses:

    xi(x, t) = 1 - prod_{f : x in R_f, R_f ∩ t = ∅} (1 - p_f)

These two functions are the bridge between the concrete fault substrate and
the abstract measure-theoretic quantities of the paper, and they are exact,
not sampled.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError, ProbabilityError
from .universe import FaultUniverse

__all__ = [
    "difficulty_from_bernoulli",
    "tested_difficulty_given_suite",
    "tested_difficulty_matrix",
]


def _validate_presence_probs(
    universe: FaultUniverse, presence_probs: Sequence[float] | np.ndarray
) -> np.ndarray:
    probs = np.asarray(presence_probs, dtype=np.float64)
    if probs.shape != (len(universe),):
        raise ModelError(
            f"presence probability vector length {probs.shape} does not "
            f"match universe size {len(universe)}"
        )
    if np.any(probs < 0.0) or np.any(probs > 1.0) or np.any(~np.isfinite(probs)):
        raise ProbabilityError("fault presence probabilities must lie in [0, 1]")
    return probs


def tested_difficulty_matrix(
    universe: FaultUniverse,
    presence_probs: Sequence[float] | np.ndarray,
    suite_masks: np.ndarray,
) -> np.ndarray:
    """Exact ``xi(x, t)`` for a block of suites — the one ξ kernel.

    ``suite_masks`` is a boolean ``[n_suites, n_demands]`` block (row ``s``
    is suite ``t_s`` as a demand-membership mask); row ``s`` of the result
    is ``xi(·, t_s)``.  Faults the suite misses survive
    (:meth:`FaultUniverse.triggered_matrix`), and the survivors' product is
    one log-space matrix product, ``1 - exp((survive * log1p(-p)) @
    coverage)``.  Surviving faults with ``p_f = 1`` force ``xi = 1`` on
    their region; handled exactly.
    """
    probs = _validate_presence_probs(universe, presence_probs)
    survive = ~universe.triggered_matrix(suite_masks)
    certain = probs >= 1.0
    log_miss = np.log1p(-np.where(certain, 0.0, probs))
    coverage = universe._coverage_float()
    xi = 1.0 - np.exp((survive * log_miss) @ coverage)
    if certain.any():
        forced = (survive[:, certain] @ coverage[certain]) > 0.5
        xi = np.where(forced, 1.0, xi)
    return np.clip(xi, 0.0, 1.0)


def difficulty_from_bernoulli(
    universe: FaultUniverse, presence_probs: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Exact ``theta(x)`` for a Bernoulli fault population, per demand.

    The empty-suite case of :func:`tested_difficulty_matrix`:
    ``xi(x, ∅) = theta(x)``.
    """
    untested = np.zeros((1, universe.space.size), dtype=bool)
    return tested_difficulty_matrix(universe, presence_probs, untested)[0]


def tested_difficulty_given_suite(
    universe: FaultUniverse,
    presence_probs: Sequence[float] | np.ndarray,
    suite_demands: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Exact ``xi(x, t)`` — difficulty after perfect testing with suite ``t``.

    The one-row case of :func:`tested_difficulty_matrix`.  Demand-wise,
    ``xi(x, t) <= theta(x)`` always holds, which is the paper's
    score-monotonicity property lifted to the population level.
    """
    mask = np.zeros((1, universe.space.size), dtype=bool)
    mask[0, universe.space.validate_demands(suite_demands)] = True
    return tested_difficulty_matrix(universe, presence_probs, mask)[0]
