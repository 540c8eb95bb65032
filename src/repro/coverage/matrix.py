"""Coverage matrices: which components each test exercises.

A :class:`CoverageMatrix` is a boolean ``(n_tests, n_components)`` array —
row ``t`` marks the components test ``t`` covers.  Two constructors are
provided:

* :func:`synthetic_coverage` — a seeded generator with ``density``,
  ``bandwidth`` and ``overlap`` knobs, for sweeping coverage structure;
* :func:`empirical_coverage` — grounded in the committed mutation
  campaigns (:mod:`repro.mutation.measured`): mutants bucket into
  components by source line, and test ``t`` covers component ``k`` iff it
  killed at least one of ``k``'s mutants.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import as_generator
from ..types import SeedLike
from .components import _line_buckets

__all__ = [
    "CoverageMatrix",
    "empirical_coverage",
    "measured_component_assignment",
    "synthetic_coverage",
]


class CoverageMatrix:
    """Boolean tests × components coverage.

    Parameters
    ----------
    covered:
        2-d boolean array-like of shape ``(n_tests, n_components)``.
        Both dimensions must be positive.
    """

    def __init__(self, covered: np.ndarray) -> None:
        matrix = np.asarray(covered, dtype=bool)
        if matrix.ndim != 2:
            raise ModelError(
                f"coverage matrix must be 2-d (tests x components), got "
                f"shape {matrix.shape}"
            )
        if matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ModelError(
                f"coverage matrix needs at least one test and one "
                f"component, got shape {matrix.shape}"
            )
        self._covered = matrix.copy()
        self._covered.setflags(write=False)

    @property
    def covered(self) -> np.ndarray:
        """Read-only boolean ``(n_tests, n_components)`` array."""
        return self._covered

    @property
    def n_tests(self) -> int:
        return self._covered.shape[0]

    @property
    def n_components(self) -> int:
        return self._covered.shape[1]

    @property
    def density(self) -> float:
        """Fraction of (test, component) cells covered."""
        return float(self._covered.mean())

    def component_densities(self) -> np.ndarray:
        """Per-component fraction of tests covering it, length ``K``."""
        return self._covered.mean(axis=0)

def synthetic_coverage(
    n_tests: int,
    n_components: int,
    density: float = 0.5,
    bandwidth: int | None = None,
    overlap: float = 0.0,
    rng: SeedLike = None,
) -> CoverageMatrix:
    """A seeded banded random coverage matrix.

    Each test ``t`` has a *focus window* of ``bandwidth`` consecutive
    components centred (after clamping at the edges) on
    ``round(t * (K-1) / (T-1))``, modelling test locality.  Within the
    window every component is covered independently with probability
    ``density``; outside it with probability ``overlap * density``.  The
    focus component itself is always covered, so every test covers at
    least one component and — whenever ``n_tests >= n_components`` —
    every component is covered by at least one test.

    ``bandwidth=None`` (the default) spans all components: pure
    density-``density`` random coverage with a guaranteed diagonal.
    Deterministic for a given seed.
    """
    if n_tests < 1 or n_components < 1:
        raise ModelError(
            f"need n_tests >= 1 and n_components >= 1, got "
            f"{n_tests} x {n_components}"
        )
    if not 0.0 <= density <= 1.0:
        raise ModelError(f"density must be in [0, 1], got {density}")
    if not 0.0 <= overlap <= 1.0:
        raise ModelError(f"overlap must be in [0, 1], got {overlap}")
    if bandwidth is None:
        bandwidth = n_components
    if bandwidth < 1:
        raise ModelError(f"bandwidth must be >= 1, got {bandwidth}")
    bandwidth = min(bandwidth, n_components)
    generator = as_generator(rng)
    if n_tests == 1:
        centres = np.array([(n_components - 1) // 2], dtype=np.int64)
    else:
        centres = np.round(
            np.arange(n_tests) * (n_components - 1) / (n_tests - 1)
        ).astype(np.int64)
    starts = np.clip(
        centres - (bandwidth - 1) // 2, 0, n_components - bandwidth
    )
    columns = np.arange(n_components)[None, :]
    in_window = (columns >= starts[:, None]) & (
        columns < starts[:, None] + bandwidth
    )
    probs = np.where(in_window, density, overlap * density)
    covered = generator.random((n_tests, n_components)) < probs
    covered[np.arange(n_tests), centres] = True
    return CoverageMatrix(covered)


def _measured_entry(target: str):
    from ..mutation.measured import MEASURED, measured_target_names

    try:
        return MEASURED[target]
    except KeyError:
        known = ", ".join(measured_target_names()) or "<none>"
        raise ModelError(
            f"no committed measurement for target {target!r} (known: {known})"
        ) from None


def measured_component_assignment(
    target: str, n_components: int
) -> np.ndarray:
    """Per-mutant component ids for one bundled target.

    Mutants bucket into ``n_components`` contiguous source-line bands
    (the bucketing :func:`empirical_coverage` uses), in the committed
    mutant order — so index ``f`` here matches fault ``f`` of a universe
    built from the same target's fit.
    """
    if n_components < 1:
        raise ModelError(f"n_components must be >= 1, got {n_components}")
    entry = _measured_entry(target)
    lines = np.asarray([m["line"] for m in entry["mutants"]], dtype=np.int64)
    return _line_buckets(lines, n_components)


def empirical_coverage(target: str, n_components: int) -> CoverageMatrix:
    """Tests × components coverage from the committed kill records.

    Test ``t`` covers component ``k`` iff it killed at least one mutant
    whose source line falls in ``k``'s band — observed detection ability
    standing in for structural coverage.  Rows are the target's baseline
    tests in sorted-nodeid order; timeout/error mutants count as killed
    by every test, matching the campaign's ``detected`` tally.
    """
    entry = _measured_entry(target)
    assignment = measured_component_assignment(target, n_components)
    covered = np.zeros((int(entry["n_tests"]), n_components), dtype=bool)
    for mutant, component in zip(entry["mutants"], assignment):
        for test_index in mutant["kills"]:
            covered[test_index, component] = True
    return CoverageMatrix(covered)
