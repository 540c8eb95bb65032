"""Growth curves: pfd as a function of testing effort.

All curves share one x-axis — the number of demands in the (operational)
test suite — and a y-axis of probability of failure per demand.  Exact
values come from :class:`~repro.analytic.BernoulliExactEngine` whenever the
population is Bernoulli; back-to-back curves are inherently dynamic and are
estimated by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..analytic.bernoulli_exact import BernoulliExactEngine
from ..demand import UsageProfile
from ..errors import ModelError
from ..mc.batch import apply_testing_batch, back_to_back_batch
from ..populations import BernoulliFaultPopulation, VersionPopulation
from ..rng import as_generator, spawn_many
from ..testing import BackToBackComparator, OperationalSuiteGenerator
from ..types import SeedLike
from ..versions import FailureOutputModel

__all__ = [
    "GrowthCurve",
    "version_growth_curve",
    "system_growth_curves",
    "back_to_back_growth_curves",
]


@dataclass(frozen=True)
class GrowthCurve:
    """A labelled pfd-versus-effort series.

    Attributes
    ----------
    label:
        What the series measures (e.g. ``"version pfd"``).
    sizes:
        Suite sizes (testing effort) — the x-axis.
    values:
        The pfd at each effort level — the y-axis.
    exact:
        True when values are analytic rather than simulated.
    """

    label: str
    sizes: np.ndarray
    values: np.ndarray
    exact: bool

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if sizes.ndim != 1 or sizes.shape != values.shape:
            raise ModelError(
                f"sizes {sizes.shape} and values {values.shape} must be "
                "1-D and equal length"
            )
        if sizes.size and np.any(np.diff(sizes) <= 0):
            raise ModelError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "values", values)

    @property
    def initial(self) -> float:
        """pfd at the smallest effort level."""
        return float(self.values[0])

    @property
    def final(self) -> float:
        """pfd at the largest effort level."""
        return float(self.values[-1])

    @property
    def total_improvement(self) -> float:
        """``initial − final`` — total pfd reduction over the sweep."""
        return self.initial - self.final

    def is_nonincreasing(self, tolerance: float = 1e-9) -> bool:
        """True iff the curve never rises by more than ``tolerance``.

        Exact curves under perfect testing are monotone by construction;
        simulated curves may need a noise tolerance.
        """
        return bool(np.all(np.diff(self.values) <= tolerance))

    def dominates(self, other: "GrowthCurve", tolerance: float = 0.0) -> bool:
        """True iff this curve is pointwise ≤ ``other`` (more reliable)."""
        if not np.array_equal(self.sizes, other.sizes):
            raise ModelError("curves have different effort grids")
        return bool(np.all(self.values <= other.values + tolerance))


def _effort_grid(sizes: Sequence[int]) -> np.ndarray:
    grid = np.asarray(list(sizes), dtype=np.int64)
    if grid.size == 0:
        raise ModelError("at least one suite size is required")
    if np.any(grid < 0):
        raise ModelError("suite sizes must be >= 0")
    if np.any(np.diff(grid) <= 0):
        raise ModelError("suite sizes must be strictly increasing")
    return grid


def version_growth_curve(
    population: BernoulliFaultPopulation,
    profile: UsageProfile,
    sizes: Sequence[int],
) -> GrowthCurve:
    """Exact mean post-test version pfd ``E_Q[ζ_n(X)]`` over an effort grid."""
    grid = _effort_grid(sizes)
    engine = BernoulliExactEngine(population.universe, profile)
    values = np.array([engine.version_pfd(population, int(n)) for n in grid])
    return GrowthCurve("version pfd", grid, values, exact=True)


def system_growth_curves(
    population_a: BernoulliFaultPopulation,
    profile: UsageProfile,
    sizes: Sequence[int],
    population_b: BernoulliFaultPopulation | None = None,
) -> Dict[str, GrowthCurve]:
    """Exact 1-out-of-2 system pfd curves under both suite-sharing regimes.

    Returns curves keyed ``"independent suites"`` and ``"same suite"``
    (eqs. (22)/(24) and (23)/(25) respectively, per effort level).  The
    same-suite curve is pointwise ≥ the independent-suites curve in the
    same-population case; under forced diversity the gap is the summed
    suite covariance and may favour either regime.
    """
    grid = _effort_grid(sizes)
    engine = BernoulliExactEngine(population_a.universe, profile)
    independent = np.array(
        [
            engine.system_pfd_independent_suites(
                population_a, int(n), population_b
            )
            for n in grid
        ]
    )
    same = np.array(
        [
            engine.system_pfd_same_suite(population_a, int(n), population_b)
            for n in grid
        ]
    )
    return {
        "independent suites": GrowthCurve(
            "system pfd (independent suites)", grid, independent, exact=True
        ),
        "same suite": GrowthCurve(
            "system pfd (same suite)", grid, same, exact=True
        ),
    }


def back_to_back_growth_curves(
    population_a: VersionPopulation,
    profile: UsageProfile,
    sizes: Sequence[int],
    output_model: FailureOutputModel,
    population_b: VersionPopulation | None = None,
    n_replications: int = 200,
    rng: SeedLike = None,
) -> Dict[str, GrowthCurve]:
    """Simulated back-to-back growth: system and mean version pfd vs effort.

    Every replication draws one version pair and one *maximal-length*
    operational suite, then replays prefixes of it for each effort level —
    a nested design that makes the curve internally consistent (the
    ``n+m``-test run extends the ``n``-test run instead of resampling).

    Curves ``"system"`` and ``"version"`` are back-to-back; ``"perfect"`` is
    the system pfd of a perfect oracle on the *same* pairs and prefixes.

    Draws use one spawned stream per replication and are then stacked; the
    §4.2 block kernel replays the prefixes segment by segment (the state
    after ``n`` demands feeds demands ``n..n'``), which equals replaying
    each prefix from scratch because perfect fixing draws no randomness.
    """
    grid = _effort_grid(sizes)
    if n_replications < 1:
        raise ModelError(f"n_replications must be >= 1, got {n_replications}")
    population_b = population_b if population_b is not None else population_a
    population_a.space.require_same(profile.space)
    population_b.space.require_same(profile.space)
    universe_a = population_a.universe
    universe_b = population_b.universe
    generator = OperationalSuiteGenerator(profile, int(grid[-1]))

    untested_a = np.zeros((n_replications, len(universe_a)), dtype=bool)
    untested_b = np.zeros((n_replications, len(universe_b)), dtype=bool)
    sequences = np.empty((n_replications, generator.size), dtype=np.int64)
    replications = spawn_many(as_generator(rng), n_replications)
    for row, replication in enumerate(replications):
        streams = spawn_many(replication, 3)
        untested_a[row, population_a.sample(streams[0]).fault_ids] = True
        untested_b[row, population_b.sample(streams[1]).fault_ids] = True
        sequences[row] = generator.sample(streams[2]).demands

    comparator = BackToBackComparator(output_model)
    probabilities = profile.probabilities

    def mean_pfds(block_a: np.ndarray, block_b: np.ndarray) -> tuple:
        """Replication-mean (system, version) pfd of a tested pair block."""
        fails_a = universe_a.failure_matrix(block_a)
        fails_b = universe_b.failure_matrix(block_b)
        version_pfd = 0.5 * (fails_a @ probabilities + fails_b @ probabilities)
        return ((fails_a & fails_b) @ probabilities).mean(), version_pfd.mean()

    faults_a, faults_b = untested_a, untested_b
    masks = np.zeros((n_replications, profile.space.size), dtype=bool)
    system, version, perfect = (np.empty(grid.size) for _ in range(3))
    start = 0
    for index, n in enumerate(grid):
        segment = sequences[:, start:n]
        faults_a, faults_b = back_to_back_batch(
            faults_a, faults_b, segment, universe_a, universe_b, comparator
        )
        system[index], version[index] = mean_pfds(faults_a, faults_b)
        np.put_along_axis(masks, segment, True, axis=1)
        perfect[index], _ = mean_pfds(
            apply_testing_batch(untested_a, masks, universe_a),
            apply_testing_batch(untested_b, masks, universe_b),
        )
        start = n
    label = f"back-to-back ({output_model.mode})"
    return {
        "system": GrowthCurve(f"system pfd, {label}", grid, system, exact=False),
        "version": GrowthCurve(f"version pfd, {label}", grid, version, exact=False),
        "perfect": GrowthCurve(
            "system pfd, perfect oracle", grid, perfect, exact=False
        ),
    }
