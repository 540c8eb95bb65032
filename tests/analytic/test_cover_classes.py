"""The engine's per-size-class passes against a per-cover reference, bit for bit.

:class:`BernoulliExactEngine` evaluates every distinct cover of one size in
one array pass.  ``_PerCover`` keeps the engine's earlier inner loops, one
Python iteration per distinct cover: each cover's union masses from its own
``bincount`` over its support demands in ascending order, then the signed
products dotted with ``(1 − Q(R_H))ⁿ`` by a 1-D ``@``.  Both run the same
floating-point operations in the same order, so every moment must be
``==``, not merely close.
"""

import tracemalloc
from math import comb

import numpy as np
import pytest

from repro.analytic import BernoulliExactEngine
from repro.demand import DemandSpace, UsageProfile, uniform_profile, zipf_profile
from repro.errors import ModelError
from repro.faults import FaultUniverse, clustered_universe
from repro.populations import BernoulliFaultPopulation


class _PerCover(BernoulliExactEngine):
    """The engine with one Python iteration per distinct cover."""

    def _expected_product(self, coefficients, n_tests):
        if n_tests < 0:
            raise ModelError(f"n_tests must be >= 0, got {n_tests}")
        out = np.ones(self._universe.space.size, dtype=np.float64)
        for demands, cover, miss_base in self._cover_groups(coefficients != 0.0):
            signed = np.ones(1 << len(cover), dtype=np.float64)
            for i, fault in enumerate(cover):
                signed[1 << i : 2 << i] = signed[: 1 << i] * -coefficients[fault]
            out[demands] = signed @ miss_base**n_tests
        return out

    def _cover_groups(self, nonzero):
        key = nonzero.tobytes()
        if key not in self._groups:
            cover_matrix = self._universe.coverage & nonzero[:, None]
            sizes = cover_matrix.sum(axis=0)
            if sizes.size and sizes.max() > self._max_cover:
                x = int(np.argmax(sizes > self._max_cover))
                raise ModelError(
                    f"demand {x} is covered by {sizes[x]} faults with non-zero "
                    f"coefficients; exceeds max_cover={self._max_cover}"
                )
            demands_of: dict = {}
            for x in np.flatnonzero(sizes):
                cover = tuple(np.flatnonzero(cover_matrix[:, x]))
                demands_of.setdefault(cover, []).append(x)
            self._groups[key] = [
                (np.array(demands), cover, self._miss_base(cover))
                for cover, demands in demands_of.items()
            ]
        return self._groups[key]

    def _miss_base(self, cover):
        k = len(cover)
        rows = self._universe.coverage[list(cover)]
        support = rows.any(axis=0)
        mass = np.bincount(
            (1 << np.arange(k)) @ rows[:, support],
            weights=self._profile.probabilities[support],
            minlength=1 << k,
        )
        for i in range(k):
            view = mass.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]
        return 1.0 - (mass[-1] - mass[::-1])


HUB = 17  # the demand every universe below gives its largest cover


def _random_universe(seed):
    """Demands covered by 0–12 faults each, several cover sizes at once."""
    rng = np.random.default_rng(seed)
    n_demands = int(rng.integers(30, 90))
    n_faults = int(rng.integers(12, 40))
    coverage = np.zeros((n_faults, n_demands), dtype=bool)
    top = 4 + seed % 9  # the largest cover of this universe, 4..12
    for x, size in enumerate(rng.integers(0, top + 1, size=n_demands)):
        coverage[rng.choice(n_faults, size, replace=False), x] = True
    coverage[:, HUB] = np.arange(n_faults) < top
    for fault in np.flatnonzero(~coverage.any(axis=1)):
        counts = coverage.sum(axis=0)
        counts[HUB] = top
        coverage[fault, np.argmin(counts)] = True
    space = DemandSpace(n_demands)
    return FaultUniverse.from_regions(space, [np.flatnonzero(row) for row in coverage])


def _profile(universe, seed):
    space = universe.space
    kind = seed % 3
    if kind == 0:
        return uniform_profile(space)
    if kind == 1:
        return zipf_profile(space, exponent=1.1)
    rng = np.random.default_rng(seed + 100)
    weights = rng.random(space.size)
    weights[rng.random(space.size) < 0.3] = 0.0  # zero-mass demands
    weights[0] += 0.1
    return UsageProfile.normalised(space, weights)


def _presence(universe, rng, zero_share):
    p = rng.random(len(universe))
    p[rng.random(len(universe)) < zero_share] = 0.0  # shrinks covers
    p[rng.random(len(universe)) < 0.1] = 1.0
    return p


def _moments(engine, pa, pb, n_tests):
    a = BernoulliFaultPopulation(engine._universe, pa)
    b = BernoulliFaultPopulation(engine._universe, pb)
    return {
        "zeta": engine.zeta(a, n_tests),
        "second": engine.xi_second_moment(a, n_tests),
        "cross": engine.xi_cross_moment(a, b, n_tests),
        "power": engine.xi_power_moment(b, n_tests, 3),
    }


@pytest.mark.parametrize("seed", range(12))
def test_moments_equal_the_per_cover_reference(seed):
    universe = _random_universe(seed)
    profile = _profile(universe, seed)
    # one engine of each kind, reused across non-zero patterns and suite sizes
    engine = BernoulliExactEngine(universe, profile)
    reference = _PerCover(universe, profile)
    rng = np.random.default_rng(seed + 200)
    for zero_share in (0.0, 0.3, 0.6):
        pa = _presence(universe, rng, zero_share)
        pb = _presence(universe, rng, zero_share)
        for n_tests in (0, 1, 9, 60):
            actual = _moments(engine, pa, pb, n_tests)
            expected = _moments(reference, pa, pb, n_tests)
            for name, values in actual.items():
                assert np.array_equal(values, expected[name]), (name, n_tests)
    covers = universe.coverage.sum(axis=0)
    assert covers.min() == 0 and covers.max() == 4 + seed % 9


def test_a_clustered_universe_equals_the_reference():
    universe = clustered_universe(DemandSpace(300), n_faults=40, region_size=15, rng=3)
    profile = zipf_profile(universe.space, exponent=0.9)
    rng = np.random.default_rng(7)
    pa, pb = _presence(universe, rng, 0.2), _presence(universe, rng, 0.2)
    engine = BernoulliExactEngine(universe, profile)
    reference = _PerCover(universe, profile)
    for n_tests in (1, 60):
        actual = _moments(engine, pa, pb, n_tests)
        expected = _moments(reference, pa, pb, n_tests)
        for name, values in actual.items():
            assert np.array_equal(values, expected[name]), (name, n_tests)


def test_power_moment_terms_equal_the_reference():
    """Every binomial term of a 5th moment, each its own non-zero pattern."""
    universe = _random_universe(5)
    profile = _profile(universe, 2)
    p = _presence(universe, np.random.default_rng(3), 0.3)
    engine = BernoulliExactEngine(universe, profile)
    reference = _PerCover(universe, profile)
    for j in range(6):
        coefficients = 1.0 - (1.0 - p) ** j
        assert np.array_equal(
            comb(5, j) * engine._expected_product(coefficients, 9),
            comb(5, j) * reference._expected_product(coefficients, 9),
        )


def test_max_cover_error_names_the_same_demand():
    universe = _random_universe(7)  # covers of up to 11 faults, the hub's
    profile = uniform_profile(universe.space)
    p = np.full(len(universe), 0.5)
    # the first demand over each limit: 0, 1 and the hub
    for max_cover, demand in ((3, 0), (9, 1), (10, HUB)):
        messages = []
        for kind in (BernoulliExactEngine, _PerCover):
            engine = kind(universe, profile, max_cover=max_cover)
            with pytest.raises(ModelError, match=f"demand {demand} ") as error:
                engine.zeta(BernoulliFaultPopulation(universe, p), 4)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
    # zero coefficients shrink the covers under the limit
    p[universe.coverage[:, HUB]] = 0.0
    limit = int((universe.coverage & (p != 0.0)[:, None]).sum(axis=0).max())
    engine = BernoulliExactEngine(universe, profile, max_cover=limit)
    reference = _PerCover(universe, profile, max_cover=limit)
    population = BernoulliFaultPopulation(universe, p)
    assert np.array_equal(engine.zeta(population, 9), reference.zeta(population, 9))


def test_build_memory_follows_the_covers_regions():
    """perfbench's ``large`` model: a fresh engine's ζ peaks at 2.6 MB at most.

    The per-cover loop peaked near 1.3 MB here; gathering each size class
    as a ``(G, k, D)`` block would take about 19 MB.
    """
    space = DemandSpace(2000)
    universe = clustered_universe(space, n_faults=200, region_size=20, rng=0)
    profile = uniform_profile(space)
    population = BernoulliFaultPopulation.uniform(universe, 0.1)
    tracemalloc.start()
    try:
        BernoulliExactEngine(universe, profile).zeta(population, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6e6, peak
