"""The grouped subset-sum engine against a brute-force subset walk.

``_brute_expected_product`` is the inclusion–exclusion sum written out one
subset at a time — for every demand and every subset ``H`` of its cover,
``Π_{f∈H}(−c_f) · (1 − Q(∪_{f∈H} R_f))ⁿ`` with the union mass summed from
the profile directly.  :class:`BernoulliExactEngine` groups demands by
cover and builds every union mass with one subset-sum transform; the two
must agree to rounding on every moment built from the product.
"""

from math import comb

import numpy as np
import pytest

from repro.analytic import BernoulliExactEngine
from repro.demand import DemandSpace, custom_profile, uniform_profile, zipf_profile
from repro.errors import ModelError
from repro.faults import FaultUniverse
from repro.populations import BernoulliFaultPopulation

TOLERANCE = 1e-12


def _brute_expected_product(universe, profile, coefficients, n_tests):
    """``E_T[Π_{f∈G_x}(1 − c_f Z_f)]`` per demand by an explicit subset walk."""
    coverage = universe.coverage
    probs = profile.probabilities
    out = np.ones(universe.space.size)
    for x in range(universe.space.size):
        cover = np.flatnonzero(coverage[:, x])
        cover = cover[coefficients[cover] != 0.0]
        total = 0.0
        for bits in range(1 << cover.size):
            chosen = [cover[i] for i in range(cover.size) if bits >> i & 1]
            union = coverage[chosen].any(axis=0)
            sign_coeff = np.prod([-coefficients[f] for f in chosen])
            total += sign_coeff * (1.0 - float(probs[union].sum())) ** n_tests
        out[x] = total
    return out


def _brute_moments(universe, profile, pa, pb, n_tests, power):
    def product(coefficients):
        return _brute_expected_product(universe, profile, coefficients, n_tests)

    first_a, first_b = product(pa), product(pb)
    power_moment = sum(
        comb(power, j) * (-1.0) ** j * product(1.0 - (1.0 - pb) ** j)
        for j in range(power + 1)
    )
    return {
        "zeta": np.clip(1.0 - first_a, 0.0, 1.0),
        "second": np.clip(1.0 - 2.0 * first_a + product(2.0 * pa - pa**2), 0, 1),
        "cross": np.clip(1.0 - first_a - first_b + product(pa + pb - pa * pb), 0, 1),
        "power": np.clip(power_moment, 0.0, 1.0),
    }


def _random_model(seed):
    """Up to 12 faults, all covering demand 0, with zero and unit ``p_f``."""
    rng = np.random.default_rng(seed)
    n_demands = int(rng.integers(4, 24))
    n_faults = 12 if seed % 4 == 0 else int(rng.integers(1, 13))
    space = DemandSpace(n_demands)
    regions = [
        np.union1d([0], rng.choice(n_demands, size, replace=False))
        for size in rng.integers(1, 1 + n_demands // 2, size=n_faults)
    ]
    universe = FaultUniverse.from_regions(space, regions)
    kind = seed % 3
    if kind == 0:
        profile = uniform_profile(space)
    elif kind == 1:
        profile = zipf_profile(space, exponent=1.2)
    else:
        weights = rng.random(n_demands)
        weights[rng.random(n_demands) < 0.3] = 0.0
        weights[0] += 0.1
        profile = custom_profile(space, weights)
    pa = rng.random(n_faults)
    pa[rng.random(n_faults) < 0.25] = 0.0
    pa[rng.random(n_faults) < 0.1] = 1.0
    pb = rng.random(n_faults)
    pb[rng.random(n_faults) < 0.25] = 0.0
    return universe, profile, pa, pb


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n_tests", [0, 9, 60])
def test_moments_match_the_subset_walk(seed, n_tests):
    universe, profile, pa, pb = _random_model(seed)
    engine = BernoulliExactEngine(universe, profile)
    population_a = BernoulliFaultPopulation(universe, pa)
    population_b = BernoulliFaultPopulation(universe, pb)
    expected = _brute_moments(universe, profile, pa, pb, n_tests, power=3)
    actual = {
        "zeta": engine.zeta(population_a, n_tests),
        "second": engine.xi_second_moment(population_a, n_tests),
        "cross": engine.xi_cross_moment(population_a, population_b, n_tests),
        "power": engine.xi_power_moment(population_b, n_tests, 3),
    }
    for name, values in actual.items():
        np.testing.assert_allclose(
            values, expected[name], rtol=0, atol=TOLERANCE, err_msg=name
        )


def test_cached_union_masses_serve_every_suite_size():
    """One engine reused across suite sizes gives the values a fresh one does."""
    universe, profile, pa, _pb = _random_model(4)
    population = BernoulliFaultPopulation(universe, pa)
    reused = BernoulliExactEngine(universe, profile)
    for n_tests in (30, 2, 0, 30):
        fresh = BernoulliExactEngine(universe, profile)
        np.testing.assert_array_equal(
            reused.zeta(population, n_tests), fresh.zeta(population, n_tests)
        )


def _overlapping_universe(n_faults, n_demands=40):
    """``n_faults`` faults sharing demand 0, each with its own second demand."""
    space = DemandSpace(n_demands)
    regions = [[0, 1 + f % (n_demands - 1)] for f in range(n_faults)]
    return FaultUniverse.from_regions(space, regions)


class TestMaxCover:
    def test_error_names_the_first_demand_over_the_limit(self):
        # demand 5 has 4 covering faults, demand 6 has 5
        space = DemandSpace(8)
        universe = FaultUniverse.from_regions(
            space, [[5, 6], [5, 6], [5, 6], [5, 6, 7], [6]]
        )
        engine = BernoulliExactEngine(universe, uniform_profile(space), max_cover=3)
        population = BernoulliFaultPopulation(universe, [0.2, 0.3, 0.4, 0.5, 0.6])
        message = r"demand 5 is covered by 4 faults .*max_cover=3"
        with pytest.raises(ModelError, match=message):
            engine.zeta(population, 4)

    def test_zero_coefficients_do_not_count(self):
        space = DemandSpace(8)
        universe = FaultUniverse.from_regions(space, [[5, 6]] * 3 + [[5, 6, 7]])
        profile = uniform_profile(space)
        engine = BernoulliExactEngine(universe, profile, max_cover=3)
        p = np.array([0.2, 0.0, 0.4, 0.5])
        population = BernoulliFaultPopulation(universe, p)
        np.testing.assert_allclose(
            engine.zeta(population, 4),
            1.0 - _brute_expected_product(universe, profile, p, 4),
            rtol=0,
            atol=TOLERANCE,
        )

    def test_fourteen_fault_cover_matches_the_subset_walk(self):
        universe = _overlapping_universe(14)
        profile = zipf_profile(universe.space, exponent=0.8)
        p = np.linspace(0.05, 0.9, 14)
        engine = BernoulliExactEngine(universe, profile)
        np.testing.assert_allclose(
            engine.zeta(BernoulliFaultPopulation(universe, p), 12),
            1.0 - _brute_expected_product(universe, profile, p, 12),
            rtol=0,
            atol=TOLERANCE,
        )

    def test_eighteen_fault_cover_runs(self):
        """A demand covered by 18 faults, once a multi-second subset walk.

        With every region equal, all ``Z_f`` coincide, so
        ``E[Π(1 − c_f Z_f)] = 1 − (1 − Π(1 − c_f)) · (1 − Q(R))ⁿ``.
        """
        space = DemandSpace(30)
        universe = FaultUniverse.from_regions(space, [[0, 3, 4]] * 18)
        profile = uniform_profile(space)
        p = np.linspace(0.02, 0.4, 18)
        engine = BernoulliExactEngine(universe, profile)
        zeta = engine.zeta(BernoulliFaultPopulation(universe, p), 7)
        expected = (1.0 - np.prod(1.0 - p)) * (1.0 - 0.1) ** 7
        assert zeta[0] == pytest.approx(expected, abs=TOLERANCE)
        assert zeta[3] == zeta[0] and zeta[4] == zeta[0]
        assert not zeta[[1, 2, 5]].any()
        # overlapping but unequal regions: 2^18 union masses, same engine
        overlapping = _overlapping_universe(18)
        engine = BernoulliExactEngine(overlapping, uniform_profile(overlapping.space))
        values = engine.xi_second_moment(
            BernoulliFaultPopulation(overlapping, p), 7
        )
        assert np.all((values >= 0.0) & (values <= 1.0)) and values[0] > 0.0
