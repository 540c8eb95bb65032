"""Tests for the fault-universe generators."""

import numpy as np
import pytest

from repro.demand import DemandSpace
from repro.errors import ModelError
from repro.faults import (
    clustered_universe,
    disjoint_universe,
    overlapping_pair,
    uniform_random_universe,
    zipf_sized_universe,
)

SPACE = DemandSpace(100)


class TestUniformRandom:
    def test_counts_and_sizes(self):
        universe = uniform_random_universe(SPACE, 10, 5, rng=0)
        assert len(universe) == 10
        assert all(fault.size == 5 for fault in universe.faults)

    def test_reproducible(self):
        a = uniform_random_universe(SPACE, 5, 3, rng=1)
        b = uniform_random_universe(SPACE, 5, 3, rng=1)
        for fa, fb in zip(a.faults, b.faults):
            np.testing.assert_array_equal(fa.region, fb.region)

    def test_zero_faults(self):
        assert len(uniform_random_universe(SPACE, 0, 5, rng=0)) == 0

    def test_invalid_region_size(self):
        with pytest.raises(ModelError):
            uniform_random_universe(SPACE, 1, 0, rng=0)
        with pytest.raises(ModelError):
            uniform_random_universe(SPACE, 1, 101, rng=0)

    def test_negative_faults_rejected(self):
        with pytest.raises(ModelError):
            uniform_random_universe(SPACE, -1, 5, rng=0)


class TestClustered:
    def test_clustering_reduces_spread(self):
        tight = clustered_universe(SPACE, 20, 6, concentration=20.0, rng=2)
        loose = clustered_universe(SPACE, 20, 6, concentration=0.01, rng=2)

        def mean_spread(universe):
            spreads = []
            for fault in universe.faults:
                region = np.sort(fault.region)
                spreads.append(region[-1] - region[0])
            return np.mean(spreads)

        assert mean_spread(tight) < mean_spread(loose)

    def test_invalid_concentration(self):
        with pytest.raises(ModelError):
            clustered_universe(SPACE, 1, 2, concentration=0.0, rng=0)


class TestDisjoint:
    def test_regions_disjoint(self):
        universe = disjoint_universe(SPACE, 10, 7, rng=4)
        counts = universe.coverage_counts()
        assert counts.max() <= 1

    def test_overflow_rejected(self):
        with pytest.raises(ModelError):
            disjoint_universe(DemandSpace(10), 3, 4, rng=0)


class TestZipfSized:
    def test_sizes_decay(self):
        universe = zipf_sized_universe(SPACE, 8, max_region_size=20, exponent=1.0, rng=5)
        sizes = [fault.size for fault in universe.faults]
        assert sizes[0] == 20
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[-1] >= 1

    def test_zero_exponent_constant_sizes(self):
        universe = zipf_sized_universe(SPACE, 5, max_region_size=10, exponent=0.0, rng=6)
        assert all(fault.size == 10 for fault in universe.faults)


class TestOverlappingPair:
    def test_shared_and_unique_ids(self):
        universe, ids_a, ids_b = overlapping_pair(
            SPACE, n_shared=3, n_unique_each=4, region_size=5, rng=7
        )
        assert len(universe) == 11
        shared = set(ids_a.tolist()) & set(ids_b.tolist())
        assert shared == {0, 1, 2}
        assert len(ids_a) == len(ids_b) == 7

    def test_disjoint_unique_regions_split_halves(self):
        universe, ids_a, ids_b = overlapping_pair(
            DemandSpace(100),
            n_shared=0,
            n_unique_each=3,
            region_size=5,
            rng=8,
            disjoint_unique_regions=True,
        )
        for fault_id in ids_a:
            assert universe.faults[int(fault_id)].region.max() < 50
        for fault_id in ids_b:
            assert universe.faults[int(fault_id)].region.min() >= 50

    def test_too_small_space_rejected(self):
        with pytest.raises(ModelError):
            overlapping_pair(
                DemandSpace(6),
                n_shared=0,
                n_unique_each=1,
                region_size=5,
                rng=0,
                disjoint_unique_regions=True,
            )
