"""Tests for the system wrappers."""

import numpy as np
import pytest

from repro.core import OneOutOfNSystem, OneOutOfTwoSystem
from repro.errors import IncompatibleSpaceError, ModelError
from repro.faults import FaultUniverse
from repro.versions import Version


class TestOneOutOfTwo:
    def test_fails_only_on_common_failures(self, universe):
        a = Version(universe, np.array([0, 1]))  # fails {0,1,2,3,4}
        b = Version(universe, np.array([1, 2]))  # fails {2,3,4,5}
        system = OneOutOfTwoSystem(a, b)
        np.testing.assert_array_equal(
            system.common_failure_demands, [2, 3, 4]
        )
        assert system.fails_on(3)
        assert not system.fails_on(0)
        assert not system.fails_on(5)

    def test_pfd(self, universe, profile):
        a = Version(universe, np.array([1]))
        b = Version(universe, np.array([2]))
        system = OneOutOfTwoSystem(a, b)
        assert system.pfd(profile) == pytest.approx(0.1)  # only demand 4

    def test_pfd_never_exceeds_channels(self, universe, profile, rng):
        for _ in range(30):
            a = Version(universe, np.flatnonzero(rng.random(3) < 0.5))
            b = Version(universe, np.flatnonzero(rng.random(3) < 0.5))
            system = OneOutOfTwoSystem(a, b)
            pfd_a, pfd_b = system.channel_pfds(profile)
            assert system.pfd(profile) <= min(pfd_a, pfd_b) + 1e-15

    def test_diversity_gain(self, universe, profile):
        a = Version(universe, np.array([0]))   # fails {0,1}
        b = Version(universe, np.array([2]))   # fails {4,5}
        system = OneOutOfTwoSystem(a, b)
        # disjoint failures: gain = min channel pfd
        assert system.diversity_gain(profile) == pytest.approx(0.2)

    def test_identical_channels_zero_gain(self, universe, profile):
        version = Version(universe, np.array([0, 1]))
        system = OneOutOfTwoSystem(version, version)
        assert system.diversity_gain(profile) == pytest.approx(0.0)
        assert system.pfd(profile) == pytest.approx(version.pfd(profile))

    def test_universe_mismatch_rejected(self, universe, space):
        other = FaultUniverse.from_regions(space, [[0]])
        with pytest.raises(IncompatibleSpaceError):
            OneOutOfTwoSystem(
                Version.correct(universe), Version.correct(other)
            )

class TestOneOutOfN:
    def test_single_channel(self, universe, profile):
        version = Version(universe, np.array([0]))
        system = OneOutOfNSystem.of([version])
        assert system.pfd(profile) == pytest.approx(version.pfd(profile))

    def test_three_channels(self, universe, profile):
        a = Version(universe, np.array([1]))   # {2,3,4}
        b = Version(universe, np.array([1, 2]))  # {2,3,4,5}
        c = Version(universe, np.array([2]))   # {4,5}
        system = OneOutOfNSystem.of([a, b, c])
        assert system.fails_on(4)
        assert not system.fails_on(2)
        assert system.pfd(profile) == pytest.approx(0.1)

    def test_more_channels_never_worse(self, universe, profile, rng):
        versions = [
            Version(universe, np.flatnonzero(rng.random(3) < 0.6))
            for _ in range(4)
        ]
        pfds = [
            OneOutOfNSystem.of(versions[: k + 1]).pfd(profile)
            for k in range(4)
        ]
        assert all(pfds[i] >= pfds[i + 1] - 1e-15 for i in range(3))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            OneOutOfNSystem.of([])

    def test_non_version_rejected(self, universe):
        with pytest.raises(ModelError):
            OneOutOfNSystem.of([Version.correct(universe), "nope"])

    def test_mixed_universe_rejected(self, universe, space):
        other = FaultUniverse.from_regions(space, [[0]])
        with pytest.raises(IncompatibleSpaceError):
            OneOutOfNSystem.of(
                [Version.correct(universe), Version.correct(other)]
            )
