"""The measurement → model bridge: sizes, placement coupling, guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.demand import DemandSpace
from repro.errors import ModelError
from repro.mutation import (
    DetectionData,
    assumed_population,
    fit_size_biased_multinomial,
    measured_population,
    region_sizes_from_fit,
    universe_from_fit,
)


def _regions(universe):
    return [list(np.flatnonzero(row)) for row in universe.coverage]


@pytest.fixture
def fit():
    data = DetectionData(
        counts=(8, 4, 2, 1, 1, 0),
        n_tests=10,
        labels=tuple(f"m{i:03d}" for i in range(6)),
    )
    return fit_size_biased_multinomial(data)


def test_region_sizes_scale_detection_probs_to_the_space(fit):
    space = DemandSpace(100)
    sizes = region_sizes_from_fit(fit, space)
    # p = k/10 over 100 demands → 10k demands, floored at one demand for
    # the never-detected mutant
    assert sizes == [80, 40, 20, 10, 10, 1]


def test_region_sizes_are_clamped_to_the_space(fit):
    sizes = region_sizes_from_fit(fit, DemandSpace(4))
    assert all(1 <= s <= 4 for s in sizes)
    assert sizes == [3, 2, 1, 1, 1, 1]  # rounded, floored at one demand


def test_universe_matches_fit_sizes_and_is_seed_deterministic(fit):
    space = DemandSpace(50)
    universe = universe_from_fit(fit, space, seed=11)
    again = universe_from_fit(fit, space, seed=11)
    other = universe_from_fit(fit, space, seed=12)
    sizes = region_sizes_from_fit(fit, space)
    assert [len(region) for region in _regions(universe)] == sizes
    assert _regions(universe) == _regions(again)
    assert _regions(universe) != _regions(other)


def test_measured_and_assumed_differ_only_in_the_size_profile(fit):
    """The controlled-comparison guarantee behind experiment m1.

    Per-fault placement streams are spawned identically in both
    constructions, so a fault whose measured size happens to equal the
    assumed mean size gets the *same region* in both universes.
    """
    space = DemandSpace(60)
    measured = measured_population(fit, space, presence_prob=0.3, seed=4)
    sizes = region_sizes_from_fit(fit, space)
    mean_size = int(round(float(np.mean(sizes))))
    assumed = assumed_population(fit, space, presence_prob=0.3, seed=4)
    assumed_sizes = [len(r) for r in _regions(assumed.universe)]
    assert assumed_sizes == [mean_size] * len(sizes)
    assert [len(r) for r in _regions(measured.universe)] == sizes
    for m_region, a_region, size in zip(
        _regions(measured.universe), _regions(assumed.universe), sizes
    ):
        if size == mean_size:
            assert list(m_region) == list(a_region)
        else:
            # same stream, different draw count: the shorter region is a
            # prefix draw of the same without-replacement choice only in
            # distribution, but both must stay inside the space
            assert len(m_region) == size
            assert len(a_region) == mean_size
    # same presence probability everywhere
    np.testing.assert_allclose(measured.presence_probs, 0.3)
    np.testing.assert_allclose(assumed.presence_probs, 0.3)


def test_assumed_population_explicit_size_override(fit):
    space = DemandSpace(30)
    population = assumed_population(fit, space, presence_prob=0.2, seed=0, size=5)
    assert [len(r) for r in _regions(population.universe)] == [5] * fit.data.n_mutants
    with pytest.raises(ModelError):
        assumed_population(fit, space, size=0)
    with pytest.raises(ModelError):
        assumed_population(fit, space, size=31)


def test_bridged_population_drives_the_analytic_layer(fit):
    """End-to-end smoke: the bridged population is a first-class citizen."""
    from repro.core import ELModel
    from repro.demand import uniform_profile

    space = DemandSpace(40)
    profile = uniform_profile(space)
    population = measured_population(fit, space, presence_prob=0.25, seed=1)
    model = ELModel.from_population(population, profile)
    assert 0.0 < model.prob_fail() < 1.0
    assert model.prob_both_fail() >= model.prob_fail() ** 2 - 1e-12
