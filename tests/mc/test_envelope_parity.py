"""The §4.2 envelope's one position loop equals a kernel call per model.

:func:`repro.mc.back_to_back_batch` given a list of comparators advances
every exact output model as one stacked bitset block.  Model ``i`` must
still get exactly what a call with comparator ``i`` alone and child ``i``
of the stream returns, and the envelope's chunk sums (through
``failure_masses``) what three such calls per chunk give, for any
``n_jobs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import back_to_back_envelope
from repro.demand import DemandSpace, uniform_profile
from repro.faults import clustered_universe
from repro.faults.universe import failure_masses
from repro.mc import back_to_back_batch
from repro.mc.batch import _chunk_back_to_back_envelope, _plan_chunks
from repro.populations import BernoulliFaultPopulation
from repro.rng import as_generator, spawn_many
from repro.testing import (
    BackToBackComparator,
    ImperfectFixing,
    OperationalSuiteGenerator,
    PerfectFixing,
)
from repro.testing.generators import _suite_runs
from repro.versions.outputs import (
    OPTIMISTIC,
    PESSIMISTIC,
    SHARED_FAULT,
    FailureOutputModel,
)

MODES = (OPTIMISTIC, PESSIMISTIC, SHARED_FAULT)
FIXINGS = (None, PerfectFixing(), ImperfectFixing(0.6))
SPACE = DemandSpace(60)
PROFILE = uniform_profile(SPACE)
GENERATOR = OperationalSuiteGenerator(PROFILE, 25)


def _population(n_faults: int, seed: int) -> BernoulliFaultPopulation:
    universe = clustered_universe(SPACE, n_faults=n_faults, region_size=4, rng=seed)
    return BernoulliFaultPopulation.uniform(universe, 0.3 if n_faults < 64 else 0.05)


#: one word (14 faults), four words (200), and A and B of different sizes
PAIRS = {
    "one word": (_population(14, 1), _population(14, 2)),
    "four words": (_population(200, 3), _population(200, 4)),
    "unequal": (_population(14, 5), _population(130, 6)),
}


def _comparators():
    return [BackToBackComparator(FailureOutputModel(mode)) for mode in MODES]


@pytest.mark.parametrize("fixing", FIXINGS, ids=("none", "perfect", "imperfect"))
@pytest.mark.parametrize("pair", PAIRS, ids=PAIRS)
def test_stacked_models_equal_one_call_per_model(pair, fixing):
    population_a, population_b = PAIRS[pair]
    streams = spawn_many(as_generator(11), 3)
    faults_a = population_a.sample_fault_matrix(150, streams[0])
    faults_b = population_b.sample_fault_matrix(150, streams[1])
    sequences = GENERATOR.sample_demand_sequences(150, streams[2])
    sequences[:, -3:] = -1
    universes = population_a.universe, population_b.universe
    stacked = back_to_back_batch(
        faults_a, faults_b, sequences, *universes, _comparators(), fixing, rng=21
    )
    children = spawn_many(as_generator(21), len(MODES))
    for (got_a, got_b), comparator, child in zip(stacked, _comparators(), children):
        want_a, want_b = back_to_back_batch(
            faults_a, faults_b, sequences, *universes, comparator, fixing, rng=child
        )
        assert np.array_equal(got_a, want_a)
        assert np.array_equal(got_b, want_b)


def _reference_chunk(population_a, population_b, fixing, task):
    """The envelope chunk with one single-model kernel call per output model."""
    count, seed = task
    streams = spawn_many(as_generator(seed), 4)
    faults_a = population_a.sample_fault_matrix(count, streams[0])
    faults_b = population_b.sample_fault_matrix(count, streams[1])
    sequences = GENERATOR.sample_demand_sequences(count, streams[2])
    masks = _suite_runs(sequences, SPACE.size).masks()
    universes = population_a.universe, population_b.universe

    def sums(block_a, block_b):
        joint, pfd_a, pfd_b = failure_masses(
            PROFILE.probabilities,
            (universes[0], block_a),
            (universes[1], block_b),
            marginals=True,
        )
        return float(joint.sum()), float(0.5 * (pfd_a.sum() + pfd_b.sum()))

    untested = sums(faults_a, faults_b)
    perfect = sums(
        universes[0]._cleared(faults_a, masks), universes[1]._cleared(faults_b, masks)
    )
    models = [
        sums(
            *back_to_back_batch(
                faults_a,
                faults_b,
                sequences,
                *universes,
                comparator,
                fixing,
                rng=spawn_many(streams[3], 1)[0],
            )
        )
        for comparator in _comparators()
    ]
    return count, (
        untested[0],
        perfect[0],
        *(system for system, _version in models),
        untested[1],
        *(version for _system, version in models),
    )


@pytest.mark.parametrize("fixing", FIXINGS, ids=("none", "perfect", "imperfect"))
@pytest.mark.parametrize("pair", PAIRS, ids=PAIRS)
def test_envelope_chunks_equal_one_call_per_model(pair, fixing):
    population_a, population_b = PAIRS[pair]
    tasks = _plan_chunks(150, 70, as_generator(4))
    for task in tasks:
        got = _chunk_back_to_back_envelope(
            population_a, population_b, GENERATOR, PROFILE, fixing, task
        )
        assert got == _reference_chunk(population_a, population_b, fixing, task)


@pytest.mark.parametrize("fixing", FIXINGS, ids=("none", "perfect", "imperfect"))
def test_envelope_is_the_same_on_two_workers(fixing):
    population_a, population_b = PAIRS["four words"]
    runs = [
        back_to_back_envelope(
            population_a,
            GENERATOR,
            PROFILE,
            population_b=population_b,
            n_replications=150,
            rng=8,
            fixing=fixing,
            chunk_size=70,
            n_jobs=n_jobs,
        )
        for n_jobs in (1, 2)
    ]
    assert runs[0] == runs[1]
