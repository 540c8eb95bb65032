"""Slab-boundary parity of the slabbed closure and scoring kernels.

``failure_masses`` and the region kernels work through a block in slabs
of ``_SLAB_ELEMENTS`` elements.  Each is held here to the whole-block form
it replaced, kept in this file as the oracle, with exact equality at item
counts on both sides of a slab boundary: none, one, one short of a slab,
a slab, one past it, and three slabs and seven.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.demand import DemandSpace
from repro.faults import clustered_universe
from repro.faults.universe import (
    _SLAB_ELEMENTS,
    _slabs,
    coverage_hits,
    failure_masses,
)

_SRC = str(Path(__file__).resolve().parents[2] / "src")

# demands -> (faults, region size, presence on the sparse side, on the dense side)
_MODELS = {
    80: (14, 5, 0.02, 0.3),
    2000: (200, 20, 0.1, 0.6),
}


def _universe(demands: int, other: bool = False):
    """The model's universe, or a second one with fewer faults."""
    n_faults, region, _sparse, _dense = _MODELS[demands]
    return clustered_universe(
        DemandSpace(demands),
        n_faults=n_faults - 3 * other,
        region_size=region,
        rng=demands + other,
    )


def _step(width: int) -> int:
    """Items in one full slab of ``width``-element items."""
    return _slabs(_SLAB_ELEMENTS + 8, width)[0].stop


def _counts(width: int) -> list:
    step = _step(width)
    return [0, 1, step - 1, step, step + 1, 3 * step + 7]


def _presence(universe, n_rows: int, probability: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_rows, len(universe))) < probability


def _whole_masses(probabilities, *blocks) -> np.ndarray:
    """The whole-block reduction: the joint ``failure_matrix(x) @ Q``
    over each block's own ``failure_matrix(x) @ Q``."""
    fails = [universe.failure_matrix(block) for universe, block in blocks]
    return np.stack(
        [(fails[0] & fails[-1]) @ probabilities]
        + [fail @ probabilities for fail in fails]
    )


def _mass_case(demands: int, n_rows: int, side: str, pairing: str):
    """One case's probabilities and ``(universe, presence)`` blocks."""
    probability = _MODELS[demands][2 if side == "sparse" else 3]
    universe_a = _universe(demands)
    universe_b = _universe(demands, other=pairing == "different")
    blocks = [(universe_a, _presence(universe_a, n_rows, probability, n_rows))]
    if pairing != "single":
        presence_b = _presence(universe_b, n_rows, probability, n_rows + 1)
        blocks.append((universe_b, presence_b))
    probabilities = np.random.default_rng(demands).dirichlet(np.ones(demands))
    return probabilities, blocks


_MASS_CASES = [
    (demands, n_rows, side, pairing)
    for demands in _MODELS
    for n_rows in _counts(demands)
    for side in ("sparse", "dense")
    for pairing in ("single", "same", "different")
]


def _case_id(case) -> str:
    return "D{}-R{}-{}-{}".format(*case)


@pytest.fixture(scope="module")
def whole_on_one_thread(tmp_path_factory) -> dict:
    """Every case's whole-block masses, from this file run as a script on
    one BLAS thread.

    A threaded ``dgemv`` splits a large block's rows between threads at
    points that need not fall on its 4-row groups, so the last bits of a
    whole-block product can depend on the thread count (an 80-demand block
    of 9835 rows does on two threads); a slab stays below the threading
    threshold, so the slabbed masses do not.
    """
    path = tmp_path_factory.mktemp("slabs") / "whole.npz"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, __file__, str(path)], env=env, check=True, timeout=300
    )
    with np.load(path) as saved:
        return dict(saved)


@pytest.mark.parametrize("case", _MASS_CASES, ids=_case_id)
def test_failure_masses_equal_the_whole_block_product(case, whole_on_one_thread):
    demands, n_rows, side, _pairing = case
    probabilities, blocks = _mass_case(*case)
    universe, presence = blocks[0]
    if n_rows:
        present = np.count_nonzero(presence)
        assert universe._sparse_pays(present, n_rows) is (side == "sparse")
    expected = whole_on_one_thread[_case_id(case)]

    masses = failure_masses(probabilities, *blocks)
    assert masses.shape == (n_rows,)
    assert np.array_equal(masses, expected[0])
    assert np.array_equal(
        failure_masses(probabilities, *blocks, marginals=True), expected
    )
    if n_rows <= _step(demands) + 1:
        # one slab: the very product the whole block takes, on any threads
        assert np.array_equal(masses, _whole_masses(probabilities, *blocks)[0])


def test_slabs_cover_the_items_once_in_whole_groups():
    for width in (1, 80, 2000, 10**6):
        step = _step(width)
        assert step % 4 == 0
        for count in _counts(width):
            slabs = _slabs(count, width)
            covered = np.concatenate(
                [np.arange(count)[slab] for slab in slabs] or [np.empty(0, int)]
            )
            assert np.array_equal(covered, np.arange(count))
            assert all(slab.start % 4 == 0 for slab in slabs)
            # a lone row would take numpy's dot path, not dgemv's
            assert count <= 1 or all(slab.stop - slab.start > 1 for slab in slabs)


# -- region kernels against whole-block integer products


def _pair_counts(universe) -> list:
    return _counts(universe._region_table(False).shape[1])


def _present(universe, n_pairs: int, seed: int):
    """``n_pairs`` ascending flat ``r * F + f`` pairs of a random block,
    and the block's row count."""
    n_rows = max(1, -(-2 * n_pairs // len(universe)))
    presence = _presence(universe, n_rows, 0.6, seed)
    present = np.flatnonzero(presence)
    assert present.size >= n_pairs
    return present[:n_pairs], n_rows


@pytest.mark.parametrize("demands", sorted(_MODELS))
def test_region_any_equals_the_whole_block_hits(demands):
    universe = _universe(demands)
    for n_pairs in _pair_counts(universe):
        present, n_rows = _present(universe, n_pairs, seed=n_pairs)
        masks = np.random.default_rng(n_pairs).random((n_rows, demands)) < 0.01
        rows, faults = np.divmod(present, len(universe))
        expected = (masks[rows] & universe.coverage[faults]).any(axis=1)
        assert np.array_equal(universe._region_any(present, masks), expected)


@pytest.mark.parametrize("demands", sorted(_MODELS))
def test_region_scatter_equals_the_whole_block_failures(demands):
    universe = _universe(demands)
    for n_pairs in _pair_counts(universe):
        present, n_rows = _present(universe, n_pairs, seed=n_pairs)
        presence = np.zeros(n_rows * len(universe), dtype=bool)
        presence[present] = True
        presence = presence.reshape(n_rows, len(universe))
        expected = presence.astype(np.int64) @ universe.coverage.astype(np.int64) > 0
        assert np.array_equal(universe._region_scatter(present, n_rows), expected)


@pytest.mark.parametrize("demands", sorted(_MODELS))
def test_region_sums_equal_the_whole_block_counts(demands):
    universe = _universe(demands)
    rng = np.random.default_rng(demands)
    for n_pairs in _pair_counts(universe):
        present, n_rows = _present(universe, n_pairs, seed=n_pairs)
        counts = np.zeros((n_rows, demands), dtype=np.int64)
        flat = np.flatnonzero(rng.random(counts.size) < 0.05)
        values = rng.integers(1, 40, size=flat.size)
        counts.ravel()[flat] = values
        whole = counts @ universe.coverage.T.astype(np.int64)
        sums = universe._region_sums(present, n_rows, flat, values)
        assert sums.dtype == np.float64
        assert np.array_equal(sums, whole.ravel()[present])


@pytest.mark.parametrize("demands", sorted(_MODELS))
def test_coverage_hits_equal_the_whole_block_product(demands):
    universe = _universe(demands)
    coverage = universe.coverage
    width = len(universe) + demands
    for n_rows in _counts(width):
        rows = _presence(universe, n_rows, 0.1, seed=n_rows)
        expected = rows.astype(np.int64) @ coverage.astype(np.int64) > 0
        assert np.array_equal(coverage_hits(rows, coverage), expected)
        masks = np.random.default_rng(n_rows).random((n_rows, demands)) < 0.02
        expected = masks.astype(np.int64) @ coverage.T.astype(np.int64) > 0
        assert np.array_equal(universe.triggered_matrix(masks), expected)


if __name__ == "__main__":
    whole = {}
    for case in _MASS_CASES:
        probabilities, blocks = _mass_case(*case)
        whole[_case_id(case)] = _whole_masses(probabilities, *blocks)
    np.savez(sys.argv[1], **whole)
