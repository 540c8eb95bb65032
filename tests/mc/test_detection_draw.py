"""The §4.1 detection draw equals numpy's binomial sampler bit for bit.

:func:`repro.rng._inversion_binomial` replays numpy's inversion sampler
(``random_binomial_inversion`` in ``random/src/distributions/
distributions.c``) over one ``generator.random(m)`` block.  Checked against
numpy 2.4.6, which computes ``qn = exp(n·log1p(−p))``: a numpy release
that changes its binomial sampler fails here, and with it every stream pin
of the imperfect-testing closures.

Every case compares the draws with ``Generator.binomial(counts, p)`` on an
identically seeded generator, and then the two generators' next uniform, so
a draw that consumed the stream differently fails even when its values
happen to agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import _inversion_binomial

PROBABILITIES = (1e-3, 0.3, 0.5, float(np.nextafter(0.5, 1.0)), 0.7, 0.999)


def _assert_matches_numpy(make_generator, counts, p):
    expected_generator, generator = make_generator(), make_generator()
    expected = expected_generator.binomial(counts, p)
    drawn = _inversion_binomial(generator, counts, p)
    assert drawn.dtype == np.int64
    assert np.array_equal(drawn, expected)
    assert generator.random() == expected_generator.random()


@pytest.mark.parametrize("p", PROBABILITIES)
@pytest.mark.parametrize("seed", range(4))
def test_counts_one_to_forty_match_numpy(p, seed):
    counts = np.random.default_rng(100 + seed).integers(1, 41, size=5000)
    _assert_matches_numpy(lambda: np.random.default_rng(seed), counts, p)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_runs_of_a_drawn_suite_block_match_numpy(p):
    # the closure's real input: mostly ones, a few repeats
    from repro.testing.generators import _suite_runs

    sequences = np.random.default_rng(5).integers(0, 80, size=(2000, 30))
    counts = _suite_runs(sequences, 80).counts
    _assert_matches_numpy(lambda: np.random.default_rng(9), counts, p)


@pytest.mark.parametrize("p", (0.3, 0.7))
def test_one_count_in_the_btpe_regime_falls_back(p):
    # n·min(p, 1 − p) > 30 takes numpy's BTPE sampler, which consumes a
    # variable number of uniforms, for that element
    counts = np.random.default_rng(1).integers(1, 6, size=3000)
    counts[1234] = 200
    _assert_matches_numpy(lambda: np.random.default_rng(2), counts, p)


def test_empty_block_and_zero_probability_draw_nothing():
    for counts, p in ((np.zeros(0, dtype=np.int64), 0.3), (np.arange(1, 50), 0.0)):
        _assert_matches_numpy(lambda: np.random.default_rng(3), counts, p)


def _opening_with(j: int) -> np.random.Generator:
    """A generator whose first ``random()`` is ``j · 2**-53``: SFC64's first
    output is ``a + b + counter`` of its state words, and a uniform is the
    top 53 bits of an output."""
    bit_generator = np.random.SFC64(0)
    state = bit_generator.state
    state["state"]["state"] = np.array([j << 11, 0, 0, 0], dtype=np.uint64)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _numpy_draw(n: int, p: float, j: int) -> int:
    return int(_opening_with(j).binomial(np.array([n]), p)[0])


#: (n, p) across both sides of 0.5; p > 0.5 draws n − X at 1 − p
BOUNDARY_CASES = [
    (1, 0.3),
    (2, 0.3),
    (3, 0.7),
    (5, 0.01),
    (10, 0.05),
    (13, 0.999),
    (4, 0.5),
    (7, float(np.nextafter(0.5, 1.0))),
    (25, 0.3),
]


def _assert_step_boundary_matches(n: int, p: float, step: int) -> None:
    """Bisect numpy's draw for the first uniform at which ``X`` reaches
    ``step`` (``n − draw`` for ``p > 0.5``) and compare there and one grid
    point below."""
    flip = p > 0.5
    low, high = 0, 2**53 - 1
    while low < high:
        middle = (low + high) // 2
        drawn = _numpy_draw(n, p, middle)
        if (n - drawn if flip else drawn) >= step:
            high = middle
        else:
            low = middle + 1
    for j in (low - 1, low):
        if j >= 0:
            drawn = _inversion_binomial(_opening_with(j), np.array([n]), p)
            assert int(drawn[0]) == _numpy_draw(n, p, j), (n, p, step, j)


@pytest.mark.parametrize("n, p", BOUNDARY_CASES)
def test_every_step_boundary_matches_numpy(n, p):
    """A mass one ulp off moves the uniform at which a draw steps by a
    point of the ``2**-53`` grid, which random blocks almost never hit."""
    for step in range(1, n + 1):
        _assert_step_boundary_matches(n, p, step)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_first_step_boundary_matches_numpy_for_every_count(p):
    # the first step's boundary is qn itself, so this pins
    # qn = exp(n·log1p(−p)) for every count
    for n in range(1, 41):
        _assert_step_boundary_matches(n, p, 1)


@pytest.mark.parametrize(
    "counts, p",
    [
        # at n = 2, p = 0.7 the rounded masses sum below 1 − 2**-53, so
        # numpy's X passes its bound of 2 and it redraws that uniform
        ([2, 1, 5, 3, 2, 7, 1, 1, 4], 0.7),
        # n = 200, p = 0.01: a bound of 19, far below n
        ([200, 3, 1], 0.01),
    ],
)
def test_forced_rejection_restores_the_stream_and_falls_back(counts, p):
    largest = 2**53 - 1
    assert _opening_with(largest).random() == 1.0 - 2.0**-53
    counts = np.array(counts)
    redrawn = _opening_with(largest)
    redrawn.binomial(counts, p)
    one_each = _opening_with(largest)
    one_each.random(counts.size)
    assert redrawn.random() != one_each.random()
    _assert_matches_numpy(lambda: _opening_with(largest), counts, p)
