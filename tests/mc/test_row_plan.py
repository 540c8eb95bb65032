"""The per-row testing plan against the batch kernels, bit for bit.

A trivial subclass of a built-in oracle (or of the blind-spot pair) adds
no behaviour, but the planner serves kernels to exact types only, so it
sends the call down the per-row plan: :func:`repro.testing.apply_testing`
on every row of the blocks the kernels draw.  Two layers:

* **perfect and blind plans** — their closures consume no randomness, and
  the per-row plan's sequences come from the same draws as the kernels'
  masks, so on the same ``rng`` the two plans give identical tested
  blocks and identical estimates from every testing driver, sharded or
  not, on both sides of :meth:`~repro.faults.FaultUniverse._sparse_pays`;
* **§4.1 and coverage kernels** — a per-row loop that reads the block's
  own binomial detection counts and survival uniforms, one row and one
  present fault at a time, equals :func:`~repro.mc.apply_imperfect_testing_batch`
  and :func:`~repro.mc.apply_coverage_testing_batch` bit for bit and
  leaves the generator in the same state.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import IndependentSuites, SameSuite
from repro.coverage import CoverageFixing, CoverageOracle
from repro.demand import DemandSpace, uniform_profile
from repro.extensions.mistakes import BlindSpotFixing, BlindSpotOracle
from repro.faults import FaultUniverse
from repro.mc import (
    apply_coverage_testing_batch,
    apply_imperfect_testing_batch,
    simulate_joint_on_demand,
    simulate_marginal_system_pfd,
    simulate_version_pfd,
)
from repro.mc.batch import (
    _BERNOULLI,
    _PLAN_KINDS,
    _chunk_marginal,
    _tested_pair_block,
    _tested_version_block,
    _testing_plan,
)
from repro.populations import BernoulliFaultPopulation
from repro.testing import (
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
    PerfectFixing,
    PerfectOracle,
)
from repro.testing.generators import _suite_runs


class _RowOracle(PerfectOracle):
    """The perfect oracle, on the per-row plan."""


class _RowBlindOracle(BlindSpotOracle):
    """The blind-spot oracle, on the per-row plan."""


class _RowBlindFixing(BlindSpotFixing):
    """The blind-spot fixing, on the per-row plan."""


# one regime per side of the batch engine's dense-or-sparse size rule:
# (demands, faults, presence probability)
_SIDES = {
    "dense": ((5, 30), (1, 12), (0.3, 0.9)),
    "sparse": ((300, 600), (5, 40), (0.01, 0.08)),
}


@st.composite
def _models(draw, side):
    """A population on its side of the size rule, an operational suite
    generator, a blind spot, a replication count and a seed."""
    (d_low, d_high), (f_low, f_high), presence = _SIDES[side]
    space = DemandSpace(draw(st.integers(d_low, d_high)))
    regions = [
        draw(
            st.lists(
                st.integers(0, space.size - 1), min_size=1, max_size=4, unique=True
            )
        )
        for _ in range(draw(st.integers(f_low, f_high)))
    ]
    universe = FaultUniverse.from_regions(space, regions)
    population = BernoulliFaultPopulation.uniform(
        universe, draw(st.floats(*presence))
    )
    generator = OperationalSuiteGenerator(
        uniform_profile(space), draw(st.integers(0, 12))
    )
    blind = tuple(
        draw(st.lists(st.integers(0, len(universe) - 1), max_size=3, unique=True))
    )
    count = draw(st.integers(1, 40))
    return population, generator, blind, count, draw(st.integers(0, 2**32 - 1))


def _on_side(population, count, seed, side) -> bool:
    faults = population.sample_fault_matrix(count, np.random.default_rng(seed))
    sparse = population.universe._sparse_pays(np.count_nonzero(faults), count)
    return sparse == (side == "sparse")


def _pairs(blind, use_blind):
    """(kernel pair, its per-row twin) for the perfect or the blind plan."""
    if use_blind:
        return (
            (BlindSpotOracle(blind), BlindSpotFixing(blind)),
            (_RowBlindOracle(blind), _RowBlindFixing(blind)),
        )
    return (None, None), (_RowOracle(), None)


def _same(first, second):
    if hasattr(first, "successes"):
        return (first.successes, first.count) == (second.successes, second.count)
    return (first.count, first.mean, first.variance) == (
        second.count,
        second.mean,
        second.variance,
    )


def test_plan_kinds_are_the_documented_ones():
    """Every kind ``_testing_plan`` can return is in ``_PLAN_KINDS`` (the
    list the docs check holds docs/kernels.md to), and each is reached."""
    probs = (0.5, 0.5)
    pairs = [
        (None, None),
        (PerfectOracle(), PerfectFixing()),
        (ImperfectOracle(0.5), None),
        (None, ImperfectFixing(0.5)),
        (BlindSpotOracle((0,)), BlindSpotFixing((0,))),
        (CoverageOracle(probs), CoverageFixing(probs)),
        (_RowOracle(), None),
        (_RowBlindOracle((0,)), _RowBlindFixing((0,))),
        (BlindSpotOracle((0,)), None),
        (CoverageOracle(probs), ImperfectFixing(0.5)),
    ]
    kinds = [_testing_plan(*pair)[0] for pair in pairs]
    assert set(kinds) == set(_PLAN_KINDS)
    assert kinds[-4:] == ["rows"] * 4


@pytest.mark.parametrize("side", sorted(_SIDES))
class TestPerfectAndBlindPlans:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), use_blind=st.booleans(), shared=st.booleans())
    def test_pair_block_equals_kernel_per_replication(
        self, side, data, use_blind, shared
    ):
        population, generator, blind, count, seed = data.draw(_models(side))
        assume(_on_side(population, count, seed, side))
        kernel_pair, row_pair = _pairs(blind, use_blind)
        kernel_plan, row_plan = _testing_plan(*kernel_pair), _testing_plan(*row_pair)
        assert kernel_plan[0] == ("blind" if use_blind else "perfect")
        assert row_plan[0] == "rows"
        regime = (SameSuite if shared else IndependentSuites)(generator)
        kernel = _tested_pair_block(
            regime, population, population, kernel_plan, count,
            np.random.default_rng(seed),
        )
        rows = _tested_pair_block(
            regime, population, population, row_plan, count,
            np.random.default_rng(seed),
        )
        for kernel_block, row_block in zip(kernel, rows):
            np.testing.assert_array_equal(kernel_block, row_block)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), use_blind=st.booleans())
    def test_version_block_equals_kernel_per_replication(
        self, side, data, use_blind
    ):
        population, generator, blind, count, seed = data.draw(_models(side))
        assume(_on_side(population, count, seed, side))
        kernel_pair, row_pair = _pairs(blind, use_blind)
        kernel = _tested_version_block(
            population, generator, _testing_plan(*kernel_pair), count,
            np.random.default_rng(seed),
        )
        rows = _tested_version_block(
            population, generator, _testing_plan(*row_pair), count,
            np.random.default_rng(seed),
        )
        for kernel_block, row_block in zip(kernel, rows):
            np.testing.assert_array_equal(kernel_block, row_block)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), use_blind=st.booleans())
    def test_drivers_equal_kernel(self, side, data, use_blind):
        population, generator, blind, count, seed = data.draw(_models(side))
        assume(_on_side(population, count, seed, side))
        profile = generator.profile
        regime = SameSuite(generator)
        demands = [0, population.space.size - 1]
        runs = {}
        for name, (oracle, fixing) in zip(("kernel", "rows"), _pairs(blind, use_blind)):
            testing = dict(oracle=oracle, fixing=fixing, n_replications=count, rng=seed)
            runs[name] = (
                *simulate_joint_on_demand(regime, population, demands, **testing),
                simulate_marginal_system_pfd(regime, population, profile, **testing),
                simulate_version_pfd(population, generator, profile, **testing),
            )
        for kernel, rows in zip(runs["kernel"], runs["rows"]):
            assert _same(kernel, rows)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_raw_demand_marginal_draws_the_sequenced_layout(self, side, data):
        """The raw-demand marginal draws its demands after the streams of
        its plan's layout; the per-row plan's is the §4.1 layout, so it
        equals the §4.1 kernel at full detection and fixing, which draws
        nothing from its testing streams."""
        population, generator, _blind, count, seed = data.draw(_models(side))
        assume(_on_side(population, count, seed, side))
        regime = IndependentSuites(generator)
        chunk = partial(
            _chunk_marginal, regime, population, population, generator.profile, False
        )
        kernel = chunk((_BERNOULLI, 1.0, 1.0, None), (count, seed))
        rows = chunk(_testing_plan(_RowOracle(), None), (count, seed))
        assert kernel == rows


@pytest.mark.parametrize("use_blind", [False, True], ids=["perfect", "blind"])
def test_sharded_drivers_equal_kernel(use_blind):
    """``n_jobs=2`` with ``chunk_size=100``: the per-row plan's chunks
    pickle to the workers and merge to the kernel's estimates."""
    space = DemandSpace(40)
    universe = FaultUniverse.from_regions(
        space, [[f, (f + 3) % 40, (f + 7) % 40] for f in range(10)]
    )
    population = BernoulliFaultPopulation.uniform(universe, 0.3)
    generator = OperationalSuiteGenerator(uniform_profile(space), 8)
    regime = IndependentSuites(generator)
    kernel_pair, row_pair = _pairs((1, 4), use_blind)
    common = dict(n_replications=350, rng=17, chunk_size=100)
    kernel = simulate_marginal_system_pfd(
        regime, population, generator.profile, n_jobs=1,
        oracle=kernel_pair[0], fixing=kernel_pair[1], **common,
    )
    rows = simulate_marginal_system_pfd(
        regime, population, generator.profile, n_jobs=2,
        oracle=row_pair[0], fixing=row_pair[1], **common,
    )
    assert _same(kernel, rows)
    joint = [
        simulate_joint_on_demand(
            regime, population, [3, 11], n_jobs=n_jobs,
            oracle=pair[0], fixing=pair[1], **common,
        )
        for n_jobs, pair in ((1, kernel_pair), (2, row_pair))
    ]
    assert all(_same(a, b) for a, b in zip(*joint))


# ---------------------------------------------------------------------------
# §4.1 and coverage kernels against a per-row loop over the block's draws
# ---------------------------------------------------------------------------


def _row_loop(faults, runs, universe, detect, base, generator):
    """The closures one row and one present fault at a time.

    Draws the block's randomness in the kernels' order — the binomial
    detection counts at the runs (when ``detect < 1``), then one ``(R, F)``
    block of survival uniforms (unless ``base`` is ``None``: perfect
    fixing) — and reads it per row: a present fault's chances are the
    detecting occurrences of its row's covering demands, and it survives
    iff its uniform is below ``base[f] ** chances`` (iff it has no chance
    under perfect fixing).
    """
    detecting = runs.counts
    if detect < 1.0:
        detecting = generator.binomial(runs.counts, detect)
    uniforms = None if base is None else generator.random(faults.shape)
    run_rows, run_demands = np.divmod(runs.flat, universe.space.size)
    tested = np.zeros_like(faults)
    for row in range(faults.shape[0]):
        mine = run_rows == row
        present = np.flatnonzero(faults[row])
        chances = np.array(
            [
                detecting[mine][universe.coverage[fault, run_demands[mine]]].sum()
                for fault in present
            ],
            dtype=np.float64,
        )
        if uniforms is None:
            tested[row, present] = chances == 0
        else:
            tested[row, present] = uniforms[row, present] < base[present] ** chances
    return tested


@st.composite
def _closure_cases(draw, side):
    (d_low, d_high), (f_low, f_high), presence = _SIDES[side]
    space = DemandSpace(draw(st.integers(d_low, d_high)))
    regions = [
        draw(
            st.lists(
                st.integers(0, space.size - 1), min_size=1, max_size=4, unique=True
            )
        )
        for _ in range(draw(st.integers(f_low, f_high)))
    ]
    universe = FaultUniverse.from_regions(space, regions)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 30))
    faults = rng.random((n_rows, len(universe))) < draw(st.floats(*presence))
    # repeats within a row are fresh detection chances; drawing about half
    # of a row's demands from its present faults' regions gives faults
    # several chances even in the sparse regime's wide spaces
    length = draw(st.integers(0, 20))
    seqs = rng.integers(0, space.size, size=(n_rows, length))
    for row, present in enumerate(faults):
        covered = np.flatnonzero(universe.coverage[present].any(axis=0))
        chosen = rng.random(length) < 0.5
        if covered.size:
            seqs[row, chosen] = rng.choice(covered, size=int(chosen.sum()))
    # -1 pads the tail
    if length:
        seqs[:, length - draw(st.integers(0, length)) :] = -1
    return universe, faults, _suite_runs(seqs, space.size)


@pytest.mark.parametrize("side", sorted(_SIDES))
class TestRandomClosuresAgainstRowLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        detect=st.sampled_from([1.0, 0.6, 0.0]),
        # weighted towards the one branch where chances compound
        fix=st.sampled_from([1.0, 0.5, 0.5, 0.8, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_imperfect_kernel(self, side, data, detect, fix, seed):
        universe, faults, runs = data.draw(_closure_cases(side))
        assume(
            universe._sparse_pays(np.count_nonzero(faults), faults.shape[0])
            == (side == "sparse")
        )
        kernel_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = apply_imperfect_testing_batch(
            faults, runs, universe, detect, fix, rng=kernel_rng
        )
        base = None if fix >= 1.0 else np.full(len(universe), 1.0 - fix)
        want = _row_loop(faults, runs, universe, detect, base, loop_rng)
        np.testing.assert_array_equal(got, want)
        assert kernel_rng.bit_generator.state == loop_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_coverage_kernel(self, side, data, seed):
        universe, faults, runs = data.draw(_closure_cases(side))
        assume(
            universe._sparse_pays(np.count_nonzero(faults), faults.shape[0])
            == (side == "sparse")
        )
        probs = np.random.default_rng(seed + 1).random(len(universe))
        probs[::3] = 1.0  # removed by their first chance
        kernel_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = apply_coverage_testing_batch(faults, runs, universe, probs, rng=kernel_rng)
        want = _row_loop(faults, runs, universe, 1.0, 1.0 - probs, loop_rng)
        np.testing.assert_array_equal(got, want)
        assert kernel_rng.bit_generator.state == loop_rng.bit_generator.state
