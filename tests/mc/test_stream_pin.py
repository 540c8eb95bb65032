"""Stream pins for the batch draw-and-test blocks, independent of BLAS.

The closure kernels reduce 0/1 coverage products to booleans (and the
§4.1 / coverage kernels to exact integer chance counts), so the post-test
fault blocks are a pure function of the seed: any change to a kernel's
arithmetic that moved a single bit, or to the order in which it consumes
randomness, changes the sha256 of the packed blocks below.  The hashes
were recorded with float64 coverage products, so they hold the float32
hit kernels to the same streams.

The closure and scoring kernels run dense (float32 BLAS) or sparse (over
the present faults' regions) by one size rule.  The original model, at
presence 0.3, takes the dense side of the closure; a second model, the same
universe at presence 0.05, takes the sparse side.  The first set of hashes
was recorded with float64 coverage products and the second with the dense
float32 kernels, before the sparse ones existed, so they hold both sides
to the same streams.

The driver means go through the float64 ``failure @ Q`` reduction, whose
summation order belongs to the BLAS build, so they are compared at the
golden suite's relative tolerance rather than pinned bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.core import IndependentSuites
from repro.coverage import CoverageFixing, CoverageOracle
from repro.demand import DemandSpace, zipf_profile
from repro.faults import clustered_universe
from repro.mc import simulate_marginal_system_pfd, simulate_version_pfd
from repro.mc.batch import _tested_pair_block, _tested_version_block, _testing_plan
from repro.populations import BernoulliFaultPopulation
from repro.testing import (
    ImperfectFixing,
    ImperfectOracle,
    OperationalSuiteGenerator,
)

_SEED = 20040628
_COUNT = 1024
# the golden suite's tolerance (tests/experiments/test_golden.py)
_REL_TOL = 1e-9

_SPACE = DemandSpace(500)
_PROFILE = zipf_profile(_SPACE, exponent=0.8)
_UNIVERSE = clustered_universe(_SPACE, n_faults=64, region_size=10, rng=7)
_POPULATION = BernoulliFaultPopulation.uniform(_UNIVERSE, 0.3)
_SPARSE_POPULATION = BernoulliFaultPopulation.uniform(_UNIVERSE, 0.05)
_GENERATOR = OperationalSuiteGenerator(_PROFILE, 60)
_REGIME = IndependentSuites(_GENERATOR)
_COVERAGE_PROBS = tuple(
    float(p) for p in np.linspace(0.05, 0.95, len(_UNIVERSE))
)

_POLICIES = {
    "perfect": (None, None),
    "imperfect": (ImperfectOracle(0.7), ImperfectFixing(0.8)),
    "coverage": (
        CoverageOracle(_COVERAGE_PROBS),
        CoverageFixing(_COVERAGE_PROBS),
    ),
}

_VERSION_SHA = {
    "perfect": (
        "b997d59252a3db4b2a680d9d44b7d0451cb9fb54354ef0e4027a2c7a8831e8fd"
    ),
    "imperfect": (
        "8c9fc07699c0a80dede95a18a7404bd9a6fe505f51f7923c121931a4e610f29b"
    ),
    "coverage": (
        "d33905865239088e36c1f9a53f4fbe62971e4ad93323dad87c2e0f4e039524b2"
    ),
}
_PAIR_SHA = {
    "perfect": (
        "e32b57da9e183ddf335ffa2de821719898a8bc78405ee0b3b34701f8fe8027ef"
    ),
    "imperfect": (
        "60d51eb530675b558e9241a87534bc3f0ef3304320272be9ecbd0d99a9fc3587"
    ),
    "coverage": (
        "e4fd4a8e62f173b66f8898309a07902f84a979386bf4ab603499ff6174897ce4"
    ),
}
_VERSION_MEAN = {
    "perfect": 0.09486159962523853,
    "imperfect": 0.15237901815716176,
    "coverage": 0.18515064014233928,
}
_SYSTEM_MEAN = {
    "perfect": 0.02053253841736684,
    "imperfect": 0.043066855021767866,
    "coverage": 0.0639189643445347,
}

_SPARSE_VERSION_SHA = {
    "perfect": (
        "3c2d6827794c2a4a343a5c7475764d44839486f3e6b55e54d2d21e0526b05a13"
    ),
    "imperfect": (
        "6883629a0a6ef79908950ba97528da4c166d1667311d63dbdfb08ceeeff76b6c"
    ),
    "coverage": (
        "89733357fecc1c8a35559905fd5b2cab18045e89fba3a2fd45462f7bd412a5ad"
    ),
}
_SPARSE_PAIR_SHA = {
    "perfect": (
        "1963985ffd617f41bf9ce2a1811b06916f40ed8b9581a54008dd4e6366befbe4"
    ),
    "imperfect": (
        "bc7e9994d0029146e5457802cec8d2b16302dd20c6948e783414d196685a7b7a"
    ),
    "coverage": (
        "d7f55476a449233e6c68baede89375c9580b330dcc9903322228782c76ee2e65"
    ),
}
_SPARSE_VERSION_MEAN = {
    "perfect": 0.016831324803138044,
    "imperfect": 0.027636241514371836,
    "coverage": 0.03259648482452223,
}
_SPARSE_SYSTEM_MEAN = {
    "perfect": 0.0006391348848819588,
    "imperfect": 0.0014232059486814245,
    "coverage": 0.0023583288424392666,
}


def _sha(*blocks: np.ndarray) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        assert block.dtype == np.bool_
        digest.update(repr(block.shape).encode())
        digest.update(np.packbits(block).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_version_block_stream_is_pinned(policy):
    plan = _testing_plan(*_POLICIES[policy])
    blocks = _tested_version_block(
        _POPULATION, _GENERATOR, plan, _COUNT, np.random.default_rng(_SEED)
    )
    assert _sha(*blocks) == _VERSION_SHA[policy]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_pair_block_stream_is_pinned(policy):
    plan = _testing_plan(*_POLICIES[policy])
    blocks = _tested_pair_block(
        _REGIME,
        _POPULATION,
        _POPULATION,
        plan,
        _COUNT,
        np.random.default_rng(_SEED),
    )
    assert _sha(*blocks) == _PAIR_SHA[policy]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_driver_means_match_recorded_values(policy):
    oracle, fixing = _POLICIES[policy]
    version = simulate_version_pfd(
        _POPULATION,
        _GENERATOR,
        _PROFILE,
        n_replications=_COUNT,
        rng=_SEED,
        oracle=oracle,
        fixing=fixing,
        engine="batch",
    )
    system = simulate_marginal_system_pfd(
        _REGIME,
        _POPULATION,
        _PROFILE,
        n_replications=_COUNT,
        rng=_SEED,
        oracle=oracle,
        fixing=fixing,
        engine="batch",
    )
    assert math.isclose(version.mean, _VERSION_MEAN[policy], rel_tol=_REL_TOL)
    assert math.isclose(system.mean, _SYSTEM_MEAN[policy], rel_tol=_REL_TOL)


@pytest.mark.parametrize(
    "population, sparse", [(_POPULATION, False), (_SPARSE_POPULATION, True)]
)
def test_pinned_models_take_both_sides_of_the_closure(population, sparse):
    faults = population.sample_fault_matrix(_COUNT, np.random.default_rng(_SEED))
    assert _UNIVERSE._sparse_pays(np.count_nonzero(faults), _COUNT) is sparse


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_sparse_side_version_block_stream_is_pinned(policy):
    plan = _testing_plan(*_POLICIES[policy])
    blocks = _tested_version_block(
        _SPARSE_POPULATION, _GENERATOR, plan, _COUNT, np.random.default_rng(_SEED)
    )
    assert _sha(*blocks) == _SPARSE_VERSION_SHA[policy]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_sparse_side_pair_block_stream_is_pinned(policy):
    plan = _testing_plan(*_POLICIES[policy])
    blocks = _tested_pair_block(
        _REGIME,
        _SPARSE_POPULATION,
        _SPARSE_POPULATION,
        plan,
        _COUNT,
        np.random.default_rng(_SEED),
    )
    assert _sha(*blocks) == _SPARSE_PAIR_SHA[policy]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_sparse_side_driver_means_match_recorded_values(policy):
    oracle, fixing = _POLICIES[policy]
    version = simulate_version_pfd(
        _SPARSE_POPULATION,
        _GENERATOR,
        _PROFILE,
        n_replications=_COUNT,
        rng=_SEED,
        oracle=oracle,
        fixing=fixing,
        engine="batch",
    )
    system = simulate_marginal_system_pfd(
        _REGIME,
        _SPARSE_POPULATION,
        _PROFILE,
        n_replications=_COUNT,
        rng=_SEED,
        oracle=oracle,
        fixing=fixing,
        engine="batch",
    )
    assert math.isclose(
        version.mean, _SPARSE_VERSION_MEAN[policy], rel_tol=_REL_TOL
    )
    assert math.isclose(
        system.mean, _SPARSE_SYSTEM_MEAN[policy], rel_tol=_REL_TOL
    )
