"""Stream pins for the batch draw-and-test blocks, independent of BLAS.

The closure kernels reduce 0/1 coverage products to booleans (and the
§4.1 / coverage kernels to exact integer chance counts), so the post-test
fault blocks are a pure function of the seed: any change to a kernel's
arithmetic that moved a single bit, or to the order in which it consumes
randomness, changes the sha256 of the packed blocks below.  The hashes
were recorded with float64 coverage products, so they hold the float32
hit kernels to the same streams.

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
