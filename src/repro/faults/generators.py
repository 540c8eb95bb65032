"""Random fault-universe generators.

The experiments need fault structures with controllable:

* **region size** — how many demands each fault breaks (drives per-fault
  detectability and the speed of reliability growth);
* **locality** — whether regions are scattered or clustered (clustered
  regions create demand-difficulty variation, the engine of the EL penalty);
* **overlap between methodologies** — shared faults between two version
  populations create positive difficulty covariance; disjoint fault sets
  with complementary placement can create negative covariance (the LM
  better-than-independence case).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..demand import DemandSpace
from ..errors import ModelError
from ..rng import as_generator
from ..types import SeedLike
from .universe import FaultUniverse

__all__ = [
    "uniform_random_universe",
    "clustered_universe",
    "disjoint_universe",
    "zipf_sized_universe",
    "overlapping_pair",
]


def _validate_counts(space: DemandSpace, n_faults: int, region_size: int) -> None:
    if n_faults < 0:
        raise ModelError(f"n_faults must be >= 0, got {n_faults}")
    if not 1 <= region_size <= space.size:
        raise ModelError(
            f"region_size must be in 1..{space.size}, got {region_size}"
        )


def uniform_random_universe(
    space: DemandSpace,
    n_faults: int,
    region_size: int,
    rng: SeedLike = None,
) -> FaultUniverse:
    """Faults with regions drawn uniformly without replacement.

    Every fault breaks exactly ``region_size`` demands chosen uniformly at
    random.  With many faults this approaches a flat difficulty function;
    use :func:`clustered_universe` when difficulty variation is wanted.
    """
    _validate_counts(space, n_faults, region_size)
    generator = as_generator(rng)
    regions = [
        generator.choice(space.size, size=region_size, replace=False)
        for _ in range(n_faults)
    ]
    return FaultUniverse.from_regions(space, regions)


def clustered_universe(
    space: DemandSpace,
    n_faults: int,
    region_size: int,
    concentration: float = 4.0,
    rng: SeedLike = None,
) -> FaultUniverse:
    """Faults whose regions cluster around random anchor demands.

    Each fault picks an anchor uniformly, then draws its region from a
    geometric-decay kernel around the anchor (wrap-around).  Larger
    ``concentration`` makes regions tighter, which concentrates failures on
    few demands and **raises the variance of the difficulty function** —
    the key quantity in the EL penalty of eq. (6).
    """
    _validate_counts(space, n_faults, region_size)
    if concentration <= 0:
        raise ModelError(f"concentration must be > 0, got {concentration}")
    generator = as_generator(rng)
    positions = np.arange(space.size)
    regions = []
    for _ in range(n_faults):
        anchor = int(generator.integers(space.size))
        distance = np.abs(positions - anchor)
        distance = np.minimum(distance, space.size - distance)
        weights = np.exp(-concentration * distance / space.size)
        weights /= weights.sum()
        region = generator.choice(
            space.size, size=region_size, replace=False, p=weights
        )
        regions.append(region)
    return FaultUniverse.from_regions(space, regions)


def disjoint_universe(
    space: DemandSpace,
    n_faults: int,
    region_size: int,
    rng: SeedLike = None,
) -> FaultUniverse:
    """Faults with mutually disjoint failure regions.

    The disjoint-regions assumption is the analysable special case the
    paper cites from refs. [6] and [7].  With disjoint regions each demand
    is covered by at most one fault, so difficulty functions and testing
    closures take particularly simple forms — useful as an oracle for the
    general machinery.
    """
    _validate_counts(space, n_faults, region_size)
    if n_faults * region_size > space.size:
        raise ModelError(
            f"cannot fit {n_faults} disjoint regions of size {region_size} "
            f"into {space.size} demands"
        )
    generator = as_generator(rng)
    permuted = generator.permutation(space.size)
    regions = [
        permuted[i * region_size : (i + 1) * region_size] for i in range(n_faults)
    ]
    return FaultUniverse.from_regions(space, regions)


def zipf_sized_universe(
    space: DemandSpace,
    n_faults: int,
    max_region_size: int,
    exponent: float = 1.0,
    rng: SeedLike = None,
) -> FaultUniverse:
    """Faults with Zipf-distributed region sizes.

    Real fault populations mix a few "large" faults (easy to find, broken
    on many demands) with many "small" ones (the long tail that dominates
    late testing).  Fault ``k`` gets region size
    ``max(1, round(max_region_size / (k+1)**exponent))``, placed uniformly.
    This produces the law-of-diminishing-returns growth curves of E14.
    """
    _validate_counts(space, n_faults, max_region_size)
    if exponent < 0:
        raise ModelError(f"exponent must be >= 0, got {exponent}")
    generator = as_generator(rng)
    regions = []
    for rank in range(n_faults):
        size = max(1, round(max_region_size / (rank + 1) ** exponent))
        size = min(size, space.size)
        region = generator.choice(space.size, size=size, replace=False)
        regions.append(region)
    return FaultUniverse.from_regions(space, regions)


def overlapping_pair(
    space: DemandSpace,
    n_shared: int,
    n_unique_each: int,
    region_size: int,
    rng: SeedLike = None,
    disjoint_unique_regions: bool = False,
) -> Tuple[FaultUniverse, np.ndarray, np.ndarray]:
    """A universe plus fault-id sets for two methodologies with controlled overlap.

    Builds ``n_shared + 2 * n_unique_each`` faults and returns
    ``(universe, ids_a, ids_b)`` where methodologies A and B share exactly
    the first ``n_shared`` faults.  Sweeping ``n_shared`` moves the
    difficulty covariance ``Cov(Θ_A, Θ_B)`` (and the same-suite testing
    covariance of eq. (21)) from strongly positive towards zero or negative
    — the A3 ablation.

    With ``disjoint_unique_regions=True`` the unique faults of A and B are
    placed on disjoint halves of the demand space, the classic construction
    for *negative* difficulty covariance: where A tends to fail, B does not,
    and vice versa.
    """
    total = n_shared + 2 * n_unique_each
    _validate_counts(space, total, region_size)
    generator = as_generator(rng)
    regions = []
    if disjoint_unique_regions:
        half = space.size // 2
        if half < region_size or n_shared * region_size > space.size:
            raise ModelError(
                "demand space too small for disjoint unique regions of "
                f"size {region_size}"
            )
        low = np.arange(half)
        high = np.arange(half, space.size)
        for _ in range(n_shared):
            regions.append(generator.choice(space.size, region_size, replace=False))
        for _ in range(n_unique_each):
            regions.append(generator.choice(low, region_size, replace=False))
        for _ in range(n_unique_each):
            regions.append(generator.choice(high, region_size, replace=False))
    else:
        for _ in range(total):
            regions.append(generator.choice(space.size, region_size, replace=False))
    universe = FaultUniverse.from_regions(space, regions)
    shared = np.arange(n_shared, dtype=np.int64)
    ids_a = np.concatenate(
        [shared, np.arange(n_shared, n_shared + n_unique_each, dtype=np.int64)]
    )
    ids_b = np.concatenate(
        [
            shared,
            np.arange(
                n_shared + n_unique_each,
                n_shared + 2 * n_unique_each,
                dtype=np.int64,
            ),
        ]
    )
    return universe, ids_a, ids_b
