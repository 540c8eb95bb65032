"""Fault model substrate.

Section 3 of the paper describes faults through their *failure regions*:
"within this space a set of points (failure regions) will be associated with
a fault: typically there will be many demands that would trigger a particular
fault".  A :class:`Fault` is therefore a named failure region over the demand
space; a :class:`FaultUniverse` is the finite set of faults a population of
versions may contain.  Generators create universes with controlled region
size, locality and overlap, because overlap between the fault sets of two
methodologies is what drives the covariance terms in the forced-diversity
results (eqs. (9), (21), (25)).
"""

from .fault import Fault
from .universe import FaultUniverse
from .generators import (
    clustered_universe,
    disjoint_universe,
    overlapping_pair,
    uniform_random_universe,
    zipf_sized_universe,
)
from .difficulty import (
    difficulty_from_bernoulli,
    tested_difficulty_given_suite,
    tested_difficulty_matrix,
)

__all__ = [
    "Fault",
    "FaultUniverse",
    "uniform_random_universe",
    "clustered_universe",
    "disjoint_universe",
    "zipf_sized_universe",
    "overlapping_pair",
    "difficulty_from_bernoulli",
    "tested_difficulty_given_suite",
    "tested_difficulty_matrix",
]
