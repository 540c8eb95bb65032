"""Shared type aliases and small value objects used across :mod:`repro`.

The paper's objects map onto the following concrete representations:

* a *demand* is an integer index into a finite demand space ``F``;
* a *fault* is an integer index into a finite fault universe, carrying a
  *failure region* (a set of demands);
* a *program version* ``π`` is the set of faults it contains;
* a *test suite* ``t`` is a set of demands;
* measures (``S``, ``Q``, ``M``) are either sampling procedures or explicit
  finite distributions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

#: A demand is an index into the demand space.
DemandIndex = int

#: A fault is an index into the fault universe.
FaultIndex = int

#: Dense float vector (probabilities, difficulty functions, ...).
FloatArray = "NDArray[np.float64]"

#: Dense bool vector (failure regions, fault-presence indicators, ...).
BoolArray = "NDArray[np.bool_]"

#: Dense int vector (demand indices, fault indices, ...).
IntArray = "NDArray[np.int64]"

#: Anything accepted where a seed is expected.
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def as_index_array(indices: Sequence[int] | "NDArray[np.int64]") -> "NDArray[np.int64]":
    """Return ``indices`` as a sorted, duplicate-free int64 array.

    The library canonicalises demand and fault index sets this way so that
    set-valued objects (failure regions, test suites, fault sets) have a
    single representation, making equality and hashing dependable.
    """
    array = np.asarray(indices, dtype=np.int64)
    if array.ndim != 1:
        array = array.reshape(-1)
    return np.unique(array)
