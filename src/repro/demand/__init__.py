"""Demand space and usage-profile substrate.

The paper's demand space ``F = {x1, x2, ...}`` is realised as a finite set of
integer-indexed demands (:class:`DemandSpace`).  The usage measure ``Q(·)``
over demands is a :class:`UsageProfile`; several standard shapes (uniform,
Zipf, custom) are provided because the variability of
``Q`` interacts with the variability of the difficulty function in every
marginal result of the paper.
"""

from .space import DemandSpace
from .profile import (
    UsageProfile,
    uniform_profile,
    zipf_profile,
)

__all__ = [
    "DemandSpace",
    "UsageProfile",
    "uniform_profile",
    "zipf_profile",
]
