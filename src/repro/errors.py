"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The subclasses draw the distinctions that matter to a
user of a stochastic-modelling library: invalid model construction, invalid
probability values, incompatible model components, and features that require
an exact (enumerable) representation when only a sampling one is available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ModelError(ReproError):
    """A model object was constructed with inconsistent parameters."""


class ProbabilityError(ModelError):
    """A supplied probability or probability vector is invalid.

    Raised when values fall outside ``[0, 1]`` or when a distribution does
    not sum to one within tolerance.
    """


class IncompatibleSpaceError(ModelError):
    """Two components refer to different demand spaces or fault universes."""


class NotEnumerableError(ReproError):
    """An exact computation was requested from a sampling-only object.

    Exact enumeration requires a finite, explicitly enumerable population or
    test-suite measure.  Objects that can only be sampled raise this error
    from their enumeration hooks; callers should fall back to Monte Carlo.
    """


class EmptyPopulationError(ModelError):
    """A population or measure with no support was supplied."""
