"""Fault-tolerant system wrappers built from diverse versions.

The paper studies 1-out-of-2 software: the system fails on a demand only if
*both* versions fail on it (a demand is handled correctly if at least one
channel handles it correctly — the standard model for a two-channel
protection system with a perfect adjudicator).  :class:`OneOutOfTwoSystem`
wraps a concrete version pair; :class:`OneOutOfNSystem` generalises to
``n`` channels.  These operate on *realised* versions; population-level
(system-on-average) quantities live in :mod:`repro.core.marginal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..demand import UsageProfile
from ..errors import IncompatibleSpaceError, ModelError
from ..versions import Version

__all__ = ["OneOutOfTwoSystem", "OneOutOfNSystem"]


@dataclass(frozen=True)
class OneOutOfTwoSystem:
    """A two-channel 1-out-of-2 system over a concrete version pair."""

    first: Version
    second: Version

    def __post_init__(self) -> None:
        if self.first.universe is not self.second.universe:
            raise IncompatibleSpaceError(
                "both channels must share one fault universe"
            )

    @property
    def failure_mask(self) -> np.ndarray:
        """Boolean demand mask: True where the *system* fails (both channels fail)."""
        return self.first.failure_mask & self.second.failure_mask

    @property
    def common_failure_demands(self) -> np.ndarray:
        """Demand indices of coincident failures."""
        return np.flatnonzero(self.failure_mask).astype(np.int64)

    def fails_on(self, demand: int) -> bool:
        """True iff both channels fail on ``demand``."""
        return bool(self.first.fails_on(demand) and self.second.fails_on(demand))

    def pfd(self, profile: UsageProfile) -> float:
        """System probability of failure on a random demand."""
        self.first.universe.space.require_same(profile.space)
        return float(profile.probabilities[self.failure_mask].sum())

    def channel_pfds(self, profile: UsageProfile) -> Tuple[float, float]:
        """Per-channel pfds ``(pfd_A, pfd_B)``."""
        return self.first.pfd(profile), self.second.pfd(profile)

    def diversity_gain(self, profile: UsageProfile) -> float:
        """Best channel pfd minus system pfd — what diversity buys.

        Zero when the channels' failure sets coincide (the paper's
        back-to-back worst-case limit, where "the system behave[s] exactly
        as each version does").
        """
        pfd_a, pfd_b = self.channel_pfds(profile)
        return min(pfd_a, pfd_b) - self.pfd(profile)

@dataclass(frozen=True)
class OneOutOfNSystem:
    """An ``n``-channel 1-out-of-n system: fails iff every channel fails.

    The EL analysis extends to ``n`` channels with ``E[Θⁿ]`` (see
    :meth:`repro.core.el.ELModel.prob_all_fail`); this wrapper provides the
    realised-version counterpart.
    """

    channels: tuple

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ModelError("a system needs at least one channel")
        universe = channels[0].universe
        for index, channel in enumerate(channels):
            if not isinstance(channel, Version):
                raise ModelError(f"channel {index} is not a Version")
            if channel.universe is not universe:
                raise IncompatibleSpaceError(
                    "all channels must share one fault universe"
                )
        object.__setattr__(self, "channels", channels)

    @classmethod
    def of(cls, channels: Sequence[Version]) -> "OneOutOfNSystem":
        """Build from any sequence of versions."""
        return cls(tuple(channels))

    @property
    def failure_mask(self) -> np.ndarray:
        """True where every channel fails."""
        mask = self.channels[0].failure_mask.copy()
        for channel in self.channels[1:]:
            mask &= channel.failure_mask
        return mask

    def fails_on(self, demand: int) -> bool:
        """True iff all channels fail on ``demand``."""
        return all(channel.fails_on(demand) for channel in self.channels)

    def pfd(self, profile: UsageProfile) -> float:
        """System probability of failure on a random demand."""
        self.channels[0].universe.space.require_same(profile.space)
        return float(profile.probabilities[self.failure_mask].sum())
