"""Precision targets: how tight an adaptive estimate must be before it stops.

The paper (§2) frames operational testing around stopping rules that give
the tester "sufficiently high confidence that the goal has been achieved"
(Littlewood & Wright's conservative rules).  A :class:`PrecisionTarget` is
the same idea applied to our own Monte-Carlo runs: instead of burning a
fixed ``n_replications`` per experiment, the adaptive controller
(:mod:`repro.adaptive.controller`) keeps escalating the replication count
until every tracked metric's confidence-interval half-width is below the
target — or a hard budget runs out.

Targets are plain declarative data, parseable from three front ends:

* Python: ``PrecisionTarget(rel_hw=0.05, budget=20_000)``;
* TOML sweep grids: a ``[precision]`` table with the same keys
  (see :mod:`repro.sweeps` and ``docs/sweeps.md``);
* the CLI: ``--target-rel-hw`` / ``--target-abs-hw`` / ``--budget`` /
  ``--vr`` (see ``python -m repro.experiments --help``).

A target is **met** for a metric when the half-width is at or below the
absolute target (if set) *or* at or below ``rel_hw`` times the metric's
scale (if set).  The scale defaults to the running ``|mean|`` — the classic
relative-precision criterion — but a metric may pin an explicit scale
(e.g. ``x3`` anchors its campaign metrics to the exact untested system
pfd) so that relative targets stay meaningful for estimands whose mean is
arbitrarily close to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import ModelError

__all__ = ["PrecisionTarget", "VR_MODES"]

#: Recognised variance-reduction knob values (resolved per sampler by
#: :func:`repro.adaptive.variance.resolve_vr`).
VR_MODES = (
    "auto",
    "none",
    "stratified",
    "control",
    "stratified+control",
)

_KNOWN_KEYS = (
    "rel_hw",
    "abs_hw",
    "confidence",
    "budget",
    "initial",
    "growth",
    "vr",
)


@dataclass(frozen=True)
class PrecisionTarget:
    """Declarative stopping criterion for an adaptive Monte-Carlo run.

    Attributes
    ----------
    rel_hw:
        Relative half-width target: stop when ``half_width <= rel_hw *
        scale`` (scale defaults to the running ``|mean|``).
    abs_hw:
        Absolute half-width target: stop when ``half_width <= abs_hw``.
        At least one of ``rel_hw`` / ``abs_hw`` must be set; when both
        are, meeting either stops the run.
    confidence:
        Confidence level of the interval whose half-width is checked.
    budget:
        Hard cap on replications per metric.  ``None`` lets the caller
        supply a context default (experiments use their full-mode
        replication counts); the controller never exceeds it.
    initial:
        Replications of the first round (also the minimum sample before
        any convergence decision is trusted).
    growth:
        Maximum escalation factor between consecutive cumulative sample
        sizes.  Rounds are sized from the projected requirement
        (:func:`repro.extensions.stopping.replications_for_half_width`)
        but never grow the cumulative count by more than this factor.
    vr:
        Variance-reduction knob — one of :data:`VR_MODES`.  ``"auto"``
        picks the strongest technique each sampler supports.
    """

    rel_hw: Optional[float] = None
    abs_hw: Optional[float] = None
    confidence: float = 0.99
    budget: Optional[int] = None
    initial: int = 256
    growth: float = 4.0
    vr: str = "auto"

    def __post_init__(self) -> None:
        if self.rel_hw is None and self.abs_hw is None:
            raise ModelError(
                "a PrecisionTarget needs rel_hw and/or abs_hw"
            )
        for name in ("rel_hw", "abs_hw"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (int, float)) and 0.0 < float(value) < math.inf
            ):
                raise ModelError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        if not 0.0 < self.confidence < 1.0:
            raise ModelError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.budget is not None and self.budget < 1:
            raise ModelError(f"budget must be >= 1, got {self.budget}")
        if self.initial < 1:
            raise ModelError(f"initial must be >= 1, got {self.initial}")
        if self.budget is not None and self.budget < self.initial:
            raise ModelError(
                f"budget ({self.budget}) must be >= initial ({self.initial})"
            )
        if not self.growth > 1.0:
            raise ModelError(f"growth must be > 1, got {self.growth}")
        if self.vr not in VR_MODES:
            raise ModelError(
                f"vr must be one of {VR_MODES}, got {self.vr!r}"
            )

    # -- stopping predicate -------------------------------------------------

    def threshold(self, mean: float, scale: Optional[float] = None) -> float:
        """The half-width this metric must reach, given its current mean.

        The loosest of the configured criteria (meeting either stops the
        run).  With only a relative target and a zero mean (and no pinned
        scale) the threshold is 0 — only a degenerate, zero-spread sample
        can satisfy it, which is exactly right: a relative target on an
        exactly-zero estimand is met only by an exact answer.
        """
        candidates = []
        if self.abs_hw is not None:
            candidates.append(float(self.abs_hw))
        if self.rel_hw is not None:
            reference = abs(mean) if scale is None else float(scale)
            candidates.append(float(self.rel_hw) * reference)
        return max(candidates)

    def met(
        self,
        mean: float,
        half_width: float,
        scale: Optional[float] = None,
    ) -> bool:
        """True iff ``half_width`` satisfies this target at ``mean``."""
        if math.isnan(half_width):
            return False
        return half_width <= self.threshold(mean, scale)

    # -- serialization ------------------------------------------------------

    def to_params(self) -> Dict[str, object]:
        """The target as a canonical, JSON-safe mapping.

        This is the form stored in sweep-point params (and hashed into
        cache keys), so it includes only explicitly-representable values
        and omits nothing: two targets with equal fields serialize
        identically.
        """
        return {
            "rel_hw": self.rel_hw,
            "abs_hw": self.abs_hw,
            "confidence": self.confidence,
            "budget": self.budget,
            "initial": self.initial,
            "growth": self.growth,
            "vr": self.vr,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "PrecisionTarget":
        """Build a target from a TOML ``[precision]`` table (or any dict).

        Unknown keys are rejected up front so a typo in a grid file fails
        before any replication budget is spent, mirroring the sweep
        layer's knob validation.
        """
        stray = sorted(set(mapping) - set(_KNOWN_KEYS))
        if stray:
            raise ModelError(
                f"unknown precision key(s): {stray} (known: "
                f"{sorted(_KNOWN_KEYS)})"
            )
        kwargs: Dict[str, object] = {}
        for key in _KNOWN_KEYS:
            if key in mapping and mapping[key] is not None:
                kwargs[key] = mapping[key]
        if "budget" in kwargs:
            kwargs["budget"] = int(kwargs["budget"])
        if "initial" in kwargs:
            kwargs["initial"] = int(kwargs["initial"])
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: object) -> Optional["PrecisionTarget"]:
        """Normalise a runner's ``precision`` knob value.

        Accepts ``None`` (no adaptive control), an existing target, or a
        mapping (the form a TOML grid or the CLI produces).
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_mapping(value)
        raise ModelError(
            "precision must be a PrecisionTarget, a mapping of its fields, "
            f"or None; got {type(value).__name__}"
        )

    def with_defaults(
        self, budget: Optional[int] = None
    ) -> "PrecisionTarget":
        """This target with unset fields filled from context defaults.

        Experiments call this to supply their replication budget when the
        user did not pin one.  A context budget below ``initial`` clamps
        ``initial`` down (matching ``PrecisionPlan.knob``) — the declared
        budget is a hard ceiling and is never silently raised.
        """
        if self.budget is not None or budget is None:
            return self
        budget = max(int(budget), 1)
        return PrecisionTarget(
            rel_hw=self.rel_hw,
            abs_hw=self.abs_hw,
            confidence=self.confidence,
            budget=budget,
            initial=min(self.initial, budget),
            growth=self.growth,
            vr=self.vr,
        )
