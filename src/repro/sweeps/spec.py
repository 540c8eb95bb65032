"""Declarative sweep specifications and the TOML/JSON grid loader.

A sweep is a cartesian grid: *experiment ids* × *seeds* × *knob axes*.
Knob axes come in two scopes — shared axes applied to every experiment in
the sweep, and per-experiment axes merged on top — and every knob name is
validated against the runner's signature (:func:`repro.experiments.
runner_params`) when the spec is built, so a typo fails before any
replication budget is spent.

Grid file format (TOML; an identically-shaped JSON object also loads)::

    [sweep]
    experiments = ["a2", "x3"]    # required
    seeds = [0, 1, 2]             # optional, default [0]
    fast = true                   # optional, default true

    [params]                      # optional: axes for every experiment
    presence_prob = [0.2, 0.3]

    [experiment_params.x3]        # optional: extra axes for one id
    suite_size = [15, 25]

    [precision]                   # optional: adaptive replication control
    rel_hw = 0.05                 # PrecisionTarget fields (docs/adaptive.md)
    vr = "auto"
    budget_total = 100000         # optional: Neyman cross-point allocation

Scalar axis values are promoted to single-point axes, so ``fast = true``
style pinning works for knobs too.

A ``[precision]`` table pins the adaptive precision engine's target onto
every experiment in the sweep that exposes a ``precision`` knob (at least
one must).  With ``budget_total`` set, the sweep runs Neyman-style
cross-point budget allocation: a cheap pilot pass estimates each point's
per-replication spread, and the total replication budget is then split
across points proportionally to it — spending replications where the
estimated variance is highest (``pilot`` overrides the pilot budget per
point; default is the target's ``initial``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._version import __version__
from ..adaptive.targets import PrecisionTarget
from ..errors import ModelError

# the package import (not .registry directly) so the experiment modules
# register themselves before any id validation happens
from ..experiments import get_runner, runner_params, validate_params
from ..store.records import cache_key

__all__ = ["PrecisionPlan", "SweepPoint", "SweepSpec", "load_grid"]


@dataclass(frozen=True)
class PrecisionPlan:
    """The sweep-level adaptive precision configuration.

    ``target`` is the validated :class:`~repro.adaptive.PrecisionTarget`
    every precision-capable point runs under (passed to runners as their
    ``precision`` knob mapping); ``budget_total``/``pilot`` configure the
    optional Neyman cross-point allocation pass (see
    :meth:`repro.sweeps.Sweep.run`).
    """

    target: PrecisionTarget
    budget_total: Optional[int] = None
    pilot: Optional[int] = None

    def __post_init__(self) -> None:
        if self.budget_total is not None and self.budget_total < 1:
            raise ModelError(
                f"budget_total must be >= 1, got {self.budget_total}"
            )
        if self.pilot is not None and self.pilot < 1:
            raise ModelError(f"pilot must be >= 1, got {self.pilot}")

    @property
    def pilot_budget(self) -> int:
        """Replications per point in the pilot pass (default: ``initial``)."""
        return self.pilot if self.pilot is not None else self.target.initial

    def knob(self, budget: Optional[int] = None) -> Dict[str, object]:
        """The ``precision`` knob mapping for one point.

        ``budget`` overrides the target's budget — how the Neyman pass
        pins per-point allocations (and the pilot pass its pilot budget).
        """
        params = self.target.to_params()
        if budget is not None:
            params["budget"] = int(budget)
            params["initial"] = min(self.target.initial, int(budget))
        return {
            name: value for name, value in params.items() if value is not None
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "PrecisionPlan":
        """Parse a grid's ``[precision]`` table."""
        extras = {"budget_total", "pilot"}
        target = PrecisionTarget.from_mapping(
            {
                name: value
                for name, value in mapping.items()
                if name not in extras
            }
        )
        budget_total = mapping.get("budget_total")
        pilot = mapping.get("pilot")
        return cls(
            target=target,
            budget_total=None if budget_total is None else int(budget_total),
            pilot=None if pilot is None else int(pilot),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the grid: an experiment id, a seed, and pinned knobs.

    ``params`` is stored as a name-sorted tuple of pairs so points are
    hashable and their identity is insertion-order independent.
    """

    experiment_id: str
    seed: int
    fast: bool
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def params_dict(self) -> Dict[str, object]:
        """The knobs as a plain dict."""
        return dict(self.params)

    def cache_key(self, version: str = __version__) -> str:
        """The store key this point's record lives under."""
        return cache_key(
            self.experiment_id, self.seed, self.fast, self.params_dict, version
        )

    def label(self) -> str:
        """Human-readable point label for progress lines and reports."""
        parts = [self.experiment_id, f"seed={self.seed}"]
        parts += [f"{name}={value}" for name, value in self.params]
        if not self.fast:
            parts.append("full")
        return " ".join(parts)


def _as_axis(name: str, value: object) -> List[object]:
    """An axis as a non-empty, duplicate-free list of values (scalars
    become one point)."""
    if isinstance(value, (list, tuple)):
        values = list(value)
        if not values:
            raise ModelError(f"param axis {name!r} has no values")
        duplicates = [v for i, v in enumerate(values) if v in values[:i]]
        if duplicates:
            raise ModelError(
                f"param axis {name!r} has duplicate value(s): {duplicates}"
            )
        return values
    return [value]


class SweepSpec:
    """A validated sweep grid over experiment ids, seeds and knob axes."""

    def __init__(
        self,
        experiments: Sequence[str],
        seeds: Sequence[int] = (0,),
        fast: bool = True,
        params: Optional[Mapping[str, object]] = None,
        experiment_params: Optional[Mapping[str, Mapping[str, object]]] = None,
        precision: Optional[object] = None,
    ) -> None:
        experiments = list(experiments)
        if not experiments:
            raise ModelError("a sweep needs at least one experiment id")
        duplicates = sorted(
            {eid for eid in experiments if experiments.count(eid) > 1}
        )
        if duplicates:
            raise ModelError(
                f"experiment id(s) listed more than once: {duplicates}"
            )
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ModelError("a sweep needs at least one seed")
        duplicate_seeds = sorted({s for s in seeds if seeds.count(s) > 1})
        if duplicate_seeds:
            raise ModelError(
                f"seed(s) listed more than once: {duplicate_seeds}"
            )
        experiment_params = dict(experiment_params or {})
        unknown_scopes = sorted(
            set(experiment_params) - set(experiments)
        )
        if unknown_scopes:
            raise ModelError(
                "experiment_params given for id(s) not in the sweep: "
                f"{unknown_scopes}"
            )
        shared_axes = {
            str(name): _as_axis(name, value)
            for name, value in (params or {}).items()
        }
        self._axes_by_experiment: Dict[str, Dict[str, List[object]]] = {}
        for experiment_id in experiments:
            get_runner(experiment_id)  # raises for unknown ids, listing known
            axes = dict(shared_axes)
            for name, value in (experiment_params.get(experiment_id) or {}).items():
                axes[str(name)] = _as_axis(name, value)
            validate_params(experiment_id, {name: None for name in axes})
            self._axes_by_experiment[experiment_id] = axes
        self.experiments = experiments
        self.seeds = seeds
        self.fast = bool(fast)
        if precision is None or isinstance(precision, PrecisionPlan):
            self.precision = precision
        else:
            self.precision = PrecisionPlan.from_mapping(precision)
        self.precision_experiments: Tuple[str, ...] = ()
        if self.precision is not None:
            capable = tuple(
                eid
                for eid in experiments
                if "precision" in runner_params(eid)
            )
            if not capable:
                raise ModelError(
                    "[precision] given but no experiment in the sweep has "
                    f"a 'precision' knob: {experiments}"
                )
            if any(
                "precision" in self._axes_by_experiment[eid]
                for eid in capable
            ):
                raise ModelError(
                    "'precision' cannot be both a [precision] table and an "
                    "explicit param axis"
                )
            self.precision_experiments = capable

    def points(self) -> List[SweepPoint]:
        """Every grid cell, in deterministic order.

        Experiments in given order; within one experiment, seeds vary
        slowest, then knob axes in sorted-name order.
        """
        out: List[SweepPoint] = []
        for experiment_id in self.experiments:
            axes = self._axes_by_experiment[experiment_id]
            names = sorted(axes)
            for seed in self.seeds:
                for values in itertools.product(*(axes[name] for name in names)):
                    out.append(
                        SweepPoint(
                            experiment_id=experiment_id,
                            seed=seed,
                            fast=self.fast,
                            params=tuple(zip(names, values)),
                        )
                    )
        return out

def _load_mapping(path: Path) -> Mapping[str, object]:
    if path.suffix == ".json":
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ModelError(f"invalid JSON grid {path}: {error}") from None
    try:
        import tomllib
    except ImportError:  # Python 3.10: stdlib has no TOML parser
        raise ModelError(
            f"cannot read TOML grid {path}: this Python has no tomllib "
            "(needs 3.11+); use an equivalent .json grid instead"
        ) from None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except tomllib.TOMLDecodeError as error:
        raise ModelError(f"invalid TOML grid {path}: {error}") from None


def load_grid(path) -> SweepSpec:
    """Load and validate a sweep grid file (``.toml`` or ``.json``).

    Raises
    ------
    ModelError
        For a missing file, a parse error, a missing/malformed ``[sweep]``
        table, unknown experiment ids, or knobs no runner accepts.
    """
    path = Path(path)
    if not path.exists():
        raise ModelError(f"grid file not found: {path}")
    data = _load_mapping(path)
    if not isinstance(data, Mapping) or "sweep" not in data:
        raise ModelError(f"grid {path} has no [sweep] table")
    sweep = data["sweep"]
    if not isinstance(sweep, Mapping):
        raise ModelError(f"grid {path}: [sweep] must be a table")
    known_top = {"sweep", "params", "experiment_params", "precision"}
    stray = sorted(set(data) - known_top)
    if stray:
        raise ModelError(
            f"grid {path} has unknown table(s): {stray} (known: "
            f"{sorted(known_top)})"
        )
    known_sweep = {"experiments", "seeds", "fast"}
    stray = sorted(set(sweep) - known_sweep)
    if stray:
        raise ModelError(
            f"grid {path}: unknown [sweep] key(s): {stray} (known: "
            f"{sorted(known_sweep)})"
        )
    experiments = sweep.get("experiments")
    if not isinstance(experiments, list) or not all(
        isinstance(eid, str) for eid in experiments
    ):
        raise ModelError(
            f"grid {path}: [sweep].experiments must be a list of id strings"
        )
    seeds = sweep.get("seeds", [0])
    if not isinstance(seeds, list) or not all(
        isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds
    ):
        raise ModelError(f"grid {path}: [sweep].seeds must be a list of ints")
    fast = sweep.get("fast", True)
    if not isinstance(fast, bool):
        raise ModelError(f"grid {path}: [sweep].fast must be a boolean")
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ModelError(f"grid {path}: [params] must be a table")
    experiment_params = data.get("experiment_params", {})
    if not isinstance(experiment_params, Mapping) or not all(
        isinstance(table, Mapping) for table in experiment_params.values()
    ):
        raise ModelError(
            f"grid {path}: [experiment_params.<id>] entries must be tables"
        )
    precision = data.get("precision")
    if precision is not None and not isinstance(precision, Mapping):
        raise ModelError(f"grid {path}: [precision] must be a table")
    return SweepSpec(
        experiments=experiments,
        seeds=seeds,
        fast=fast,
        params=params,
        experiment_params=experiment_params,
        precision=precision,
    )
