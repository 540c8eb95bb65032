"""Experiment registry.

Experiment modules register a runner ``(seed, fast) -> ExperimentResult``
under their id at import time; the CLI, the benchmark suite, the sweep
layer and the test suite all look experiments up here, so there is exactly
one definition of each experiment in the codebase.

Runners may accept extra keyword-only *knobs* beyond ``(seed, fast)``
(e.g. ``presence_prob`` on ``a2``, ``suite_size`` on ``x3``); the sweep
layer discovers them via :func:`runner_params` and passes them through
:func:`run_experiment`'s ``params`` mapping, validated up front so an
unknown knob fails before any replication budget is spent.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Mapping, Optional

from .._blas import one_blas_thread
from ..errors import ModelError
from .base import ExperimentResult

__all__ = [
    "register",
    "get_runner",
    "run_experiment",
    "runner_params",
    "validate_params",
    "all_experiment_ids",
]

Runner = Callable[[int, bool], ExperimentResult]

_REGISTRY: Dict[str, Runner] = {}

# positional run contract shared by every runner; anything else is a knob
_BASE_PARAMS = ("seed", "fast")


def register(experiment_id: str) -> Callable[[Runner], Runner]:
    """Class/function decorator registering a runner under ``experiment_id``."""

    def decorator(runner: Runner) -> Runner:
        if experiment_id in _REGISTRY:
            raise ModelError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = runner
        return runner

    return decorator


def get_runner(experiment_id: str) -> Runner:
    """Look up a registered runner.

    Raises
    ------
    ModelError
        For unknown ids (listing the known ones).
    """
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def runner_params(experiment_id: str) -> Dict[str, object]:
    """The extra knobs a runner accepts beyond ``(seed, fast)``.

    Returns a mapping of parameter name to its default value
    (:data:`inspect.Parameter.empty` for required knobs — none of the
    built-in experiments have any).  The sweep layer uses this to validate
    grid axes before running anything.
    """
    signature = inspect.signature(get_runner(experiment_id))
    return {
        name: parameter.default
        for name, parameter in signature.parameters.items()
        if name not in _BASE_PARAMS
        and parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    }


def validate_params(
    experiment_id: str, params: Optional[Mapping[str, object]]
) -> None:
    """Reject knob names the runner does not accept, listing the known ones.

    Raises
    ------
    ModelError
        Naming every unknown knob and the knobs the runner does support.
    """
    if not params:
        return
    supported = runner_params(experiment_id)
    unknown = sorted(name for name in params if name not in supported)
    if unknown:
        known = ", ".join(sorted(supported)) if supported else "none"
        raise ModelError(
            f"experiment {experiment_id!r} does not accept param(s) "
            f"{', '.join(repr(name) for name in unknown)}; supported knobs: "
            f"{known}"
        )


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    fast: bool = True,
    params: Optional[Mapping[str, object]] = None,
) -> ExperimentResult:
    """Run one experiment by id.

    Parameters
    ----------
    experiment_id:
        Registry id (``"e01"`` … ``"e14"``, ``"a1"`` … ``"a5"``).
    seed:
        Root seed; the same seed reproduces the same tables exactly.
    fast:
        True keeps replication counts small (seconds); False runs the
        larger counts used for EXPERIMENTS.md.
    params:
        Extra keyword knobs for runners that accept them (see
        :func:`runner_params`); unknown names raise :class:`ModelError`
        before the runner starts.
    """
    runner = get_runner(experiment_id)
    validate_params(experiment_id, params)
    with one_blas_thread():
        return runner(seed, fast, **dict(params or {}))


def all_experiment_ids() -> List[str]:
    """All registered ids, e-experiments first, each group in order."""
    ids = sorted(_REGISTRY)
    e_ids = [i for i in ids if i.startswith("e")]
    a_ids = [i for i in ids if i.startswith("a")]
    other = [i for i in ids if not (i.startswith("e") or i.startswith("a"))]
    return e_ids + a_ids + other
