"""Shared model-building helpers for the coverage/localization c-family.

The three experiments compare testing regimes whose *diagnosis* is
coverage-limited: ``c1`` races SBFL-guided against random fixing on every
measured corpus target, ``c2`` sweeps synthetic coverage structure, and
``c3`` swaps a measured kill matrix for a density-matched synthetic one.
They share the measured-target setup (mutation fit → Bernoulli population,
mutant lines → component model, kill records → coverage matrix) and the
run-wide worker count.
"""

from __future__ import annotations

from ..coverage.components import ComponentModel
from ..coverage.matrix import empirical_coverage
from ..coverage.workload import simulate_localized_growth
from ..demand import DemandSpace, uniform_profile
# submodule imports (not the repro.mutation package) keep the import
# graph acyclic, as in m1
from ..mutation.bridge import measured_population
from ..mutation.estimators import fit_size_biased_multinomial
from ..mutation.measured import MEASURED, measured_detection_data
from .base import engine_kwargs

#: demand-space size shared with the m-family measured experiments
SPACE_SIZE = 120


def measured_setup(
    target: str, n_components: int, presence_prob: float, seed: int
):
    """(population, profile, component model, coverage matrix) for a target.

    Fault ``f`` of the population is mutant ``f`` of the committed
    campaign, so the line-band component model and the kill-record
    coverage matrix line up with the population by construction.
    """
    data = measured_detection_data(target)
    fit = fit_size_biased_multinomial(data)
    space = DemandSpace(SPACE_SIZE)
    population = measured_population(fit, space, presence_prob, seed=seed)
    lines = [mutant["line"] for mutant in MEASURED[target]["mutants"]]
    model = ComponentModel.from_lines(
        population.universe, lines, n_components
    )
    matrix = empirical_coverage(target, n_components)
    return population, uniform_profile(space), model, matrix


def run_policy_pair(
    population, profile, matrix, model, seed: int, **workload_knobs
):
    """The (sbfl, random) result pair under common random numbers.

    Both runs share one counter-RNG key, so they see identical version
    draws and demand sequences; only the policy-pick lane differs — a
    paired comparison of the fix policies alone.
    """
    common = dict(workload_knobs)
    common.update(engine_kwargs())
    sbfl = simulate_localized_growth(
        population, profile, matrix, model,
        policy="sbfl", rng=seed, **common,
    )
    random = simulate_localized_growth(
        population, profile, matrix, model,
        policy="random", rng=seed, **common,
    )
    return sbfl, random
