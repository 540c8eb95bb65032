"""Quickstart: build a diversity model and ask the paper's questions.

Walks the full modelling pipeline on a small synthetic system:

1. a demand space with an operational profile,
2. a fault universe (failure regions) and a version population,
3. the static EL quantities (difficulty, coincident-failure probability),
4. a testing process and the dynamic quantities (ζ, system pfd per regime).

Run:  python examples/quickstart.py

Catalog: docs/experiments.md maps every experiment id to its paper claim.
"""

from __future__ import annotations

import numpy as np

import repro


def main() -> None:
    # 1. the usage environment: 200 demands, heavy-tailed operational profile
    space = repro.DemandSpace(200)
    profile = repro.zipf_profile(space, exponent=0.8)

    # 2. faults cluster around anchor demands, versions draw faults i.i.d.
    universe = repro.clustered_universe(
        space, n_faults=25, region_size=6, concentration=6.0, rng=42
    )
    population = repro.BernoulliFaultPopulation.uniform(universe, 0.25)
    print(universe.describe())
    print(f"expected faults per version: {population.expected_fault_count():.1f}")

    # 3. the static Eckhardt-Lee view
    model = repro.ELModel.from_population(population, profile)
    print("\n--- untested (Eckhardt-Lee) ---")
    print(f"P(one version fails)            = {model.prob_fail():.4f}")
    print(f"P(both fail), actual            = {model.prob_both_fail():.4f}")
    print(f"P(both fail), naive independence= {model.independence_prediction():.4f}")
    print(
        "the independence assumption is optimistic by "
        f"{100 * model.independence_excess_ratio():.0f}% (Var(Theta) = "
        f"{model.variance():.5f})"
    )

    # 4. now let both versions be debugged with 100 operational tests
    generator = repro.OperationalSuiteGenerator(profile, 100)
    same_suite = repro.SameSuite(generator)
    independent = repro.IndependentSuites(generator)

    print("\n--- after testing (100 operational tests per channel) ---")
    for regime in (independent, same_suite):
        result = repro.marginal_system_pfd(regime, population, profile)
        print(
            f"{regime.label:<20} system pfd = {result.system_pfd:.6f} "
            f"(channel pfd {result.pfd_a:.4f}, "
            f"suite-dependence term {result.suite_dependence:.6f})"
        )

    print(
        "\nSharing the test suite made the pair less reliable — the paper's "
        "eq. (23) penalty\nE_Q[Var_T(xi(X,T))] is the entire gap between the "
        "two lines above."
    )


if __name__ == "__main__":
    main()
