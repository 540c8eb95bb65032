"""Common specification mistakes (paper §5).

"Another instance of the 'same test suite' approach ... is the
representation of common mistakes (e.g. giving incorrect instructions to
all teams about how to resolve ambiguities in the specification).  The
difference in this case ... is that the 'common test' will result in
setting the scores of all demands affected to 1 (i.e. make versions produce
incorrect results) instead of fixing the mistakes."

Model: a mistake is a designated fault whose presence probability is forced
to **one in every methodology** — all teams follow the same wrong
instruction, so all versions fail identically on the mistake's region.
Two consequences follow and are both implemented:

* the mistake is a *common-mode* fault: it contributes ``Q(R_m)`` to the
  system pfd outright and produces identical coincident failures (so
  back-to-back testing cannot see it — the shared-fault output model
  already captures that);
* the oracle may share the misconception: a :class:`BlindSpotOracle` fails
  to recognise the mistaken behaviour as failure, so no amount of testing
  removes the mistake.  With a *correct* (independent) oracle the mistake
  is an ordinary fault and testing can find it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import SameSuite, marginal_system_pfd
from ..demand import UsageProfile
from ..errors import ModelError
from ..populations import BernoulliFaultPopulation
from ..rng import as_generator
from ..testing import Oracle, SuiteGenerator
from ..types import SeedLike
from ..versions import Version

__all__ = [
    "SpecificationMistake",
    "BlindSpotOracle",
    "BlindSpotFixing",
    "MistakeEffect",
    "mistake_effect",
]


@dataclass(frozen=True)
class SpecificationMistake:
    """A common wrong instruction, identified with fault ids in a universe.

    Parameters
    ----------
    fault_ids:
        The faults every team acquires by following the instruction.
    """

    fault_ids: tuple

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.fault_ids)
        if not ids:
            raise ModelError("a mistake must involve at least one fault")
        if any(i < 0 for i in ids):
            raise ModelError("fault ids must be >= 0")
        object.__setattr__(self, "fault_ids", ids)

    def apply_to(
        self, population: BernoulliFaultPopulation
    ) -> BernoulliFaultPopulation:
        """The population after the mistake: those faults become certain."""
        universe = population.universe
        ids = universe.validate_fault_ids(np.asarray(self.fault_ids))
        probs = population.presence_probs
        probs[ids] = 1.0
        return BernoulliFaultPopulation(universe, probs)

    def region_mask(self, population: BernoulliFaultPopulation) -> np.ndarray:
        """Demand mask of the mistake's combined failure region."""
        return population.universe.union_mask(np.asarray(self.fault_ids))

    def blind_oracle(self) -> "BlindSpotOracle":
        """An oracle sharing the misconception: blind to these faults."""
        return BlindSpotOracle(self.fault_ids)

    def blind_fixing(self) -> "BlindSpotFixing":
        """Fixing that never repairs the mistaken behaviour."""
        return BlindSpotFixing(self.fault_ids)


@dataclass(frozen=True)
class BlindSpotOracle(Oracle):
    """An oracle that cannot see failures caused *solely* by blind faults.

    The judge was written from the same (wrong) specification: behaviour
    the mistake mandates looks correct to it.  A failure is detected only
    if at least one *other* fault contributes to it.
    """

    blind_fault_ids: tuple

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.blind_fault_ids)
        object.__setattr__(self, "blind_fault_ids", ids)

    def detects(
        self, version: Version, demand: int, rng: np.random.Generator
    ) -> bool:
        causes = version.faults_causing_failure(demand)
        visible = np.setdiff1d(
            causes, np.asarray(self.blind_fault_ids, dtype=np.int64)
        )
        return bool(visible.size > 0)


@dataclass(frozen=True)
class BlindSpotFixing:
    """Fixing that repairs only faults the team can recognise as wrong.

    The counterpart of :class:`BlindSpotOracle` on the repair side: even
    when a visible fault reveals a failure, the debugging that follows
    still considers the mandated (mistaken) behaviour correct, so blind
    faults are never removed.  Together the blind oracle and blind fixing
    make the mistake permanently undetectable — the hard common-mode floor.
    """

    blind_fault_ids: tuple

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.blind_fault_ids)
        object.__setattr__(self, "blind_fault_ids", ids)

    def faults_removed(
        self, version: Version, demand: int, rng: np.random.Generator
    ) -> np.ndarray:
        causes = version.faults_causing_failure(demand)
        return np.setdiff1d(
            causes, np.asarray(self.blind_fault_ids, dtype=np.int64)
        )


@dataclass(frozen=True)
class MistakeEffect:
    """System-level effect of a common specification mistake.

    Attributes
    ----------
    clean_pfd:
        System pfd without the mistake, after shared-suite testing.
    mistaken_correct_oracle_pfd:
        With the mistake, tested under an oracle that *can* see it.
    mistaken_blind_oracle_pfd:
        With the mistake, tested under the blind oracle (MC estimate).
    mistake_region_mass:
        ``Q(R_m)`` — the hard floor the undetectable mistake puts under
        the system pfd.
    """

    clean_pfd: float
    mistaken_correct_oracle_pfd: float
    mistaken_blind_oracle_pfd: float
    mistake_region_mass: float

    @property
    def floor_respected(self) -> bool:
        """Blind-oracle system pfd can never drop below ``Q(R_m)``."""
        return self.mistaken_blind_oracle_pfd >= self.mistake_region_mass - 1e-12


def mistake_effect(
    mistake: SpecificationMistake,
    population: BernoulliFaultPopulation,
    generator: SuiteGenerator,
    profile: UsageProfile,
    n_replications: int = 300,
    n_suites: int = 512,
    rng: SeedLike = None,
    chunk_size: int | None = None,
    n_jobs: int = 1,
) -> MistakeEffect:
    """Quantify a common mistake on a shared-suite-tested 1oo2 system.

    The clean and correct-oracle quantities are analytic (the mistaken
    population is just another Bernoulli population); the blind-oracle
    quantity needs simulation because blind detection depends on which
    *other* faults each realised version contains.  The simulation routes
    through :func:`repro.mc.simulate_marginal_system_pfd` — the matched
    blind oracle/fixing pair runs on the batch engine's blind-spot closure.
    """
    from ..mc.experiments import simulate_marginal_system_pfd
    from ..rng import spawn_many

    rng = as_generator(rng)
    streams = spawn_many(rng, 3)
    regime = SameSuite(generator)
    clean = marginal_system_pfd(
        regime, population, profile, n_suites=n_suites, rng=streams[0]
    ).system_pfd
    mistaken = mistake.apply_to(population)
    correct_oracle = marginal_system_pfd(
        regime, mistaken, profile, n_suites=n_suites, rng=streams[1]
    ).system_pfd

    blind = simulate_marginal_system_pfd(
        regime,
        mistaken,
        profile,
        n_replications=n_replications,
        rng=streams[2],
        oracle=mistake.blind_oracle(),
        fixing=mistake.blind_fixing(),
        chunk_size=chunk_size,
        n_jobs=n_jobs,
    ).mean
    region_mass = float(
        profile.probabilities[mistake.region_mask(population)].sum()
    )
    return MistakeEffect(
        clean_pfd=clean,
        mistaken_correct_oracle_pfd=correct_oracle,
        mistaken_blind_oracle_pfd=blind,
        mistake_region_mass=region_mass,
    )
