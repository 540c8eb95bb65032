"""Random-number management for reproducible stochastic experiments.

Every stochastic object in the library takes a :class:`numpy.random.Generator`
at the point of sampling, never at construction, so that model objects stay
immutable and a single seed threads deterministically through an entire
experiment.  The helpers here normalise user-supplied seeds and spawn
independent child streams for parallel or multi-component simulations.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .types import SeedLike

__all__ = [
    "as_generator",
    "counter_key",
    "counter_uniforms",
    "inverse_cdf_indices",
    "philox_uniform",
    "spawn",
    "spawn_many",
    "stream",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Accepts ``None`` (fresh OS entropy), an ``int``, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one stream through nested calls).
    ``default_rng`` handles every non-generator case natively, including
    ``SeedSequence`` instances.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def inverse_cdf_indices(cdf: np.ndarray, rng: SeedLike, size=None, uniforms=None):
    """Draw indices by inverse-CDF sampling, clamped into range.

    ``cdf`` is a cumulative-probability vector; returns a scalar int when
    ``size is None``, else an int64 array of the given (possibly tuple)
    shape.  The clamp matters: probability vectors in this library are
    validated to sum to one only within a tolerance, so ``cdf[-1]`` may sit
    a hair below 1.0 and an unlucky uniform draw would otherwise index one
    past the end.  Every inverse-CDF sampler (usage profiles, finite
    populations, enumerable suite generators) routes through here so the
    clamp cannot drift out of sync.

    ``uniforms`` supplies the uniform draws instead of consuming ``rng``
    (``size`` is then ignored) — how the antithetic variance-reduction
    kernel shares one uniform block between a ``u`` / ``1 − u`` pair while
    keeping this single definition of the search-and-clamp.
    """
    if uniforms is not None:
        return _guided_search(cdf, np.asarray(uniforms))
    generator = as_generator(rng)
    if size is None:
        index = int(np.searchsorted(cdf, generator.random(), side="right"))
        return min(index, len(cdf) - 1)
    return _guided_search(cdf, generator.random(size))


# widest bucket span the guide table serves; more skewed profiles bisect
_MAX_GUIDE_STEPS = 8


def _guided_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``min(searchsorted(cdf, u, "right"), len(cdf) − 1)``, ``u`` in [0, 1].

    A bit-identical guide-table search (Chen & Asau 1974), ``K = 4·len(cdf)``
    buckets.  Bucket ``c`` starts at the count of entries ``<= (c − 1)/K``,
    one below ``floor(u·K)`` because rounding in ``u·K`` overshoots by at
    most one; the table's widest span of vectorized forward steps then
    finishes every lookup.  Blocks smaller than the table keep the binary
    search.
    """
    buckets = 4 * len(cdf)
    if u.size >= buckets:
        edges = (np.arange(buckets + 3) - 1.0) / buckets
        start = np.searchsorted(cdf, edges, side="right")
        steps = int((start[2:] - start[:-2]).max())
        if steps <= _MAX_GUIDE_STEPS:
            padded = np.append(cdf, np.inf)
            indices = start[(u * buckets).astype(np.intp)]
            for _ in range(steps):
                indices += padded[indices] <= u
            return np.minimum(indices, len(cdf) - 1).astype(np.int64)
    indices = np.searchsorted(cdf, u, side="right")
    return np.minimum(indices, len(cdf) - 1).astype(np.int64)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Spawn one statistically independent child generator from ``rng``.

    Uses the generator's underlying seed sequence spawning where available;
    falls back to seeding from the parent stream.  Child streams are
    independent of later draws from the parent.
    """
    children = spawn_many(rng, 1)
    return children[0]


def spawn_many(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``rng``.

    Independent streams matter in this library because the paper's regimes
    differ precisely in which random objects are shared: e.g. the
    independent-suites regime needs two suite draws that share nothing,
    while the same-suite regime reuses one draw.  Giving each stochastic
    component its own child stream keeps those couplings explicit.

    Children come from the generator's underlying
    :class:`~numpy.random.SeedSequence` via ``seed_seq.spawn(count)`` —
    the collision-resistant spawning protocol — so repeated calls yield
    fresh, mutually independent families without consuming the parent
    stream.  Bit generators constructed without a seed sequence (e.g.
    ``Philox(key=...)``) fall back to drawing 64-bit child seeds from the
    parent stream; that fallback consumes the parent and is
    birthday-collision-prone at very large family sizes, which is why the
    seed-sequence path is preferred whenever available.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if seed_seq is None:
        seed_seq = getattr(bit_generator, "_seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        return [np.random.default_rng(child) for child in seed_seq.spawn(count)]
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


# ---------------------------------------------------------------------------
# counter-based RNG (Philox4x32-10)
#
# A counter-based generator is a pure function ``(key, counter) -> bits``:
# there is no evolving state, so any parallel decomposition of the work —
# chunking, process sharding, resumption — reads exactly the same random
# numbers for replication ``r`` as a serial run would.  The c-family's
# SBFL localization workload (:mod:`repro.coverage.workload`) keys every
# draw by ``(root_key, stream, lane)`` where ``stream`` is the *global*
# replication index and ``lane`` enumerates the draw slots within one
# replication, which is what makes its results bit-identical regardless
# of ``chunk_size`` and ``n_jobs``.
#
# The block cipher is Philox4x32-10 (Salmon et al., SC'11) — the same
# round function behind ``numpy.random.Philox`` — implemented here twice
# with identical integer semantics: the vectorized form the workload
# draws from (:func:`counter_uniforms`), and a scalar reference form
# (:func:`philox_uniform`) that pins it one value at a time.
# ---------------------------------------------------------------------------

_U64_MASK = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer — a strong 64-bit mix used to derive keys."""
    z = (value + _SPLITMIX_GAMMA) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def counter_key(seed: SeedLike = None) -> int:
    """Derive the 64-bit root key of a counter-RNG run from any seed-like.

    Deterministic for deterministic inputs: an ``int`` seed is mixed
    through splitmix64 (so small seeds like 0, 1, 2 land far apart in key
    space), a :class:`~numpy.random.SeedSequence` contributes its entropy,
    and an existing :class:`~numpy.random.Generator` has one 64-bit value
    drawn from it (consuming the stream, exactly like seeding a child).
    ``None`` draws a fresh key from OS entropy.
    """
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**64, dtype=np.uint64))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return _splitmix64(int(seed) & _U64_MASK)


def philox_uniform(key: np.uint64, stream: np.uint64, lane: np.uint64) -> float:
    """One uniform in ``[0, 1)`` from Philox4x32-10 — scalar reference form.

    Pure function of ``(key, stream, lane)``: the 128-bit Philox counter is
    ``(lane, stream)`` and the 64-bit key is ``key``.  Every operation is
    explicit ``uint64`` arithmetic, one round at a time, so the function
    reads as the cipher's specification; :func:`counter_uniforms` is the
    vectorized form, equal to it value for value.
    """
    mask = np.uint64(0xFFFFFFFF)
    m0 = np.uint64(0xD2511F53)
    m1 = np.uint64(0xCD9E8D57)
    w0 = np.uint64(0x9E3779B9)
    w1 = np.uint64(0xBB67AE85)
    shift = np.uint64(32)
    c0 = np.uint64(lane) & mask
    c1 = (np.uint64(lane) >> shift) & mask
    c2 = np.uint64(stream) & mask
    c3 = (np.uint64(stream) >> shift) & mask
    k0 = np.uint64(key) & mask
    k1 = (np.uint64(key) >> shift) & mask
    for _round in range(10):
        p0 = m0 * c0
        p1 = m1 * c2
        n0 = (p1 >> shift) ^ c1 ^ k0
        n1 = p1 & mask
        n2 = (p0 >> shift) ^ c3 ^ k1
        n3 = p0 & mask
        c0, c1, c2, c3 = n0, n1, n2, n3
        k0 = (k0 + w0) & mask
        k1 = (k1 + w1) & mask
    bits = (c0 << shift) | c1
    return float(bits >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def counter_uniforms(key: int, streams, lanes) -> np.ndarray:
    """Uniforms in ``[0, 1)`` keyed by ``(key, stream, lane)`` — vectorized.

    ``streams`` and ``lanes`` are broadcast against each other; entry
    ``(…)`` is exactly ``philox_uniform(key, streams[…], lanes[…])``.
    Callers use it as
    ``counter_uniforms(key, replication_ids[:, None], lane_ids[None, :])``
    to materialise a whole ``(replications, lanes)`` block in one shot.
    """
    mask = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)
    streams_arr = np.asarray(streams, dtype=np.uint64)
    lanes_arr = np.asarray(lanes, dtype=np.uint64)
    lanes_b, streams_b = np.broadcast_arrays(lanes_arr, streams_arr)
    c0 = lanes_b & mask
    c1 = (lanes_b >> shift) & mask
    c2 = streams_b & mask
    c3 = (streams_b >> shift) & mask
    key64 = np.uint64(int(key) & _U64_MASK)
    k0 = key64 & mask
    k1 = (key64 >> shift) & mask
    m0 = np.uint64(0xD2511F53)
    m1 = np.uint64(0xCD9E8D57)
    w0 = np.uint64(0x9E3779B9)
    w1 = np.uint64(0xBB67AE85)
    for _round in range(10):
        p0 = m0 * c0
        p1 = m1 * c2
        n0 = (p1 >> shift) ^ c1 ^ k0
        n1 = p1 & mask
        n2 = (p0 >> shift) ^ c3 ^ k1
        n3 = p0 & mask
        c0, c1, c2, c3 = n0, n1, n2, n3
        k0 = (k0 + w0) & mask
        k1 = (k1 + w1) & mask
    bits = (c0 << shift) | c1
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def stream(seed: SeedLike = None) -> Iterator[np.random.Generator]:
    """Yield an unbounded sequence of independent generators.

    Convenient for experiment drivers that need one fresh stream per
    replication::

        gens = stream(seed=42)
        for replication in range(1000):
            rng = next(gens)
            ...
    """
    root = as_generator(seed)
    while True:
        yield spawn(root)
