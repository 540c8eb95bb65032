"""Random-number management for reproducible stochastic experiments.

Every stochastic object in the library takes a :class:`numpy.random.Generator`
at the point of sampling, never at construction, so that model objects stay
immutable and a single seed threads deterministically through an entire
experiment.  The helpers here normalise user-supplied seeds and spawn
independent child streams for parallel or multi-component simulations.
"""

from __future__ import annotations

from typing import List

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
    (``size`` is then ignored) — how the c-family workload maps the
    counter-based uniforms it draws itself to demands while keeping this
    single definition of the search-and-clamp.
    """
    if uniforms is not None:
        uniforms = np.asarray(uniforms)
        return _guided_search(cdf, uniforms, np.empty(uniforms.shape, np.int64))
    generator = as_generator(rng)
    if size is None:
        index = int(np.searchsorted(cdf, generator.random(), side="right"))
        return min(index, len(cdf) - 1)
    indices = np.empty(size, dtype=np.int64)
    for start in range(0, indices.size, _DRAW_SLAB):
        part = indices.reshape(-1)[start : start + _DRAW_SLAB]
        _guided_search(cdf, generator.random(part.size), out=part)
    return indices


# widest bucket span the guide table serves; more skewed profiles bisect
_MAX_GUIDE_STEPS = 8
# uniforms drawn and searched per slab, the stream of one whole-block draw:
# whole-block temporaries made glibc trim and re-fault the heap every chunk
_DRAW_SLAB = 1 << 16


def _guided_search(cdf: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``min(searchsorted(cdf, u, "right"), len(cdf) − 1)`` into the int64
    ``out``, ``u`` in [0, 1].

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
            return np.minimum(indices, len(cdf) - 1, out=out)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1, out=out)


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


# elements per Philox slab: six uint64 buffers of it stay in L2 across the
# ten rounds; whole-block temporaries made every round a trip to memory
_PHILOX_SLAB = 1 << 13
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint64(0x9E3779B9)
_PHILOX_W1 = np.uint64(0xBB67AE85)


def counter_uniforms(key: int, streams, lanes) -> np.ndarray:
    """Uniforms in ``[0, 1)`` keyed by ``(key, stream, lane)`` — vectorized.

    ``streams`` and ``lanes`` are broadcast against each other; entry
    ``(…)`` is exactly ``philox_uniform(key, streams[…], lanes[…])``.
    Callers use it as
    ``counter_uniforms(key, replication_ids[:, None], lane_ids[None, :])``
    to materialise a whole ``(replications, lanes)`` block in one shot.
    The cipher runs in place on ``_PHILOX_SLAB``-element slabs of the
    broadcast, with the ten round keys computed once per call.
    """
    lanes_b, streams_b = np.broadcast_arrays(
        np.asarray(lanes, dtype=np.uint64), np.asarray(streams, dtype=np.uint64)
    )
    out = np.empty(lanes_b.shape, dtype=np.float64)
    if out.size == 0:
        return out
    mask = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)
    key64 = int(key) & _U64_MASK
    rounds = np.arange(10, dtype=np.uint64)
    schedule = list(
        zip(
            (np.uint64(key64 & 0xFFFFFFFF) + rounds * _PHILOX_W0) & mask,
            (np.uint64(key64 >> 32) + rounds * _PHILOX_W1) & mask,
        )
    )
    buffers = np.empty((6, min(out.size, _PHILOX_SLAB)), dtype=np.uint64)
    slabs = np.nditer(
        [lanes_b, streams_b, out],
        flags=["external_loop", "buffered"],
        op_flags=[["readonly"], ["readonly"], ["writeonly"]],
        buffersize=_PHILOX_SLAB,
        order="C",
    )
    with slabs:
        for lane, stream_id, dest in slabs:
            # the 128-bit counter (lane, stream) as four 32-bit words x0..x3
            x0, x1, x2, x3, q0, q1 = buffers[:, : lane.shape[0]]
            np.bitwise_and(lane, mask, out=x0)
            np.right_shift(lane, shift, out=x1)
            np.bitwise_and(stream_id, mask, out=x2)
            np.right_shift(stream_id, shift, out=x3)
            for k0, k1 in schedule:
                np.multiply(x0, _PHILOX_M0, out=q0)
                np.multiply(x2, _PHILOX_M1, out=q1)
                # x0' = hi(q1) ^ x1 ^ k0, x1' = lo(q1); likewise x2', x3'
                np.right_shift(q1, shift, out=x0)
                np.bitwise_xor(x0, x1, out=x0)
                np.bitwise_xor(x0, k0, out=x0)
                np.bitwise_and(q1, mask, out=x1)
                np.right_shift(q0, shift, out=x2)
                np.bitwise_xor(x2, x3, out=x2)
                np.bitwise_xor(x2, k1, out=x2)
                np.bitwise_and(q0, mask, out=x3)
            # the top 53 bits of (x0 << 32) | x1, scaled into [0, 1)
            np.left_shift(x0, np.uint64(21), out=x0)
            np.right_shift(x1, np.uint64(11), out=x1)
            np.bitwise_or(x0, x1, out=x0)
            np.multiply(x0, 1.0 / 9007199254740992.0, out=dest)
    return out
