"""Consistent-hash ring: which shard owns which cache key.

Sharding the service splits the cache-key space across N independent
instances so that every request for the *same* point — same experiment
id, knobs, seed, mode, version — always lands on the *same*
shard.  That single property is what makes the cluster behave like one
big server: request coalescing (N identical in-flight requests cost one
computation) and the two-tier cache both key on the sweep layer's cache
key, so routing by that key makes them cluster-wide for free.

The ring is the classic consistent-hash construction (Karger et al.;
the same shape Dynamo-style stores use): each shard is hashed onto a
circle at ``vnodes`` pseudo-random points, and a key is owned by the
first shard point clockwise from the key's own hash.  Properties the
router relies on:

* **stability** — adding or removing one shard of N remaps ~1/N of the
  key space, not all of it (a warm cluster stays mostly warm through a
  topology change);
* **balance** — with enough virtual nodes per shard (default 64) the
  per-shard share of the key space concentrates near 1/N;
* **deterministic failover** — :meth:`HashRing.preference` yields the
  owner followed by the distinct next shards clockwise, so every router
  instance agrees on where a key goes when its owner is down, without
  any coordination.

Hashing uses ``sha256`` (already the cache-key hash) — stable across
processes, platforms and Python versions, unlike :func:`hash`.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from ..errors import ModelError

__all__ = ["HashRing"]

#: virtual nodes per shard: enough that the max/min key-share ratio over
#: a handful of shards stays small, cheap enough to rebuild on the fly
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """A shard/key's position on the ring: the first 8 bytes of sha256."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over named shards.

    Built from shard names (order-insensitive: two routers constructed
    with the same set agree point-for-point).  Rebuild to change
    membership — construction is O(shards * vnodes * log) and the router
    only rebuilds on topology changes, never per request.
    """

    def __init__(
        self, shards: Sequence[str], vnodes: int = DEFAULT_VNODES
    ) -> None:
        if not shards:
            raise ModelError("a hash ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ModelError(f"duplicate shard names: {sorted(shards)}")
        if vnodes < 1:
            raise ModelError(f"vnodes must be >= 1, got {vnodes}")
        self.shards: Tuple[str, ...] = tuple(sorted(shards))
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for shard in self.shards:
            for replica in range(vnodes):
                points.append((_point(f"{shard}#{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def preference(self, key: str) -> List[str]:
        """All shards in failover order for ``key``: owner first, then the
        distinct shards met walking clockwise.  Deterministic, so every
        router agrees on the fallback target when an owner is down."""
        start = bisect.bisect_right(self._points, _point(key))
        seen: Dict[str, None] = {}
        for step in range(len(self._points)):
            shard = self._owners[(start + step) % len(self._points)]
            seen.setdefault(shard, None)
            if len(seen) == len(self.shards):
                break
        return list(seen)

