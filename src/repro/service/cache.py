"""Two-tier result cache: in-memory LRU over a persistent ``ResultStore``.

The service's warm path.  Tier 1 is a bounded least-recently-used map of
complete store records; tier 2 is an optional append-only
:class:`~repro.store.ResultStore` shared with the sweep layer, so results
computed by offline sweeps are warm the moment the server starts, and
results computed by the server survive restarts.  A hit in either tier
returns without touching a worker process — the property the scheduler's
submit path relies on.

Only records carrying a ``result`` payload are cacheable: identity-only
records mark a point as *known*, not as *computed* (exactly the
distinction :meth:`repro.sweeps.Sweep.partition` draws), and serving one
would hand a client a result-less answer.

The cache is deliberately not thread-safe: the scheduler drives it from
the event loop only.  Its hit/miss/eviction counters live in its metrics
registry, which the scheduler over it shares; both ``GET /metrics``
views read them there.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ModelError
from ..obs.metrics import MetricsRegistry
from ..store import ResultStore

__all__ = ["TwoTierCache"]


class TwoTierCache:
    """A bounded LRU of store records over an optional persistent store."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        capacity: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ModelError(f"cache capacity must be >= 1, got {capacity}")
        self.store = store
        self.capacity = capacity
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        #: where the counters live: a private registry unless one is given
        self.registry = registry if registry is not None else MetricsRegistry()
        hits = self.registry.counter(
            "repro_cache_hits_total",
            "Cache hits by tier (memory or store).",
            ("tier",),
        )
        # lookup() is on the warm request path — bind the tier children
        # once so a hit pays one lock, not label resolution
        self._memory_hits = hits.labels(tier="memory")
        self._store_hits = hits.labels(tier="store")
        self._misses = self.registry.counter(
            "repro_cache_misses_total", "Cache lookups that missed both tiers."
        )
        self._evictions = self.registry.counter(
            "repro_cache_evictions_total",
            "Memory-tier LRU evictions.",
        )

    # -- reading ---------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The complete record under ``key``, or None (counted as a miss)."""
        record, _ = self.lookup(key)
        return record

    def lookup(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """Like :meth:`get`, also reporting which tier answered.

        Returns ``(record, source)`` with source ``"memory"``, ``"store"``
        or ``None``.  Memory hits refresh the entry's recency; store hits
        promote the record into memory so a repeat is a memory hit.
        """
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
            self._memory_hits.inc()
            return record, "memory"
        if self.store is not None:
            record = self.store.get(key)
            if record is not None and "result" in record:
                self._store_hits.inc()
                self._remember(key, record)
                return record, "store"
        self._misses.inc()
        return None, None

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        if self.store is None:
            return False
        record = self.store.get(key)
        return record is not None and "result" in record

    # -- writing ---------------------------------------------------------

    def put(self, record: Mapping[str, object]) -> str:
        """Persist a freshly computed record into both tiers.

        The store write happens first — a crash after it loses only the
        memory tier, which rebuilds from the store; the other order could
        serve a record that never reached disk.
        """
        if "result" not in record:
            raise ModelError(
                f"cache refuses identity-only record "
                f"{record.get('key', '<unkeyed>')!r} (no result payload)"
            )
        record = dict(record)
        if self.store is not None:
            key = self.store.put(record)
        else:
            from ..store.records import validate_record

            validate_record(record)
            key = record["key"]
        self._remember(key, record)
        return key

    def _remember(self, key: str, record: dict) -> None:
        self._memory[key] = dict(record)
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions.inc()

    # -- reporting -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for ``GET /metrics``, read from the registry
        (all zero under a :class:`~repro.obs.metrics.NullRegistry`)."""
        memory_hits = int(self._memory_hits.value())
        store_hits = int(self._store_hits.value())
        misses = int(self._misses.value())
        hits = memory_hits + store_hits
        lookups = hits + misses
        return {
            "memory_hits": memory_hits,
            "store_hits": store_hits,
            "misses": misses,
            "evictions": int(self._evictions.value()),
            "hit_ratio": (hits / lookups) if lookups else 0.0,
            "memory_size": len(self._memory),
            "memory_capacity": self.capacity,
            "store_records": len(self.store) if self.store is not None else 0,
            "store_path": (
                str(self.store.path) if self.store is not None else None
            ),
        }
