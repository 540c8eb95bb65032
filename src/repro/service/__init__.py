"""Simulation serving layer: async scheduler, two-tier cache, HTTP API.

The operational layer the ROADMAP's "serve heavy traffic" north star asks
for: instead of every caller paying full Monte-Carlo cost in a one-shot
CLI process, a long-lived server answers run requests along the cheapest
path — in-memory LRU hit, persistent-store hit, coalesced onto an
in-flight identical computation, or scheduled onto a bounded
priority-queue process pool.  Cache identity is the sweep layer's
content-hash key (:func:`repro.store.records.cache_key`), so the server,
offline sweeps and stored results all interoperate: a sweep warms the
server's cache and the server's store resumes a sweep.

Layers:

* :mod:`~repro.service.cache` — memory-LRU over a
  :class:`~repro.store.ResultStore`;
* :mod:`~repro.service.jobs` — the async scheduler (priorities,
  coalescing, cancellation, adaptive-progress streaming);
* :mod:`~repro.service.http` — the dependency-free asyncio JSON/HTTP
  front-end (``serve`` CLI subcommand hosts it);
* :mod:`~repro.service.client` — the blocking client used by tests, the
  load harness (``benchmarks/bench_service.py``) and ``sweep
  --via-service``;
* :mod:`~repro.service.shard` / :mod:`~repro.service.router` — the
  scale-out layer: a consistent-hash ring over N shard instances and a
  router front-end that forwards each request to its key's owner, so
  coalescing and caching hold cluster-wide (``router`` CLI subcommand
  hosts it);
* :mod:`~repro.service.instances` — subprocess shard + local-cluster
  harness for the chaos tests and the bench.

See ``docs/service.md`` for the API reference and deployment notes.
"""

from .cache import TwoTierCache
from .client import ServiceClient
from .errors import QueueFullError, ServiceError
from .http import BaseHttpServer, ServiceServer, ThreadedServer
from .instances import LocalCluster, ShardProcess
from .jobs import Job, JobScheduler, JobSpec
from .router import Router, RouterServer, ThreadedRouter
from .shard import HashRing

__all__ = [
    "BaseHttpServer",
    "HashRing",
    "Job",
    "JobScheduler",
    "JobSpec",
    "LocalCluster",
    "QueueFullError",
    "Router",
    "RouterServer",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardProcess",
    "ThreadedRouter",
    "ThreadedServer",
    "TwoTierCache",
]
