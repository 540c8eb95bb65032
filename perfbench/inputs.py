"""Workload inputs, generated from the ``--seed`` the benchmark is given.

The same seed always gives the same inputs; the program only ever sees
what these functions return.
"""

from __future__ import annotations

import random

# Experiment seeds are drawn from 0..11, the seeds whose claims were all
# checked to hold; these are the (mode, experiment) pairs where a claim
# does not hold at that seed, so the catalog never draws them.
VETTED_SEEDS = range(12)
FAILING_SEEDS = {
    "full": {"e06": {6}, "e08": {4}, "e09": {4}, "e11": {2, 3}, "a3": {1}, "c3": {2, 10, 11}},
    "fast": {"e11": {7}, "a3": {1}, "c3": {2, 10, 11}},
}

# experiments that compute in at most ~4 ms in fast mode: the service's
# cold requests then measure the serving and persisting path, not the engine
CHEAP_IDS = ["a1", "a4", "a5", "m2", "m3", "x1"]
# slow enough (~0.2 s) that the second request of the burst arrives
# while the first is still computing, so the shard coalesces them
BURST_ID = "e03"

# the engine's models are built once from this seed, so their structure
# (and with it the work per replication) is the same for every workload seed
ENGINE_MODEL_SEED = 0

# engine model sizes: small is bound by per-call overhead, large by matrix
# work -- one 8192-row chunk of 2000-demand suite masks is 16 MB, and its
# float64 copy for the coverage product 131 MB, more than an L3 holds
ENGINE_SIZES = {
    "small": {"demands": 80, "faults": 14, "region": 5, "presence": 0.3, "suite": 30},
    "large": {"demands": 2000, "faults": 200, "region": 20, "presence": 0.1, "suite": 100},
}


def experiment_seed(workload_seed: int, experiment_id: str, mode: str) -> int:
    """The seed the catalog runs ``experiment_id`` at, in ``mode``."""
    failing = FAILING_SEEDS[mode].get(experiment_id, set())
    pool = [seed for seed in VETTED_SEEDS if seed not in failing]
    return random.Random(f"{workload_seed}:{experiment_id}").choice(pool)


def service_points(workload_seed: int, n_cold: int) -> dict:
    """Distinct cold points, the burst point and the point checked locally."""
    rng = random.Random(f"service:{workload_seed}")
    seeds = rng.sample(range(10**6), n_cold + 1)
    cold = [[CHEAP_IDS[index % len(CHEAP_IDS)], seeds[index]] for index in range(n_cold)]
    return {
        "cold_points": cold,
        "burst_point": [BURST_ID, seeds[n_cold]],
        "check_point": rng.choice(cold),
    }
