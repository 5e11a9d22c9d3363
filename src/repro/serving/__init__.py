"""The serving tier: CA-RAM as a sharded, coalescing async service.

Layers (each its own module, composable separately):

* :mod:`repro.serving.router` — keyspace partitioning (consistent-hash
  for point keys, prefix-range for LPM).
* :mod:`repro.serving.replication` — the replica layer: replica sets
  (R bit-identical copies of a shard, R=1 by default) with balancing and
  circuit-breaker membership, the failover policy, chaos injection.
* :mod:`repro.serving.cluster` — the one cluster: a router over one
  replica set per shard; loading, the direct synchronous reference path,
  chaos/membership control, rollup telemetry, lifecycle.
* :mod:`repro.serving.service` — the one asyncio front end: request
  coalescing into columnar batches, admission control/load shedding
  (:class:`~repro.errors.ServiceOverloadError`), the failover loop
  (deadlines, retries, hedging,
  :class:`~repro.errors.ShardUnavailableError`), graceful drain.
* :mod:`repro.serving.loadgen` — closed/open-loop load generation with
  Zipf-skewed traffic and per-request answer verification.

``ReplicatedCluster`` and ``FaultTolerantService`` are aliases of
:class:`CaramCluster` and :class:`ShardedService`.
"""

from repro.serving.cluster import (
    CaramCluster,
    CaramShard,
    ReplicatedCluster,
    ShardSpec,
)
from repro.serving.loadgen import (
    LoadReport,
    RequestStream,
    make_request_stream,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.router import (
    ConsistentHashRouter,
    PrefixRangeRouter,
    ShardRouter,
)
from repro.serving.replication import (
    ChaosSpec,
    FailoverPolicy,
    Replica,
    ReplicaSet,
    ShardChaos,
)
from repro.serving.service import (
    CoalescerStats,
    FaultTolerantService,
    ShardedService,
)

__all__ = [
    "CaramCluster",
    "CaramShard",
    "ShardSpec",
    "ShardRouter",
    "ConsistentHashRouter",
    "PrefixRangeRouter",
    "ShardedService",
    "CoalescerStats",
    "LoadReport",
    "RequestStream",
    "make_request_stream",
    "run_closed_loop",
    "run_open_loop",
    "ChaosSpec",
    "ShardChaos",
    "FailoverPolicy",
    "Replica",
    "ReplicaSet",
    "ReplicatedCluster",
    "FaultTolerantService",
]
