"""Shard assembly: one replica set per shard behind one router.

:class:`CaramShard` wraps one :class:`~repro.core.subsystem.CARAMSubsystem`
holding one database group — a full subsystem per shard, so each shard can
carry its own overflow store, ports, engine spec, and telemetry, exactly
like an independent CA-RAM chip in a multi-bank deployment.
:class:`CaramCluster` is the one logical database: a
:class:`~repro.serving.router.ShardRouter` over one
:class:`~repro.serving.replication.ReplicaSet` per shard, each holding R
bit-identical copies of that shard (R=1 by default — an unreplicated
cluster is the R=1 case, not a separate class; ``ReplicatedCluster`` is an
alias).  It provides:

* **loading** — records partition once by
  :meth:`ShardRouter.shards_for_stored` (an LPM prefix spanning several
  ranges is duplicated into each) and bulk-load into every replica of
  each shard through the vectorized pipeline;
* a **direct synchronous path** (:meth:`search_batch`, :meth:`search`,
  :meth:`lookup`) — scatter by router, per-shard lookup through the
  replica set's failover loop (no deadlines), gather back into request
  order.  This is simultaneously the serving tier's correctness
  reference (the async coalescer must be bit-identical to it) and the
  cluster half of the load generator's baseline;
* **chaos and membership** — fault schedules per replica
  (:meth:`inject_chaos`, :meth:`kill_replica`), health-driven eviction
  (:meth:`apply_health_report`), breaker trace events
  (:meth:`set_tracer`) and the :meth:`membership` report;
* **telemetry** — every physical shard mounts under
  ``{prefix}.shard{i}.*`` (``{prefix}.shard{s}.replica{r}.*`` when
  R >= 2) and the cluster aggregate under ``{prefix}.cluster.*``,
  computed through :func:`repro.telemetry.rollup.merge_blocks` so
  counters sum exactly, latency sketches merge bucket-exactly, and
  derived ratios (AMAL, hit rate, spill rate) are recomputed from the
  merged bases — the existing ``repro telemetry serve``/``health`` CLI
  reads the whole cluster off these mounts;
* **lifecycle** — :meth:`close` tears down every replica's batch engine
  (worker pools, shared memory); the cluster is a context manager.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import KeyInput
from repro.core.record import RecordFormat
from repro.core.slice import SearchResult
from repro.core.stats import SearchStats
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.hashing.bit_select import BitSelectHash
from repro.serving.replication import (
    CORRUPT,
    CRASH,
    ChaosSpec,
    FailoverPolicy,
    Replica,
    ReplicaSet,
    ShardChaos,
)
from repro.serving.router import ConsistentHashRouter, ShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import BatchResultSet
    from repro.telemetry.health import HealthReport
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer

__all__ = [
    "ShardSpec",
    "CaramShard",
    "CaramCluster",
    "ReplicatedCluster",
    "DEFAULT_GROUP",
]

#: Group name every shard's subsystem registers its database under.
DEFAULT_GROUP = "db"


@dataclass(frozen=True)
class ShardSpec:
    """Per-shard engine/telemetry configuration.

    One spec can configure the whole cluster, or a per-shard list can mix
    configurations (e.g. a bitplane hot shard next to word-mirror ones).
    """

    engine: str = "word"
    batch_chunk_size: Optional[int] = None
    account_reads: bool = False
    track_latency: bool = False
    latency_error: Optional[float] = None


class CaramShard:
    """One serving shard: a subsystem, its database group, its config."""

    def __init__(
        self,
        shard_id: int,
        subsystem: CARAMSubsystem,
        group_name: str = DEFAULT_GROUP,
    ) -> None:
        self.shard_id = shard_id
        self.subsystem = subsystem
        self.group_name = group_name

    @property
    def group(self) -> SliceGroup:
        return self.subsystem.group(self.group_name)

    @property
    def stats(self) -> SearchStats:
        return self.group.stats

    def search_batch_columnar(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> "BatchResultSet":
        """This shard's vectorized lookup (overflow store included)."""
        return self.subsystem.search_batch_columnar(
            self.group_name, keys, search_mask
        )

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        return self.subsystem.search(self.group_name, key, search_mask)

    def bulk_load(self, records) -> int:
        return self.subsystem.bulk_load(self.group_name, records)

    def close(self) -> None:
        """Tear down this shard's batch engines (pools, shared memory)."""
        self.subsystem.close()


class CaramCluster:
    """One replica set per shard + a router = one logical database.

    Pass :class:`~repro.serving.replication.ReplicaSet` objects, or
    physical shards (each becomes a one-replica set with the default
    :class:`~repro.serving.replication.FailoverPolicy`); or use
    :meth:`build` for a uniform lookup-table cluster shaped like the
    telemetry workload's slice (32-bit keys, 16-bit data).
    """

    def __init__(
        self,
        shards: Sequence[Union[ReplicaSet, CaramShard]],
        router: ShardRouter,
    ) -> None:
        if not shards:
            raise ConfigurationError("a cluster needs at least one shard")
        if router.shard_count != len(shards):
            raise ConfigurationError(
                f"router partitions {router.shard_count} ways but the "
                f"cluster has {len(shards)} shards"
            )
        self.replica_sets = [
            shard
            if isinstance(shard, ReplicaSet)
            else ReplicaSet(shard_id, [Replica(shard_id, 0, shard)])
            for shard_id, shard in enumerate(shards)
        ]
        self.router = router

    @property
    def shards(self) -> List[CaramShard]:
        """The first replica's physical shard of every replica set."""
        return [rset.replicas[0].shard for rset in self.replica_sets]

    @property
    def replication_factor(self) -> int:
        return len(self.replica_sets[0].replicas)

    def _replicas(self) -> List[Replica]:
        return [
            replica for rset in self.replica_sets for replica in rset.replicas
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    #: Geometry shared with :mod:`repro.telemetry.workload`.
    KEY_BITS = 32
    DATA_BITS = 16
    HASH_LSB = 12

    @classmethod
    def build(
        cls,
        shard_count: int,
        replication: int = 1,
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        index_bits: int = 8,
        slots: int = 16,
        specs: Optional[Sequence[ShardSpec]] = None,
        router: Optional[ShardRouter] = None,
        slot_priority: Optional[Callable] = None,
        key_bits: Optional[int] = None,
        data_bits: Optional[int] = None,
        ternary: bool = False,
    ) -> "CaramCluster":
        """A uniform cluster of single-slice lookup-table shards.

        Every replica of shard *s* has the same geometry, hash and engine
        spec, and (after :meth:`load`) the same records in the same
        slots — bit-identical by construction, which is what makes
        failover answer-preserving.

        Args:
            shard_count: number of logical shards.
            replication: copies of every shard (R).
            policy: the replica sets' failover policy (default
                :class:`FailoverPolicy`).
            clock: the breaker's clock (injectable for tests).
            index_bits: per-shard slice index bits (rows = ``2**b``).
            slots: record slots per bucket.
            specs: one :class:`ShardSpec` per shard (or None for
                defaults); a single spec list entry shorter than
                ``shard_count`` is cycled.
            router: placement policy (default: consistent hashing).
            key_bits / data_bits / ternary / slot_priority: record-format
                overrides for non-default workloads (e.g. LPM shards).
        """
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1: {replication}"
            )
        key_bits = cls.KEY_BITS if key_bits is None else key_bits
        data_bits = cls.DATA_BITS if data_bits is None else data_bits
        if router is None:
            router = ConsistentHashRouter(shard_count)
        if specs is None:
            specs = [ShardSpec()]
        record_format = RecordFormat(
            key_bits=key_bits, data_bits=data_bits, ternary=ternary
        )
        aux_bits = 8
        config = SliceConfig(
            index_bits=index_bits,
            row_bits=aux_bits + slots * record_format.slot_bits,
            record_format=record_format,
            aux_bits=aux_bits,
        )
        hash_lsb = min(cls.HASH_LSB, key_bits - index_bits)

        def make_shard(shard_id: int) -> CaramShard:
            spec = specs[shard_id % len(specs)]
            group = SliceGroup(
                config=config,
                slice_count=1,
                arrangement=Arrangement.VERTICAL,
                hash_function=BitSelectHash(
                    key_bits,
                    tuple(range(hash_lsb, hash_lsb + index_bits)),
                ),
                slot_priority=slot_priority,
                name=DEFAULT_GROUP,
                account_reads=spec.account_reads,
                batch_chunk_size=spec.batch_chunk_size,
                engine=spec.engine,
            )
            if spec.track_latency:
                group.enable_latency_tracking(spec.latency_error)
            subsystem = CARAMSubsystem()
            subsystem.add_group(group)
            return CaramShard(shard_id, subsystem)

        replica_sets = [
            ReplicaSet(
                shard_id,
                [
                    Replica(shard_id, r, make_shard(shard_id))
                    for r in range(replication)
                ],
                policy=policy,
                clock=clock,
            )
            for shard_id in range(shard_count)
        ]
        return cls(replica_sets, router)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, records: Iterable[Tuple[KeyInput, int]]) -> int:
        """Partition and bulk-load a record set; returns stored copies
        (one replica's worth — every replica holds the same set).

        Each record lands on every shard the router names for it (one for
        point keys; every covered range for an LPM prefix), preserving the
        incoming order within each shard so priority-sorted loads (LPM's
        longest-first) keep their ordering guarantees.
        """
        per_shard: List[List[Tuple[KeyInput, int]]] = [
            [] for _ in self.replica_sets
        ]
        for key, data in records:
            for shard_id in self.router.shards_for_stored(key):
                per_shard[shard_id].append((key, data))
        return sum(
            rset.bulk_load(pairs)
            for rset, pairs in zip(self.replica_sets, per_shard)
            if pairs
        )

    @property
    def record_count(self) -> int:
        return sum(shard.group.record_count for shard in self.shards)

    # ------------------------------------------------------------------
    # Direct (synchronous) lookup — the serving tier's reference path
    # ------------------------------------------------------------------

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Scalar lookup (the per-key search algorithm) routed to the
        owning shard."""
        rset = self.replica_sets[self.router.shard_for_query(key)]
        return rset.run(lambda shard: shard.search(key, search_mask))

    def lookup(self, key: KeyInput, search_mask: int = 0) -> Optional[int]:
        return self.search(key, search_mask).data

    def search_batch(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """Batch lookup: scatter by router, per-shard columnar lookup,
        gather back into request order.

        The coalescing front end must return exactly these results for
        the same keys — the bit-identity contract the property tests pin.
        """
        out: List[Optional[SearchResult]] = [None] * len(keys)
        for rset, positions in zip(
            self.replica_sets, self.router.partition_queries(keys)
        ):
            if not len(positions):
                continue
            results = rset.call([keys[int(i)] for i in positions], search_mask)
            for position, result in zip(positions.tolist(), results):
                out[position] = result
        return out  # type: ignore[return-value]

    def total_stats(self) -> SearchStats:
        """The logical database's search stats (exact counter merge):
        every replica's lookups — each lookup is served by one replica —
        and one replica's writes per shard, since every replica applies
        every write."""
        total = SearchStats()
        for rset in self.replica_sets:
            total.merge(rset.replicas[0].shard.stats)
            for replica in rset.replicas[1:]:
                total.merge(
                    replace(
                        replica.shard.stats,
                        inserts=0,
                        deletes=0,
                        insert_probe_total=0,
                    )
                )
        return total

    # ------------------------------------------------------------------
    # Chaos and membership
    # ------------------------------------------------------------------

    def replica(self, shard_id: int, replica_id: int) -> Replica:
        return self.replica_sets[shard_id].replicas[replica_id]

    def inject_chaos(
        self, shard_id: int, replica_id: int, spec: ChaosSpec
    ) -> None:
        """Attach a fault schedule to one replica.

        ``corrupt`` mode enables the reliability layer (ECC + quarantine
        + victim store) on the replica's group with a seeded
        ``FaultInjector`` at the spec's flip rate — corruption chaos
        exercises the whole detect-or-correct stack rather than
        bypassing it; the other modes attach a :class:`ShardChaos`.
        """
        replica = self.replica(shard_id, replica_id)
        if spec.mode == CORRUPT:
            from repro.reliability.faults import FaultConfig

            replica.shard.group.enable_reliability(
                faults=FaultConfig(
                    seed=spec.seed, bit_flip_rate=spec.bit_flip_rate
                )
            )
            return
        replica.chaos = ShardChaos(spec)

    def kill_replica(self, shard_id: int, replica_id: int) -> None:
        """Crash one replica immediately (every future call raises)."""
        self.inject_chaos(shard_id, replica_id, ChaosSpec(mode=CRASH))

    def clear_chaos(self, shard_id: int, replica_id: int) -> None:
        self.replica(shard_id, replica_id).chaos = None

    def apply_health_report(
        self, shard_id: int, replica_id: int, report: "HealthReport"
    ) -> None:
        self.replica_sets[shard_id].apply_health_report(
            replica_id, report
        )

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        for rset in self.replica_sets:
            rset.tracer = tracer

    def membership(self) -> Dict[str, object]:
        return {
            f"shard{rset.shard_id}": rset.membership()
            for rset in self.replica_sets
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        for replica in self._replicas():
            replica.shard.group.enable_latency_tracking(relative_error)

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "serving"
    ) -> None:
        """Mount every physical shard plus the rollup aggregate.

        Each shard mounts its full group telemetry under
        ``{prefix}.shard{s}.*`` when R=1 and under
        ``{prefix}.shard{s}.replica{r}.*`` when R >= 2.  The cluster-wide
        view of the logical database mounts under
        ``{prefix}.cluster.search`` (:meth:`total_stats`), ``.occupancy``
        and ``.bulk`` (one replica per shard), merged at snapshot time
        with the rollup leaf rules (exact counter sums, sketch merges,
        recomputed ratios) so health rules and dashboards can address
        the whole cluster as one database; ``.topology`` and
        ``{prefix}.replica.membership`` (breaker states and failover
        counters) mount at every R.
        """
        from repro.telemetry.rollup import merge_blocks

        replicated = self.replication_factor > 1
        for replica in self._replicas():
            mount = f"{prefix}.shard{replica.shard_id}"
            if replicated:
                mount += f".replica{replica.replica_id}"
            replica.shard.group.register_telemetry(registry, prefix=mount)

        def _merged(block_of) -> Callable[[], dict]:
            shards = self.shards
            return lambda: merge_blocks([block_of(s) for s in shards])

        registry.register_provider(
            f"{prefix}.cluster.search", lambda: self.total_stats().as_dict()
        )
        registry.register_provider(
            f"{prefix}.cluster.occupancy",
            _merged(
                lambda shard: {
                    "record_count": shard.group.record_count,
                    "capacity_records": shard.group.capacity_records,
                    "load_factor": shard.group.load_factor,
                    "physical_row_fetches": (
                        shard.group.physical_row_fetches
                    ),
                },
            ),
        )
        registry.register_provider(
            f"{prefix}.cluster.bulk",
            _merged(
                lambda shard: (
                    shard.group.last_bulk_plan.as_dict()
                    if shard.group.last_bulk_plan is not None
                    else {}
                ),
            ),
        )
        registry.register_provider(
            f"{prefix}.cluster.topology",
            lambda: {
                "shard_count": len(self.replica_sets),
                "replication": self.replication_factor,
                "router": type(self.router).__name__,
                "balancer": self.replica_sets[0].policy.balancer,
            },
        )
        registry.register_provider(
            f"{prefix}.replica.membership", self.membership
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every replica (batch engines, pools, shared memory)."""
        for rset in self.replica_sets:
            rset.close()

    def __enter__(self) -> "CaramCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.replica_sets)


#: The replicated-era name of the one cluster class.
ReplicatedCluster = CaramCluster
