"""The serving workloads: ``serve-kv`` and ``serve-failover``.

Both serve the same point-key table — four consistent-hash shards, each
filled to load factor 0.9 — through the library's asyncio front end at
its defaults (batch window, admission bound, engine, failover policy):

* ``serve-kv`` — a closed loop of :data:`USERS` callers through
  ``ShardedService`` over a ``CaramCluster``;
* ``serve-failover`` — the same closed loop through
  ``FaultTolerantService`` over a two-replica ``ReplicatedCluster``;
  replica 1 of every shard is killed halfway through the timed phase.

Requests are Zipf-skewed (exponent 1.0) over the stored keys with 10%
misses (``repro.serving.make_request_stream``); every answer is checked
against the stream's expected value after the timed phase.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving import (
    CaramCluster,
    ConsistentHashRouter,
    FaultTolerantService,
    ReplicatedCluster,
    ShardedService,
    make_request_stream,
)

import ledger
from common import (
    MISS,
    SETUP_REPEATS,
    BenchmarkFailure,
    HostSpeed,
    Measurement,
    check_load,
    median,
    peak_rss_mb,
)
from drivers import LoadSamples, closed_loop
from tracing import SpanRecorder, TracedRouter, TracedService, TracedShard

SHARDS = 4
INDEX_BITS = 10
SLOTS = 16
KEY_BITS = 32
DATA_BITS = 16
ZIPF_EXPONENT = 1.0
MISS_FRACTION = 0.1
#: The request stream is cycled; popularity is re-drawn for each of its
#: segments (a drifting hot set), so one run averages over many hot sets
#: instead of resting on where one seed's hottest keys were stored.
STREAM_SEGMENTS = 16
SEGMENT_LENGTH = 1 << 13
USERS = 256
REPLICAS = 2
WARMUP_REQUESTS = 1024
#: The stored keys and values are one fixed table and ``--seed`` draws the
#: traffic, as on ``lpm-batch``: with a table per seed, which keys spill
#: (and so AMAL and the engine's cost) was a property of the seed.
TABLE_SEED = 20071


class ServeInputs:
    """Stored records (one fixed table, drawn from :data:`TABLE_SEED`) and
    the request stream (drawn from the seed)."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(TABLE_SEED)
        per_shard = round(0.9 * (1 << INDEX_BITS) * SLOTS)
        router = ConsistentHashRouter(SHARDS)
        candidates = rng.choice(
            1 << KEY_BITS, size=int(per_shard * SHARDS * 1.4), replace=False
        ).tolist()
        records: List[Tuple[int, int]] = []
        for positions in router.partition_queries(candidates):
            if len(positions) < per_shard:
                raise BenchmarkFailure("too few candidate keys for a shard")
            for index in positions[:per_shard].tolist():
                key = candidates[index]
                records.append((key, int(rng.integers(0, 1 << DATA_BITS))))
        self.records = records
        values = dict(records)
        stored = [key for key, _ in records]
        self.keys = array("q")
        self.expected = array("q")
        for segment in range(STREAM_SEGMENTS):
            stream = make_request_stream(
                stored,
                values,
                requests=SEGMENT_LENGTH,
                zipf_exponent=ZIPF_EXPONENT,
                miss_fraction=MISS_FRACTION,
                seed=seed * STREAM_SEGMENTS * 3 + segment * 3,
                key_bits=KEY_BITS,
            )
            self.keys.extend(stream.keys)
            self.expected.extend(stream.expected)


class ServeSystem:
    """One ready-to-serve deployment: cluster, service, optional spans."""

    def __init__(self, workload: str, inputs: ServeInputs, recorder: Optional[SpanRecorder]) -> None:
        self.workload = workload
        self.recorder = recorder
        if workload == "serve-kv":
            built = CaramCluster.build(SHARDS, index_bits=INDEX_BITS, slots=SLOTS)
            if recorder is not None:
                built = CaramCluster(
                    [TracedShard(shard, recorder) for shard in built.shards],
                    TracedRouter(built.router, recorder),
                )
            self.cluster = built
            self.cluster.load(inputs.records)
            self.service = ShardedService(self.cluster)
        else:
            built = ReplicatedCluster.build(
                SHARDS, replication=REPLICAS, index_bits=INDEX_BITS, slots=SLOTS
            )
            if recorder is not None:
                for rset in built.replica_sets:
                    for replica in rset.replicas:
                        replica.shard = TracedShard(replica.shard, recorder)
                built = ReplicatedCluster(
                    built.replica_sets, TracedRouter(built.router, recorder)
                )
            self.cluster = built
            self.cluster.load(inputs.records)
            self.service = FaultTolerantService(self.cluster)
        self.lookup = (
            self.service.lookup
            if recorder is None
            else TracedService(self.service, recorder).lookup
        )

    def groups(self) -> List:
        """Every physical group (each replica's, when replicated)."""
        if self.workload == "serve-kv":
            return [shard.group for shard in self.cluster.shards]
        return [
            replica.shard.group
            for rset in self.cluster.replica_sets
            for replica in rset.replicas
        ]

    def search_totals(self) -> Tuple[int, int, int, int]:
        stats = self.cluster.total_stats()
        return (
            stats.lookups,
            stats.total_bucket_accesses,
            stats.probe_walk_keys,
            stats.scalar_fallbacks,
        )

    def load_factor(self) -> float:
        groups = self.groups()
        return sum(group.load_factor for group in groups) / len(groups)

    def kill_replicas(self) -> None:
        for shard_id in range(SHARDS):
            self.cluster.kill_replica(shard_id, 1)

    async def warm_up(self, inputs: ServeInputs) -> None:
        """First requests through the service: starts the lanes and the
        executor, builds each shard's batch engine and decodes its
        mirror.  Part of set-up, and checked like any other request."""
        results = await asyncio.gather(
            *(self.lookup(key) for key in inputs.keys[:WARMUP_REQUESTS])
        )
        wrong = sum(
            1
            for result, expected in zip(results, inputs.expected)
            if (result.data if result.hit else MISS) != expected
        )
        if wrong:
            raise BenchmarkFailure(f"{self.workload}: warm-up answered wrong")

    async def aclose(self) -> None:
        await self.service.aclose()


async def _setup(workload: str, inputs: ServeInputs, recorder: Optional[SpanRecorder]) -> Tuple[float, ServeSystem]:
    started = time.perf_counter()
    system = ServeSystem(workload, inputs, recorder)
    await system.warm_up(inputs)
    return time.perf_counter() - started, system


async def _drive(system: ServeSystem, inputs: ServeInputs, seconds: float) -> LoadSamples:
    kill = system.kill_replicas if system.workload == "serve-failover" else None
    return await closed_loop(system.lookup, inputs.keys, USERS, seconds, at_midpoint=kill)


def _phase_counters(system: ServeSystem):
    return (
        system.search_totals(),
        system.service.stats.as_dict(),
        ledger.replication_counters(system.cluster),
    )


def _traced_layers(system: ServeSystem, samples: LoadSamples, before, after, load: float) -> Dict[str, float]:
    """Per-layer metrics of the traced phase, from its spans and the
    counter deltas around it."""
    recorder = system.recorder
    (l0, _, w0, f0), stats0, rep0 = before
    (l1, _, w1, f1), stats1, rep1 = after
    batches = stats1["batches"] - stats0["batches"]
    keys = stats1["coalesced_keys"] - stats0["coalesced_keys"]
    layer = ledger.router_metrics(recorder, SHARDS)
    layer.update(ledger.serve_ledger(recorder))
    layer.update(
        {
            "service.coalescing_factor": keys / batches if batches else 0.0,
            "service.max_queue_depth": float(stats1["max_queue_depth"]),
            "service.shed": float(stats1["shed"] - stats0["shed"]),
        }
    )
    layer.update(ledger.engine_metrics(recorder, samples.seconds))
    layer.update(ledger.probe_metrics(l1 - l0, w1 - w0, f1 - f0, load))
    layer.update(ledger.results_metrics(recorder))
    layer.update(ledger.mirror_metrics([], 0.0))
    layer.update(ledger.write_layer_metrics([], [], []))
    layer.update(ledger.replication_metrics(rep0, rep1, batches))
    return layer


async def _measure(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    inputs = ServeInputs(seed)
    out = Measurement(workload)
    out.topology = {
        "shards": SHARDS,
        "replicas": REPLICAS if workload == "serve-failover" else 1,
        "index_bits": INDEX_BITS,
        "slots": SLOTS,
        "records": len(inputs.records),
        "driver": f"closed loop, {USERS} callers",
    }
    phases: List[LoadSamples] = []
    if not trace:
        setup_seconds: List[float] = []
        speed = HostSpeed()
        speed.probe()
        system: Optional[ServeSystem] = None
        for _ in range(SETUP_REPEATS):
            if system is not None:
                await system.aclose()
            elapsed, system = await _setup(workload, inputs, None)
            setup_seconds.append(elapsed)
            speed.probe()
        setup_seconds = speed.scaled(setup_seconds)
        out.notes["setup_s"] = setup_seconds
        out.notes["setup_probe_s"] = speed.samples
        out.end_to_end["setup_s"] = median(setup_seconds)
        system.service.stats.max_queue_depth = 0  # count the timed phase only
        before = _phase_counters(system)
        samples = await _drive(system, inputs, seconds)
        after = _phase_counters(system)
        out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    else:
        # Untraced then traced, each on its own fresh deployment and for
        # half the run, so the tracing overhead is a same-run ratio.
        _, plain = await _setup(workload, inputs, None)
        phases.append(await _drive(plain, inputs, seconds / 2))
        await plain.aclose()
        recorder = SpanRecorder()
        _, system = await _setup(workload, inputs, recorder)
        bulk = ledger.bulk_metrics(
            recorder, [group.last_bulk_plan for group in system.groups()]
        )
        recorder.spans.clear()
        recorder.keys.clear()
        system.service.stats.max_queue_depth = 0
        before = _phase_counters(system)
        samples = await _drive(system, inputs, seconds / 2)
        after = _phase_counters(system)
    phases.append(samples)
    load = system.load_factor()
    check_load(workload, load)
    out.topology["engine"] = system.groups()[0].engine
    if trace:
        out.per_layer = _traced_layers(system, samples, before, after, load)
        out.per_layer.update(bulk)
        untraced = phases[0].answered / phases[0].seconds
        out.per_layer["trace.overhead"] = 1.0 - samples.answered / samples.seconds / untraced
        out.notes["spans"] = system.recorder
    await system.aclose()

    (l0, a0, _, _), _, _ = before
    (l1, a1, _, _), _, _ = after
    out.operating_point = {"load_factor": load, "amal": (a1 - a0) / (l1 - l0)}
    out.attempted = sum(s.attempted for s in phases)
    out.failed = sum(s.errors for s in phases)
    out.wrong = sum(s.wrong(inputs.expected) for s in phases)
    if not trace:
        out.notes["host_probe_s"] = samples.speed.samples
        out.lookup_metrics(samples.windows(), samples.answered, samples.attempted)
        out.end_to_end["amal"] = out.operating_point["amal"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    return asyncio.run(_measure(workload, seed, seconds, trace))
