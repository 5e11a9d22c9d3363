"""Per-layer metrics of a traced phase, and the latency ledger.

Every function here reads the spans of one
:class:`~tracing.SpanRecorder` (plus counters the library exposes) and
returns metric names in the ``BENCHMARK.json`` ``per_layer`` namespace.
A layer that a workload does not exercise reports 0.

The ledger splits the mean request (or burst-call) latency into stages.
On the serving path a request's stages are:

* ``router`` — its ``shard_for_query`` span;
* ``wait`` — from the lookup call to the start of its batch's shard call,
  less the router span (admission, coalescing window, executor handoff);
* ``engine`` — its batch's ``search_batch_columnar`` span;
* ``results`` — its batch's ``results()`` span;
* ``resolve`` — from the end of ``results()`` to the return of the lookup
  (future resolution and the event-loop turn).

Requests are matched to batches by replaying each shard's FIFO queue and
comparing keys (:func:`_match_batches`); shed and failed requests, and
retried or hedged shard calls, are recognised rather than misaligning the
replay.

On the application path (LPM, trigram) a burst call's stages are its
child spans — the codec, the group lookup, the ``data_values`` decode —
and ``app``, the burst span's self time (its duration minus the
children).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from common import CLOSURE_TOLERANCE, BenchmarkFailure, quantile
from tracing import Span, SpanRecorder

#: Ledger stages, in request order; each reports ``ledger.<stage>_share``.
STAGES = ("router", "wait", "engine", "results", "resolve", "app", "codec", "decode")

ENGINE_SPANS = ("shard.search_batch_columnar", "group.search_batch_columnar")


def _durations(spans) -> List[float]:
    return [span[3] - span[2] for span in spans]


def router_metrics(recorder: SpanRecorder, shard_count: int) -> Dict[str, float]:
    spans = recorder.named("router.shard_for_query")
    busy = sum(_durations(spans))
    per_shard = [0] * shard_count
    for span in spans:
        per_shard[span[5]] += 1
    mean = len(spans) / shard_count if shard_count else 0.0
    return {
        "router.calls": float(len(spans)),
        "router.busy_s": busy,
        "router.ns_per_key": busy / len(spans) * 1e9 if spans else 0.0,
        "router.imbalance": max(per_shard) / mean if mean else 0.0,
    }


def engine_metrics(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    spans = [s for s in recorder.spans if s[1] in ENGINE_SPANS]
    durations = _durations(spans)
    busy = sum(durations)
    keys = sum(span[6] for span in spans)
    return {
        "engine.calls": float(len(spans)),
        "engine.keys_per_call": keys / len(spans) if spans else 0.0,
        "engine.busy_s": busy,
        "engine.call_p50_ms": quantile(durations, 0.50) * 1e3,
        "engine.call_p99_ms": quantile(durations, 0.99) * 1e3,
        "engine.keys_per_busy_s": keys / busy if busy else 0.0,
        "engine.share": busy / wall_s if wall_s else 0.0,
    }


def results_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    spans = recorder.named("results.results")
    busy = sum(_durations(spans))
    keys = sum(span[6] for span in spans)
    return {
        "results.busy_s": busy,
        "results.ns_per_key": busy / keys * 1e9 if keys else 0.0,
        "app.encode_busy_s": recorder.busy("codec.encode_batch"),
        "app.decode_busy_s": recorder.busy("results.data_values"),
    }


def bulk_metrics(recorder: SpanRecorder, plans: Sequence) -> Dict[str, float]:
    """``bulk_load`` spans of one set-up plus the groups' bulk plans."""
    spans = recorder.named("bulk_load")
    seconds = sum(_durations(spans))
    records = sum(span[6] for span in spans)
    copies = sum(plan.copy_count for plan in plans)
    spilled = sum(plan.spilled_copies for plan in plans)
    return {
        "bulk.load_s": seconds,
        "bulk.records_per_s": records / seconds if seconds else 0.0,
        "bulk.spill_fraction": spilled / copies if copies else 0.0,
    }


def probe_metrics(lookups: int, walk_keys: int, fallbacks: int, load: float) -> Dict[str, float]:
    return {
        "probe.walk_key_fraction": walk_keys / lookups if lookups else 0.0,
        "probe.scalar_fallback_fraction": fallbacks / lookups if lookups else 0.0,
        "engine.load_factor": load,
    }


def _closure(stage_sums: Dict[str, float], latency_sum: float, count: int) -> Dict[str, float]:
    """Stage shares of the mean latency and the closure error; a ledger
    that does not add back up within tolerance fails the run."""
    out: Dict[str, float] = {}
    mean_latency = latency_sum / count if count else 0.0
    total = 0.0
    for stage in STAGES:
        mean = stage_sums.get(stage, 0.0) / count if count else 0.0
        total += mean
        out[f"ledger.{stage}_share"] = mean / mean_latency if mean_latency else 0.0
    error = abs(total - mean_latency) / mean_latency if mean_latency else 0.0
    out["ledger.closure_error"] = error
    out["ledger.mean_latency_ms"] = mean_latency * 1e3
    if error > CLOSURE_TOLERANCE:
        raise BenchmarkFailure(
            f"ledger does not close: stages sum to {total * 1e3:.4f} ms "
            f"against a mean latency of {mean_latency * 1e3:.4f} ms "
            f"({error:.1%} > {CLOSURE_TOLERANCE:.0%})"
        )
    return out


def _take(recorder: SpanRecorder, queue: List[Span], start: int, keys: List):
    """The answered requests, from ``start`` on, whose keys are ``keys``
    in order, and the position after the last; ``None`` if they are not.
    Failed requests (shed before they were queued, or in a batch that
    failed) may sit anywhere among them and are skipped.
    """
    members: List[Span] = []
    position = start
    for key in keys:
        while position < len(queue) and not queue[position][7]:
            position += 1
        if position == len(queue) or recorder.keys[queue[position][0]] != key:
            return None
        members.append(queue[position])
        position += 1
    return members, position


def _match_batches(recorder: SpanRecorder, requests: Dict[int, Span]) -> List:
    """Pair every answered request with the shard calls of its batch.

    Each shard's queue is replayed in the order its requests were routed
    (their router spans); shard calls are taken in start order.  A call
    opens a batch when its keys are those of the next answered requests;
    a call whose keys repeat the shard's previous batch is another
    attempt at it (a retry after a timeout or error, or a hedge).  Any
    other call served only requests that failed (a batch that exhausted
    every replica) and is left out.  Every answered request must end up
    in a batch, or the trace does not describe the run and fails it.

    Returns ``(members, attempts)`` pairs: the request spans of a batch
    and its shard-call spans.
    """
    queues: Dict[int, List[Span]] = defaultdict(list)
    for route in sorted(recorder.named("router.shard_for_query"), key=lambda s: s[2]):
        request = requests.get(route[4])
        if request is not None:
            queues[route[5]].append(request)
    cursor: Dict[int, int] = defaultdict(int)
    last: Dict[int, tuple] = {}
    batches: List = []
    calls = sorted(recorder.named("shard.search_batch_columnar"), key=lambda s: s[2])
    for call in calls:
        shard = call[5]
        keys = list(recorder.keys[call[0]])
        taken = _take(recorder, queues[shard], cursor[shard], keys)
        if taken is not None:
            members, cursor[shard] = taken
            last[shard] = (keys, (members, [call]))
            batches.append(last[shard][1])
        elif shard in last and last[shard][0] == keys:
            last[shard][1][1].append(call)
    matched = sum(len(members) for members, _ in batches)
    answered = sum(1 for request in requests.values() if request[7])
    if matched != answered:
        raise BenchmarkFailure(
            f"trace: {answered - matched} of {answered} answered requests "
            "match no shard call"
        )
    return batches


def serve_ledger(recorder: SpanRecorder) -> Dict[str, float]:
    """The serving-path ledger over every answered request, with the
    service's wait/resolve percentiles.

    A request's batch attempt is the last one whose ``results()`` ended
    before the request returned (the one that answered it); time spent on
    earlier attempts counts as ``wait``.
    """
    requests = {s[0]: s for s in recorder.named("service.lookup")}
    results = {s[4]: s for s in recorder.named("results.results")}
    stage_sums: Dict[str, float] = defaultdict(float)
    latency_sum = 0.0
    waits: List[float] = []
    resolves: List[float] = []
    routes = {s[4]: s for s in recorder.named("router.shard_for_query")}
    for members, attempts in _match_batches(recorder, requests):
        returned = min(m[3] for m in members)
        used = [
            (results[a[0]], a)
            for a in attempts
            if a[7] and a[0] in results and results[a[0]][3] <= returned
        ]
        if not used:
            raise BenchmarkFailure(
                f"trace: {len(members)} requests answered on shard "
                f"{attempts[0][5]} without a materialised shard call"
            )
        materialised, batch = max(used, key=lambda pair: pair[0][3])
        for request in members:
            route = routes[request[0]]
            router = route[3] - route[2]
            wait = batch[2] - request[2] - router
            resolve = request[3] - materialised[3]
            stage_sums["router"] += router
            stage_sums["wait"] += wait
            stage_sums["engine"] += batch[3] - batch[2]
            stage_sums["results"] += materialised[3] - materialised[2]
            stage_sums["resolve"] += resolve
            latency_sum += request[3] - request[2]
            waits.append(wait + router)
            resolves.append(resolve)
    out = _closure(stage_sums, latency_sum, len(waits))
    own = stage_sums["wait"] + stage_sums["resolve"]
    out.update(
        {
            "service.wait_p50_ms": quantile(waits, 0.50) * 1e3,
            "service.wait_p99_ms": quantile(waits, 0.99) * 1e3,
            "service.resolve_p50_ms": quantile(resolves, 0.50) * 1e3,
            "service.self_share": own / latency_sum if latency_sum else 0.0,
        }
    )
    return out


def burst_ledger(recorder: SpanRecorder, burst_name: str) -> Dict[str, float]:
    """The application-path ledger: a burst call's children plus its
    self time (``app``)."""
    bursts = {s[0]: s for s in recorder.named(burst_name)}
    child_stage = {
        "codec.encode_batch": "codec",
        "group.search_batch_columnar": "engine",
        "results.data_values": "decode",
    }
    stage_sums: Dict[str, float] = defaultdict(float)
    children: Dict[int, float] = defaultdict(float)
    for span in recorder.spans:
        stage = child_stage.get(span[1])
        if stage is not None and span[4] in bursts:
            duration = span[3] - span[2]
            stage_sums[stage] += duration
            children[span[4]] += duration
    latency_sum = 0.0
    for burst in bursts.values():
        duration = burst[3] - burst[2]
        latency_sum += duration
        stage_sums["app"] += duration - children[burst[0]]
    return _closure(stage_sums, latency_sum, len(bursts))


def zero_service_metrics() -> Dict[str, float]:
    return {
        name: 0.0
        for name in (
            "service.wait_p50_ms",
            "service.wait_p99_ms",
            "service.resolve_p50_ms",
            "service.coalescing_factor",
            "service.max_queue_depth",
            "service.shed",
            "service.self_share",
        )
    }


REPLICATION_COUNTERS = ("retries", "timeouts", "evictions", "exhausted")


NO_REPLICATION = dict.fromkeys(REPLICATION_COUNTERS + ("calls",), 0)


def replication_counters(cluster) -> Dict[str, int]:
    """Failover counters summed over a replicated cluster's replica sets,
    plus every replica's call count (attempts, hedges included)."""
    out = {name: 0 for name in REPLICATION_COUNTERS}
    out["calls"] = 0
    for rset in getattr(cluster, "replica_sets", ()):
        for name in REPLICATION_COUNTERS:
            out[name] += getattr(rset.stats, name)
        out["calls"] += sum(replica.calls for replica in rset.replicas)
    return out


def replication_metrics(before: Dict[str, int], after: Dict[str, int], batches: int) -> Dict[str, float]:
    out = {
        f"replication.{name}": float(after[name] - before[name])
        for name in REPLICATION_COUNTERS
    }
    attempts = after["calls"] - before["calls"]
    out["replication.attempts_per_batch"] = attempts / batches if batches and attempts else 0.0
    return out


def mirror_metrics(post_write_calls: Sequence[float], engine_p50_ms: float) -> Dict[str, float]:
    """The first read burst after each write burst: the mirror re-decodes
    the rows the writes dirtied before it can match."""
    if not post_write_calls:
        return {"mirror.post_write_call_ms": 0.0, "mirror.resync_excess_ms": 0.0}
    post = quantile(post_write_calls, 0.50) * 1e3
    return {
        "mirror.post_write_call_ms": post,
        "mirror.resync_excess_ms": post - engine_p50_ms,
    }


def write_layer_metrics(writes: Sequence[float], inserts: Sequence[float], deletes: Sequence[float]) -> Dict[str, float]:
    """Single insert/delete operations (``writes`` in the order they ran)."""
    busy = float(sum(writes))
    return {
        "write.ops_per_s": len(writes) / busy if busy else 0.0,
        "write.p99_ms": quantile(writes, 0.99) * 1e3,
        "write.insert_p50_ms": quantile(inserts, 0.50) * 1e3,
        "write.delete_p50_ms": quantile(deletes, 0.50) * 1e3,
        "write.busy_s": busy,
    }
