"""The application batch workloads: ``lpm-batch`` and ``trigram-churn``.

Neither has a service or a router: the benchmark calls the application
helpers on one ``SliceGroup`` with fixed-size bursts and times each call.

* ``lpm-batch`` — IP longest-prefix match.  A synthetic BGP table of
  :data:`LPM_PREFIXES` prefixes fills a two-slice horizontal design
  (R=10, 32 keys per row) to load factor 0.9 with ternary keys and
  spills; addresses are drawn inside stored prefixes with Zipf skew and
  looked up :data:`LPM_BURST` at a time through ``lpm_search_batch``.
  Answers are checked against ``BinaryTrie`` next hops.
* ``trigram-churn`` — trigram exact match on 128-bit packed keys (DJB
  hash) in trigram design C scaled to R=:data:`TRIGRAM_INDEX_BITS`, filled
  to 0.9.  Every :data:`READS_PER_WRITE` read bursts through
  ``trigram_lookup_batch`` are followed by a write burst that deletes
  :data:`CHURN` stored trigrams and inserts as many absent ones, so the
  load factor stays at 0.9.  A live dict follows every write and is the
  oracle for every read.

Throughput and latency count only the time inside the timed calls;
choosing the next burst and checking answers happen between them.  The
phase runs in segments of about :data:`common.SEGMENT_S` seconds (whole
write cycles on ``trigram-churn``) with a host-speed probe between them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.iplookup.caram import build_ip_caram, lpm_search_batch
from repro.apps.iplookup.designs import IpDesign
from repro.apps.iplookup.prefix import Prefix
from repro.apps.iplookup.table_gen import SyntheticBgpConfig, generate_bgp_table
from repro.apps.iplookup.trie import BinaryTrie
from repro.apps.trigram.caram import (
    PackedStringDJBHash,
    StringKeyCodec,
    build_trigram_caram,
    trigram_lookup_batch,
)
from repro.apps.trigram.designs import TRIGRAM_DESIGNS
from repro.apps.trigram.generator import TrigramConfig, generate_trigram_database
from repro.core.config import Arrangement
from repro.workloads.access import sample_accesses, skewed_rank_weights

import ledger
from common import (
    SEGMENT_S,
    SETUP_REPEATS,
    HostSpeed,
    Measurement,
    call_windows,
    check_load,
    median,
    peak_rss_mb,
)
from tracing import SpanRecorder, TracedGroup, burst, patched

#: Addresses per burst call.  Large enough that the match kernel and probe
#: walk, not the call's fixed cost, do most of the work: at 256 addresses
#: a burst took half as long but served half as many keys per second.
LPM_BURST = 1024
ZIPF_EXPONENT = 1.0

LPM_PREFIXES = 55_000
#: The routing table is one fixed synthetic table, as the paper evaluates
#: one routing-table snapshot; ``--seed`` draws the traffic.  (Per-seed
#: tables would make AMAL a property of the seed.)
LPM_TABLE_SEED = 20070
LPM_DESIGN = IpDesign("bench", 10, 32, 2, Arrangement.HORIZONTAL)
LPM_POOL_BURSTS = 256

TRIGRAM_INDEX_BITS = 7
TRIGRAM_DESIGN = TRIGRAM_DESIGNS["C"].scaled(
    TRIGRAM_DESIGNS["C"].index_bits - TRIGRAM_INDEX_BITS
)
TRIGRAM_RESERVE = 8192
TRIGRAM_MISS_FRACTION = 0.1
TRIGRAM_BURST = 256
READS_PER_WRITE = 16
CHURN = 64


# ----------------------------------------------------------------------
# Shared run skeleton
# ----------------------------------------------------------------------


class Phase:
    """Samples of one timed phase of burst calls."""

    def __init__(self) -> None:
        #: Read call durations, one list per segment; a host-speed probe
        #: runs before the first segment and after each one.
        self.segments: List[List[float]] = []
        self.speed = HostSpeed()
        self.read_keys = 0
        self.post_write_calls: List[float] = []
        self.writes: List[float] = []  # inserts and deletes, in order
        self.inserts: List[float] = []
        self.deletes: List[float] = []
        self.wrong = 0
        self.seconds = 0.0

    @property
    def read_calls(self) -> List[float]:
        return [call for segment in self.segments for call in segment]


def _setups(build, trace: bool) -> Tuple[List[float], List[float], List]:
    """Timed set-ups: :data:`SETUP_REPEATS` untraced (the last one runs;
    their seconds are returned scaled to the reference host speed, with
    the probe times around them) or, traced, one untraced and one traced
    system, each to run half of the phase."""
    if not trace:
        seconds = []
        speed = HostSpeed()
        speed.probe()
        system = None
        for _ in range(SETUP_REPEATS):
            if system is not None:
                system.group.close()
            started = time.perf_counter()
            system = build(None)
            seconds.append(time.perf_counter() - started)
            speed.probe()
        return speed.scaled(seconds), speed.samples, [system]
    recorder = SpanRecorder()
    return [], [], [build(None), build(recorder)]


def _finish(
    out: Measurement,
    phases: List[Phase],
    systems: List,
    setups: List[float],
    setup_probes: List[float],
    trace: bool,
    deltas: Tuple[int, int, int, int],
    burst_name: str,
    burst_size: int,
) -> None:
    """Fill ``out`` from the phases; ``deltas`` are the last system's
    search counters (:func:`_counters`) over its timed phase."""
    group = systems[-1].group
    lookups, accesses, walk_keys, fallbacks = deltas
    load = group.load_factor
    check_load(out.workload, load)
    out.operating_point = {"load_factor": load, "amal": accesses / lookups}
    out.topology.update({"engine": group.engine, "shards": 1, "replicas": 1})
    out.wrong = sum(phase.wrong for phase in phases)
    phase = phases[-1]
    if not trace:
        out.notes["setup_s"] = setups
        out.notes["setup_probe_s"] = setup_probes
        out.notes["host_probe_s"] = phase.speed.samples
        out.end_to_end["setup_s"] = median(setups)
        out.end_to_end["amal"] = out.operating_point["amal"]
        out.lookup_metrics(
            call_windows(phase.segments, burst_size, phase.speed.segment_scales()),
            out.attempted - out.failed,
            out.attempted,
        )
        return
    recorder = systems[-1].recorder
    layer = out.per_layer
    layer.update(ledger.router_metrics(recorder, 1))
    layer.update(ledger.zero_service_metrics())
    layer.update(ledger.burst_ledger(recorder, burst_name))
    layer.update(ledger.engine_metrics(recorder, phase.seconds))
    layer.update(
        ledger.probe_metrics(lookups, walk_keys, fallbacks, load)
    )
    layer.update(ledger.results_metrics(recorder))
    layer.update(ledger.mirror_metrics(phase.post_write_calls, layer["engine.call_p50_ms"]))
    layer.update(ledger.write_layer_metrics(phase.writes, phase.inserts, phase.deletes))
    layer.update(systems[-1].bulk)
    layer.update(ledger.replication_metrics(ledger.NO_REPLICATION, ledger.NO_REPLICATION, 0))
    untraced = phases[0].read_keys / sum(phases[0].read_calls)
    traced = phase.read_keys / sum(phase.read_calls)
    layer["trace.overhead"] = 1.0 - traced / untraced
    out.notes["spans"] = recorder


def _counters(group) -> Tuple[int, int, int, int]:
    stats = group.stats
    return (
        stats.lookups,
        stats.total_bucket_accesses,
        stats.probe_walk_keys,
        stats.scalar_fallbacks,
    )


def _delta(before: Tuple[int, ...], after: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    return tuple(a - b for a, b in zip(after, before))  # type: ignore[return-value]


class _System:
    """A group built and loaded by the library's builder, the handle the
    helpers see, and its bulk figures.

    ``build`` is the builder call; traced, the whole call is recorded as
    the ``bulk_load`` span of ``records`` records.
    """

    def __init__(self, build, records: int, recorder: Optional[SpanRecorder]) -> None:
        started = time.perf_counter()
        self.group = build()
        self.recorder = recorder
        self.bulk: Dict[str, float] = {}
        if recorder is None:
            self.handle = self.group
            return
        recorder.add("bulk_load", started, time.perf_counter(), size=records)
        self.bulk = ledger.bulk_metrics(recorder, [self.group.last_bulk_plan])
        self.handle = TracedGroup(self.group, recorder)

    def ready(self) -> None:
        """Set-up is over: drop the set-up's spans."""
        if self.recorder is not None:
            self.recorder.spans.clear()


# ----------------------------------------------------------------------
# lpm-batch
# ----------------------------------------------------------------------


class LpmInputs:
    def __init__(self, seed: int) -> None:
        table = generate_bgp_table(
            SyntheticBgpConfig(total_prefixes=LPM_PREFIXES, seed=LPM_TABLE_SEED)
        )
        self.prefixes: List[Tuple[Prefix, int]] = [
            (prefix, int(hop))
            for prefix, hop in zip(table.prefixes(), table.next_hops.tolist())
        ]
        # Each pool burst draws its addresses with its own Zipf rank order
        # over the prefixes (a drifting hot set), so the pool averages over
        # many hot sets instead of resting on whether one seed's hottest
        # prefixes were spilled.
        rng = np.random.default_rng(seed)
        self.bursts: List[List[int]] = []
        for index in range(LPM_POOL_BURSTS):
            burst_seed = (seed * LPM_POOL_BURSTS + index) * 2
            weights = skewed_rank_weights(len(table), ZIPF_EXPONENT, seed=burst_seed)
            picks = sample_accesses(weights, LPM_BURST, seed=burst_seed + 1)
            values = table.values[picks].astype(np.uint64)
            host_bits = (32 - table.lengths[picks].astype(np.int64)).astype(np.uint64)
            hosts = rng.integers(0, 1 << 32, size=picks.size, dtype=np.uint64)
            hosts &= (np.uint64(1) << host_bits) - np.uint64(1)
            self.bursts.append((values | hosts).tolist())

    def expected(self) -> List[List[Optional[int]]]:
        """The oracle: next hops from a binary trie over the same table."""
        trie = BinaryTrie()
        trie.insert_all(self.prefixes)
        return [[trie.lookup(a).data for a in chunk] for chunk in self.bursts]


def _lpm_build(inputs: LpmInputs, recorder: Optional[SpanRecorder]) -> _System:
    system = _System(
        lambda: build_ip_caram(inputs.prefixes, LPM_DESIGN),
        len(inputs.prefixes),
        recorder,
    )
    lpm_search_batch(system.handle, inputs.bursts[0])  # builds the engine
    system.ready()
    return system


def _lpm_phase(system: _System, inputs: LpmInputs, seconds: float) -> Tuple[Phase, List]:
    """Bursts cycled from the pool until ``seconds`` pass.  The first
    answer to each pool burst is kept for the oracle; every later answer
    to the same burst must equal it."""
    phase = Phase()
    first: List = [None] * len(inputs.bursts)
    recorder = system.recorder
    phase.speed.probe()
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while time.perf_counter() < deadline:
        calls: List[float] = []
        segment_end = min(deadline, time.perf_counter() + SEGMENT_S)
        while time.perf_counter() < segment_end:
            slot = index % len(inputs.bursts)
            addresses = inputs.bursts[slot]
            with burst(recorder, "app.lpm_search_batch", len(addresses)):
                t0 = time.perf_counter()
                answer = lpm_search_batch(system.handle, addresses)
                calls.append(time.perf_counter() - t0)
            phase.read_keys += len(addresses)
            if first[slot] is None:
                first[slot] = answer
            elif answer != first[slot]:
                phase.wrong += 1
            index += 1
        phase.segments.append(calls)
        phase.speed.probe()
    phase.seconds = time.perf_counter() - started
    return phase, first


def _run_lpm(seed: int, seconds: float, trace: bool) -> Measurement:
    inputs = LpmInputs(seed)
    out = Measurement("lpm-batch")
    out.topology = {
        "design": LPM_DESIGN.describe(),
        "prefixes": len(inputs.prefixes),
        "burst": LPM_BURST,
    }
    setups, setup_probes, systems = _setups(lambda rec: _lpm_build(inputs, rec), trace)
    phases: List[Phase] = []
    answers: List[List] = []
    share = seconds / len(systems)
    for system in systems:
        before = _counters(system.group)
        phase, first = _lpm_phase(system, inputs, share)
        deltas = _delta(before, _counters(system.group))
        phases.append(phase)
        answers.append(first)
    if not trace:
        out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    expected = inputs.expected()
    for first in answers:
        for got, want in zip(first, expected):
            if got is not None and got != want:
                phases[-1].wrong += sum(1 for g, w in zip(got, want) if g != w)
    out.attempted = sum(p.read_keys for p in phases)
    _finish(out, phases, systems, setups, setup_probes, trace, deltas, "app.lpm_search_batch", LPM_BURST)
    return out


# ----------------------------------------------------------------------
# trigram-churn
# ----------------------------------------------------------------------


class TrigramInputs:
    def __init__(self, seed: int) -> None:
        self.stored = round(0.9 * TRIGRAM_DESIGN.capacity_records)
        database = generate_trigram_database(
            TrigramConfig(total_entries=self.stored + TRIGRAM_RESERVE, seed=seed)
        )
        self.strings: List[bytes] = list(database.strings())
        self.probabilities: List[int] = database.probabilities.tolist()
        self.seed = seed


class _Churn:
    """The live table: which trigrams are stored, and the dict oracle."""

    def __init__(self, inputs: TrigramInputs, seed: int) -> None:
        count = inputs.stored
        self.present = list(range(count))
        self.absent = list(range(count, len(inputs.strings)))
        self.live: Dict[bytes, int] = {
            inputs.strings[i]: inputs.probabilities[i] for i in self.present
        }
        self.rng = np.random.default_rng(seed)
        self.inputs = inputs

    @staticmethod
    def _take(pool: List[int], position: int) -> int:
        pool[position], pool[-1] = pool[-1], pool[position]
        return pool.pop()

    def read_burst(self) -> Tuple[List[bytes], List[Optional[int]]]:
        rng = self.rng
        misses = rng.random(TRIGRAM_BURST) < TRIGRAM_MISS_FRACTION
        hit_pick = rng.integers(0, len(self.present), size=TRIGRAM_BURST).tolist()
        miss_pick = rng.integers(0, len(self.absent), size=TRIGRAM_BURST).tolist()
        strings = self.inputs.strings
        texts = [
            strings[self.absent[m] if miss else self.present[h]]
            for miss, h, m in zip(misses.tolist(), hit_pick, miss_pick)
        ]
        return texts, [self.live.get(text) for text in texts]

    def write_burst(self, handle, phase: Phase) -> None:
        strings = self.inputs.strings
        probabilities = self.inputs.probabilities
        removed = [
            self._take(self.present, int(self.rng.integers(0, len(self.present))))
            for _ in range(CHURN)
        ]
        added = [
            self._take(self.absent, int(self.rng.integers(0, len(self.absent))))
            for _ in range(CHURN)
        ]
        for index in removed:
            text = strings[index]
            t0 = time.perf_counter()
            handle.delete(StringKeyCodec.encode(text))
            phase.deletes.append(time.perf_counter() - t0)
            phase.writes.append(phase.deletes[-1])
            del self.live[text]
        for index in added:
            text = strings[index]
            t0 = time.perf_counter()
            handle.insert(StringKeyCodec.encode(text), probabilities[index])
            phase.inserts.append(time.perf_counter() - t0)
            phase.writes.append(phase.inserts[-1])
            self.live[text] = probabilities[index]
        self.present.extend(added)
        self.absent.extend(removed)


class _TrigramSystem(_System):
    churn: _Churn


def _trigram_build(inputs: TrigramInputs, recorder: Optional[SpanRecorder]) -> _TrigramSystem:
    count = inputs.stored
    system = _TrigramSystem(
        lambda: build_trigram_caram(
            zip(inputs.strings[:count], inputs.probabilities[:count]),
            TRIGRAM_DESIGN,
        ),
        count,
        recorder,
    )
    trigram_lookup_batch(system.handle, inputs.strings[:TRIGRAM_BURST])  # builds the engine
    # Churn warm-up: rewrite one stored trigram in every bucket, then read
    # once, so every row has been re-decoded through the write path.  The
    # first such pass replaces every bulk-loaded record object the mirror
    # holds and grows the heap to its steady size; later churn does not.
    keys = StringKeyCodec.encode_batch(inputs.strings[:count])
    homes = PackedStringDJBHash(TRIGRAM_DESIGN.bucket_count).index_many(keys)
    _, first_in_bucket = np.unique(homes, return_index=True)
    for index in first_in_bucket.tolist():
        system.group.delete(keys[index])
        system.group.insert(keys[index], inputs.probabilities[index])
    trigram_lookup_batch(system.handle, inputs.strings[:TRIGRAM_BURST])
    system.ready()
    system.churn = _Churn(inputs, inputs.seed)
    return system


def _trigram_phase(system: _TrigramSystem, seconds: float) -> Phase:
    """Write cycles (a write burst, then :data:`READS_PER_WRITE` read
    bursts) until ``seconds`` pass; a segment holds whole cycles, so each
    has its share of post-write reads."""
    phase = Phase()
    churn = system.churn
    recorder = system.recorder
    phase.speed.probe()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        calls: List[float] = []
        segment_end = min(deadline, time.perf_counter() + SEGMENT_S)
        while time.perf_counter() < segment_end:
            churn.write_burst(system.handle, phase)
            for read in range(READS_PER_WRITE):
                texts, expected = churn.read_burst()
                with burst(recorder, "app.trigram_lookup_batch", len(texts)):
                    t0 = time.perf_counter()
                    answer = trigram_lookup_batch(system.handle, texts)
                    elapsed = time.perf_counter() - t0
                calls.append(elapsed)
                if read == 0:
                    phase.post_write_calls.append(elapsed)
                phase.read_keys += len(texts)
                phase.wrong += sum(1 for got, want in zip(answer, expected) if got != want)
        phase.segments.append(calls)
        phase.speed.probe()
    phase.seconds = time.perf_counter() - started
    return phase


def _run_trigram(seed: int, seconds: float, trace: bool) -> Measurement:
    inputs = TrigramInputs(seed)
    out = Measurement("trigram-churn")
    out.topology = {
        "design": TRIGRAM_DESIGN.describe(),
        "stored": inputs.stored,
        "burst": TRIGRAM_BURST,
        "reads_per_write_burst": READS_PER_WRITE,
        "churn": CHURN,
    }
    setups, setup_probes, systems = _setups(lambda rec: _trigram_build(inputs, rec), trace)
    phases: List[Phase] = []
    share = seconds / len(systems)
    for system in systems:
        before = _counters(system.group)
        if system.recorder is None:
            phases.append(_trigram_phase(system, share))
        else:
            with patched(StringKeyCodec, "encode_batch", system.recorder, "codec.encode_batch"):
                phases.append(_trigram_phase(system, share))
        deltas = _delta(before, _counters(system.group))
    if not trace:
        out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    out.attempted = sum(p.read_keys + len(p.inserts) + len(p.deletes) for p in phases)
    _finish(
        out, phases, systems, setups, setup_probes, trace, deltas, "app.trigram_lookup_batch",
        TRIGRAM_BURST,
    )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    if workload == "lpm-batch":
        return _run_lpm(seed, seconds, trace)
    return _run_trigram(seed, seconds, trace)
