"""Differential tests for the decoded mirror's lazily built Record cache.

After heavy churn of a horizontal multi-slice group at load 0.9 — spills,
deletes from the middle of full buckets (which re-pack the bucket), inserts
and a quarantine — every reader of ``mirror.records`` must still agree with
a fresh per-slot decode of the arrays.  A second test pins the point of the
cache: a numeric read after a write burst constructs no ``Record`` at all.
"""

import numpy as np
import pytest

from repro.core.config import Arrangement, SliceConfig
from repro.core.record import Record, RecordFormat
from repro.core.subsystem import SliceGroup
from repro.errors import CapacityError
from repro.hashing.base import ModuloHash

FMT = RecordFormat(key_bits=24, data_bits=8)
AUX_BITS = 4
SLOTS_PER_SLICE = 4
SLICES = 3
INDEX_BITS = 4
LOAD = 0.9

ENGINES = ["word", "bitplane"]


def make_group(engine):
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=AUX_BITS + SLOTS_PER_SLICE * FMT.slot_bits,
        record_format=FMT,
        aux_bits=AUX_BITS,
    )
    return SliceGroup(
        config=config,
        slice_count=SLICES,
        arrangement=Arrangement.HORIZONTAL,
        hash_function=ModuloHash(config.rows),
        engine=engine,
    )


def insert_random(group, stored, rng, count):
    """Insert ``count`` fresh random keys (skipping any the table refuses)."""
    added = 0
    while added < count:
        key = int(rng.integers(0, 1 << FMT.key_bits))
        if key in stored:
            continue
        data = int(rng.integers(0, 1 << FMT.data_bits))
        try:
            group.insert(key, data)
        except CapacityError:
            continue
        stored[key] = data
        added += 1


def fill(group, rng):
    stored = {}
    insert_random(group, stored, rng, int(LOAD * group.capacity_records))
    return stored


def delete_from_full_buckets(group, stored, limit):
    """Delete the middle record of up to ``limit`` full buckets, so the
    bucket re-packs and every later slot moves."""
    mirror = group._synced_mirror()
    full = np.flatnonzero(mirror.valid.sum(axis=1) == group.slots_per_bucket)
    deleted = 0
    for bucket in full[:limit].tolist():
        key = mirror.records[bucket, group.slots_per_bucket // 2].key.value
        group.delete(key)
        del stored[key]
        deleted += 1
    return deleted


def fresh_decode(group):
    """Per-slot decode of every bucket straight from the arrays."""
    layout = group._layout
    slots, reaches = [], []
    for bucket in range(group.bucket_count):
        row = []
        for slice_id, array in enumerate(group._arrays):
            value = array.peek_row(bucket)
            if slice_id == 0:
                reaches.append(layout.read_aux(value))
            row.extend(layout.read_all(value))
        slots.append(row)
    return slots, reaches


def assert_coherent(group, stored, victims):
    slots, reaches = fresh_decode(group)
    mirror = group._synced_mirror()
    assert mirror.valid.tolist() == [[v for v, _ in row] for row in slots]
    assert mirror.reach.tolist() == reaches
    expected = [
        (bucket, slot, record)
        for bucket, row in enumerate(slots)
        for slot, (valid, record) in enumerate(row)
        if valid
    ]

    # Columnar results first, while part of the cache is still unbuilt.
    keys = sorted(stored) + [k ^ 0xABCDEF for k in sorted(stored)[:32]]
    result_set = group.search_batch_columnar(keys)
    assert result_set.data_values() == [stored.get(k) for k in keys]
    for key, got in zip(keys, result_set.results()):
        want = group.search(key)
        assert (got.hit, got.row, got.slot, got.record) == (
            want.hit,
            want.row,
            want.slot,
            want.record,
        )
        if got.hit and key not in victims:
            valid, record = slots[got.row][got.slot]
            assert valid and got.record == record

    for bucket, slot, record in expected:
        assert mirror.records[bucket, slot] == record
    assert list(mirror.iter_valid()) == expected
    by_bucket = [(bucket, record) for bucket, _, record in expected]
    assert list(group.records()) == by_bucket
    assert group.scan() == by_bucket

    manager = group.reliability
    for bucket, row in enumerate(slots):
        harvested, reach = manager._harvest_bucket(bucket)
        assert harvested == [record for valid, record in row if valid]
        assert reach == reaches[bucket]


@pytest.mark.parametrize("engine", ENGINES)
def test_churned_group_matches_fresh_decode(engine):
    rng = np.random.default_rng(5)
    group = make_group(engine)
    stored = fill(group, rng)
    manager = group.enable_reliability()
    # Build every Record once, so the churn below has stale ones to drop.
    group.search_batch(sorted(stored))
    mirror = group._synced_mirror()
    assert int(mirror.reach.max()) > 0, "expected spills at load 0.9"

    keys = sorted(stored)
    for round_ in range(8):
        deleted = delete_from_full_buckets(group, stored, limit=3)
        insert_random(group, stored, rng, deleted + 1)
        keys = sorted(stored)
        result_set = group.search_batch_columnar(keys)
        if round_ % 2:
            assert result_set.data_values() == [stored[k] for k in keys]
        else:
            assert [r.data for r in result_set.results()] == [
                stored[k] for k in keys
            ]

    mirror = group._synced_mirror()
    full = np.flatnonzero(mirror.valid.sum(axis=1) == group.slots_per_bucket)
    bucket = int(full[0]) if full.size else 0
    victims = {
        int(record.key.value)
        for record in mirror.records[bucket][mirror.valid[bucket]]
    }
    assert manager.quarantine_bucket(bucket) == len(victims)
    deleted = delete_from_full_buckets(group, stored, limit=2)
    insert_random(group, stored, rng, deleted)
    assert_coherent(group, stored, victims)


@pytest.mark.parametrize("engine", ENGINES)
def test_post_write_numeric_read_builds_no_records(engine, monkeypatch):
    rng = np.random.default_rng(11)
    group = make_group(engine)
    stored = fill(group, rng)
    keys = sorted(stored)
    group.search_batch(keys)  # every Record built once

    deleted = delete_from_full_buckets(group, stored, limit=4)
    insert_random(group, stored, rng, deleted + 4)
    keys = sorted(stored)
    assert group._mirror.dirty_row_count > 0

    constructed = []
    original_init = Record.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting_init)
    values = group.search_batch_columnar(keys).data_values()
    assert values == [stored[k] for k in keys]
    assert constructed == []

    # Control: materializing results does build the re-decoded winners.
    results = group.search_batch_columnar(keys).results()
    assert [r.data for r in results] == [stored[k] for k in keys]
    assert constructed
