"""Unit tests for SliceGroup bulk evaluation/modification and the handle
delegation."""

import pytest

from repro.api import CaRamLibrary
from repro.core.config import Arrangement, SliceConfig
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.hashing.base import ModuloHash
from repro.utils.bits import mask_of


def make_group(arrangement=Arrangement.VERTICAL, slice_count=2):
    config = SliceConfig(
        index_bits=3, row_bits=128,
        record_format=RecordFormat(key_bits=16, data_bits=8),
    )
    buckets = (
        config.rows * slice_count
        if arrangement is Arrangement.VERTICAL
        else config.rows
    )
    return SliceGroup(
        config, slice_count, arrangement, ModuloHash(buckets), name="bulk"
    )


@pytest.mark.parametrize(
    "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
)
class TestGroupBulkOps:
    def test_scan_everything(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        matches = group.scan()
        assert len(matches) == 30

    def test_scan_predicate(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        mask = mask_of(16) & ~0x7  # select low 3 bits == 0b101
        keys = sorted(
            record.key.value for _, record in group.scan(0x5, mask)
        )
        assert keys == [5, 13, 21, 29]

    def test_update_where(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=1)
        modified = group.update_where(0, mask_of(16), lambda r: 9)
        assert modified == 30
        assert all(group.lookup(k) == 9 for k in range(30))

    def test_update_preserves_spilled_records(self, arrangement):
        group = make_group(arrangement)
        slots = group.slots_per_bucket
        buckets = group.bucket_count
        keys = [i * buckets for i in range(slots + 2)]  # overload bucket 0
        for key in keys:
            group.insert(key, data=1)
        group.update_where(0, mask_of(16), lambda r: 3)
        for key in keys:
            assert group.lookup(key) == 3

    def test_scan_costs_one_access_per_row(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        before = [array.stats.reads for array in group._arrays]
        group.scan()
        after = [array.stats.reads for array in group._arrays]
        rows = group.config.rows
        assert [a - b for a, b in zip(after, before)] == [rows, rows]

    def test_update_sweep_costs_one_access_per_row(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        before = [array.stats.reads for array in group._arrays]
        group.update_where(5, 0, lambda r: 1)
        after = [array.stats.reads for array in group._arrays]
        rows = group.config.rows
        assert [a - b for a, b in zip(after, before)] == [rows, rows]


class TestHandleDelegation:
    def test_scan_and_update_through_handle(self):
        lib = CaRamLibrary(slice_count=2, index_bits=4, row_bits=256)
        db = lib.allocate_database(
            "d", RecordFormat(key_bits=16, data_bits=8), slice_count=2
        )
        for k in range(20):
            db.insert(k * 3, data=0)
        assert len(db.scan()) == 20
        assert db.update_where(0, mask_of(16), lambda r: 4) == 20
        assert db.lookup(9) == 4
