"""The one write rule: every write touches only the physical row it owns.

An insert fills the first free logical slot of its bucket, a delete clears
the record's valid bit, and a reach raise rewrites the aux field of the
bucket's first row — in a horizontal group as in a single slice.  A slice
is the one-slice vertical group, so the two must leave identical images.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import make_index_generator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.subsystem import SliceGroup
from repro.errors import CapacityError, LookupError_
from repro.hashing.base import ModuloHash
from repro.utils.bits import mask_of

KEY_BITS = 16
INDEX_BITS = 3
ROWS = 1 << INDEX_BITS


def make_config(slots):
    record_format = RecordFormat(key_bits=KEY_BITS, data_bits=8)
    return SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=8 + slots * record_format.slot_bits,
        record_format=record_format,
        slots_override=slots,
    )


def total_writes(group):
    return sum(array.stats.writes for array in group._arrays)


class TestHorizontalInPlace:
    def make_group(self):
        return SliceGroup(
            make_config(slots=2), 4, Arrangement.HORIZONTAL, ModuloHash(ROWS)
        )

    def test_insert_refills_the_freed_slot_with_one_row_write(self):
        group = self.make_group()
        bucket = 3
        keys = [bucket + ROWS * i for i in range(group.slots_per_bucket)]
        for key in keys:
            group.insert(key, data=key % 256)
        freed = group.search(keys[5]).slot
        assert group.search(keys[5]).row == bucket

        before = total_writes(group)
        assert group.delete(keys[5]) == 1
        assert total_writes(group) - before == 1

        newcomer = bucket + ROWS * 100
        before = total_writes(group)
        group.insert(newcomer, data=7)
        assert total_writes(group) - before == 1
        result = group.search(newcomer)
        assert (result.row, result.slot, result.data) == (bucket, freed, 7)
        for key in keys[:5] + keys[6:]:
            assert group.lookup(key) == key % 256

    def test_reach_raise_rewrites_only_the_first_row(self):
        group = self.make_group()
        for i in range(group.slots_per_bucket):
            group.insert(ROWS * i, data=1)
        before = [array.stats.writes for array in group._arrays]
        group.insert(ROWS * 50, data=2)  # spills to bucket 1
        after = [array.stats.writes for array in group._arrays]
        # One write places the record in bucket 1's first row, one raises
        # bucket 0's reach in its first row; slices 1-3 are untouched.
        assert [a - b for a, b in zip(after, before)] == [2, 0, 0, 0]
        assert group.search(ROWS * 50).bucket_accesses == 2


OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 31), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 31)),
    st.tuples(
        st.just("update"),
        st.integers(0, 31),
        st.sampled_from([0, 0xF, 0xF0, mask_of(KEY_BITS)]),
        st.integers(0, 255),
    ),
    st.tuples(st.just("rebuild")),
)


def apply(store, operation):
    """Run one operation; returns its result or the error type it raised."""
    kind = operation[0]
    try:
        if kind == "insert":
            return store.insert(operation[1], operation[2])
        if kind == "delete":
            return store.delete(operation[1])
        if kind == "update":
            _, key, mask, data = operation
            return store.update_where(key, mask, lambda record: data)
        return store.rebuild()
    except (CapacityError, LookupError_) as exc:
        return type(exc)


@given(st.lists(OPERATIONS, max_size=80), st.booleans())
@example([("insert", 0, 1), ("insert", 8, 2), ("delete", 0)], False)
@settings(max_examples=100, deadline=None)
def test_slice_and_one_slice_group_leave_identical_images(operations, sorted_):
    config = make_config(slots=3)
    hash_function = ModuloHash(ROWS)
    priority = (lambda record: record.data) if sorted_ else None
    caram = CARAMSlice(
        config, make_index_generator(hash_function), slot_priority=priority
    )
    group = SliceGroup(
        config, 1, Arrangement.VERTICAL, hash_function, slot_priority=priority
    )
    for operation in operations:
        assert apply(caram, operation) == apply(group, operation)
        assert caram.memory.snapshot() == group._arrays[0].snapshot()
        assert caram.record_count == group.record_count
