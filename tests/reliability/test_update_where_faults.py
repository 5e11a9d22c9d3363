"""``update_where`` under a flipped cell: correct answers or raised errors.

With write-back of corrected rows switched off, a row holding one flipped
cell still reads correctly through its checkword.  ``update_where``
rewrites such a row; it must re-encode the corrected content, not the
flipped one, or a neighbour's record silently changes.  The sweep flips
each bit of the row in turn.
"""

import pytest

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import make_index_generator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.subsystem import SliceGroup
from repro.errors import CaRamError
from repro.hashing.base import ModuloHash
from repro.reliability.manager import ReliabilityPolicy

ROWS = 16
TARGET = 33  # homes to row 1
KEYS = [k for k in range(64) if k != TARGET] + [TARGET]


def make_config():
    record_format = RecordFormat(key_bits=16, data_bits=8)
    return SliceConfig(
        index_bits=4,
        row_bits=8 + 8 * record_format.slot_bits,
        record_format=record_format,
        slots_override=8,
    )


def build_slice():
    return CARAMSlice(make_config(), make_index_generator(ModuloHash(ROWS)))


def build_horizontal_group():
    return SliceGroup(
        make_config(), 2, Arrangement.HORIZONTAL, ModuloHash(ROWS)
    )


@pytest.mark.parametrize("build", [build_slice, build_horizontal_group])
def test_update_where_never_folds_a_flip_into_the_checkword(build):
    row_bits = make_config().row_bits
    per_row = make_config().slots_per_bucket
    silent = []
    for bit in range(row_bits):
        store = build()
        for key in KEYS:
            store.insert(key, data=key)
        store.enable_reliability(ReliabilityPolicy(correct_writeback=False))
        where = store.search(TARGET)
        array_index = where.slot // per_row
        store.reliability.guards[array_index].inject_access_fault(
            where.row, 1 << bit
        )
        assert store.update_where(TARGET, 0, lambda record: 200) == 1
        for key in KEYS:
            expected = 200 if key == TARGET else key
            try:
                value = store.lookup(key)
            except CaRamError:
                continue
            if value != expected:
                silent.append((bit, key, value))
    assert silent == []
