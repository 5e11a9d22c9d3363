"""Ablation — overflow policy: linear probing vs double hashing vs
quadratic probing (Section 2.1's two options, plus one more).

Runs on the behavioral slice so the policies' actual probe sequences (and
their interaction with the reach field) are exercised, not just modeled.
"""

import pytest

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.probing import DoubleHashing, LinearProbing, QuadraticProbing
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.experiments.reporting import format_table
from repro.hashing.analysis import amal, simulate_linear_probing
from repro.hashing.base import ModuloHash
from repro.hashing.universal import MultiplicativeHash
from repro.utils.rng import make_rng

INDEX_BITS = 7
ROWS = 1 << INDEX_BITS
SLOTS = 8
LOAD_FACTOR = 0.85


def build_slice(policy):
    record_format = RecordFormat(key_bits=24, data_bits=8)
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=8 + SLOTS * record_format.slot_bits,
        record_format=record_format,
        slots_override=SLOTS,
    )
    return CARAMSlice(
        config, make_index_generator(ModuloHash(ROWS)), probing=policy
    )


def clustered_keys(count, seed):
    """Keys with clustered home buckets (where probing policy matters)."""
    rng = make_rng(seed)
    # Half the mass on a quarter of the buckets.
    hot = rng.integers(0, ROWS // 4, size=count // 2)
    cold = rng.integers(0, ROWS, size=count - count // 2)
    buckets = list(hot) + list(cold)
    keys = []
    seen = set()
    for i, bucket in enumerate(buckets):
        key = int(bucket) + ROWS * (i + 1)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


POLICIES = [
    ("linear", lambda: LinearProbing()),
    ("double-hashing", lambda: DoubleHashing(MultiplicativeHash(ROWS))),
    ("quadratic", lambda: QuadraticProbing()),
]


def run_policy(policy):
    sl = build_slice(policy)
    keys = clustered_keys(int(ROWS * SLOTS * LOAD_FACTOR), seed=13)
    for key in keys:
        sl.insert(key, data=key % 251)
    sl.stats.reset()
    for key in keys:
        result = sl.search(key)
        assert result.hit and result.data == key % 251
    return {
        "amal": sl.stats.amal,
        "avg_insert_probes": sl.stats.average_insert_probes,
    }


@pytest.mark.parametrize("name,factory", POLICIES)
def test_probing_policy(benchmark, name, factory):
    stats = benchmark.pedantic(
        run_policy, args=(factory(),), rounds=1, iterations=1
    )
    assert stats["amal"] >= 1.0


def replay_amal(policy, keys):
    """Oracle: first-come-first-served placement along the policy's own
    probe sequence.  Each key lands in the first bucket with a free slot
    and, with unique keys and no deletes, is later found there after
    ``1 + attempt`` bucket accesses."""
    occupancy = [0] * ROWS
    accesses = 0
    for key in keys:
        home = key % ROWS
        for attempt in range(ROWS):
            bucket = policy.probe(home, attempt, ROWS, key)
            if occupancy[bucket] < SLOTS:
                occupancy[bucket] += 1
                accesses += 1 + attempt
                break
        else:
            raise AssertionError(f"no free bucket on the probe walk of {key}")
    return accesses / len(keys)


def test_policies_all_correct_and_comparable():
    keys = clustered_keys(int(ROWS * SLOTS * LOAD_FACTOR), seed=13)
    rows = []
    for name, factory in POLICIES:
        stats = run_policy(factory())
        rows.append({"policy": name, "AMAL": round(stats["amal"], 4)})
        # The slice's measured AMAL is exactly the FCFS replay of the
        # policy's probe sequence; linear probing also matches the
        # analytic spill model.
        assert stats["amal"] == replay_amal(factory(), keys)
        if name == "linear":
            spill = simulate_linear_probing(
                [key % ROWS for key in keys], ROWS, SLOTS
            )
            assert stats["amal"] == amal(spill.displacements)
        assert stats["amal"] >= 1.0
    print("\n" + format_table(rows))
