"""Fault-soak acceptance gates: zero silent corruption, free when off.

Two contracts of the reliability layer are pinned here with numbers:

* **detect-or-correct** — a 10k-lookup soak of the IP and trigram
  workloads at bit-flip rate 1e-4 (plus stuck cells and dead rows) must
  report **zero** silent wrong answers: every fault is either corrected
  by the segmented row ECC or detected and repaired through
  restore/quarantine/victim overlay;
* **zero cost when disabled** — a slice that enabled the reliability
  layer and then disabled it must serve warm batch lookups within 5% of
  an identical slice that never enabled it (the guard hook is one
  ``is None`` check per row access).  Both slices are built in the same
  run with the ``bench_batch_lookup.py`` slice shape, stored keys and
  query stream, and are timed interleaved, best of ``REPEATS``, so the
  ratio compares like with like on whatever host runs it.

Results (per-rate soak reports + both slices' throughput) land in
``BENCH_fault_soak.json``.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_fault_soak.py

or through pytest (asserts both gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_soak.py
"""

import json
import time

from bench_batch_lookup import build_slice, make_queries, populate
from harness import finalize, result_path
from repro.reliability.soak import run_soak

RESULT_PATH = result_path("fault_soak")

REPEATS = 5          # interleaved best-of to squeeze out scheduler noise
GATE_THRESHOLD = 0.05
SOAK_QUERIES = 10_000
SOAK_RATE = 1e-4
SOAK_SEED = 7


def _time_batch(slice_, queries) -> float:
    start = time.perf_counter()
    slice_.search_batch(queries)
    return time.perf_counter() - start


def _measure_disabled_overhead() -> dict:
    """Warm batch throughput of a never-enabled slice (the baseline) and
    of an enabled-then-disabled one, timed interleaved in alternating
    order, best of ``REPEATS`` each."""
    baseline = build_slice()
    stored = populate(baseline)
    toggled = build_slice()
    for key in stored:
        toggled.insert(key, key & 0xFFFF)
    toggled.enable_reliability()
    toggled.disable_reliability()
    queries = make_queries(stored)
    for slice_ in (baseline, toggled):
        slice_.search_batch(queries[:1])  # warm the mirror + engine
    best = {"baseline": float("inf"), "disabled": float("inf")}
    legs = [("baseline", baseline), ("disabled", toggled)]
    for _ in range(REPEATS):
        for name, slice_ in legs:
            best[name] = min(best[name], _time_batch(slice_, queries))
        legs.reverse()  # neither leg always runs first
    return {
        "keys": len(queries),
        "baseline_keys_per_sec": round(len(queries) / best["baseline"]),
        "disabled_keys_per_sec": round(len(queries) / best["disabled"]),
        "disabled_overhead_vs_baseline": round(
            best["disabled"] / best["baseline"] - 1, 4
        ),
    }


def run_benchmark() -> dict:
    soaks = {
        name: run_soak(
            name, SOAK_RATE, queries=SOAK_QUERIES, seed=SOAK_SEED
        ).as_dict()
        for name in ("ip", "trigram")
    }
    result = {
        "soak_rate": SOAK_RATE,
        "soak_queries": SOAK_QUERIES,
        "silent_wrong": sum(s["silent_wrong"] for s in soaks.values()),
        "soaks": soaks,
        **_measure_disabled_overhead(),
    }
    return finalize(RESULT_PATH, result)


def test_soak_detect_or_correct():
    for name in ("ip", "trigram"):
        report = run_soak(
            name, SOAK_RATE, queries=SOAK_QUERIES, seed=SOAK_SEED
        )
        assert report.silent_wrong == 0, report.as_dict()
        assert report.queries >= SOAK_QUERIES


def test_disabled_reliability_overhead():
    result = run_benchmark()
    assert result["silent_wrong"] == 0, result
    assert result["disabled_overhead_vs_baseline"] <= GATE_THRESHOLD, result


if __name__ == "__main__":
    stats = run_benchmark()
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
