"""Compare two sets of run records, metric by metric, against the bounds
in ``BENCHMARK.json``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` run records ``perfbench/run.py``
writes (one per workload, seed and trace mode).  Records are compared
only with records of the same workload and trace mode, and only when
every one of them was made on the same host (node, CPU count, Python and
NumPy versions) and topology (shards, replicas, geometry): a mix is
refused with exit code 2.  The effective engine is recorded in the
topology but not compared: a change of the library's default engine is a
change to be measured, not a different set-up.  For each end-to-end
metric the report gives both medians, the base's quartile spread, and
the change against the metric's bound; a change worse than its bound
(any rise from a base of 0 included) exits 1.  The median
time of the host-speed probe each run records is printed for both sets.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> Dict[Tuple[str, int], List[Dict]]:
    groups: Dict[Tuple[str, int], List[Dict]] = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def _context(record: Dict) -> str:
    topology = {k: v for k, v in record["topology"].items() if k != "engine"}
    return json.dumps({"host": record["host"], "topology": topology}, sort_keys=True)


def relative_change(old: float, now: float) -> float:
    """``(now - old) / |old|``; from a base of 0 any change is infinite."""
    if old:
        return (now - old) / abs(old)
    return 0.0 if now == old else math.copysign(math.inf, now - old)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(set(base) & set(new)):
        contexts = {_context(r) for r in base[key] + new[key]}
        if len(contexts) > 1:
            print(
                f"{key[0]} (trace {key[1]}): records come from different "
                "hosts or topologies; refusing to compare",
                file=sys.stderr,
            )
            return 2
        if key[1]:
            continue  # per-layer metrics carry no bound
        print(f"{key[0]}: {len(base[key])} base runs, {len(new[key])} new runs")
        speeds = [
            statistics.median(c for r in runs for c in r["notes"]["host_probe_s"])
            for runs in (base[key], new[key])
        ]
        print(
            f"  host-speed probe {speeds[0] * 1e3:.2f} -> {speeds[1] * 1e3:.2f} ms"
            " (timings are already scaled by it)"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [r["metrics"][name]["value"] for r in base[key]]
            after = [r["metrics"][name]["value"] for r in new[key]]
            old, now = statistics.median(before), statistics.median(after)
            change = relative_change(old, now)
            worse = -change if metric["better"] == "higher" else change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            if verdict != "ok":
                status = 1
            print(
                f"  {name:16s} {old:12.6g} -> {now:12.6g} {metric['unit']:8s}"
                f" change {change:+.2%} (bound {metric['bound']:.0%},"
                f" base spread {spread(before):.2%}) {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
