"""The repository benchmark: one command, four workloads, every answer
checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-kv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced (half the time
each, each on a fresh deployment) and reports the per-layer metrics,
the latency ledger and the tracing overhead.  Each run prints its metrics
one per line with their units, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It also writes a run
record (seed, host and topology metadata, operating point, metrics) and,
when traced, the spans, under ``--out``; ``perfbench/compare.py`` compares
two sets of records and refuses runs from different hosts or topologies.

A wrong answer, a load factor off the paper's 0.9, or a ledger that does
not close exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

WORKLOADS = ("serve-kv", "lpm-batch", "trigram-churn", "serve-failover")


def _spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _select(spec: Dict, values: Dict[str, float], trace: bool) -> Dict[str, Dict]:
    """Every metric the spec declares for this mode, with its unit."""
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts, on one CPU.

    The serving workloads hand each batch from the event loop to an
    executor thread and back.  On a VM with the two threads on two vCPUs,
    each hand-off waits for an idle vCPU to wake, and how long that takes
    depends on what else the host runs: unpinned, ``serve-kv`` served
    11k-20k requests/s from one run to the next on a 2-vCPU VM, pinned
    27k-29k.  The interpreter lock lets one thread run Python at a time
    anyway, and the library's default engine is single-core.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> int:
    cpu = pin_to_one_cpu()
    sys.path.insert(0, SOURCE)
    import common
    import record

    if workload in ("serve-kv", "serve-failover"):
        import serve as module
    else:
        import batch as module
    try:
        measured = module.run(workload, seed, seconds, trace)
    except common.BenchmarkFailure as failure:
        print(f"{workload}: FAILED: {failure}", file=sys.stderr)
        return 1
    measured.notes["pinned_cpu"] = cpu
    values = measured.per_layer if trace else measured.end_to_end
    metrics = _select(_spec(), values, trace)
    correct = measured.wrong == 0
    record.write(out_dir, measured, seed, seconds, trace, metrics)
    for name, metric in metrics.items():
        print(f"{workload:15s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": metrics,
            }
        )
    )
    if not correct:
        print(f"{workload}: {measured.wrong} wrong answers", file=sys.stderr)
        return 1
    return 0


def run_all(seed: int, seconds: float, trace: bool, out_dir: str) -> int:
    """Every workload in its own process (so each reports its own peak
    memory), one after another."""
    lines: List[Dict] = []
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--out", out_dir,
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        output = child.stdout.strip().splitlines()
        for line in output[:-1]:
            print(line)
        if child.returncode != 0 or not output:
            status = child.returncode or 1
            continue
        lines.append(json.loads(output[-1]))
    if status:
        return status
    print(
        json.dumps(
            {
                "correct": all(line["correct"] for line in lines),
                "attempted": sum(line["attempted"] for line in lines),
                "failed": sum(line["failed"] for line in lines),
                "metrics": {
                    f"{workload}.{name}": metric
                    for workload, line in zip(WORKLOADS, lines)
                    for name, metric in line["metrics"].items()
                },
            }
        )
    )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=os.path.join(ROOT, ".perfbench-out"),
        help="directory for run records and spans (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no library source under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
