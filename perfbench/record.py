"""Run records: what a run measured, on which host and topology.

Each run writes ``<workload>-seed<seed>-trace<0|1>.json`` under the output
directory; a traced run also writes its spans to
``<workload>-spans.jsonl.gz`` (one JSON object per span).  The seed is
recorded here only: the library never sees it, just the inputs made
from it.
"""

from __future__ import annotations

import os
import json
from typing import Dict

from common import Measurement, host_metadata


def write(out_dir: str, measured: Measurement, seed: int, seconds: float, trace: bool, metrics: Dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{measured.workload}-seed{seed}-trace{int(trace)}"
    spans = measured.notes.pop("spans", None)
    if spans is not None:
        spans.write(os.path.join(out_dir, f"{measured.workload}-spans.jsonl.gz"))
    payload = {
        "workload": measured.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_metadata(),
        "topology": measured.topology,
        "operating_point": measured.operating_point,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "wrong": measured.wrong,
        "metrics": metrics,
        "notes": measured.notes,
    }
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path
