"""Shared plumbing of the repository benchmark: timing statistics, the
set-up repetition rule, run metadata and the result record.

Nothing here touches the library; the workload modules drive
:mod:`repro` through its public API and hand their measurements to
:class:`Measurement`.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The paper's operating point: every workload runs at load factor 0.9.
TARGET_LOAD = 0.9
#: A run whose achieved load factor leaves this band is refused.
LOAD_BAND = (0.85, 0.95)

#: Each timed phase runs in segments of about this many seconds, with a
#: host-speed probe between them (:class:`HostSpeed`); each segment is
#: one window of :func:`quiet`.
SEGMENT_S = 0.25

#: Probe runs per :meth:`HostSpeed.probe` (their median counts).
PROBE_REPEATS = 5

#: The reference host speed: about the probe's usual time on the 2-vCPU
#: Xeon VM (2.0 GHz) the benchmark was tuned on.  Scaled timings read as
#: on a host where the probe takes this long.
REFERENCE_PROBE_S = 2.8e-3

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Ledger closure tolerance: per-stage means must add back to the mean
#: request latency within this share.
CLOSURE_TOLERANCE = 0.10

MISS = -1


class BenchmarkFailure(Exception):
    """A run that must not report numbers: wrong answers, a missed
    operating point, or an inconsistent trace."""


def quantile(values: Sequence[float], q: float) -> float:
    """Exact rank quantile (linear interpolation), 0.0 when empty."""
    if not len(values):
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _interpreter_once() -> float:
    """Seconds for a fixed piece of interpreter work: object creation,
    dict and list updates and attribute reads."""
    started = time.perf_counter()
    table: Dict[int, _Item] = {}
    out: List[int] = []
    for value in range(1500):
        item = _Item(value, value * 3)
        table[value & 1023] = item
        out.append(table.get(value * 7 & 1023, item).value % 5)
    return time.perf_counter() - started


class HostSpeed:
    """The host's speed, probed between the segments of a timed phase.

    On a shared VM the same code runs up to 1.9x slower while neighbours
    are busy, in spells of a second to many minutes, so a whole run can
    fall into a slow spell.  :meth:`probe` times a fixed piece of work
    like the library's (an interpreter loop, then a NumPy bucket match on
    1024 keys: hash, gather rows, compare, pick the first match; median
    of :data:`PROBE_REPEATS`) while no library call is in flight.  A
    segment's timings are scaled by ``REFERENCE_PROBE_S / probe``, with
    ``probe`` the mean of the probes just before and just after it: they
    read as on a host where the probe takes :data:`REFERENCE_PROBE_S`.
    The probe never calls the library, so a change to the library moves
    the scaled timings as it moves the raw ones.  The probe times go into
    the run record, so the raw figures can be recovered.

    An interpreter loop alone speeds up 1.9x in the host's fast spells,
    about twice as much (in log terms) as the workloads do; with the
    NumPy kernel added the probe moves about as much as they do.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 1 << 32, size=(1024, 32), dtype=np.uint64)
        self._keys = rng.integers(0, 1 << 32, size=1024, dtype=np.uint64)
        self.samples: List[float] = []

    def _kernel_once(self) -> float:
        started = time.perf_counter()
        for _ in range(8):
            homes = (self._keys * np.uint64(2654435761)) >> np.uint64(22) & np.uint64(1023)
            match = self._rows[homes] == self._keys[:, None]
            np.where(match.any(axis=1), match.argmax(axis=1), -1).tolist()
        return time.perf_counter() - started

    def probe(self) -> float:
        seconds = median(
            [_interpreter_once() + self._kernel_once() for _ in range(PROBE_REPEATS)]
        )
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor for timings taken between probes ``before`` and ``after``."""
        return REFERENCE_PROBE_S / ((before + after) / 2)

    def segment_scales(self) -> List[float]:
        """One factor per segment, segment ``i`` lying between probes
        ``i`` and ``i + 1``."""
        return [self.scale(a, b) for a, b in zip(self.samples, self.samples[1:])]

    def scaled(self, seconds: Sequence[float]) -> List[float]:
        """Durations of consecutive segments at the reference speed."""
        return [s * f for s, f in zip(seconds, self.segment_scales())]


def host_metadata() -> Dict[str, object]:
    """What makes two runs comparable: the host and its interpreter."""
    uname = platform.uname()
    return {
        "node": uname.node,
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def check_load(workload: str, load_factor: float) -> None:
    low, high = LOAD_BAND
    if not low <= load_factor <= high:
        raise BenchmarkFailure(
            f"{workload}: load factor {load_factor:.4f} is outside "
            f"[{low}, {high}] around the paper's {TARGET_LOAD}"
        )


@dataclass
class Measurement:
    """Everything one workload run measured.

    ``attempted``/``failed`` count lookups and writes the workload tried
    and how many were shed or failed typed; ``wrong`` counts answers the
    oracle rejected.  ``end_to_end`` and ``per_layer`` map metric names to
    values in the units ``BENCHMARK.json`` declares.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    topology: Dict[str, object] = field(default_factory=dict)
    operating_point: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def lookup_metrics(self, windows: List["Window"], answered: int, attempted: int) -> None:
        """The lookup-side end-to-end metrics of one timed phase, from its
        quiet windows (:func:`quiet`), scaled to the reference host speed."""
        rate, p50, p99 = quiet(windows)
        self.notes["window_rates"] = [w.work / w.seconds for w in windows]
        self.notes["window_mean_ms"] = [w.mean_latency * 1e3 for w in windows]
        self.notes["window_p99_ms"] = [quantile(w.latencies, 0.99) * 1e3 for w in windows]
        self.end_to_end["lookups_per_s"] = rate
        self.end_to_end["lookup_p50_ms"] = p50 * 1e3
        self.end_to_end["lookup_p99_ms"] = p99 * 1e3
        self.end_to_end["success_rate"] = answered / attempted


@dataclass
class Window:
    """One segment of a timed phase: its work (keys, requests or
    operations), the seconds it took, and its latency samples."""

    work: float
    seconds: float
    latencies: Sequence[float]

    @property
    def mean_latency(self) -> float:
        if not len(self.latencies):
            return math.inf  # nothing completed: a stalled window
        return sum(self.latencies) / len(self.latencies)

    def scaled(self, scale: float) -> "Window":
        """The window at the reference host speed (:class:`HostSpeed`)."""
        return Window(
            self.work, self.seconds * scale, [latency * scale for latency in self.latencies]
        )


def quiet(windows: Sequence[Window]) -> Tuple[float, float, float]:
    """Rate, p50 and p99 over the quieter half of the (scaled) windows.

    :class:`HostSpeed` corrects for spells that the probes around a
    segment see; interference that starts and ends between two probes is
    not seen.  Each half of the phase keeps the half of its windows with
    the lowest mean latency (so both halves of ``serve-failover``, before
    and after its replica kill, are represented equally); the rate is
    their work over their seconds and the quantiles are those of their
    pooled latencies.  A change to the code moves every window, so it
    moves these figures as it moves a median.
    """
    middle = len(windows) // 2
    kept: List[Window] = []
    for part in (windows[:middle], windows[middle:]):
        ranked = sorted(part, key=lambda window: window.mean_latency)
        kept.extend(ranked[: (len(part) + 1) // 2])
    pooled = [latency for window in kept for latency in window.latencies]
    return (
        sum(w.work for w in kept) / sum(w.seconds for w in kept),
        quantile(pooled, 0.50),
        quantile(pooled, 0.99),
    )


def call_windows(segments: Sequence[Sequence[float]], per_call: int, scales: Sequence[float]) -> List[Window]:
    """One scaled window per segment of timed burst calls: its work is
    the calls' keys, its seconds the time spent inside them."""
    return [
        Window(len(calls) * per_call, sum(calls), calls).scaled(scale)
        for calls, scale in zip(segments, scales)
        if calls
    ]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
