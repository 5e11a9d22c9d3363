"""The benchmark's own load driver for the serving workloads.

:func:`closed_loop` runs ``users`` callers as asyncio tasks on the
caller's event loop; each issues ``await lookup(key)`` against a
pre-generated request stream (cycled when the run outlasts it) and sends
its next request the moment the previous one answers.  It keeps raw
per-request samples: latency, answer and stream position.  Answers are
checked by the workload after the timed phase, against the stream's
expected values.  The loop runs in segments of about
:data:`common.SEGMENT_S` seconds; each segment ends when its last request
has been answered, and a host-speed probe (:class:`common.HostSpeed`)
runs before the first segment and after each one, while no request is
in flight.

(An open loop at a fixed rate, timed from each request's scheduled send,
was tried for ``serve-failover`` and dropped: with the process on one
CPU its p99 latency doubled in runs where the host was slow, at 500,
1000 and 2000 requests/s alike, far beyond the benchmark's bounds.)
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Sequence

from repro.errors import CaRamError, ServiceOverloadError

from common import MISS, SEGMENT_S, HostSpeed, Window

Lookup = Callable[[int], Awaitable]


@dataclass
class LoadSamples:
    """Raw outcome of one driver run (all accounting closes:
    ``attempted == answered + shed + failed``)."""

    attempted: int = 0
    shed: int = 0
    failed: int = 0
    #: Wall seconds of the segments (probes between them excluded).
    seconds: float = 0.0
    # Typed arrays, not lists: samples are not objects the collector
    # must walk, so the driver adds no garbage-collection work.
    latencies: array = field(default_factory=lambda: array("d"))
    positions: array = field(default_factory=lambda: array("q"))
    answers: array = field(default_factory=lambda: array("q"))
    #: Answered requests (``len(latencies)``) at the end of each segment,
    #: and each segment's wall seconds.
    segment_ends: List[int] = field(default_factory=list)
    segment_seconds: List[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def answered(self) -> int:
        return len(self.answers)

    @property
    def errors(self) -> int:
        return self.shed + self.failed

    def end_segment(self, seconds: float) -> None:
        self.segment_ends.append(len(self.latencies))
        self.segment_seconds.append(seconds)
        self.seconds += seconds
        self.speed.probe()

    def windows(self) -> List[Window]:
        """One window per segment, scaled to the reference host speed."""
        out: List[Window] = []
        low = 0
        for high, seconds, scale in zip(
            self.segment_ends, self.segment_seconds, self.speed.segment_scales()
        ):
            window = Window(high - low, seconds, self.latencies[low:high])
            out.append(window.scaled(scale))
            low = high
        return out

    def wrong(self, expected: Sequence[int]) -> int:
        """Answers that differ from the stream's expected values."""
        size = len(expected)
        return sum(
            1
            for position, answer in zip(self.positions, self.answers)
            if answer != expected[position % size]
        )


async def _issue(
    lookup: Lookup, key: int, position: int, samples: LoadSamples, origin: float
) -> None:
    """One request: answer, shed or typed failure — never dropped."""
    samples.attempted += 1
    try:
        result = await lookup(key)
    except ServiceOverloadError:
        samples.shed += 1
        await asyncio.sleep(0)  # a shed returns at once; let others run
        return
    except CaRamError:
        samples.failed += 1
        return
    samples.latencies.append(time.perf_counter() - origin)
    samples.positions.append(position)
    samples.answers.append(result.data if result.hit else MISS)


async def closed_loop(
    lookup: Lookup,
    keys: Sequence[int],
    users: int,
    seconds: float,
    at_midpoint: Optional[Callable[[], None]] = None,
) -> LoadSamples:
    """``users`` callers share one cursor over the stream until
    ``seconds`` have passed.  ``at_midpoint`` runs once, before the first
    segment that starts in the second half of the run."""
    samples = LoadSamples()
    size = len(keys)
    cursor = 0
    samples.speed.probe()
    started = time.perf_counter()
    midpoint = started + seconds / 2
    deadline = started + seconds
    while time.perf_counter() < deadline:
        segment_start = time.perf_counter()
        if at_midpoint is not None and segment_start >= midpoint:
            at_midpoint()
            at_midpoint = None
        segment_end = min(deadline, segment_start + SEGMENT_S)

        async def caller() -> None:
            nonlocal cursor
            while time.perf_counter() < segment_end:
                position = cursor
                cursor += 1
                await _issue(
                    lookup,
                    keys[position % size],
                    position,
                    samples,
                    time.perf_counter(),
                )

        await asyncio.gather(*(caller() for _ in range(users)))
        samples.end_segment(time.perf_counter() - segment_start)
    return samples
