"""The CA-RAM slice: index generator + memory array + match processors.

"A CA-RAM slice takes as an input a search key and outputs the result of a
lookup.  Its main components include an index generator, a memory array
(either SRAM or DRAM), and P match processors." (Section 3.1, Figure 3)

A slice is the one-slice vertical :class:`~repro.core.subsystem.SliceGroup`
(Section 3.2 builds every database from ``k`` slices), so search, insert,
delete, the batch engines, bulk load, scan, update and reliability are the
group's.  What is genuinely single-slice lives here:

* **RAM mode** — the slice doubles as plain addressable memory
  (Section 3.2), including DMA-style bulk loading of a pre-hashed database;
* **latency** — cycles per lookup under the Section 3.4 timing model;
* the ``(row, slot, record)`` shape of :meth:`CARAMSlice.scan` and
  :meth:`CARAMSlice.records`, and the ``slice.*`` telemetry mounts.

Within a bucket, slot 0 has the highest match priority.  An optional
``slot_priority`` function keeps bucket slots sorted (descending priority)
on insert — how longest-prefix-match ordering is realized for IP lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.probing import ProbingPolicy
from repro.core.record import Record
from repro.core.results import SearchResult
from repro.core.subsystem import SliceGroup
from repro.memory.array import MemoryArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.array import ArrayStats


class CARAMSlice(SliceGroup):
    """One CA-RAM slice (Figure 3): a one-slice vertical :class:`SliceGroup`.

    Args:
        config: slice geometry.
        index_generator: the hash front-end; must address ``config.rows``.
        probing: overflow policy (the paper uses linear probing).
        slot_priority: optional record-priority function; when given, bucket
            slots are kept sorted descending so the priority encoder returns
            the highest-priority match (LPM ordering).
        account_reads: when True, batch lookups served from the decoded
            mirror also charge the physical :class:`ArrayStats` read
            counters, restoring exact counter parity with the scalar path.
        batch_chunk_size: keys per vectorized batch-lookup chunk; None
            derives a default from the row geometry
            (:func:`repro.core.batch.default_chunk_size`).
        engine: batch match backend spec (see :class:`SliceGroup`).
    """

    def __init__(
        self,
        config: SliceConfig,
        index_generator: IndexGenerator,
        probing: Optional[ProbingPolicy] = None,
        slot_priority: Optional[Callable[[Record], float]] = None,
        account_reads: bool = False,
        batch_chunk_size: Optional[int] = None,
        engine: str = "word",
    ) -> None:
        if index_generator.rows != config.rows:
            raise CapacityError(
                f"index generator addresses {index_generator.rows} rows but "
                f"the slice has {config.rows}"
            )
        super().__init__(
            config,
            1,
            Arrangement.VERTICAL,
            index_generator.hash_function,
            probing=probing,
            slot_priority=slot_priority,
            name="slice",
            account_reads=account_reads,
            batch_chunk_size=batch_chunk_size,
            engine=engine,
        )
        self._index = index_generator
        self._memory = self._arrays[0]

    @property
    def memory(self) -> MemoryArray:
        return self._memory

    def _memory_mounts(self) -> List[Tuple[str, "ArrayStats"]]:
        return [("memory", self._memory.stats)]

    def records(self) -> Iterator[Tuple[int, int, Record]]:
        """Yield every stored record as ``(row, slot, record)``, row-major."""
        yield from self._synced_mirror().iter_valid()

    def scan(
        self, search_key: int = 0, search_mask: Optional[int] = None
    ) -> List[Tuple[int, int, Record]]:
        """Evaluate a ternary predicate over the whole database.

        Args:
            search_key: the predicate's value bits.
            search_mask: don't-care bits of the predicate; defaults to
                all-don't-care (match everything).

        Returns:
            All matching ``(row, slot, record)`` triples.  Costs one
            bucket access per row (counted in the memory statistics).
        """
        return self._matches(search_key, search_mask)

    def search_latency_cycles(self, result: SearchResult) -> int:
        """Cycles one lookup took: memory accesses plus matching passes.

        The first matching pass of each access overlaps the *next* memory
        access in a pipelined design; this conservative model charges
        ``T_mem + passes`` per bucket visited (Section 3.4's
        ``T_mem + T_match`` with multi-pass matching).
        """
        per_access = (
            self._config.timing.access_cycles + self._config.match_passes
        )
        return result.bucket_accesses * per_access

    # ------------------------------------------------------------------
    # RAM mode (Section 3.2)
    # ------------------------------------------------------------------

    def ram_read(self, row: int) -> int:
        """Address-based row read — the slice as plain on-chip memory."""
        return self._memory.read_row(row)

    def ram_write(self, row: int, value: int) -> None:
        """Address-based row write.

        The record count tracks the occupancy delta of the overwritten row,
        so CAM-mode bookkeeping survives RAM-mode writes.
        """
        removed = self._layout.occupancy(self._memory.peek_row(row))
        self._memory.write_row(row, value)
        self._record_count += self._layout.occupancy(value) - removed

    def dma_load(
        self,
        rows: List[int],
        offset: int = 0,
        record_count: Optional[int] = None,
    ) -> None:
        """Bulk-load pre-packed rows ("a series of memory copy operations or
        ... an existing DMA mechanism", Section 3.2).

        The record count is updated incrementally from the valid bits of the
        overwritten and incoming rows — no full-database re-scan.  A caller
        that already knows the incoming image's occupant count (the bulk
        builder) may pass ``record_count`` to skip the per-row occupancy
        scans; this shortcut requires a full-array load so the displaced
        count is exactly the current record count.
        """
        if record_count is not None:
            if offset != 0 or len(rows) != self._config.rows:
                raise ConfigurationError(
                    "record_count shortcut requires a full-array load"
                )
            self._load_images([rows], record_count)
            return
        removed = sum(
            self._layout.occupancy(self._memory.peek_row(offset + i))
            for i in range(len(rows))
        )
        self._memory.load(rows, offset)
        added = sum(self._layout.occupancy(value) for value in rows)
        self._record_count += added - removed


__all__ = ["CARAMSlice", "SearchResult"]
