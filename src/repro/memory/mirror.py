"""Decoded NumPy mirror of one or more CA-RAM memory arrays.

The behavioral model stores rows as arbitrary-precision Python integers,
which keeps sub-field extraction exact for any row width — but forces every
search to re-decode every slot of the fetched row through big-int bit
slicing.  A :class:`DecodedMirror` maintains the *decoded* view of the
array(s) as dense NumPy matrices — per logical bucket: valid bits, stored
key values, stored don't-care masks, stored data words and the auxiliary
reach field — so steady-state batch lookups never touch Python-int bit
extraction.  The decoded :class:`~repro.core.record.Record` objects are a
lazily built cache over those matrices (:class:`RecordCache`): a slot's
``Record`` is constructed the first time someone reads it and kept until
its row is re-decoded.

The mirror stays coherent through *dirty-row invalidation*: it subscribes to
:meth:`~repro.memory.array.MemoryArray.subscribe_invalidation`, and every
``write_row`` / ``load`` / ``fill`` marks the affected rows dirty.  A
:meth:`DecodedMirror.sync` before each batch operation re-decodes only the
dirty rows, so a read-heavy workload pays the decode cost once per mutation,
not once per lookup.  The re-decode itself is vectorized: the dirty row
values are serialized to bytes once, bit-unpacked as one matrix, and every
slot field (valid, key value, don't-care mask, data) is sliced out as a
column and re-packed through the same word codecs the bulk-build pipeline
uses.  A sync then only marks the dirty rows' cached ``Record`` objects as
not built, so it costs NumPy work alone; reads that gather numeric columns
(``data_values()``) never build a ``Record`` at all.  Subclasses hook
:meth:`DecodedMirror._buckets_updated` to maintain derived layouts (the
bit-plane transpose) from the same incremental dirty set.

Keys wider than 64 bits (e.g. the trigram study's 128-bit keys) are held as
little-endian 64-bit *word* columns; the ternary comparison is an exact
word-wise rendering of Figure 4(b): a slot matches when, in every word,
``(stored ^ search) & ~(stored_mask | search_mask)`` is zero over the key's
width.

Logical-bucket composition mirrors :class:`~repro.core.subsystem.SliceGroup`:

* one array, or several arranged VERTICALLY — bucket ``b`` is row
  ``b % rows`` of array ``b // rows``; slot axis is one slice wide;
* several arranged HORIZONTALLY — bucket ``b`` is row ``b`` of *every*
  array, slots concatenated in slice order (slice 0 first, matching the
  match-priority order of the scalar path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, KeyFormatError
from repro.utils.bits import mask_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.bucket import BucketLayout
    from repro.memory.array import MemoryArray

#: Width of one mirror storage word.
KEY_WORD_BITS = 64

_WORD_MASK = (1 << KEY_WORD_BITS) - 1


def words_for_bits(bits: int) -> int:
    """Number of 64-bit words needed to hold a ``bits``-wide key."""
    if bits <= 0:
        raise ConfigurationError(f"bits must be positive: {bits}")
    return -(-bits // KEY_WORD_BITS)


def int_to_words(value: int, word_count: int) -> List[int]:
    """Split an unsigned integer into ``word_count`` little-endian words."""
    if value < 0:
        raise KeyFormatError(f"value must be non-negative: {value}")
    if value >> (KEY_WORD_BITS * word_count):
        raise KeyFormatError(
            f"value {value:#x} does not fit in {word_count} words"
        )
    return [
        (value >> (KEY_WORD_BITS * w)) & _WORD_MASK for w in range(word_count)
    ]


def keys_to_words(values: Sequence[int], key_bits: int) -> np.ndarray:
    """Pack integer keys into a ``(len(values), words)`` uint64 matrix.

    Little-endian word order (word 0 holds the key's low 64 bits).  Raises
    :class:`~repro.errors.KeyFormatError` when any key does not fit in
    ``key_bits`` bits — the same contract the scalar match processor
    enforces per key.
    """
    n = len(values)
    word_count = words_for_bits(key_bits)
    full = mask_of(key_bits)
    if word_count == 1:
        try:
            arr = np.array(values, dtype=np.uint64)
        except (OverflowError, TypeError) as exc:
            raise KeyFormatError(
                f"search key does not fit in {key_bits} bits: {exc}"
            ) from None
        if n and int(arr.max()) > full:
            bad = int(arr.max())
            raise KeyFormatError(
                f"search key {bad:#x} does not fit in {key_bits} bits"
            )
        return arr.reshape(n, 1)
    nbytes = word_count * (KEY_WORD_BITS // 8)
    buf = bytearray(n * nbytes)
    for i, value in enumerate(values):
        value = int(value)
        if not 0 <= value <= full:
            raise KeyFormatError(
                f"search key {value:#x} does not fit in {key_bits} bits"
            )
        buf[i * nbytes : (i + 1) * nbytes] = value.to_bytes(nbytes, "little")
    return np.frombuffer(bytes(buf), dtype="<u8").reshape(n, word_count)


# ----------------------------------------------------------------------
# Encode direction: decoded matrices -> row bit patterns
# ----------------------------------------------------------------------
#
# The decode direction above (rows -> word matrices) serves batch lookups;
# the bulk-build pipeline needs the opposite: turn whole columns of field
# values into MSB-first row bit patterns without per-record big-int
# splicing.  Both codecs below are pure reshapes/bit-unpacks — O(1) NumPy
# calls over the full matrix.


def words_to_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Unpack a little-endian uint64 word matrix into MSB-first bit columns.

    Args:
        words: ``(n, W)`` uint64 matrix (word 0 = low 64 bits), as produced
            by :func:`keys_to_words`.
        bits: field width; only the low ``bits`` of each value are kept.

    Returns:
        ``(n, bits)`` bool matrix, column 0 holding each value's MSB — the
        bit order :func:`~repro.core.record.encode_record` serializes.
    """
    if words.ndim != 2:
        raise ConfigurationError("words must be a (n, W) matrix")
    n, word_count = words.shape
    if bits > word_count * KEY_WORD_BITS:
        raise ConfigurationError(
            f"{bits} bits exceed the {word_count}-word storage"
        )
    # Reverse to big-endian word order, then view each word's bytes MSB
    # first, so unpackbits yields one MSB-first bit row per value.
    big_endian = words[:, ::-1].astype(">u8")
    byte_rows = big_endian.view(np.uint8).reshape(n, word_count * 8)
    bit_rows = np.unpackbits(byte_rows, axis=1)
    return bit_rows[:, word_count * KEY_WORD_BITS - bits :].astype(bool)


def bits_to_words(bit_matrix: np.ndarray, bits: int) -> np.ndarray:
    """Pack MSB-first bit columns into little-endian uint64 word columns.

    The exact inverse of :func:`words_to_bits`: column 0 of ``bit_matrix``
    holds each value's MSB; word 0 of the result holds the low 64 bits.
    Accepts any 0/1-valued dtype.
    """
    if bit_matrix.ndim != 2 or bit_matrix.shape[1] != bits:
        raise ConfigurationError(
            f"bit matrix must be (n, {bits}), got {bit_matrix.shape}"
        )
    word_count = words_for_bits(bits)
    n = bit_matrix.shape[0]
    padded = np.zeros((n, word_count * KEY_WORD_BITS), dtype=np.uint8)
    padded[:, word_count * KEY_WORD_BITS - bits :] = bit_matrix
    byte_rows = np.packbits(padded, axis=1)
    # Bytes are MSB-first per word and words are big-endian ordered here;
    # reverse the word axis back to little-endian storage order.
    words_be = np.ascontiguousarray(byte_rows).view(">u8")
    return words_be[:, ::-1].astype(np.uint64)


def rows_from_bits(bit_matrix: np.ndarray, row_bits: int) -> List[int]:
    """Pack an MSB-first bit matrix into one Python integer per row.

    The inverse of the per-row decode: column ``j`` carries weight
    ``2**(row_bits - 1 - j)``, matching the MSB-first row convention of
    :class:`~repro.memory.array.MemoryArray`.
    """
    if bit_matrix.ndim != 2 or bit_matrix.shape[1] != row_bits:
        raise ConfigurationError(
            f"bit matrix must be (n, {row_bits}), got {bit_matrix.shape}"
        )
    packed = np.packbits(bit_matrix, axis=1)
    pad = (-row_bits) % 8  # packbits zero-fills the low bits of the last byte
    nbytes = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "big") >> pad
        for i in range(bit_matrix.shape[0])
    ]


def _words_to_int(words: Sequence[int]) -> int:
    """Rebuild a Python int from little-endian word values (plain ints)."""
    if len(words) == 1:
        return words[0]
    value = 0
    for word in reversed(words):
        value = (value << KEY_WORD_BITS) | word
    return value


class RecordCache:
    """The mirror's ``(buckets, slots)`` matrix of ``Record`` objects, built
    on first read.

    Indexes like the object matrix it stands for: ``cache[b, s]`` yields one
    ``Record`` (``None`` in an invalid slot), fancy and boolean indexes yield
    object arrays, and ``np.asarray(cache)`` the whole matrix.  A slot's
    ``Record`` is constructed from the mirror's numeric columns (``valid``,
    ``key_words``, ``mask_words``, ``data_words``) the first time a read
    reaches it, then kept until :meth:`invalidate` drops it.  A boolean
    *built* mask records which slots hold their object, so a read never
    compares object elements against ``None`` (which would call the
    dataclass ``__eq__`` once per element).

    Invariant: a slot that is not built holds ``None``.
    """

    def __init__(self, mirror: "DecodedMirror") -> None:
        shape = (mirror.buckets, mirror.slots)
        self._mirror = mirror
        self._objects = np.full(shape, None, dtype=object)
        self._built = np.zeros(shape, dtype=bool)
        self._flat_ids: Optional[np.ndarray] = None

    def __getitem__(self, index):
        built = self._built[index]
        if not built.all():
            if self._flat_ids is None:
                self._flat_ids = np.arange(self._built.size).reshape(
                    self._built.shape
                )
            missing = np.asarray(self._flat_ids[index])[~np.asarray(built)]
            self._build(missing)
        return self._objects[index]

    def __setitem__(self, index, value) -> None:
        self._objects[index] = value
        self._built[index] = True

    def __array__(self, dtype=None, copy=None):
        objects = self[...]  # builds every record not yet built
        if copy or (dtype is not None and np.dtype(dtype) != objects.dtype):
            return objects.astype(dtype or objects.dtype)
        return objects

    def invalidate(self, buckets, columns) -> None:
        """Drop the cached objects of re-decoded slots (built again on the
        next read that reaches them)."""
        self._objects[buckets, columns] = None
        self._built[buckets, columns] = False

    def _build(self, flat_ids: np.ndarray) -> None:
        """Construct and cache the ``Record`` of every listed slot."""
        from repro.core.key import TernaryKey
        from repro.core.record import Record

        mirror = self._mirror
        valid_ids = flat_ids[mirror.valid.reshape(-1)[flat_ids]]
        if valid_ids.size:  # invalid slots already hold None
            word_count = mirror.word_count
            keys = mirror.key_words.reshape(-1, word_count)[valid_ids].tolist()
            masks = mirror.mask_words.reshape(-1, word_count)[valid_ids].tolist()
            data_word_count = mirror.data_word_count
            if data_word_count:
                data_rows = mirror.data_words.reshape(-1, data_word_count)
                datas = [
                    _words_to_int(words)
                    for words in data_rows[valid_ids].tolist()
                ]
            else:
                datas = [0] * len(keys)
            width = mirror.key_bits
            built = np.empty(len(keys), dtype=object)
            for i, (key, mask, data) in enumerate(zip(keys, masks, datas)):
                built[i] = Record(
                    key=TernaryKey(
                        value=_words_to_int(key),
                        mask=_words_to_int(mask),
                        width=width,
                    ),
                    data=data,
                )
            self._objects.reshape(-1)[valid_ids] = built
        # Flag the slots only once their objects are in place: a reader on
        # another thread that sees the flag must also see the object.
        self._built.reshape(-1)[flat_ids] = True


class DecodedMirror:
    """Incrementally-maintained decoded view of CA-RAM array content.

    Args:
        arrays: the physical :class:`~repro.memory.array.MemoryArray` list
            (one for a single slice).  All must share the same geometry.
        layout: the :class:`~repro.core.bucket.BucketLayout` that gives the
            rows their bucket/record structure.
        horizontal: True when the arrays form wider buckets (same row index
            across all arrays); False for vertical row-space concatenation.

    Attributes (all kept in sync by :meth:`sync`):
        valid: ``(buckets, slots)`` bool — slot occupancy.
        key_words: ``(buckets, slots, words)`` uint64 — stored key values.
        mask_words: ``(buckets, slots, words)`` uint64 — stored don't-care
            masks (zero for binary records).
        reach: ``(buckets,)`` int64 — the auxiliary spill-reach field.
        records: ``(buckets, slots)`` :class:`RecordCache` — decoded
            ``Record`` instances (``None`` in invalid slots), used for
            winner extraction; each is built from the numeric columns on
            first read, so a sync never constructs one.
        data_words: ``(buckets, slots, data_word_count)`` uint64 — stored
            data payloads as little-endian words (zero columns when the
            record format carries no data), the numeric source the columnar
            result set gathers values from without touching ``records``.
        version: monotonically increasing content stamp, bumped whenever a
            sync re-decodes rows or a bulk image is installed — the
            coherence token the shared-memory exporter keys its re-export
            on.
    """

    def __init__(
        self,
        arrays: Sequence["MemoryArray"],
        layout: "BucketLayout",
        horizontal: bool = False,
    ) -> None:
        if not arrays:
            raise ConfigurationError("at least one memory array is required")
        rows = arrays[0].rows
        for array in arrays:
            if array.rows != rows or array.row_bits != arrays[0].row_bits:
                raise ConfigurationError(
                    "all mirrored arrays must share the same geometry"
                )
        self._arrays = list(arrays)
        self._layout = layout
        self._horizontal = horizontal
        self._rows = rows
        self._slice_slots = layout.slots_per_bucket
        if horizontal:
            self.buckets = rows
            self.slots = self._slice_slots * len(self._arrays)
        else:
            self.buckets = rows * len(self._arrays)
            self.slots = self._slice_slots
        key_bits = layout.record_format.key_bits
        self._key_bits = key_bits
        self._word_count = words_for_bits(key_bits)
        data_bits = layout.record_format.data_bits
        self._data_word_count = words_for_bits(data_bits) if data_bits else 0
        shape = (self.buckets, self.slots, self._word_count)
        self.valid = np.zeros((self.buckets, self.slots), dtype=bool)
        self.key_words = np.zeros(shape, dtype=np.uint64)
        self.mask_words = np.zeros(shape, dtype=np.uint64)
        self.reach = np.zeros(self.buckets, dtype=np.int64)
        self.data_words = np.zeros(
            (self.buckets, self.slots, self._data_word_count), dtype=np.uint64
        )
        self.records = RecordCache(self)
        self.version = 0
        self.width_words = np.array(
            int_to_words(mask_of(key_bits), self._word_count), dtype=np.uint64
        )
        self._dirty = [np.ones(rows, dtype=bool) for _ in self._arrays]
        self._any_dirty = True
        self.sync_count = 0
        self.rows_decoded = 0
        self._listeners: List[Callable[[int, int], None]] = []
        for slice_id, array in enumerate(self._arrays):
            listener = self._listener_for(slice_id)
            self._listeners.append(listener)
            array.subscribe_invalidation(listener)

    # ------------------------------------------------------------------
    # Invalidation / synchronization
    # ------------------------------------------------------------------

    def _listener_for(self, slice_id: int) -> Callable[[int, int], None]:
        dirty = self._dirty[slice_id]

        def invalidate(start_row: int, row_count: int) -> None:
            dirty[start_row : start_row + row_count] = True
            self._any_dirty = True

        return invalidate

    @property
    def key_bits(self) -> int:
        return self._key_bits

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def data_word_count(self) -> int:
        """Words per stored data payload (0 when records carry no data)."""
        return self._data_word_count

    @property
    def dirty_row_count(self) -> int:
        """Rows waiting to be re-decoded on the next :meth:`sync`."""
        return int(sum(int(d.sum()) for d in self._dirty))

    def sync(self) -> int:
        """Re-decode every dirty row; returns the number of rows decoded."""
        if not self._any_dirty:
            return 0
        from repro.telemetry.profiling import profile

        decoded = 0
        updated: List[np.ndarray] = []
        with profile("mirror.incremental_decode"):
            for slice_id, array in enumerate(self._arrays):
                dirty = self._dirty[slice_id]
                dirty_rows = np.flatnonzero(dirty)
                if not dirty_rows.size:
                    continue
                # With a reliability guard installed the decode source is
                # the ECC-verified read: the mirror never adopts silently
                # corrupt rows.  All dirty rows are read *before* any mirror
                # state is overwritten, so an uncorrectable row raises while
                # the last-good decode is still intact — which is what makes
                # the mirror the recovery source of truth for quarantine.
                guard = array.guard
                row_reader = (
                    array.peek_row if guard is None else guard.verified_peek
                )
                row_values = [row_reader(row) for row in dirty_rows.tolist()]
                if self._horizontal:
                    buckets = dirty_rows
                    slot_base = slice_id * self._slice_slots
                else:
                    buckets = slice_id * self._rows + dirty_rows
                    slot_base = 0
                # The logical bucket's reach lives in its first physical
                # row — slice 0 for horizontal arrangements.
                self._decode_rows(
                    row_values,
                    buckets,
                    slot_base,
                    read_reach=not self._horizontal or slice_id == 0,
                )
                decoded += dirty_rows.size
                dirty[:] = False
                updated.append(buckets)
        self._any_dirty = False
        self.sync_count += 1
        self.rows_decoded += decoded
        if decoded:
            self.version += 1
        if updated:
            self._buckets_updated(
                np.unique(np.concatenate(updated))
                if len(updated) > 1
                else updated[0]
            )
        return decoded

    def _decode_rows(
        self,
        row_values: List[int],
        buckets: np.ndarray,
        slot_base: int,
        read_reach: bool,
    ) -> None:
        """Batched decode of whole physical rows into the mirror matrices.

        One bytes round-trip plus ``unpackbits`` turns the dirty rows into a
        bit matrix; every slot field is then a column slice re-packed through
        :func:`bits_to_words` — the decode direction of the bulk-build
        codecs.  Semantically identical to per-slot ``layout.read_slot``;
        the re-decoded slots' ``Record`` objects are only invalidated, and
        built again from these columns when first read.
        """
        layout = self._layout
        fmt = layout.record_format
        n = len(row_values)
        if not n:
            return
        row_bits = layout.row_bits
        nbytes = (row_bits + 7) // 8
        buf = bytearray(n * nbytes)
        for i, value in enumerate(row_values):
            buf[i * nbytes : (i + 1) * nbytes] = value.to_bytes(nbytes, "big")
        bit_rows = np.unpackbits(
            np.frombuffer(bytes(buf), dtype=np.uint8).reshape(n, nbytes),
            axis=1,
        )[:, nbytes * 8 - row_bits :]

        if read_reach:
            aux_bits = layout.aux_bits
            if not aux_bits:
                self.reach[buckets] = 0
            elif aux_bits <= KEY_WORD_BITS:
                aux_words = bits_to_words(bit_rows[:, :aux_bits], aux_bits)
                self.reach[buckets] = aux_words[:, 0].astype(np.int64)
            else:
                self.reach[buckets] = [
                    layout.read_aux(value) for value in row_values
                ]

        slots = self._slice_slots
        slot_bits = fmt.slot_bits
        key_bits = fmt.key_bits
        word_count = self._word_count
        region = bit_rows[
            :, layout.aux_bits : layout.aux_bits + slots * slot_bits
        ].reshape(n, slots, slot_bits)
        valid = region[:, :, 0].astype(bool)
        key_cols = region[:, :, 1 : 1 + key_bits]
        if fmt.ternary:
            mask_cols = region[:, :, 1 + key_bits : 1 + 2 * key_bits]
            # TernaryKey normalizes the value under don't-care positions;
            # mirror the normalization so key_words matches record.key.value.
            key_cols = key_cols & (1 - mask_cols)
            mask_matrix = bits_to_words(
                mask_cols.reshape(n * slots, key_bits), key_bits
            ).reshape(n, slots, word_count)
            mask_matrix[~valid] = 0
        else:
            mask_matrix = np.zeros((n, slots, word_count), dtype=np.uint64)
        key_matrix = bits_to_words(
            key_cols.reshape(n * slots, key_bits), key_bits
        ).reshape(n, slots, word_count)
        key_matrix[~valid] = 0

        columns = slice(slot_base, slot_base + slots)
        self.valid[buckets, columns] = valid
        self.key_words[buckets, columns] = key_matrix
        self.mask_words[buckets, columns] = mask_matrix

        data_bits = fmt.data_bits
        if data_bits:
            data_start = 1 + fmt.key_storage_bits
            data_matrix = bits_to_words(
                region[:, :, data_start : data_start + data_bits].reshape(
                    n * slots, data_bits
                ),
                data_bits,
            ).reshape(n, slots, -1)
            data_matrix[~valid] = 0
            self.data_words[buckets, columns] = data_matrix

        self.records.invalidate(buckets, columns)

    def _buckets_updated(self, bucket_ids: np.ndarray) -> None:
        """Hook: the listed logical buckets were just re-decoded.

        The base mirror has nothing derived to maintain; subclasses (the
        bit-plane transpose) refresh their layouts from the fresh matrices.
        """

    def detach(self) -> None:
        """Unsubscribe from the arrays' invalidation streams (called when a
        slice/group swaps its mirror layout for another engine)."""
        for array, listener in zip(self._arrays, self._listeners):
            array.unsubscribe_invalidation(listener)
        self._listeners = []

    def install(
        self,
        valid: np.ndarray,
        key_words: np.ndarray,
        mask_words: np.ndarray,
        reach: np.ndarray,
        records: np.ndarray,
        data_words: Optional[np.ndarray] = None,
    ) -> None:
        """Adopt a complete decoded image wholesale (encode direction).

        The bulk-build pipeline already holds the decoded view it is about
        to serialize into the arrays; installing it here skips the O(rows x
        slots) big-int re-decode the invalidation listeners would otherwise
        schedule.  All dirty flags are cleared — the caller vouches that the
        image matches the array content it just loaded.  The ``records``
        objects are handed to the cache as built, so a bulk-loaded table
        never constructs them twice.
        """
        records = np.asarray(records, dtype=object)
        expected = (self.buckets, self.slots)
        if valid.shape != expected or records.shape != expected:
            raise ConfigurationError(
                f"decoded image shape {valid.shape} != {expected}"
            )
        if key_words.shape != self.key_words.shape:
            raise ConfigurationError(
                f"key-word shape {key_words.shape} != {self.key_words.shape}"
            )
        if mask_words.shape != self.mask_words.shape:
            raise ConfigurationError(
                f"mask-word shape {mask_words.shape} != {self.mask_words.shape}"
            )
        if reach.shape != (self.buckets,):
            raise ConfigurationError(
                f"reach shape {reach.shape} != ({self.buckets},)"
            )
        self.valid[...] = valid
        self.key_words[...] = key_words
        self.mask_words[...] = mask_words
        self.reach[...] = reach
        self.records[...] = records
        if self._data_word_count:
            if data_words is not None:
                if data_words.shape != self.data_words.shape:
                    raise ConfigurationError(
                        f"data-word shape {data_words.shape} != "
                        f"{self.data_words.shape}"
                    )
                self.data_words[...] = data_words
            else:
                # Legacy images carry no data grid — derive it from the
                # record objects so the columnar gather stays coherent.
                self.data_words[...] = 0
                dwc = self._data_word_count
                for i, j in np.argwhere(self.valid):
                    self.data_words[i, j] = int_to_words(
                        self.records[i, j].data, dwc
                    )
        for dirty in self._dirty:
            dirty[:] = False
        self._any_dirty = False
        self.sync_count += 1
        self.version += 1
        self._buckets_updated(np.arange(self.buckets))

    def shared_export_arrays(self) -> dict:
        """Arrays a shared-memory export must copy for worker-side matching.

        The word-layout match kernel reads exactly these matrices (plus the
        scalar geometry shipped in the export spec); ``records`` and
        ``data_words`` stay parent-side because workers return only
        hit/row/slot coordinates.
        """
        return {
            "valid": self.valid,
            "key_words": self.key_words,
            "mask_words": self.mask_words,
            "reach": self.reach,
        }

    # ------------------------------------------------------------------
    # Vectorized ternary matching (Figure 4(b), word-wise)
    # ------------------------------------------------------------------

    def match_rows(
        self,
        bucket_ids: np.ndarray,
        query_words: np.ndarray,
        query_mask_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Match a batch of queries against their (gathered) home buckets.

        Args:
            bucket_ids: ``(B,)`` bucket index per query.
            query_words: ``(B, words)`` packed search keys.
            query_mask_words: ``(B, words)`` packed search-key don't-care
                masks, or None for all-binary searches.

        Returns:
            ``(B, slots)`` bool match matrix, slot 0 first.

        Raises:
            ConfigurationError: on out-of-range bucket ids (negative ids
                would otherwise wrap around silently) or a query matrix
                whose word width does not match the stored keys.
        """
        ids = np.asarray(bucket_ids)
        if ids.size and (
            int(ids.min()) < 0 or int(ids.max()) >= self.buckets
        ):
            raise ConfigurationError(
                f"bucket ids out of range [0, {self.buckets})"
            )
        if query_words.ndim != 2 or query_words.shape[1] != self._word_count:
            raise ConfigurationError(
                f"query matrix must be (B, {self._word_count}), "
                f"got {query_words.shape}"
            )
        stored = self.key_words[bucket_ids]
        stored_mask = self.mask_words[bucket_ids]
        if query_mask_words is None:
            care = ~stored_mask & self.width_words
        else:
            care = ~(stored_mask | query_mask_words[:, None, :]) & self.width_words
        diff = (stored ^ query_words[:, None, :]) & care
        return ~diff.any(axis=2) & self.valid[bucket_ids]

    def match_all(
        self, query_words: np.ndarray, query_mask_words: np.ndarray
    ) -> np.ndarray:
        """Match one ternary predicate against every bucket.

        Args:
            query_words / query_mask_words: ``(words,)`` packed predicate.

        Returns:
            ``(buckets, slots)`` bool match matrix.
        """
        care = ~(self.mask_words | query_mask_words) & self.width_words
        diff = (self.key_words ^ query_words) & care
        return ~diff.any(axis=2) & self.valid

    def match_predicate(self, search_key: int, search_mask: int) -> np.ndarray:
        """Integer-predicate convenience wrapper around :meth:`match_all`."""
        full = mask_of(self._key_bits)
        query = np.array(
            int_to_words(search_key & full, self._word_count), dtype=np.uint64
        )
        query_mask = np.array(
            int_to_words(search_mask & full, self._word_count), dtype=np.uint64
        )
        return self.match_all(query, query_mask)

    def iter_valid(self):
        """Yield ``(bucket, slot, record)`` for every valid slot, row-major
        (bucket ascending, slot ascending — the scalar iteration order)."""
        valid = self.valid
        records = self.records[valid].tolist()
        for (bucket, slot), record in zip(np.argwhere(valid).tolist(), records):
            yield bucket, slot, record


__all__ = [
    "DecodedMirror",
    "RecordCache",
    "KEY_WORD_BITS",
    "words_for_bits",
    "int_to_words",
    "keys_to_words",
    "words_to_bits",
    "bits_to_words",
    "rows_from_bits",
]
