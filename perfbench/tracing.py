"""In-memory spans recorded around calls into the library's public API.

The library is not instrumented; instead the traced run hands it
delegating stand-ins that time each call and forward it unchanged:

* :class:`TracedRouter` — passed to the cluster constructor, times
  ``shard_for_query``;
* :class:`TracedShard` — replaces a shard (or a replica's shard), times
  ``search_batch_columnar`` and ``bulk_load``;
* :class:`TracedGroup` — wraps a ``SliceGroup`` for the application
  helpers, times ``search_batch_columnar``, ``insert`` and ``delete`` (the
  application workloads record their builder call, bulk load included,
  as their ``bulk_load`` span);
* :class:`TracedResultSet` — wraps a ``BatchResultSet``, times
  ``results`` and ``data_values``;
* :class:`TracedService` — times ``ShardedService.lookup``;
* :func:`patched` — swaps a public attribute (``StringKeyCodec.
  encode_batch``) for a timing wrapper for the duration of a block.

Each span is one tuple ``(span_id, name, start, end, parent, ref, size,
ok)``: ``parent`` is the id of the span that caused it (or ``None``),
``ref`` a request, batch or shard id, ``size`` the keys the call handled,
and ``ok`` whether the call returned (``False``: it raised).  Spans
are appended to a list (atomic under the interpreter lock, so executor
threads may record too) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import gzip
import itertools
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int, bool]

#: The span whose work is running in this context (a request or burst).
current_parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_current_parent", default=None
)

_clock = time.perf_counter


class SpanRecorder:
    """The in-memory span store of one traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Keys of request spans (one key) and shard-call spans (a list).
        self.keys: Dict[int, object] = {}
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        ref: Optional[int] = None,
        size: int = 0,
        span_id: Optional[int] = None,
        ok: bool = True,
    ) -> int:
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, ref, size, ok))
        return span_id

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[1] == name]

    def busy(self, name: str) -> float:
        return sum(span[3] - span[2] for span in self.spans if span[1] == name)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        keys = ("id", "name", "start", "end", "parent", "ref", "size", "ok")
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")


class _Delegate:
    """Forward every attribute not overridden to the wrapped object."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedResultSet(_Delegate):
    """A ``BatchResultSet`` whose materialisers are timed.

    ``parent`` links the materialisation to the shard call that produced
    the set (serving path); on the application path the caller's burst
    span is read from :data:`current_parent` instead.
    """

    def __init__(self, inner, recorder, parent: Optional[int], ref) -> None:
        super().__init__(inner, recorder)
        self._parent = parent
        self._ref = ref

    def __len__(self) -> int:
        return len(self._inner)

    def _timed(self, name: str, method):
        parent = self._parent
        if parent is None:
            parent = current_parent.get()
        started = _clock()
        out = method()
        self._recorder.add(
            name, started, _clock(), parent, self._ref, len(self._inner)
        )
        return out

    def results(self):
        return self._timed("results.results", self._inner.results)

    def data_values(self):
        return self._timed("results.data_values", self._inner.data_values)


class TracedShard(_Delegate):
    """A serving shard whose batch lookups and bulk loads are timed."""

    def search_batch_columnar(self, keys: Sequence, search_mask: int = 0):
        recorder = self._recorder
        span_id = recorder.next_id()
        recorder.keys[span_id] = keys
        started = _clock()
        ok = False
        try:
            result_set = self._inner.search_batch_columnar(keys, search_mask)
            ok = True
        finally:
            recorder.add(
                "shard.search_batch_columnar",
                started,
                _clock(),
                None,
                self._inner.shard_id,
                len(keys),
                span_id=span_id,
                ok=ok,
            )
        return TracedResultSet(
            result_set, recorder, span_id, self._inner.shard_id
        )

    def bulk_load(self, records) -> int:
        records = list(records)
        started = _clock()
        stored = self._inner.bulk_load(records)
        self._recorder.add(
            "bulk_load", started, _clock(), None, self._inner.shard_id,
            len(records),
        )
        return stored


class TracedGroup(_Delegate):
    """A ``SliceGroup`` as the application helpers and writers see it."""

    def search_batch_columnar(self, keys: Sequence, search_mask: int = 0):
        parent = current_parent.get()
        started = _clock()
        result_set = self._inner.search_batch_columnar(keys, search_mask)
        self._recorder.add(
            "group.search_batch_columnar", started, _clock(), parent,
            None, len(keys),
        )
        return TracedResultSet(result_set, self._recorder, None, None)

    def _write(self, name: str, call, *args):
        started = _clock()
        out = call(*args)
        self._recorder.add(name, started, _clock(), current_parent.get())
        return out

    def insert(self, key, data: int = 0):
        return self._write("group.insert", self._inner.insert, key, data)

    def delete(self, key):
        return self._write("group.delete", self._inner.delete, key)


class TracedRouter(_Delegate):
    """A delegating ``ShardRouter``: times query routing.

    ``ref`` of a ``router.shard_for_query`` span is the shard it chose,
    which lets the ledger rebuild each shard's FIFO request order.
    """

    def shard_for_query(self, key) -> int:
        started = _clock()
        shard = self._inner.shard_for_query(key)
        self._recorder.add(
            "router.shard_for_query", started, _clock(),
            current_parent.get(), shard, 1,
        )
        return shard


class TracedService:
    """Times ``ShardedService.lookup`` as the root span of a request."""

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self.service = service
        self._recorder = recorder

    async def lookup(self, key):
        recorder = self._recorder
        span_id = recorder.next_id()
        recorder.keys[span_id] = key
        token = current_parent.set(span_id)
        started = _clock()
        ok = False
        try:
            result = await self.service.lookup(key)
            ok = True
            return result
        finally:
            recorder.add(
                "service.lookup", started, _clock(), None, None, 1,
                span_id=span_id, ok=ok,
            )
            current_parent.reset(token)


@contextlib.contextmanager
def burst(recorder: Optional[SpanRecorder], name: str, size: int) -> Iterator[None]:
    """Root span of one application burst call (no-op untraced)."""
    if recorder is None:
        yield
        return
    span_id = recorder.next_id()
    token = current_parent.set(span_id)
    started = _clock()
    try:
        yield
    finally:
        recorder.add(name, started, _clock(), None, None, size, span_id=span_id)
        current_parent.reset(token)


@contextlib.contextmanager
def patched(owner, attribute: str, recorder: SpanRecorder, name: str):
    """Time every call of ``owner.attribute`` inside the block.

    The original attribute is restored on exit, so nothing outlives the
    traced phase.
    """
    original = owner.__dict__[attribute]
    function = original.__func__ if isinstance(original, staticmethod) else None
    if function is None:
        raise TypeError(f"{owner.__name__}.{attribute} is not a staticmethod")

    def timed(*args, **kwargs):
        started = _clock()
        out = function(*args, **kwargs)
        size = len(args[0]) if args else 0
        recorder.add(name, started, _clock(), current_parent.get(), None, size)
        return out

    setattr(owner, attribute, staticmethod(timed))
    try:
        yield
    finally:
        setattr(owner, attribute, original)
