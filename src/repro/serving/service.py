"""Asyncio front end: request coalescing, admission control, failover, drain.

The fast path of this repo is a vectorized batch kernel that answers
hundreds of keys per call; live traffic arrives one key at a time.
:class:`ShardedService` closes that gap: concurrent single-key
``await service.lookup(key)`` calls are routed to their owning shard
(:class:`~repro.serving.router.ShardRouter`), queued, and **coalesced**
into batches that feed
:meth:`~repro.core.subsystem.CARAMSubsystem.search_batch_columnar` —
scattering the columnar results back to the waiting futures bit-identically
with a direct batch call over the same keys.

Coalescing policy (per shard, classic batch-window):

* a batch flushes when ``max_batch_size`` requests are pending
  (**flush-on-size**), or
* ``max_delay`` seconds after its oldest request arrived
  (**flush-on-deadline**) — ``max_delay=0`` degrades gracefully to
  "flush whatever is queued each time the lane frees up", which still
  coalesces under backlog.

Admission control and backpressure:

* a key that does not fit the shard's key width is rejected with
  :class:`~repro.errors.KeyFormatError` before it is queued, so it fails
  only its own caller — never its batch, never a replica;
* each shard lane holds at most ``max_pending`` queued requests; a
  request arriving at a full lane is **shed** with a typed
  :class:`~repro.errors.ServiceOverloadError` (stable CLI exit code 12) —
  every request is either answered or fails loudly, never dropped;
* :meth:`drain` stops admission, flushes every queued request, and waits
  for the lanes to empty — graceful shutdown answers everything already
  admitted; :meth:`aclose` additionally closes every shard's batch
  engine, so drained shards never leak forked worker pools.

Failover: every flushed batch resolves through one loop over the shard's
:class:`~repro.serving.replication.ReplicaSet` under its
:class:`~repro.serving.replication.FailoverPolicy` — per-sub-batch
deadline, per-attempt timeout, retry with jittered backoff onto an
untried replica (the same one again at R=1), optional hedging, and a
typed :class:`~repro.errors.ShardUnavailableError` (exit code 13,
chained to the last replica error) when the budget runs out.  At R=1
with a healthy shard the loop is one call.  ``FaultTolerantService`` is
an alias of this class.

Batch execution runs on a thread-pool executor by default (NumPy kernels
release the GIL for the heavy ops), keeping the event loop free to accept
and coalesce the next window while a shard computes; per-replica locks
serialize batches into one engine, so a shard's engine is never
re-entered.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional

from repro.errors import CaRamError, ConfigurationError, ServiceOverloadError
from repro.core.index import KeyInput
from repro.core.slice import SearchResult
from repro.serving.cluster import CaramCluster
from repro.serving.replication import CALLER_ERRORS, Replica, ReplicaSet

__all__ = ["ShardedService", "FaultTolerantService", "CoalescerStats"]

#: Default coalescing window (seconds) — long enough to gather a batch at
#: serving rates, short enough to stay invisible next to network RTTs.
DEFAULT_MAX_DELAY = 0.002
DEFAULT_MAX_BATCH_SIZE = 512
DEFAULT_MAX_PENDING = 8192


class CoalescerStats:
    """Live counters of the coalescing front end (one per service)."""

    __slots__ = (
        "requests",
        "completed",
        "shed",
        "batches",
        "coalesced_keys",
        "max_batch_observed",
        "max_queue_depth",
        "drains",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.shed = 0
        self.batches = 0
        self.coalesced_keys = 0
        self.max_batch_observed = 0
        self.max_queue_depth = 0
        self.drains = 0

    @property
    def coalescing_factor(self) -> float:
        """Mean keys per flushed batch — the single number that says how
        much single-request traffic the front end turned into batch work."""
        return self.coalesced_keys / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "batches": self.batches,
            "coalesced_keys": self.coalesced_keys,
            "coalescing_factor": self.coalescing_factor,
            "max_batch_observed": self.max_batch_observed,
            "max_queue_depth": self.max_queue_depth,
            "drains": self.drains,
        }


class _Request:
    __slots__ = ("key", "mask", "future")

    def __init__(self, key, mask, future) -> None:
        self.key = key
        self.mask = mask
        self.future = future


class _Lane:
    """One shard's bounded queue + wakeup event + worker task."""

    __slots__ = (
        "replica_set",
        "check_key",
        "pending",
        "event",
        "task",
        "busy",
        "oldest_at",
    )

    def __init__(self, replica_set: ReplicaSet) -> None:
        self.replica_set = replica_set
        # Every replica of a set shares one record format.
        self.check_key = replica_set.replicas[0].shard.group.check_search_key
        self.pending: List[_Request] = []
        self.event: Optional[asyncio.Event] = None
        self.task: Optional[asyncio.Task] = None
        self.busy = False
        self.oldest_at = 0.0


class ShardedService:
    """The asyncio serving tier over a :class:`CaramCluster` of any
    replication factor.

    Args:
        cluster: the replica sets and router to serve.
        max_batch_size: flush a lane as soon as this many requests are
            queued (1 disables coalescing — the honest one-request-at-a-
            time baseline the serving benchmark compares against).
        max_delay: seconds a request may wait for co-batched company.
        max_pending: per-shard admission bound; beyond it requests shed.
        offload: run batch kernels on the loop's thread-pool executor
            (default) instead of inline on the event loop.  Deadlines,
            per-attempt timeouts and hedges can only preempt offloaded
            calls: an inline call holds the event loop, and its timers
            with it, until it returns.

    Use as an async context manager, or call :meth:`aclose` explicitly —
    a garbage-collected service cancels its lane tasks but cannot await
    them, so explicit shutdown is the clean path.
    """

    def __init__(
        self,
        cluster: CaramCluster,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_delay: float = DEFAULT_MAX_DELAY,
        max_pending: int = DEFAULT_MAX_PENDING,
        offload: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1: {max_batch_size}"
            )
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be >= 0: {max_delay}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1: {max_pending}"
            )
        self.cluster = cluster
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.offload = offload
        self.stats = CoalescerStats()
        self._lanes = [_Lane(rset) for rset in cluster.replica_sets]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._accepting = True
        self._closed = False
        self._close_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def lookup(
        self, key: KeyInput, search_mask: int = 0
    ) -> SearchResult:
        """One key in, one :class:`SearchResult` out — batched under the
        hood with every other concurrent caller of the same shard.

        Raises:
            KeyFormatError: ``key`` or ``search_mask`` does not fit the
                shard's key width (checked before queueing, so it fails
                this caller alone).
            ServiceOverloadError: the owning shard's queue is full, or
                the service is draining/closed.
            ShardUnavailableError: no replica of the owning shard
                answered within the failover policy.
        """
        if not self._accepting:
            raise ServiceOverloadError(
                "service is draining; request rejected"
            )
        shard_id = self.cluster.router.shard_for_query(key)
        lane = self._lanes[shard_id]
        lane.check_key(key, search_mask)
        loop = self._ensure_started()
        if lane.task is not None and lane.task.done():
            raise ServiceOverloadError(
                f"shard {shard_id} lane worker is not running; "
                "request rejected",
                shard_id=shard_id,
            )
        self.stats.requests += 1
        if len(lane.pending) >= self.max_pending:
            self.stats.shed += 1
            raise ServiceOverloadError(
                f"shard {shard_id} queue full "
                f"({self.max_pending} pending); request shed",
                shard_id=shard_id,
            )
        future: asyncio.Future = loop.create_future()
        if not lane.pending:
            lane.oldest_at = loop.time()
        lane.pending.append(_Request(key, search_mask, future))
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(lane.pending)
        )
        assert lane.event is not None
        lane.event.set()
        result = await future
        self.stats.completed += 1
        return result

    async def lookup_value(
        self, key: KeyInput, search_mask: int = 0
    ) -> Optional[int]:
        """Convenience: the matched record's data, or None."""
        return (await self.lookup(key, search_mask)).data

    # ------------------------------------------------------------------
    # Lane workers
    # ------------------------------------------------------------------

    def _ensure_started(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            for lane in self._lanes:
                lane.event = asyncio.Event()
                lane.task = loop.create_task(self._run_lane(lane))
        elif self._loop is not loop:
            raise ConfigurationError(
                "ShardedService is bound to the event loop of its first "
                "request; create one service per loop"
            )
        return loop

    async def _run_lane(self, lane: _Lane) -> None:
        loop = self._loop
        assert loop is not None and lane.event is not None
        try:
            while True:
                while not lane.pending:
                    if self._closed:
                        return
                    lane.event.clear()
                    await lane.event.wait()
                # Coalescing window: hold the batch open until it fills
                # or its oldest request's deadline passes.  A drain
                # flushes immediately.
                while (
                    len(lane.pending) < self.max_batch_size
                    and self._accepting
                    and not self._closed
                ):
                    remaining = (
                        lane.oldest_at + self.max_delay - loop.time()
                    )
                    if remaining <= 0:
                        break
                    lane.event.clear()
                    try:
                        await asyncio.wait_for(
                            lane.event.wait(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                batch = lane.pending[: self.max_batch_size]
                del lane.pending[: len(batch)]
                # Requests still queued (or arriving mid-execute) inherit
                # the already-expired window, so a backlog flushes
                # back-to-back instead of re-arming a delay it has
                # already paid.
                lane.busy = True
                try:
                    await self._execute(lane, batch)
                finally:
                    lane.busy = False
        finally:
            # The worker is leaving (close, cancellation, or a bug that
            # escaped _execute): whatever is still queued must resolve to
            # a typed error, never hang on a future nobody will answer.
            self._fail_pending(
                lane,
                ServiceOverloadError(
                    f"shard {lane.replica_set.shard_id} lane worker "
                    "exited with requests queued",
                    shard_id=lane.replica_set.shard_id,
                ),
            )

    def _fail_pending(self, lane: _Lane, error: Exception) -> None:
        pending, lane.pending = lane.pending, []
        for request in pending:
            if not request.future.done():
                request.future.set_exception(error)

    async def _execute(self, lane: _Lane, batch: List[_Request]) -> None:
        """Resolve one flushed batch against the lane's shard.

        Requests sharing a search mask resolve in one columnar call; the
        (rare) mixed-mask batch splits by mask, preserving order within
        each sub-batch, so results stay identical to per-key calls.
        """
        self.stats.batches += 1
        self.stats.coalesced_keys += len(batch)
        self.stats.max_batch_observed = max(
            self.stats.max_batch_observed, len(batch)
        )
        for mask, group in itertools.groupby(batch, key=lambda r: r.mask):
            requests = list(group)
            keys = [request.key for request in requests]
            try:
                results = await self._resolve(lane, keys, mask)
            except Exception as error:  # noqa: BLE001 - fan the failure out
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(error)
                continue
            for request, result in zip(requests, results):
                if not request.future.done():
                    request.future.set_result(result)

    async def _resolve(
        self, lane: _Lane, keys: List[KeyInput], mask: int
    ) -> List[SearchResult]:
        """Answer one same-mask sub-batch through the failover loop.

        Pick a replica, call it (hedged if the policy says so) within
        the per-attempt timeout and the sub-batch deadline, and on a
        replica error or timeout back off and retry onto an untried
        replica — or the same one again when every live replica has been
        tried, as at R=1.  When the attempts or the deadline run out the
        callers get a typed :class:`ShardUnavailableError` chained to the
        last replica error.
        """
        rset = lane.replica_set
        policy = rset.policy
        loop = self._loop
        deadline_at = (
            None
            if policy.deadline is None
            else loop.time() + policy.deadline
        )
        tried: List[Replica] = []
        last_error: Optional[CaRamError] = None
        timed_out = False
        for attempt in range(policy.max_attempts):
            if attempt:
                rset.stats.retries += 1
                rset._emit(
                    "replica.retry", attempt=attempt, keys=len(keys)
                )
                delay = policy.backoff_delay(attempt, rset._rng)
                if deadline_at is not None:
                    delay = min(
                        delay, max(0.0, deadline_at - loop.time())
                    )
                if delay > 0:
                    await asyncio.sleep(delay)
            primary = rset.pick(exclude=tried)
            if primary is None:
                break  # nothing left to pick from
            tried.append(primary)
            try:
                return await self._attempt(
                    rset, primary, keys, mask, tried, deadline_at
                )
            except asyncio.TimeoutError:
                timed_out = True
                last_error = None
                if (
                    deadline_at is not None
                    and loop.time() >= deadline_at
                ):
                    break  # total budget gone; retrying cannot help
            except CALLER_ERRORS:
                raise
            except CaRamError as error:
                last_error = error
        detail = "deadline exceeded" if timed_out else "all failed"
        raise rset.exhausted(tried, detail) from last_error

    async def _attempt(
        self,
        rset: ReplicaSet,
        primary: Replica,
        keys: List[KeyInput],
        mask: int,
        tried: List[Replica],
        deadline_at: Optional[float],
    ) -> List[SearchResult]:
        """One primary call, optionally hedged; first success wins.

        Records per-replica success/failure internally and appends every
        hedge replica it consumed to ``tried`` so the outer retry loop
        never re-picks a replica that already failed this sub-batch.
        A call that has already returned is taken even past a cutoff.
        """
        loop = self._loop
        policy = rset.policy
        cutoffs = [] if deadline_at is None else [deadline_at]
        if policy.attempt_timeout is not None:
            cutoffs.append(loop.time() + policy.attempt_timeout)
        calls: Dict[asyncio.Future, Replica] = {
            self._spawn(primary, keys, mask): primary
        }
        hedge_armed = policy.hedge_delay is not None
        last_error: Optional[CaRamError] = None
        while calls:
            remaining = (
                max(0.0, min(cutoffs) - loop.time()) if cutoffs else None
            )
            wait_timeout = remaining
            if hedge_armed:
                wait_timeout = (
                    policy.hedge_delay
                    if remaining is None
                    else min(policy.hedge_delay, remaining)
                )
            done, _ = await asyncio.wait(
                set(calls),
                timeout=wait_timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                if remaining is not None and wait_timeout >= remaining:
                    self._abandon(rset, calls, timed_out=True)
                    raise asyncio.TimeoutError
                hedge_armed = False
                hedge = rset.pick(exclude=tried, retry_tried=False)
                if hedge is not None:
                    tried.append(hedge)
                    rset.stats.hedges += 1
                    rset._emit(
                        "replica.hedge",
                        replica_id=hedge.replica_id,
                        keys=len(keys),
                    )
                    calls[self._spawn(hedge, keys, mask)] = hedge
                continue
            for future in done:
                replica = calls.pop(future)
                try:
                    results = future.result()
                except CALLER_ERRORS:
                    self._abandon(rset, calls, timed_out=False)
                    raise
                except CaRamError as error:
                    rset.record_failure(replica, "error")
                    last_error = error
                    continue
                rset.record_success(replica)
                if replica is not primary:
                    rset.stats.hedge_wins += 1
                    rset._emit(
                        "replica.hedge_won",
                        replica_id=replica.replica_id,
                    )
                self._abandon(rset, calls, timed_out=False)
                return results
        if last_error is not None:
            raise last_error
        raise asyncio.TimeoutError  # pragma: no cover - defensive

    def _spawn(
        self, replica: Replica, keys: List[KeyInput], mask: int
    ) -> asyncio.Future:
        """Start one replica call: on the executor when offloading,
        otherwise run it inline and hand back its settled future."""
        if self.offload:
            return self._loop.run_in_executor(
                None, replica.call, keys, mask
            )
        future = self._loop.create_future()
        try:
            future.set_result(replica.call(keys, mask))
        except Exception as error:  # noqa: BLE001 - settled like a call
            future.set_exception(error)
        return future

    def _abandon(
        self,
        rset: ReplicaSet,
        calls: Dict[asyncio.Future, Replica],
        timed_out: bool,
    ) -> None:
        """Walk away from still-inflight calls.

        The executor threads may keep running (a hang cannot be
        preempted), but their results are dropped: cancelling the
        asyncio wrapper makes a late set_result/exception a no-op, so
        nothing leaks and nothing warns.
        """
        for future, replica in calls.items():
            if timed_out:
                rset.record_failure(replica, "timeout")
            future.cancel()
        calls.clear()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admission, flush and answer everything already queued.

        After a drain the service rejects new requests (every
        :meth:`lookup` raises :class:`ServiceOverloadError`); the shards
        themselves stay open until :meth:`aclose`.
        """
        self._accepting = False
        self.stats.drains += 1
        for lane in self._lanes:
            if lane.event is not None:
                lane.event.set()
        while any(lane.pending or lane.busy for lane in self._lanes):
            await asyncio.sleep(0)

    async def aclose(self) -> None:
        """Drain, stop the lane workers, and close every shard.

        Idempotent and safe to call concurrently — every caller (and
        every concurrent call racing the first) awaits the same close
        task, the teardown body runs exactly once, and any request still
        in flight resolves to its answer or a typed
        :class:`ServiceOverloadError`; nothing hangs.
        """
        if self._closed and self._close_task is None:
            return
        if self._close_task is None:
            loop = asyncio.get_running_loop()
            self._close_task = loop.create_task(self._aclose_once())
        await asyncio.shield(self._close_task)

    async def _aclose_once(self) -> None:
        await self.drain()
        self._closed = True
        for lane in self._lanes:
            if lane.event is not None:
                lane.event.set()
        for lane in self._lanes:
            if lane.task is not None:
                task = lane.task
                lane.task = None
                try:
                    await task
                except asyncio.CancelledError:
                    # A lane killed from outside still closes cleanly;
                    # cancellation of the close itself propagates.
                    if not task.cancelled():
                        raise
            # Belt and braces: a lane whose worker never started (the
            # service saw no traffic) can still hold nothing, but a
            # worker that died early leaves its queue to the cleanup in
            # _run_lane; anything remaining here fails typed.
            self._fail_pending(
                lane,
                ServiceOverloadError(
                    "service closed; request rejected",
                    shard_id=lane.replica_set.shard_id,
                ),
            )
        self.cluster.close()

    async def __aenter__(self) -> "ShardedService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def register_telemetry(
        self, registry, prefix: str = "serving"
    ) -> None:
        """Mount the cluster (shards + rollup aggregate) and the
        coalescer counters under ``{prefix}.*``."""
        self.cluster.register_telemetry(registry, prefix=prefix)
        registry.register_provider(
            f"{prefix}.coalescer", self.stats.as_dict
        )


#: The replicated-era name of the one service class.
FaultTolerantService = ShardedService
