"""Replica sets, failover, and chaos: the replica layer of the serving tier.

Every logical shard of a :class:`~repro.serving.cluster.CaramCluster` is a
**replica set** of R bit-identical copies (same deterministic build, same
records, same router ring); R=1 is the plain unreplicated deployment.
This module holds the replica layer both the cluster and the service
build on:

* :class:`ShardChaos` — a deterministic, seedable per-replica fault
  layer: **crash** (every call raises), **hang** (calls sleep a
  configured latency), **error** (calls raise transiently at a
  configured rate), each active over a call-index window so schedules
  replay exactly.  The **corrupt** mode routes through the reliability
  layer's :class:`~repro.reliability.faults.FaultInjector` instead, so
  ECC correction, quarantine, and the victim store all still fire under
  replica-level chaos.
* :class:`FailoverPolicy` — the knobs of the request path's failover
  loop (:meth:`~repro.serving.service.ShardedService._resolve`):
  per-sub-batch deadline, per-attempt timeout, retry with jittered
  exponential backoff, optional hedged second reads, and the breaker
  thresholds.  When the loop runs out the caller gets a typed
  :class:`~repro.errors.ShardUnavailableError` (stable exit code 13)
  chained to the last replica error — admitted requests always resolve,
  never hang.
* :class:`ReplicaSet` — read balancing (round-robin or least-inflight)
  plus a circuit breaker: consecutive failures **evict** a replica,
  evicted replicas re-enter on **probation** after a cooldown, probation
  replicas serve trickle probes and are **re-admitted** after enough
  successes (one probation failure re-evicts).  The breaker never evicts
  a set's last live replica, so at R=1 a failing shard is retried rather
  than shut off.  Health verdicts from :mod:`repro.telemetry.health`
  feed the same loop via :meth:`ReplicaSet.apply_health_report`.

``ReplicatedCluster`` and ``FaultTolerantService`` are kept as aliases
of :class:`~repro.serving.cluster.CaramCluster` and
:class:`~repro.serving.service.ShardedService`: one cluster and one
service serve every replication factor.

Everything here is deterministic where determinism is possible: replica
builds are bit-identical, chaos schedules key off call indices, backoff
jitter draws from a seeded generator, and the breaker clock is
injectable for tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import (
    CaRamError,
    ConfigurationError,
    KeyFormatError,
    ReliabilityError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.core.index import KeyInput
from repro.core.slice import SearchResult
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import CaramShard
    from repro.telemetry.health import HealthReport
    from repro.telemetry.trace import Tracer

T = TypeVar("T")

#: Errors that are the caller's, not the replica's: they propagate
#: unchanged and never count against a replica.
CALLER_ERRORS = (ServiceOverloadError, KeyFormatError)

__all__ = [
    "CRASH",
    "HANG",
    "ERROR",
    "CORRUPT",
    "ACTIVE",
    "EVICTED",
    "PROBATION",
    "ChaosSpec",
    "ShardChaos",
    "FailoverPolicy",
    "Replica",
    "ReplicaSet",
    "ReplicatedCluster",
    "FaultTolerantService",
]

# Chaos modes.
CRASH, HANG, ERROR, CORRUPT = "crash", "hang", "error", "corrupt"
_CHAOS_MODES = (CRASH, HANG, ERROR, CORRUPT)

# Circuit-breaker membership states.
ACTIVE, EVICTED, PROBATION = "active", "evicted", "probation"


# ----------------------------------------------------------------------
# Chaos layer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """One replica's deterministic fault schedule.

    The schedule keys off the replica's **call index** (0-based count of
    batch calls it has served), so a given spec against a given request
    stream replays exactly.

    Args:
        mode: ``crash`` | ``hang`` | ``error`` | ``corrupt``.
        at_call: first call index at which the fault is active.
        duration_calls: how many calls the fault stays active
            (``None`` = permanent, the default — a crashed process does
            not come back on its own).
        hang_seconds: per-call latency injected in ``hang`` mode.
        error_rate: per-call probability of raising in ``error`` mode
            (drawn from a generator seeded with ``seed``).
        bit_flip_rate: per-bit-read flip probability in ``corrupt`` mode
            (wired through the reliability layer's ``FaultInjector``).
        seed: seeds the error-rate draws / the corrupt-mode injector.
    """

    mode: str
    at_call: int = 0
    duration_calls: Optional[int] = None
    hang_seconds: float = 0.05
    error_rate: float = 1.0
    bit_flip_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _CHAOS_MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.mode!r}; "
                f"expected one of {_CHAOS_MODES}"
            )
        if self.at_call < 0:
            raise ConfigurationError(
                f"at_call must be >= 0: {self.at_call}"
            )
        if self.duration_calls is not None and self.duration_calls < 1:
            raise ConfigurationError(
                f"duration_calls must be >= 1 or None: "
                f"{self.duration_calls}"
            )
        if self.hang_seconds < 0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0: {self.hang_seconds}"
            )
        if not 0 <= self.error_rate <= 1:
            raise ConfigurationError(
                f"error_rate must be in [0, 1]: {self.error_rate}"
            )


class ShardChaos:
    """Executes a :class:`ChaosSpec` in a replica's call path.

    ``corrupt`` mode is *not* handled here — it is wired through
    ``enable_reliability`` at injection time (see
    :meth:`~repro.serving.cluster.CaramCluster.inject_chaos`) so the full
    ECC/quarantine machinery runs; this class covers the process-level
    modes.
    """

    __slots__ = ("spec", "calls", "injected", "_rng")

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        self.calls = 0
        self.injected = 0
        self._rng = make_rng(spec.seed)

    def _active(self, index: int) -> bool:
        spec = self.spec
        if index < spec.at_call:
            return False
        if spec.duration_calls is None:
            return True
        return index < spec.at_call + spec.duration_calls

    def before_call(self, replica: "Replica") -> None:
        """Runs at the top of every replica batch call (under the
        replica's lock, in the executor thread for the async path)."""
        index = self.calls
        self.calls += 1
        if not self._active(index):
            return
        spec = self.spec
        if spec.mode == CRASH:
            self.injected += 1
            raise ShardUnavailableError(
                f"replica {replica.replica_id} of shard "
                f"{replica.shard_id} crashed (chaos)",
                shard_id=replica.shard_id,
            )
        if spec.mode == HANG:
            self.injected += 1
            time.sleep(spec.hang_seconds)
            return
        if spec.mode == ERROR:
            if spec.error_rate >= 1.0 or (
                float(self._rng.random()) < spec.error_rate
            ):
                self.injected += 1
                raise ReliabilityError(
                    f"replica {replica.replica_id} of shard "
                    f"{replica.shard_id} raised (chaos, transient)"
                )


# ----------------------------------------------------------------------
# Failover policy + replica bookkeeping
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailoverPolicy:
    """Knobs of the fault-tolerant request path and circuit breaker.

    Args:
        deadline: total per-sub-batch budget in seconds (``None`` = no
            deadline).  When it expires the requests fail typed.
        attempt_timeout: per-replica-call budget in seconds; a call that
            outlives it is abandoned (its thread may still run) and the
            loop fails over to another replica.  ``None`` = only the
            overall deadline bounds a call — set this when hangs are in
            the threat model, otherwise one hung replica can eat the
            whole deadline.
        max_attempts: primary replica attempts per sub-batch (hedges do
            not count).
        backoff_base / backoff_multiplier / backoff_cap: jittered
            exponential backoff between attempts, in seconds.
        jitter: +/- fraction applied to each backoff delay (0.5 = the
            delay varies uniformly within +/-50%), drawn from a seeded
            generator for reproducibility.
        hedge_delay: if a call has not answered after this many seconds,
            fire the same sub-batch at a second replica and take the
            first success (``None`` disables hedging).
        evict_after: consecutive failures that evict a replica.
        probation_after: seconds an evicted replica waits before
            re-entering on probation.
        readmit_after: probation successes required for re-admission
            (one probation failure re-evicts immediately).
        probe_interval: while healthy replicas exist, every Nth pick is
            routed to a probation replica so it can earn re-admission.
        balancer: ``round-robin`` or ``least-inflight``.
        seed: seeds the backoff jitter stream.
    """

    deadline: Optional[float] = 0.25
    attempt_timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_base: float = 0.001
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.05
    jitter: float = 0.5
    hedge_delay: Optional[float] = None
    evict_after: int = 3
    probation_after: float = 0.25
    readmit_after: int = 2
    probe_interval: int = 8
    balancer: str = "round-robin"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("deadline", "attempt_timeout", "hedge_delay"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None: {value}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.backoff_multiplier < 1:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1: "
                f"{self.backoff_multiplier}"
            )
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1): {self.jitter}"
            )
        if self.evict_after < 1 or self.readmit_after < 1:
            raise ConfigurationError(
                "evict_after and readmit_after must be >= 1"
            )
        if self.probation_after < 0:
            raise ConfigurationError(
                f"probation_after must be >= 0: {self.probation_after}"
            )
        if self.probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1: {self.probe_interval}"
            )
        if self.balancer not in ("round-robin", "least-inflight"):
            raise ConfigurationError(
                f"balancer must be round-robin or least-inflight: "
                f"{self.balancer!r}"
            )

    def backoff_delay(self, attempt: int, rng) -> float:
        """Jittered exponential delay before retry ``attempt`` (>= 1)."""
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


class Replica:
    """One physical copy of a logical shard, plus its breaker state."""

    __slots__ = (
        "shard_id",
        "replica_id",
        "shard",
        "chaos",
        "state",
        "inflight",
        "calls",
        "successes",
        "errors",
        "timeouts",
        "consecutive_failures",
        "probation_successes",
        "evicted_at",
        "evictions",
        "readmissions",
        "health_warnings",
        "_lock",
    )

    def __init__(
        self, shard_id: int, replica_id: int, shard: "CaramShard"
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.shard = shard
        self.chaos: Optional[ShardChaos] = None
        self.state = ACTIVE
        self.inflight = 0
        self.calls = 0
        self.successes = 0
        self.errors = 0
        self.timeouts = 0
        self.consecutive_failures = 0
        self.probation_successes = 0
        self.evicted_at = 0.0
        self.evictions = 0
        self.readmissions = 0
        self.health_warnings = 0
        # Serializes batch calls into this replica's engine: a retry or
        # hedge must never re-enter a slice whose abandoned call is
        # still running in another executor thread.
        self._lock = threading.Lock()

    def call(
        self, keys: Sequence[KeyInput], mask: int = 0
    ) -> List[SearchResult]:
        """One materialized batch lookup against this replica."""
        return self.run(
            lambda shard: shard.search_batch_columnar(keys, mask).results()
        )

    def run(self, operation: Callable[["CaramShard"], T]) -> T:
        """``operation(shard)`` under this replica's lock and chaos.

        ``inflight`` is bumped *before* the lock so callers queued
        behind a slow/hung replica count toward its load — exactly the
        signal the least-inflight balancer needs to route around it.
        """
        self.inflight += 1
        try:
            with self._lock:
                self.calls += 1
                if self.chaos is not None:
                    self.chaos.before_call(self)
                return operation(self.shard)
        finally:
            self.inflight -= 1

    def counters(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "inflight": self.inflight,
            "calls": self.calls,
            "successes": self.successes,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "consecutive_failures": self.consecutive_failures,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "health_warnings": self.health_warnings,
        }


class ReplicaSetStats:
    """Failover counters of one replica set."""

    __slots__ = (
        "retries",
        "timeouts",
        "hedges",
        "hedge_wins",
        "evictions",
        "probations",
        "readmissions",
        "exhausted",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.evictions = 0
        self.probations = 0
        self.readmissions = 0
        self.exhausted = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}




class ReplicaSet:
    """R replicas of one logical shard: balancing + circuit breaker.

    :meth:`run` is the synchronous failover loop of the cluster's direct
    path (no deadlines — hangs are an offloaded-call concern); the
    asyncio service runs its own loop over :meth:`pick`,
    :meth:`record_success` and :meth:`record_failure`.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Replica],
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError(
                "a replica set needs at least one replica"
            )
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self.policy = policy if policy is not None else FailoverPolicy()
        self.clock = clock
        self.tracer = tracer
        self.stats = ReplicaSetStats()
        self._rr = 0
        self._picks = 0
        self._rng = make_rng(self.policy.seed * 1_000_003 + shard_id)

    # -- membership ----------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, shard_id=self.shard_id, **payload)

    def _evict(self, replica: Replica, reason: str) -> None:
        """Take ``replica`` out of rotation — unless it is the set's last
        active or probation member: evicting that one would turn one
        replica's trouble into a whole-shard outage for
        ``probation_after`` seconds, so it stays and keeps being retried."""
        if not any(
            other is not replica and other.state != EVICTED
            for other in self.replicas
        ):
            return
        replica.state = EVICTED
        replica.evicted_at = self.clock()
        replica.consecutive_failures = 0
        replica.probation_successes = 0
        replica.evictions += 1
        self.stats.evictions += 1
        self._emit(
            "replica.evicted",
            replica_id=replica.replica_id,
            reason=reason,
        )

    def _promote_cooled(self) -> None:
        now = self.clock()
        for replica in self.replicas:
            if (
                replica.state == EVICTED
                and now - replica.evicted_at >= self.policy.probation_after
            ):
                replica.state = PROBATION
                replica.probation_successes = 0
                self.stats.probations += 1
                self._emit(
                    "replica.probation", replica_id=replica.replica_id
                )

    def pick(
        self, exclude: Sequence[Replica] = (), retry_tried: bool = True
    ) -> Optional[Replica]:
        """Choose a replica for the next call, or None if none remain.

        Active replicas are balanced per policy; probation replicas get
        every ``probe_interval``-th pick (so they can earn re-admission)
        and the whole pool when no active replica remains.

        ``exclude`` holds the replicas this request already consumed —
        retries prefer an untried replica.  When every live replica has
        been tried and ``retry_tried`` is set, the pick falls back to
        them anyway: a second attempt on a replica that merely timed out
        beats declaring the set exhausted while members are still
        serving.  Hedges pass ``retry_tried=False`` — hedging the call
        already in flight is pure waste.
        """
        self._promote_cooled()
        self._picks += 1
        active = [
            r
            for r in self.replicas
            if r.state == ACTIVE and r not in exclude
        ]
        probation = [
            r
            for r in self.replicas
            if r.state == PROBATION and r not in exclude
        ]
        pool = active
        if probation and (
            not active or self._picks % self.policy.probe_interval == 0
        ):
            pool = probation
        if not pool:
            pool = active
        if not pool and retry_tried:
            pool = [r for r in self.replicas if r.state == ACTIVE]
            if not pool:
                pool = [
                    r for r in self.replicas if r.state == PROBATION
                ]
        if not pool:
            return None
        if self.policy.balancer == "least-inflight":
            return min(pool, key=lambda r: (r.inflight, r.replica_id))
        self._rr = (self._rr + 1) % len(self.replicas)
        return pool[self._rr % len(pool)]

    def record_success(self, replica: Replica) -> None:
        replica.successes += 1
        replica.consecutive_failures = 0
        if replica.state == PROBATION:
            replica.probation_successes += 1
            if replica.probation_successes >= self.policy.readmit_after:
                replica.state = ACTIVE
                replica.readmissions += 1
                self.stats.readmissions += 1
                self._emit(
                    "replica.readmitted",
                    replica_id=replica.replica_id,
                )

    def record_failure(self, replica: Replica, kind: str) -> None:
        if kind == "timeout":
            replica.timeouts += 1
            self.stats.timeouts += 1
        else:
            replica.errors += 1
        replica.consecutive_failures += 1
        if replica.state == PROBATION:
            self._evict(replica, f"probation-{kind}")
        elif (
            replica.state == ACTIVE
            and replica.consecutive_failures >= self.policy.evict_after
        ):
            self._evict(replica, kind)

    def apply_health_report(
        self, replica_id: int, report: "HealthReport"
    ) -> None:
        """Fold a health-monitor verdict into membership: CRITICAL
        evicts the replica, WARN is counted (visible in telemetry) but
        does not change membership on its own."""
        from repro.telemetry.health import CRITICAL, OK

        replica = self.replicas[replica_id]
        level = report.level
        if level == OK:
            return
        replica.health_warnings += 1
        if level == CRITICAL and replica.state != EVICTED:
            self._evict(replica, "health-critical")


    # -- direct (synchronous) path -------------------------------------

    def run(self, operation: Callable[["CaramShard"], T]) -> T:
        """``operation(shard)`` on one replica, failing over to the next
        on a replica error; a typed :class:`ShardUnavailableError`
        (chained to the last replica error) when no attempt succeeds."""
        tried: List[Replica] = []
        last_error: Optional[CaRamError] = None
        for _ in range(
            max(self.policy.max_attempts, len(self.replicas))
        ):
            replica = self.pick(exclude=tried)
            if replica is None:
                break
            if tried:
                self.stats.retries += 1
            tried.append(replica)
            try:
                result = replica.run(operation)
            except CALLER_ERRORS:
                raise
            except CaRamError as error:
                self.record_failure(replica, "error")
                last_error = error
                continue
            self.record_success(replica)
            return result
        raise self.exhausted(tried, "all failed") from last_error

    def exhausted(
        self, tried: Sequence[Replica], detail: str
    ) -> ShardUnavailableError:
        """Count an exhausted failover loop; the error its callers get."""
        self.stats.exhausted += 1
        return ShardUnavailableError(
            f"shard {self.shard_id}: no replica answered within policy "
            f"({len(tried)} tried, {detail})",
            shard_id=self.shard_id,
            attempts=len(tried),
        )

    def call(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """Materialized batch lookup with failover."""
        return self.run(
            lambda shard: shard.search_batch_columnar(
                keys, search_mask
            ).results()
        )

    def bulk_load(self, records) -> int:
        """Load the same records into every replica (bit-identical
        copies); returns logical (per-replica) stored copies."""
        counts = [replica.shard.bulk_load(records) for replica in self.replicas]
        if len(set(counts)) > 1:  # pragma: no cover - defensive
            raise ReliabilityError(
                f"shard {self.shard_id}: replicas diverged at load time "
                f"({counts})"
            )
        return counts[0]

    def close(self) -> None:
        for replica in self.replicas:
            replica.shard.close()

    def membership(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "replicas": {
                f"replica{r.replica_id}": r.counters()
                for r in self.replicas
            },
            "failover": self.stats.as_dict(),
        }


def __getattr__(name: str):
    # The aliases live next to the classes they name; both of those
    # modules import this one, so they resolve on first use.
    if name == "ReplicatedCluster":
        from repro.serving.cluster import ReplicatedCluster

        return ReplicatedCluster
    if name == "FaultTolerantService":
        from repro.serving.service import FaultTolerantService

        return FaultTolerantService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
