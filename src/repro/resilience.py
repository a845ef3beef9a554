"""Transaction-lifecycle resilience: retry, deadlines, admission, breaker.

Documented in ``docs/API.md`` ("Resilience") — configuration knobs,
degraded-read policies, and the ``metrics()["resilience"]`` counters
(also exported through the observability registry) live there.

The MVCC write protocol is optimistic (first-updater-wins), the GC
watermark is pinned by the oldest active snapshot, and the history
store sits behind real I/O — three places where a misbehaving client or
device turns into unbounded damage: conflicted work is thrown away, a
leaked ``begin()`` freezes reclamation and migration forever, and a
failing KV store can only crash queries or silently stall migration.

This module packages the engine's defenses:

:class:`RetryPolicy`
    Capped exponential backoff with jitter for
    ``AeonG.run_transaction`` — the sanctioned way to write under
    contention.  The clock, sleep, and random source are injectable so
    tests are deterministic.
:class:`AdmissionGate`
    A bounded concurrent-transaction gate with a FIFO waiting queue.
    Waiters past the queue deadline get
    :class:`~repro.errors.OverloadError` — the engine degrades with a
    clear error instead of unbounded memory growth.
:class:`CircuitBreaker`
    Health tracking for the history store.  ``N`` consecutive failures
    trip it open; while open, temporal reads degrade per the
    ``degraded_reads`` knob and migration pauses (epochs stay requeued,
    so no history is lost).  After ``reset_timeout`` the next request
    is let through as a half-open probe; success restores full service.
:class:`ResilienceController`
    One per engine: owns the pieces above plus the counters surfaced
    under ``metrics()["resilience"]``.

Everything time-based runs off ``ResilienceConfig.clock`` so tests can
drive deadlines and breaker timeouts with a fake clock.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import DegradedModeError, OverloadError

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: ``degraded_reads`` policies: temporal reads while the breaker is open
#: either fail fast or silently fall back to current-store versions.
DEGRADED_RAISE = "raise"
DEGRADED_CURRENT_ONLY = "current-only"
DEGRADED_POLICIES = (DEGRADED_RAISE, DEGRADED_CURRENT_ONLY)


@dataclass
class RetryPolicy:
    """Retry schedule for :meth:`AeonG.run_transaction`.

    Attempt ``k`` (1-based) failing with a serialization conflict waits
    ``min(base_delay * multiplier**(k-1), max_delay)``, spread by
    ``jitter`` (a fraction: ``0.5`` means the wait lands uniformly in
    ``[0.5d, 1.5d]``) so a conflict storm doesn't resynchronize into
    another storm.  ``sleep`` and ``rng`` are injectable for tests.
    """

    max_attempts: int = 8
    base_delay: float = 0.001
    max_delay: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.5
    sleep: Callable[[float], None] = time.sleep
    rng: Callable[[], float] = random.random

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int) -> float:
        """The backoff before retry number ``attempt`` (1-based)."""
        capped = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0:
            return capped
        spread = capped * self.jitter
        return capped - spread + 2.0 * spread * self.rng()

    def backoff(self, attempt: int) -> float:
        """Sleep the attempt's delay; returns the seconds slept."""
        duration = self.delay(attempt)
        if duration > 0:
            self.sleep(duration)
        return duration


@dataclass
class ResilienceConfig:
    """Engine-level resilience knobs (see :class:`repro.AeonG`).

    ``max_concurrent_transactions=None`` disables admission control;
    ``max_transaction_age=None`` means transactions without an explicit
    ``begin(timeout=...)`` never expire.  ``watchdog_interval=0``
    disables the watchdog task — deadlines are then only enforced by
    explicit :meth:`AeonG.sweep_expired` calls (deterministic tests).

    ``wal_queue_limit`` bounds the group-commit writer's submission
    queue.  A committer whose record would overflow the queue blocks
    (under the engine's commit lock) until the writer drains;
    transactions piling up behind it are still holding their admission
    slots, so sustained WAL pressure fills the :class:`AdmissionGate`,
    which sheds *new* arrivals with
    :class:`~repro.errors.OverloadError` instead of letting unbounded
    memory build up behind a slow device.
    """

    max_concurrent_transactions: Optional[int] = None
    admission_timeout: float = 1.0
    max_transaction_age: Optional[float] = None
    watchdog_interval: float = 0.05
    degraded_reads: str = DEGRADED_RAISE
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 1.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    clock: Callable[[], float] = time.monotonic
    wal_queue_limit: int = 1024

    def __post_init__(self) -> None:
        if self.degraded_reads not in DEGRADED_POLICIES:
            raise ValueError(
                f"degraded_reads must be one of {DEGRADED_POLICIES}, "
                f"got {self.degraded_reads!r}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if (
            self.max_concurrent_transactions is not None
            and self.max_concurrent_transactions < 1
        ):
            raise ValueError("max_concurrent_transactions must be >= 1")
        if self.wal_queue_limit < 1:
            raise ValueError("wal_queue_limit must be >= 1")


class AdmissionGate:
    """Bounded concurrency with a FIFO waiting queue.

    ``acquire`` admits immediately while slots are free, otherwise
    queues the caller; a waiter that has not been admitted within the
    queue deadline is removed and gets :class:`OverloadError`.  Tickets
    keep the queue fair — a latecomer can never overtake a waiter.
    """

    def __init__(
        self,
        max_concurrent: int,
        queue_timeout: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._cond = threading.Condition()
        self._max = max_concurrent
        self._timeout = queue_timeout
        self._clock = clock
        self._queue: deque[int] = deque()
        self._next_ticket = 0
        self.in_flight = 0
        self.admitted = 0
        self.rejected = 0
        self.peak_queue_depth = 0

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def acquire(self) -> None:
        """Take one transaction slot or raise :class:`OverloadError`."""
        with self._cond:
            if not self._queue and self.in_flight < self._max:
                self.in_flight += 1
                self.admitted += 1
                return
            self._next_ticket += 1
            ticket = self._next_ticket
            self._queue.append(ticket)
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            # Waits use the real monotonic clock: Condition.wait cannot
            # be driven by an injected clock, and admission tests use
            # short real deadlines instead.
            deadline = time.monotonic() + self._timeout
            while True:
                if self._queue and self._queue[0] == ticket and (
                    self.in_flight < self._max
                ):
                    self._queue.popleft()
                    self.in_flight += 1
                    self.admitted += 1
                    self._cond.notify_all()
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._queue.remove(ticket)
                    self.rejected += 1
                    self._cond.notify_all()
                    raise OverloadError(
                        f"admission queue deadline exceeded "
                        f"({self._timeout:.3f}s, {self.in_flight} in flight, "
                        f"{len(self._queue)} waiting)"
                    )
                self._cond.wait(remaining)

    def release(self) -> None:
        """Return one slot (commit, abort, or watchdog abort)."""
        with self._cond:
            if self.in_flight > 0:
                self.in_flight -= 1
            self._cond.notify_all()

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "max_concurrent": self._max,
                "in_flight": self.in_flight,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self.peak_queue_depth,
                "admitted": self.admitted,
                "rejected": self.rejected,
            }


class CircuitBreaker:
    """Consecutive-failure breaker for the history store.

    Closed → open after ``failure_threshold`` consecutive failures.
    Open → half-open once ``reset_timeout`` has elapsed on the injected
    clock: the next request is allowed through as a probe.  A probe
    success closes the breaker; a failure re-opens it (and re-arms the
    timer).  ``time_in_degraded`` accumulates every second spent
    outside the closed state.
    """

    def __init__(
        self,
        failure_threshold: int,
        reset_timeout: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._clock = clock
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.failures_total = 0
        self.successes_total = 0
        self.trips = 0
        self.probes = 0
        self._opened_at: Optional[float] = None
        self._degraded_since: Optional[float] = None
        self._degraded_accum = 0.0

    def allow(self) -> bool:
        """Whether a history-store request may proceed right now."""
        # Unlocked fast path: a racing trip that has not landed yet is
        # indistinguishable from this read landing just before it.
        if self.state == BREAKER_CLOSED:
            return True
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return True
            now = self._clock()
            if self.state == BREAKER_OPEN:
                if (
                    self._opened_at is not None
                    and now - self._opened_at >= self._reset_timeout
                ):
                    self.state = BREAKER_HALF_OPEN
                    self.probes += 1
                    return True
                return False
            # Half-open: a probe is under way; let requests through so
            # its outcome (success or failure) resolves the state.
            return True

    def record_success(self) -> None:
        with self._lock:
            self.successes_total += 1
            self.consecutive_failures = 0
            if self.state != BREAKER_CLOSED:
                self.state = BREAKER_CLOSED
                self._opened_at = None
                if self._degraded_since is not None:
                    self._degraded_accum += self._clock() - self._degraded_since
                    self._degraded_since = None

    def record_failure(self) -> None:
        with self._lock:
            now = self._clock()
            self.failures_total += 1
            self.consecutive_failures += 1
            if self.state == BREAKER_HALF_OPEN:
                self._trip(now)  # failed probe: back to open, new timer
            elif self.state == BREAKER_OPEN:
                self._opened_at = now
            elif self.consecutive_failures >= self._threshold:
                self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BREAKER_OPEN
        self._opened_at = now
        self.trips += 1
        if self._degraded_since is None:
            self._degraded_since = now

    @property
    def is_closed(self) -> bool:
        with self._lock:
            return self.state == BREAKER_CLOSED

    def time_in_degraded(self) -> float:
        with self._lock:
            accum = self._degraded_accum
            if self._degraded_since is not None:
                accum += self._clock() - self._degraded_since
            return accum

    def snapshot(self) -> dict:
        with self._lock:
            accum = self._degraded_accum
            if self._degraded_since is not None:
                accum += self._clock() - self._degraded_since
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "failures_total": self.failures_total,
                "successes_total": self.successes_total,
                "trips": self.trips,
                "probes": self.probes,
                "time_in_degraded": accum,
            }


class ResilienceController:
    """Per-engine resilience state, wired through every layer.

    Owned by :class:`repro.AeonG`; the engine routes ``begin`` through
    the admission gate, the migrate hook and
    :meth:`HistoricalStore.fetch_many` through the breaker, and the
    watchdog through :meth:`AeonG.sweep_expired`.  Counters here feed
    ``metrics()["resilience"]``.
    """

    def __init__(self, config: Optional[ResilienceConfig] = None) -> None:
        self.config = config if config is not None else ResilienceConfig()
        self.clock = self.config.clock
        self.breaker = CircuitBreaker(
            self.config.breaker_failure_threshold,
            self.config.breaker_reset_timeout,
            self.clock,
        )
        self.gate: Optional[AdmissionGate] = None
        if self.config.max_concurrent_transactions is not None:
            self.gate = AdmissionGate(
                self.config.max_concurrent_transactions,
                self.config.admission_timeout,
                self.clock,
            )
        self._lock = threading.Lock()
        self._local = threading.local()
        self.conflict_retries = 0
        self.retries_exhausted = 0
        self.transactions_retried = 0
        self.watchdog_aborts = 0
        self.degraded_reads = 0
        self.migration_pauses = 0
        self.quarantined_reads = 0

    # -- retry bookkeeping ------------------------------------------------

    def note_conflict_retry(self) -> None:
        with self._lock:
            self.conflict_retries += 1

    def note_retries_exhausted(self) -> None:
        with self._lock:
            self.retries_exhausted += 1

    def note_transaction_retried(self) -> None:
        with self._lock:
            self.transactions_retried += 1

    def note_watchdog_aborts(self, count: int) -> None:
        with self._lock:
            self.watchdog_aborts += count

    # -- history-store gate (reads) ---------------------------------------

    def allow_history_read(self) -> bool:
        """Gate one ``FetchFromKV``.

        ``True``: proceed to the KV store.  ``False``: breaker open
        under the ``current-only`` policy — serve current-store results
        and mark the read degraded.  Raises
        :class:`~repro.errors.DegradedModeError` under ``raise``.
        """
        if self.breaker.allow():
            return True
        if self.config.degraded_reads == DEGRADED_RAISE:
            raise DegradedModeError(
                "temporal read rejected: history-store circuit breaker is "
                f"open (degraded_reads={DEGRADED_RAISE!r}); retry after the "
                "breaker's reset timeout or query current state instead"
            )
        self.note_degraded_read()
        return False

    def note_degraded_read(self) -> None:
        with self._lock:
            self.degraded_reads += 1
        self._local.degraded = True

    def quarantined_read_raises(self) -> bool:
        """Account one temporal read that hit a quarantined TT range
        and decide its fate per the ``degraded_reads`` policy.

        ``True``: the caller should raise
        :class:`~repro.errors.IntegrityError` (the ``raise`` policy —
        and the raise feeds the breaker, so repeated corruption trips
        it).  ``False``: the read degrades to current-only results,
        marked like any other degraded read.
        """
        with self._lock:
            self.quarantined_reads += 1
        if self.config.degraded_reads == DEGRADED_CURRENT_ONLY:
            self.note_degraded_read()
            return False
        return True

    def note_migration_paused(self) -> None:
        with self._lock:
            self.migration_pauses += 1

    def history_ok(self) -> None:
        self.breaker.record_success()

    def history_failed(self) -> None:
        self.breaker.record_failure()

    # -- the per-call degraded flag ---------------------------------------
    #
    # Sticky within a thread since the last clear; the query executor
    # clears it at statement start so ``AeonG.last_read_degraded``
    # answers "did *this* query fall back to current-only results?".

    def clear_degraded_flag(self) -> None:
        self._local.degraded = False

    @property
    def last_read_degraded(self) -> bool:
        return getattr(self._local, "degraded", False)

    @property
    def degraded(self) -> bool:
        return not self.breaker.is_closed

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict:
        with self._lock:
            out = {
                "conflict_retries": self.conflict_retries,
                "transactions_retried": self.transactions_retried,
                "retries_exhausted": self.retries_exhausted,
                "watchdog_aborts": self.watchdog_aborts,
                "degraded_reads": self.degraded_reads,
                "migration_pauses": self.migration_pauses,
                "quarantined_reads": self.quarantined_reads,
            }
        out["admission"] = (
            self.gate.snapshot() if self.gate is not None else None
        )
        out["breaker"] = self.breaker.snapshot()
        return out


__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilienceController",
    "RetryPolicy",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "DEGRADED_RAISE",
    "DEGRADED_CURRENT_ONLY",
]
