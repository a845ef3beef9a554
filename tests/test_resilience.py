"""Transaction-lifecycle resilience: retry, deadlines, admission, breaker.

Deterministic by construction: retries inject a recording sleep and a
fixed rng, deadlines and the circuit breaker run off a fake clock, and
history-store failures come from the ``history.fetch`` /
``migration.commit_batch`` failpoints — no wall-clock races except in
the explicitly-threaded tests.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    AeonG,
    DegradedModeError,
    FAILPOINTS,
    OverloadError,
    ResilienceConfig,
    RetryPolicy,
    SerializationConflict,
    TemporalCondition,
    TransactionTimeout,
)
from repro.errors import FaultInjected, StorageError
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    AdmissionGate,
    CircuitBreaker,
)

pytestmark = pytest.mark.resilience


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


# -- RetryPolicy ------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0
        )
        assert [policy.delay(k) for k in range(1, 6)] == [
            0.01,
            0.02,
            0.04,
            0.05,
            0.05,
        ]

    def test_jitter_spreads_around_base(self):
        low = RetryPolicy(base_delay=0.01, jitter=0.5, rng=lambda: 0.0)
        mid = RetryPolicy(base_delay=0.01, jitter=0.5, rng=lambda: 0.5)
        high = RetryPolicy(base_delay=0.01, jitter=0.5, rng=lambda: 1.0)
        assert low.delay(1) == pytest.approx(0.005)
        assert mid.delay(1) == pytest.approx(0.01)
        assert high.delay(1) == pytest.approx(0.015)

    def test_backoff_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(
            base_delay=0.25, max_delay=1.0, jitter=0.0, sleep=slept.append
        )
        policy.backoff(1)
        policy.backoff(2)
        assert slept == [0.25, 0.5]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# -- run_transaction --------------------------------------------------------


class TestRunTransaction:
    def test_commits_and_returns_result(self):
        db = AeonG(gc_interval_transactions=0)
        gid = db.run_transaction(
            lambda txn: db.create_vertex(txn, ["R"], {"ok": True})
        )
        with db.transaction() as txn:
            assert db.get_vertex(txn, gid).properties["ok"] is True

    def test_retries_conflict_then_succeeds(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["R"], {"n": 0})
        blocker = db.begin()
        db.set_vertex_property(blocker, gid, "n", 99)
        slept = []
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, jitter=0.0, sleep=slept.append
        )
        attempts = []

        def bump(txn):
            attempts.append(txn.id)
            if len(attempts) == 2:
                db.abort(blocker)  # clear the contention before retry 1 runs
            db.set_vertex_property(txn, gid, "n", 1)
            return "done"

        assert db.run_transaction(bump, policy=policy) == "done"
        assert len(attempts) == 2
        assert slept == [0.01]
        metrics = db.metrics()["resilience"]
        assert metrics["conflict_retries"] == 1
        assert metrics["transactions_retried"] == 1
        assert metrics["retries_exhausted"] == 0
        with db.transaction() as txn:
            assert db.get_vertex(txn, gid).properties["n"] == 1

    def test_exhaustion_reraises_conflict(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["R"], {"n": 0})
        blocker = db.begin()
        db.set_vertex_property(blocker, gid, "n", 99)
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0, sleep=slept.append
        )
        with pytest.raises(SerializationConflict):
            db.run_transaction(
                lambda txn: db.set_vertex_property(txn, gid, "n", 1),
                policy=policy,
            )
        assert slept == [0.01, 0.02]  # two waits, three attempts
        metrics = db.metrics()["resilience"]
        assert metrics["retries_exhausted"] == 1
        assert metrics["conflict_retries"] == 3
        db.abort(blocker)
        assert db.manager.active_count == 0

    def test_non_conflict_errors_abort_and_propagate(self):
        db = AeonG(gc_interval_transactions=0)

        def boom(txn):
            db.create_vertex(txn, ["R"], {})
            raise RuntimeError("app bug")

        with pytest.raises(RuntimeError):
            db.run_transaction(boom)
        assert db.manager.active_count == 0
        assert db.metrics()["resilience"]["conflict_retries"] == 0


def test_conflict_storm_loses_zero_increments():
    """N threads × M increments through run_transaction must serialize
    to exactly N×M — the acceptance bar for conflict retry."""
    db = AeonG(gc_interval_transactions=0)
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["Counter"], {"n": 0})
    n_threads, iterations = 6, 15
    policy = RetryPolicy(max_attempts=500, base_delay=0.0002, max_delay=0.005)
    errors = []

    def bump(txn):
        current = db.get_vertex(txn, gid).properties["n"]
        db.set_vertex_property(txn, gid, "n", current + 1)

    def worker():
        try:
            for _ in range(iterations):
                db.run_transaction(bump, policy=policy)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    with db.transaction() as txn:
        assert db.get_vertex(txn, gid).properties["n"] == n_threads * iterations
    metrics = db.metrics()["resilience"]
    assert metrics["retries_exhausted"] == 0


# -- deadlines and the watchdog ---------------------------------------------


class TestDeadlines:
    def _engine(self, clock, **overrides):
        cfg = ResilienceConfig(watchdog_interval=0, clock=clock, **overrides)
        return AeonG(gc_interval_transactions=0, resilience=cfg)

    def test_sweep_aborts_expired_transaction(self):
        clock = FakeClock()
        db = self._engine(clock)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["D"], {"v": 0})
        leaked = db.begin(timeout=5.0)
        assert db.sweep_expired() == 0  # not expired yet
        clock.advance(5.1)
        assert db.sweep_expired() == 1
        assert not leaked.is_active
        with pytest.raises(TransactionTimeout):
            db.set_vertex_property(leaked, gid, "v", 1)
        with pytest.raises(TransactionTimeout):
            db.commit(leaked)
        assert db.metrics()["resilience"]["watchdog_aborts"] == 1

    def test_max_transaction_age_applies_engine_wide(self):
        clock = FakeClock()
        db = self._engine(clock, max_transaction_age=2.0)
        txn = db.begin()  # no explicit timeout
        assert txn.deadline == pytest.approx(2.0)
        clock.advance(3.0)
        assert db.sweep_expired() == 1
        assert not txn.is_active

    def test_explicit_timeout_overrides_engine_age(self):
        clock = FakeClock()
        db = self._engine(clock, max_transaction_age=100.0)
        txn = db.begin(timeout=1.0)
        clock.advance(2.0)
        assert db.sweep_expired() == 1
        assert not txn.is_active

    def test_transactions_without_deadline_never_expire(self):
        clock = FakeClock()
        db = self._engine(clock)
        txn = db.begin()
        clock.advance(10_000.0)
        assert db.sweep_expired() == 0
        assert txn.is_active
        db.abort(txn)

    def test_watchdog_daemon_aborts_in_background(self):
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(watchdog_interval=0.01),
        )
        leaked = db.begin(timeout=0.05)
        deadline = time.time() + 5.0
        while leaked.is_active:
            assert time.time() < deadline, "watchdog never fired"
            time.sleep(0.01)
        assert leaked.expired
        assert db.metrics()["resilience"]["watchdog_aborts"] == 1
        db.close()


def test_leaked_transaction_unpins_gc_and_migration_resumes():
    """The acceptance scenario: a leaked begin() pins the GC watermark;
    after the watchdog aborts it, the next epoch reclaims and migrates
    everything it was holding back."""
    clock = FakeClock()
    db = AeonG(
        gc_interval_transactions=0,
        anchor_interval=2,
        resilience=ResilienceConfig(watchdog_interval=0, clock=clock),
    )
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["L"], {"v": 0})
    leaked = db.begin(timeout=10.0)  # snapshot predates all updates below
    stamps = []
    for value in (1, 2, 3):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", value)
        stamps.append(db.now() - 1)
    # The creation transaction committed before the leak began, so one
    # epoch can reclaim it — but the three updates stay pinned.
    db.collect_garbage()
    assert len(db.manager.committed_pending_gc) == 3
    before = db.collect_garbage()
    assert before == 0, "pinned deltas must not be reclaimed"
    clock.advance(11.0)
    assert db.sweep_expired() == 1
    reclaimed = db.collect_garbage()
    assert reclaimed > 0
    assert len(db.manager.committed_pending_gc) == 0
    assert db.history.records_written > 0, "migration resumed"
    # The reclaimed history is fully queryable.
    reader = db.begin()
    try:
        for stamp, value in zip(stamps, (1, 2, 3)):
            view = next(
                iter(db.vertex_versions(reader, gid, TemporalCondition.as_of(stamp)))
            )
            assert view.properties["v"] == value
    finally:
        db.abort(reader)


# -- admission control ------------------------------------------------------


class TestAdmissionControl:
    def test_gate_unit_fifo_and_rejection(self):
        gate = AdmissionGate(max_concurrent=1, queue_timeout=0.02)
        gate.acquire()
        with pytest.raises(OverloadError):
            gate.acquire()
        snap = gate.snapshot()
        assert snap["rejected"] == 1
        assert snap["in_flight"] == 1
        gate.release()
        gate.acquire()  # slot free again
        assert gate.snapshot()["admitted"] == 2

    def test_begin_rejects_past_queue_deadline(self):
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=2, admission_timeout=0.05
            ),
        )
        a = db.begin()
        b = db.begin()
        started = time.monotonic()
        with pytest.raises(OverloadError):
            db.begin()
        assert time.monotonic() - started >= 0.04, "must wait the deadline out"
        metrics = db.metrics()["resilience"]["admission"]
        assert metrics["rejected"] == 1
        assert metrics["in_flight"] == 2
        db.abort(a)
        c = db.begin()  # commit/abort released a slot
        db.abort(b)
        db.abort(c)
        assert db.metrics()["resilience"]["admission"]["in_flight"] == 0

    def test_queued_transaction_admitted_when_slot_frees(self):
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=1, admission_timeout=5.0
            ),
        )
        holder = db.begin()
        admitted = []

        def waiter():
            txn = db.begin()
            admitted.append(txn)
            db.commit(txn)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.time() + 5.0
        while db.metrics()["resilience"]["admission"]["queue_depth"] == 0:
            assert time.time() < deadline, "waiter never queued"
            time.sleep(0.005)
        db.commit(holder)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert admitted, "queued transaction was never admitted"
        metrics = db.metrics()["resilience"]["admission"]
        assert metrics["peak_queue_depth"] >= 1
        assert metrics["in_flight"] == 0

    def test_watchdog_abort_releases_admission_slot(self):
        clock = FakeClock()
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=1,
                admission_timeout=0.02,
                watchdog_interval=0,
                clock=clock,
            ),
        )
        db.begin(timeout=1.0)  # leaked, holding the only slot
        with pytest.raises(OverloadError):
            db.begin()
        clock.advance(2.0)
        assert db.sweep_expired() == 1
        txn = db.begin()  # the watchdog's abort freed the slot
        db.abort(txn)


# -- the history-store circuit breaker --------------------------------------


def _history_engine(clock, **overrides):
    cfg = ResilienceConfig(watchdog_interval=0, clock=clock, **overrides)
    db = AeonG(gc_interval_transactions=0, anchor_interval=2, resilience=cfg)
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["B"], {"v": 0})
    created_at = db.now() - 1
    for value in (1, 2, 3):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", value)
    db.collect_garbage()  # old versions now live only in the KV store
    return db, gid, created_at


def _read_old(db, gid, stamp):
    txn = db.begin()
    try:
        return list(db.vertex_versions(txn, gid, TemporalCondition.as_of(stamp)))
    finally:
        db.abort(txn)


class TestCircuitBreakerUnit:
    def test_trip_halfopen_close_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, reset_timeout=10.0, clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        clock.advance(10.5)
        assert breaker.allow()  # the half-open probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.trips == 1
        assert breaker.probes == 1
        assert breaker.time_in_degraded() == pytest.approx(10.5)

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # timer re-armed
        assert breaker.trips == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(3, reset_timeout=1.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # never 3 in a row


class TestDegradedReads:
    def test_breaker_trips_and_raise_policy_rejects(self):
        clock = FakeClock()
        db, gid, created_at = _history_engine(
            clock, breaker_failure_threshold=3, breaker_reset_timeout=10.0
        )
        FAILPOINTS.activate("history.fetch", "error", times=None)
        for _ in range(3):
            with pytest.raises(FaultInjected):
                _read_old(db, gid, created_at)
        assert db.metrics()["resilience"]["breaker"]["state"] == BREAKER_OPEN
        # While open the KV store is not even touched.
        fired_before = FAILPOINTS.stats("history.fetch").fired
        with pytest.raises(DegradedModeError):
            _read_old(db, gid, created_at)
        assert FAILPOINTS.stats("history.fetch").fired == fired_before
        # Current-store reads and writes keep working throughout.
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 4)
            assert db.get_vertex(txn, gid).properties["v"] == 4
        # Half-open probe after the reset timeout restores full service.
        FAILPOINTS.clear()
        clock.advance(11.0)
        views = _read_old(db, gid, created_at)
        assert views and views[0].properties["v"] == 0
        breaker = db.metrics()["resilience"]["breaker"]
        assert breaker["state"] == BREAKER_CLOSED
        assert breaker["trips"] == 1
        assert breaker["probes"] == 1
        assert breaker["time_in_degraded"] == pytest.approx(11.0)

    def test_current_only_policy_serves_degraded_results(self):
        clock = FakeClock()
        db, gid, created_at = _history_engine(
            clock,
            breaker_failure_threshold=2,
            breaker_reset_timeout=10.0,
            degraded_reads="current-only",
        )
        FAILPOINTS.activate("history.fetch", "error", times=None)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                _read_old(db, gid, created_at)
        FAILPOINTS.clear()
        # Degraded: the reclaimed version is invisible, nothing raises.
        assert _read_old(db, gid, created_at) == []
        assert db.metrics()["resilience"]["degraded_reads"] >= 1

    def test_query_layer_degraded_flag(self):
        clock = FakeClock()
        db, gid, created_at = _history_engine(
            clock,
            breaker_failure_threshold=1,
            breaker_reset_timeout=100.0,
            degraded_reads="current-only",
        )
        FAILPOINTS.activate("history.fetch", "error")
        with pytest.raises(FaultInjected):
            _read_old(db, gid, created_at)
        # Temporal query falls back to current-only and flags it.
        rows = db.execute(f"MATCH (n) TT SNAPSHOT {created_at} RETURN n.v")
        assert rows == []
        assert db.last_read_degraded is True
        # A current-state query clears the statement-scoped flag.
        rows = db.execute("MATCH (n) RETURN n.v")
        assert rows == [{"n.v": 3}]
        assert db.last_read_degraded is False


class TestMigrationBreaker:
    def test_migration_pauses_requeues_and_resumes(self):
        clock = FakeClock()
        db = AeonG(
            gc_interval_transactions=0,
            anchor_interval=2,
            resilience=ResilienceConfig(
                watchdog_interval=0,
                clock=clock,
                breaker_failure_threshold=2,
                breaker_reset_timeout=5.0,
            ),
        )
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["M"], {"v": 0})
        stamps = []
        for value in (1, 2, 3):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
            stamps.append(db.now() - 1)
        FAILPOINTS.activate("migration.commit_batch", "error", times=None)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                db.collect_garbage()
        # Breaker open: epochs pause cleanly instead of erroring.
        assert db.collect_garbage() == 0
        metrics = db.metrics()
        assert metrics["resilience"]["breaker"]["state"] == BREAKER_OPEN
        assert metrics["resilience"]["migration_pauses"] == 1
        assert metrics["gc"]["epochs_paused"] == 1
        assert metrics["migration"]["failed_epochs"] == 2
        assert db.history.records_written == 0
        assert len(db.manager.committed_pending_gc) == 4, "requeued, not lost"
        FAILPOINTS.clear()
        # Still paused until the reset timeout elapses.
        assert db.collect_garbage() == 0
        assert db.metrics()["resilience"]["migration_pauses"] == 2
        clock.advance(6.0)
        reclaimed = db.collect_garbage()  # the half-open probe epoch
        assert reclaimed > 0
        assert db.history.records_written > 0
        assert db.metrics()["resilience"]["breaker"]["state"] == BREAKER_CLOSED
        # No history was lost across the outage.
        reader = db.begin()
        try:
            for stamp, value in zip(stamps, (1, 2, 3)):
                view = next(
                    iter(
                        db.vertex_versions(
                            reader, gid, TemporalCondition.as_of(stamp)
                        )
                    )
                )
                assert view.properties["v"] == value
        finally:
            db.abort(reader)

    def test_commit_triggered_epoch_failure_does_not_fail_commit(self):
        db = AeonG(gc_interval_transactions=2, anchor_interval=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["M"], {"v": 0})
        FAILPOINTS.activate("migration.commit_batch", "error")
        with db.transaction() as txn:  # 2nd commit triggers the epoch
            db.set_vertex_property(txn, gid, "v", 1)
        metrics = db.metrics()
        assert metrics["gc"]["deferred_errors"] == 1
        assert len(db.manager.committed_pending_gc) > 0
        FAILPOINTS.clear()
        assert db.collect_garbage() > 0  # requeued work migrates fine


# -- transaction() context-manager hygiene ----------------------------------


class TestTransactionContextManager:
    def test_commit_conflict_leaves_clean_abort(self):
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=1, admission_timeout=0.02
            ),
        )
        original = db.manager.commit

        def failing_commit(txn, commit_ts=None):
            raise SerializationConflict("injected commit-time conflict")

        db.manager.commit = failing_commit
        try:
            with pytest.raises(SerializationConflict) as excinfo:
                with db.transaction() as txn:
                    db.create_vertex(txn, ["T"], {})
            assert "commit-time conflict" in str(excinfo.value)
        finally:
            db.manager.commit = original
        assert db.manager.active_count == 0, "transaction leaked"
        assert not txn.is_active
        # The admission slot was released by the abort, proving no
        # double-abort and no stuck gate.
        with db.transaction() as txn2:
            db.create_vertex(txn2, ["T"], {})
        assert db.metrics()["resilience"]["admission"]["in_flight"] == 0

    def test_body_conflict_still_aborts_once(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as setup:
            gid = db.create_vertex(setup, ["T"], {"v": 0})
        blocker = db.begin()
        db.set_vertex_property(blocker, gid, "v", 1)
        with pytest.raises(SerializationConflict):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", 2)
        assert db.manager.active_count == 1  # only the blocker remains
        db.abort(blocker)


# -- close() / background-thread lifecycle ----------------------------------


class TestCloseLifecycle:
    def test_close_is_idempotent(self):
        db = AeonG(gc_interval_transactions=0)
        db.start_background_gc(interval_seconds=0.005)
        db.close()
        assert db.metrics()["gc"]["background_running"] is False
        db.close()  # second close is a no-op
        with pytest.raises(StorageError):
            db.begin()

    def test_stop_background_gc_after_close_is_noop(self):
        db = AeonG(gc_interval_transactions=0)
        db.start_background_gc(interval_seconds=0.005)
        db.close()
        runs = db.gc.runs
        db.stop_background_gc()  # no thread, no final epoch
        assert db.gc.runs == runs

    def test_close_stops_watchdog(self):
        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(watchdog_interval=0.01),
        )
        txn = db.begin(timeout=100.0)  # schedules the watchdog
        assert db.maintenance.watchdog.interval == 0.01
        assert db.maintenance.alive
        db.abort(txn)
        db.close()
        assert not db.maintenance.alive

    def test_close_with_durability_still_closes_wal(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with db.transaction() as txn:
            db.create_vertex(txn, ["W"], {"v": 1})
        db.start_background_gc(interval_seconds=0.005)
        db.close()
        db.close()
        reopened = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with reopened.transaction() as txn:
            assert sum(1 for _ in db.storage.iter_vertex_records()) == 1
        reopened.close()


# -- metrics surface --------------------------------------------------------


def test_metrics_exposes_resilience_section():
    db = AeonG(
        gc_interval_transactions=0,
        resilience=ResilienceConfig(max_concurrent_transactions=4),
    )
    metrics = db.metrics()["resilience"]
    assert metrics["conflict_retries"] == 0
    assert metrics["watchdog_aborts"] == 0
    assert metrics["admission"]["max_concurrent"] == 4
    assert metrics["admission"]["queue_depth"] == 0
    assert metrics["breaker"]["state"] == BREAKER_CLOSED
    assert metrics["breaker"]["time_in_degraded"] == 0.0


def test_metrics_admission_none_when_unbounded():
    db = AeonG(gc_interval_transactions=0)
    assert db.metrics()["resilience"]["admission"] is None


# -- engine close() vs admission-gate ordering ------------------------------
#
# A shutdown racing in-flight transaction work must never leak an
# admission slot or strand a zombie transaction: begin() that loses the
# race gets StorageError *after* returning its slot, and commit() that
# loses the race aborts the transaction (releasing the slot via the
# on-abort hook) instead of acknowledging a write the closed WAL never
# saw.


class TestCloseAdmissionOrdering:
    def _engine(self, **kwargs):
        return AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=2, admission_timeout=0.2
            ),
            **kwargs,
        )

    def test_begin_after_close_releases_its_admission_slot(self):
        db = self._engine()
        db.close()
        gate = db.resilience.gate
        for _ in range(5):  # a leak would exhaust the 2-slot gate
            with pytest.raises(StorageError, match="closed"):
                db.begin()
        snap = gate.snapshot()
        assert snap["in_flight"] == 0
        assert db.manager.active_count == 0

    def test_begin_racing_close_never_leaks_slot_or_txn(self):
        """Hammer begin() from threads while close() lands mid-stream.

        Deterministic in its *assertions* (whatever interleaving
        happens, the invariants must hold): every admitted transaction
        is either aborted by us or was never created, in_flight drains
        to zero, and no transaction survives on a closed engine.
        """
        db = self._engine()
        gate = db.resilience.gate
        started = threading.Barrier(5)
        stop = threading.Event()

        def worker():
            started.wait()
            while not stop.is_set():
                try:
                    txn = db.begin(timeout=5.0)
                except (StorageError, OverloadError):
                    continue
                db.abort(txn)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait()
        time.sleep(0.02)  # let workers cycle through the gate
        db.close()
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert db.manager.active_count == 0
        assert gate.snapshot()["in_flight"] == 0

    def test_commit_racing_close_aborts_instead_of_false_ack(self, tmp_path):
        """A commit that loses the race to close() must not acknowledge.

        The deterministic schedule: open a durable engine, stage a
        write, close the engine, then try to commit.  The engine must
        raise (never ack), the transaction must be dead, the slot
        returned — and the write must not be in the recovered store.
        """
        db = AeonG.open(
            tmp_path / "data",
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=2, admission_timeout=0.2
            ),
        )
        txn = db.begin()
        db.create_vertex(txn, ["Race"], {"k": 1})
        db.close()
        with pytest.raises(StorageError, match="closed"):
            db.commit(txn)
        assert not txn.is_active
        assert db.resilience.gate.snapshot()["in_flight"] == 0
        reopened = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with reopened.transaction() as check:
            assert (
                sum(1 for _ in reopened.storage.iter_vertex_records()) == 0
            )
        reopened.close()

    def test_commit_close_commit_interleave_under_threads(self, tmp_path):
        """Concurrent committers racing close(): every commit either
        acknowledged-and-durable or raised-and-rolled-back — no third
        outcome, no leaked slots."""
        db = AeonG.open(
            tmp_path / "data",
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=8, admission_timeout=1.0
            ),
        )
        acked: list[int] = []
        lock = threading.Lock()
        started = threading.Barrier(7)

        def committer(value: int) -> None:
            started.wait()
            try:
                txn = db.begin(timeout=5.0)
                db.create_vertex(txn, ["Race"], {"v": value})
                db.commit(txn)
            except (StorageError, OverloadError):
                return
            with lock:
                acked.append(value)

        threads = [
            threading.Thread(target=committer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        started.wait()
        db.close()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert db.manager.active_count == 0
        assert db.resilience.gate.snapshot()["in_flight"] == 0
        reopened = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with reopened.transaction() as txn:
            durable = {
                record.properties["v"]
                for record in reopened.storage.iter_vertex_records()
            }
        # Acknowledged implies durable; unacknowledged writes may or
        # may not exist only if they were never acknowledged — but an
        # acked one missing after recovery is the bug this guards.
        assert set(acked) <= durable
        reopened.close()
