"""The maintenance thread: ``Migrate()`` off the committer.

- **differential guard**: an engine whose GC epochs are requested every
  3 commits, with readers racing the writes, ends byte-identical to a
  twin collected once by hand and answers alike over the full TT grid
  (every commit ts +-1 as a point, every adjacent pair as a slice,
  expand both ways); a failed epoch fails no commit, is requeued, and
  changes no byte; readers of a two-object history cache, and readers
  extending cached version lists, racing the epochs, answer every
  settled instant as the twin does;
- **scheduler**: one engine thread, epochs only on it, the
  2 x ``gc_interval`` backlog bound, no writer blocked by a pinned
  watermark, ``close()`` during a slow epoch, no thread leaked by a
  replica resync, scrub and watchdog running while an epoch is always
  requested, ``metrics()`` waiting only for epochs requested before it,
  a request or registration racing the thread's idle exit still
  served, and the thread exiting at once when the last periodic task
  is unscheduled;
- **regressions**: ``stop_background_gc()`` leaves the commit trigger
  on; an epoch truncates undo chains at the watermark it took, so a
  commit landing mid-epoch keeps its versions readable.

Run alone with ``pytest -m maintenance``.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import AeonG
from repro import faults
from repro.core.maintenance import THREAD_NAME, Maintenance
from repro.core.temporal import TemporalCondition
from repro.faults import FAILPOINTS
from repro.integrity import Scrubber
from repro.mvcc.gc import GarbageCollector
from repro.resilience import ResilienceConfig

pytestmark = pytest.mark.maintenance

SITE = "migration.commit_batch"


@pytest.fixture(autouse=True)
def _clear_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def _commit(db, fn):
    with db.transaction() as txn:
        result = fn(txn)
    return result, txn.commit_ts


def _workload(db, seed=7, steps=45, pause=0.0):
    """Seeded creates, updates and deletes of vertices and edges, ending
    with an edge deleted and re-created between the same endpoints,
    ``pause`` seconds apart.  Returns every vertex gid ever created and
    every commit timestamp."""
    rng = random.Random(seed)
    stamps = []

    def commit(fn):
        result, ts = _commit(db, fn)
        stamps.append(ts)
        time.sleep(pause)
        return result

    vertices = [
        commit(lambda txn, i=i: db.create_vertex(txn, ["P"], {"i": i, "v": 0}))
        for i in range(6)
    ]
    live = list(vertices)
    edges = {}  # gid -> endpoints
    for step in range(steps):
        roll = rng.random()
        if roll < 0.3:
            gid = rng.choice(live)
            commit(lambda txn: db.set_vertex_property(txn, gid, "v", step))
        elif roll < 0.5:
            a, b = rng.sample(live, 2)
            gid = commit(
                lambda txn: db.create_edge(txn, a, b, "KNOWS", {"w": step})
            )
            edges[gid] = (a, b)
        elif roll < 0.65 and edges:
            gid = rng.choice(sorted(edges))
            commit(lambda txn: db.set_edge_property(txn, gid, "w", -step))
        elif roll < 0.75 and edges:
            gid = rng.choice(sorted(edges))
            commit(lambda txn: db.delete_edge(txn, gid))
            del edges[gid]
        elif roll < 0.82 and len(live) > 4:
            gid = rng.choice(live)
            commit(lambda txn: db.delete_vertex(txn, gid))
            live.remove(gid)
            edges = {e: ab for e, ab in edges.items() if gid not in ab}
        else:
            gid = commit(
                lambda txn: db.create_vertex(txn, ["P"], {"i": step, "v": 0})
            )
            vertices.append(gid)
            live.append(gid)
    a, b = live[0], live[1]
    first = commit(lambda txn: db.create_edge(txn, a, b, "KNOWS"))
    commit(lambda txn: db.delete_edge(txn, first))
    commit(lambda txn: db.create_edge(txn, a, b, "KNOWS"))
    return vertices, stamps


def _vertex(view):
    return (
        view.gid, view.tt_start, view.tt_end,
        tuple(sorted(view.labels)), tuple(sorted(view.properties.items())),
    )


def _edge(view):
    return (
        view.gid, view.edge_type, view.from_gid, view.to_gid,
        view.tt_start, view.tt_end, tuple(sorted(view.properties.items())),
    )


def _answers(db, vertices, stamps):
    """Point answers at every commit ts +-1, slices over every adjacent
    pair, and expand both ways from every point version."""
    txn = db.manager.begin_readonly()
    out = []
    try:
        grid = sorted({t + d for t in stamps for d in (-1, 0, 1)})
        for gid in vertices:
            for t in grid:
                cond = TemporalCondition.as_of(t)
                versions = list(db.vertex_versions(txn, gid, cond))
                out.append(("point", gid, t, [_vertex(v) for v in versions]))
                for view in versions:
                    for direction in ("out", "in"):
                        pairs = sorted(
                            (_edge(e), _vertex(n))
                            for e, n in db.expand(txn, view, cond, direction)
                        )
                        out.append(("expand", gid, t, direction, pairs))
            for t1, t2 in zip(stamps, stamps[1:]):
                cond = TemporalCondition.between(t1, t2)
                out.append(
                    ("slice", gid, t1, t2,
                     sorted(_vertex(v) for v in db.vertex_versions(txn, gid, cond)))
                )
    finally:
        db.abort(txn)
    return out


def _reader(db, stop, errors):
    """TT SNAPSHOT, TT BETWEEN and expand in read-only snapshots (which
    consume no timestamp, so both engines commit at the same ones)."""
    rng = random.Random(11)
    while not stop.is_set():
        txn = db.manager.begin_readonly()
        try:
            t = rng.randint(0, txn.start_ts + 1)
            db.execute(f"MATCH (n:P) TT SNAPSHOT {t} RETURN n.i, n.v", txn=txn)
            db.execute(
                f"MATCH (n:P) TT BETWEEN 0 AND {t} RETURN count(*) AS c", txn=txn
            )
            cond = TemporalCondition.as_of(t)
            for view in db.vertices_as_of(txn, t, label="P"):
                list(db.expand(txn, view, cond, "both"))
        except Exception as exc:  # noqa: BLE001 — reported by the test
            errors.append(exc)
        finally:
            db.abort(txn)


def _reference():
    """Engine B: no automatic GC, one manual epoch at the end."""
    db = AeonG(gc_interval_transactions=0, anchor_interval=2)
    vertices, stamps = _workload(db)
    db.collect_garbage()
    return db, vertices, stamps


def _drain(db):
    db.maintenance.settle()
    db.collect_garbage()  # the tail short of one interval, and what readers pinned


class TestDifferentialGuard:
    def test_scheduled_epochs_with_readers_match_one_manual_epoch(self):
        ref, vertices, stamps = _reference()
        db = AeonG(gc_interval_transactions=3, anchor_interval=2)
        stop, errors = threading.Event(), []
        readers = [
            threading.Thread(target=_reader, args=(db, stop, errors))
            for _ in range(2)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for reader in readers:
                reader.start()
            got_vertices, got_stamps = _workload(db, pause=0.002)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(switch)
        _drain(db)
        try:
            assert not any(reader.is_alive() for reader in readers)
            assert errors == []
            assert (got_vertices, got_stamps) == (vertices, stamps)
            assert db.migrator.migrations > 2, "the scheduler ran epochs"
            assert list(db.history.kv.scan_all()) == list(ref.history.kv.scan_all())
            assert db.storage_report() == ref.storage_report()
            assert _answers(db, vertices, stamps) == _answers(ref, vertices, stamps)
        finally:
            db.close()
            ref.close()

    def test_failed_epoch_is_deferred_requeued_and_changes_no_byte(self):
        ref, vertices, stamps = _reference()
        db = AeonG(gc_interval_transactions=3, anchor_interval=2)
        FAILPOINTS.activate(SITE, "error", nth=1, times=1)
        try:
            assert _workload(db) == (vertices, stamps)  # no commit raised
            metrics = db.metrics()
            assert metrics["gc"]["deferred_errors"] == 1
            assert "FaultInjected" in metrics["gc"]["background_last_error"]
            assert metrics["migration"]["failed_epochs"] == 1
            _drain(db)
            assert list(db.history.kv.scan_all()) == list(ref.history.kv.scan_all())
            assert db.storage_report() == ref.storage_report()
            assert _answers(db, vertices, stamps) == _answers(ref, vertices, stamps)
        finally:
            db.close()
            ref.close()


    def test_a_tiny_history_cache_racing_epochs_serves_settled_answers(self):
        """Readers of a two-object history cache evict and refill it
        while epochs publish to it: every instant the reader's snapshot
        has settled (all commits at or before it visible) answers, point
        and expand, as the finished twin does — up to each version's
        end, which a later commit may set."""
        ref, vertices, stamps = _reference()
        db = AeonG(
            gc_interval_transactions=3, anchor_interval=2, reconstruction_cache_size=2
        )
        stop, errors, compared = threading.Event(), [], []

        def settled(sig, end):
            return sig[:end] + sig[end + 1:]

        def read(engine, txn, gid, t):
            cond = TemporalCondition.as_of(t)
            versions = list(engine.vertex_versions(txn, gid, cond))
            return [settled(_vertex(v), 2) for v in versions], sorted(
                (settled(_edge(e), 5), settled(_vertex(n), 2))
                for view in versions
                for e, n in engine.expand(txn, view, cond, "both")
            )

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                txn = db.manager.begin_readonly()
                ref_txn = ref.manager.begin_readonly()
                try:
                    t = rng.randint(0, max(0, txn.start_ts - 2))
                    gid = rng.choice(vertices)
                    got, want = read(db, txn, gid, t), read(ref, ref_txn, gid, t)
                    compared.append(got == want or (gid, t, got, want))
                except Exception as exc:  # noqa: BLE001 — reported by the test
                    errors.append(exc)
                finally:
                    db.abort(txn)
                    ref.abort(ref_txn)

        readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            assert _workload(db, pause=0.002) == (vertices, stamps)
            _drain(db)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(switch)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert errors == []
            assert compared and [c for c in compared if c is not True] == []
            assert db.migrator.migrations > 2, "the scheduler ran epochs"
            assert db.history.read_metrics.cache_evictions > 0
        finally:
            db.close()
            ref.close()

    def test_readers_extending_cached_lists_racing_epochs_agree(self):
        """Readers keep every object's version list cached while epochs
        publish to them, so a read after an epoch extends the list by
        what the epoch migrated, or races the next epoch: every settled
        instant answers, point and slice, as the finished twin does,
        and once drained the extended lists answer the whole grid
        alike."""
        ref, vertices, stamps = _reference()
        db = AeonG(gc_interval_transactions=3, anchor_interval=2)
        stop, errors, compared = threading.Event(), [], []

        def settled(versions):
            return [_vertex(v)[:2] + _vertex(v)[3:] for v in versions]

        def read(engine, txn, gid, t1, t2):
            return (
                settled(engine.vertex_versions(txn, gid, TemporalCondition.as_of(t2))),
                settled(
                    engine.vertex_versions(txn, gid, TemporalCondition.between(t1, t2))
                ),
            )

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                txn = db.manager.begin_readonly()
                ref_txn = ref.manager.begin_readonly()
                try:
                    t2 = rng.randint(0, max(0, txn.start_ts - 2))
                    t1 = rng.randint(0, t2)
                    gid = rng.choice(vertices)
                    got = read(db, txn, gid, t1, t2)
                    want = read(ref, ref_txn, gid, t1, t2)
                    compared.append(got == want or (gid, t1, t2, got, want))
                except Exception as exc:  # noqa: BLE001 — reported by the test
                    errors.append(exc)
                finally:
                    db.abort(txn)
                    ref.abort(ref_txn)

        readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            assert _workload(db, pause=0.002) == (vertices, stamps)
            _drain(db)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(switch)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert errors == []
            assert compared and [c for c in compared if c is not True] == []
            assert db.migrator.migrations > 2, "the scheduler ran epochs"
            assert db.history.read_metrics.versions_extended > 0
            assert _answers(db, vertices, stamps) == _answers(ref, vertices, stamps)
        finally:
            db.close()
            ref.close()


def _engine_threads(before):
    return sorted(
        t.name for t in threading.enumerate() if t not in before and t.is_alive()
    )


def _endless_epochs(db):
    """Make every GC epoch end with the next one requested, as under a
    write load that outpaces the epochs; returns the event that ends it."""
    m, stop = db.maintenance, threading.Event()
    work = m.gc.work

    def epoch():
        work()
        time.sleep(0.002)
        if not stop.is_set():
            m.request(m.gc)

    m.gc.work = epoch
    return stop


def _join(thread):
    thread.start()
    thread.join()


class _ExitGap(threading.Condition):
    """Runs ``hook`` once, on the maintenance thread, just after its
    loop first releases the lock with no task running: the moment it has
    decided to exit."""

    def __init__(self, hook):
        super().__init__()
        self.hook = hook

    def __exit__(self, *exc):
        super().__exit__(*exc)
        if (
            self.hook is not None
            and threading.current_thread().name == THREAD_NAME
            and sys._getframe(1).f_code.co_name == "_loop"
            and sys._getframe(1).f_locals["self"]._running is None
        ):
            hook, self.hook = self.hook, None
            hook()


class _TimedWait(threading.Condition):
    """Sets ``entered`` as the maintenance thread enters a timed wait;
    the waiter releases the lock inside ``wait``, so a caller that takes
    the lock after ``entered`` is set finds the thread waiting."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()

    def wait(self, timeout=None):
        if timeout is not None and threading.current_thread().name == THREAD_NAME:
            self.entered.set()
        return super().wait(timeout)


class TestScheduler:
    def test_one_engine_thread_runs_gc_scrub_and_watchdog(self):
        before = set(threading.enumerate())
        db = AeonG(
            gc_interval_transactions=2,
            resilience=ResilienceConfig(watchdog_interval=0.01),
        )
        db.start_background_gc(interval_seconds=0.01)
        Scrubber(db).start_background(interval_seconds=0.01)
        deadline = db.begin(timeout=30.0)
        for i in range(6):
            _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
        time.sleep(0.05)  # let every task run at least once
        assert _engine_threads(before) == [THREAD_NAME]
        metrics = db.metrics()
        assert metrics["gc"]["background_running"]
        assert metrics["integrity"]["background_running"]
        assert db.maintenance.watchdog.runs > 0
        db.abort(deadline)
        db.close()
        assert _engine_threads(before) == []

    def test_every_epoch_runs_on_the_maintenance_thread(self, monkeypatch):
        ran_on = []
        collect = GarbageCollector.collect

        def spy(self):
            ran_on.append(threading.current_thread().name)
            return collect(self)

        monkeypatch.setattr(GarbageCollector, "collect", spy)
        db = AeonG(gc_interval_transactions=3)
        for i in range(30):
            _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
        db.maintenance.settle()
        assert len(ran_on) >= 5
        assert set(ran_on) == {THREAD_NAME}
        assert db.history.records_written > 0
        db.close()

    def test_backlog_never_exceeds_two_intervals(self, monkeypatch):
        monkeypatch.setattr(faults, "FAULT_DELAY_SECONDS", 0.02)
        interval = 4
        db = AeonG(gc_interval_transactions=interval)
        FAILPOINTS.activate(SITE, "delay", times=None)
        backlog = []
        for i in range(10 * interval):
            _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
            backlog.append(len(db.manager.committed_pending_gc))
        FAILPOINTS.clear()
        assert max(backlog) <= 2 * interval
        assert db.metrics()["maintenance"]["backlog_waits"] > 0
        db.close()

    def test_pinned_watermark_blocks_no_writer(self):
        interval = 3
        db = AeonG(gc_interval_transactions=interval)
        pin = db.begin()
        writer = threading.Thread(
            target=lambda: [
                _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
                for i in range(10 * interval)
            ]
        )
        writer.start()
        writer.join(timeout=20)
        assert not writer.is_alive(), "a committer is blocked"
        db.maintenance.settle()
        assert db.gc.runs > 0
        assert db.history.records_written == 0  # pinned: zero-work epochs
        db.abort(pin)
        assert db.collect_garbage() > 0
        db.close()

    def test_close_waits_for_a_slow_epoch_and_leaves_nothing_due(
        self, monkeypatch
    ):
        monkeypatch.setattr(faults, "FAULT_DELAY_SECONDS", 0.2)
        db = AeonG(gc_interval_transactions=2)
        hits = FAILPOINTS.stats(SITE).hits
        FAILPOINTS.activate(SITE, "delay", times=None)
        for i in range(2):
            _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
        deadline = time.time() + 5.0
        while FAILPOINTS.stats(SITE).hits == hits:
            assert time.time() < deadline, "the epoch never started"
            time.sleep(0.005)
        db.close()  # mid-epoch
        gc = db.maintenance.gc
        assert gc.requested == gc.completed
        assert not db.maintenance.alive
        assert db.migrator.migrations == 1
        assert db.manager.committed_pending_gc == []

    def test_periodic_tasks_run_while_an_epoch_is_always_requested(self):
        db = AeonG(
            gc_interval_transactions=1,
            resilience=ResilienceConfig(watchdog_interval=0.002),
        )
        stop = _endless_epochs(db)
        scrubber = Scrubber(db)
        scrubber.start_background(interval_seconds=0.002)
        db.abort(db.begin(timeout=30.0))  # schedules the watchdog
        m, scrub = db.maintenance, scrubber._task
        _commit(db, lambda txn: db.create_vertex(txn, ["T"], {}))
        runs = [m.gc.runs, scrub.runs, m.watchdog.runs]
        time.sleep(0.2)
        epochs, scrubs, sweeps = (
            b - a for a, b in zip(runs, [m.gc.runs, scrub.runs, m.watchdog.runs])
        )
        stop.set()
        db.close()
        assert epochs >= 10
        assert scrubs >= 10 and sweeps >= 10, (scrubs, sweeps)

    def test_metrics_waits_only_for_epochs_requested_before_it(self):
        db = AeonG(gc_interval_transactions=1)
        stop = _endless_epochs(db)
        _commit(db, lambda txn: db.create_vertex(txn, ["T"], {}))
        while db.maintenance.gc.runs < 3:
            time.sleep(0.002)
        returned = threading.Event()
        caller = threading.Thread(target=lambda: (db.metrics(), returned.set()))
        caller.start()
        try:
            assert returned.wait(5.0), "metrics() waited out the whole stream"
        finally:
            stop.set()
            caller.join(timeout=5)
            db.close()

    @pytest.mark.parametrize("late", ["request", "schedule"])
    def test_a_wakeup_racing_the_idle_exit_is_not_lost(self, late):
        m = Maintenance(lambda: None, lambda: None)
        scrub = m.add("scrub", lambda: None)
        sent = threading.Event()

        def send():
            if late == "request":
                m.request(scrub)
            else:
                m.schedule(m.watchdog, 0.01)
            sent.set()

        # Send from another thread while the maintenance thread sits
        # between deciding to exit and exiting.
        m._cond = _ExitGap(lambda: _join(threading.Thread(target=send)))
        m.request(m.gc)
        task = scrub if late == "request" else m.watchdog
        deadline = time.time() + 5.0
        while task.runs == 0 and time.time() < deadline:
            time.sleep(0.005)
        m.stop()
        assert sent.is_set()
        assert task.runs > 0, "the wakeup was lost"

    def test_added_tasks_run_after_the_core_ones(self):
        ran = []
        m = Maintenance(lambda: ran.append("watchdog"), lambda: ran.append("gc"))
        extra = m.add("extra", lambda: ran.append("extra"))
        with pytest.raises(ValueError):
            m.add("gc", lambda: None)
        with m._cond:  # the thread starts, then waits for all three
            for task in (extra, m.gc, m.watchdog):
                m.request(task)
        m.settle()
        m.stop()
        assert ran == ["watchdog", "gc", "extra"]
        assert m.task_metrics(extra) == {
            "background_running": False,
            "background_errors": 0,
            "background_last_error": None,
            "deferred_errors": 0,
        }

    def test_replica_resync_leaks_no_thread(self, tmp_path):
        from tests.test_backup import TestResyncSelfHeal

        before = threading.active_count()
        TestResyncSelfHeal().test_diverged_replica_self_heals(tmp_path)
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert not any(t.name == THREAD_NAME for t in threading.enumerate())

    def test_unscheduling_the_last_periodic_task_lets_the_thread_exit(self):
        m = Maintenance(lambda: None, lambda: None)
        m._cond = cond = _TimedWait()
        m.schedule(m.gc, 60.0)
        assert cond.entered.wait(5.0), "the thread never reached its timed wait"
        assert m.unschedule(m.gc)
        deadline = time.time() + 5.0
        while m.alive and time.time() < deadline:
            time.sleep(0.005)
        alive = m.alive
        m.stop()
        assert not alive, "the thread sleeps out the cancelled interval"


def test_stop_background_gc_leaves_the_commit_trigger_on():
    interval = 4
    db = AeonG(gc_interval_transactions=interval)
    db.start_background_gc(interval_seconds=60.0)
    db.stop_background_gc()
    runs = db.gc.runs
    for i in range(2 * interval):
        _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"i": i}))
    assert db.metrics()["gc"]["runs"] > runs
    db.close()


def test_epoch_truncates_chains_at_the_watermark_it_took():
    db = AeonG(gc_interval_transactions=0)
    gid, _ts = _commit(db, lambda txn: db.create_vertex(txn, ["T"], {"v": 0}))
    _none, t1 = _commit(db, lambda txn: db.set_vertex_property(txn, gid, "v", 1))
    migrate = db.migrator.migrate

    def racing(transactions):
        staged = migrate(transactions)
        # A committer lands mid-epoch: not taken, so not migrated yet.
        _commit(db, lambda txn: db.set_vertex_property(txn, gid, "v", 2))
        return staged

    db.migrator.migrate = racing
    db.collect_garbage()
    db.migrator.migrate = migrate
    txn = db.begin()
    try:
        view = next(iter(db.vertex_versions(txn, gid, TemporalCondition.as_of(t1))))
        assert view.properties["v"] == 1
    finally:
        db.abort(txn)
    db.collect_garbage()
    db.close()
