"""Leader-based group commit (``repro.core.write_path``).

Covers the write path's contracts:

- **lock scope regression**: durability I/O (a deliberately slowed
  ``engine.wal.append``) never blocks concurrent read-only
  transactions — the engine lock covers only MVCC commit + enqueue;
- **batching**: concurrent committers coalesce into shared frames, so
  fsyncs-per-commit drops below one;
- **leaders**: an uncontended committer writes its own frame with no
  helper thread, and a committer only ever writes a batch holding its
  own commit;
- **backpressure**: a full queue blocks submitters instead of growing
  without bound;
- **semi-sync replication**: 8 concurrent semi-sync committers all get
  acks, and the ring ingests batch-appended records in commit-ts order;
- **durability**: every acked commit survives close/reopen in both
  durability modes, and so does every record a durable replica
  applied;
- **bulk KV insert**: ``KVStore.write`` of a batch is behaviourally
  identical to repeated ``put``/``delete``;
- **parallel migration**: a worker-pool epoch produces byte-identical
  history to a serial one.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

import pytest

import repro.faults as faults_module
from repro import AeonG
from repro.core.durability import EngineWal
from repro.core.write_path import CommitTicket, GroupCommitWriter
from repro.errors import FaultInjected
from repro.faults import FAILPOINTS
from repro.kvstore import KVStore, WriteBatch
from repro.observability import Tracer
from repro.replication import ReplicationConfig
from repro.resilience import ResilienceConfig

pytestmark = pytest.mark.write_path


@pytest.fixture(autouse=True)
def _clean_registry():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def _commit_one(db: AeonG, i: int) -> int:
    txn = db.begin()
    gid = db.create_vertex(txn, ["T"], {"i": i})
    db.commit(txn)
    return gid


class TestLockScopeRegression:
    """Satellite bugfix 1: the global engine lock is no longer held
    across WAL append/fsync in ``engine.commit``."""

    def test_slow_wal_append_does_not_block_readers(
        self, tmp_path, monkeypatch
    ):
        """With a 0.8 s delay injected at ``engine.wal.append``, a
        commit takes ≥ 0.8 s — but read-only transactions running
        *during* that window finish in milliseconds.  On the seed
        write path (append under the close lock) the reads would queue
        behind the stalled commit."""
        monkeypatch.setattr(faults_module, "FAULT_DELAY_SECONDS", 0.8)
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        gid = _commit_one(db, 0)  # something to read back
        FAILPOINTS.activate("engine.wal.append", "delay", nth=1, times=None)
        try:
            commit_started = threading.Event()
            commit_elapsed = []

            def committer() -> None:
                txn = db.begin()
                db.create_vertex(txn, ["T"], {"i": 1})
                commit_started.set()
                t0 = time.monotonic()
                db.commit(txn)
                commit_elapsed.append(time.monotonic() - t0)

            thread = threading.Thread(target=committer)
            thread.start()
            commit_started.wait(5.0)
            time.sleep(0.1)  # let the commit reach the stalled append
            t0 = time.monotonic()
            for _ in range(10):
                txn = db.begin()
                try:
                    assert db.get_vertex(txn, gid) is not None
                finally:
                    db.abort(txn)
            reads_elapsed = time.monotonic() - t0
            thread.join()
        finally:
            FAILPOINTS.clear()
        assert commit_elapsed and commit_elapsed[0] >= 0.7, (
            "the delay failpoint never stalled the commit"
        )
        # All ten reads together must finish well inside the stall.
        assert reads_elapsed < 0.5, (
            f"reads took {reads_elapsed:.3f}s — they queued behind the "
            "stalled WAL append"
        )
        db.close()


class TestGroupCommitBatching:
    def test_concurrent_committers_share_frames_and_fsyncs(
        self, tmp_path, monkeypatch
    ):
        """A slowed fsync forces coalescing: committers that arrive
        while a batch is being synced all land in the next shared
        frame, so batches < commits and fsyncs-per-commit < 1."""
        monkeypatch.setattr(faults_module, "FAULT_DELAY_SECONDS", 0.02)
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        FAILPOINTS.activate("engine.wal.sync", "delay", nth=1, times=None)
        try:
            workers = 8
            per_worker = 5
            barrier = threading.Barrier(workers)

            def committer(worker: int) -> None:
                barrier.wait()
                for i in range(per_worker):
                    _commit_one(db, worker * 100 + i)

            threads = [
                threading.Thread(target=committer, args=(w,))
                for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            FAILPOINTS.clear()
        stats = db.metrics()["write_path"]
        total = workers * per_worker
        assert stats["enabled"]
        assert stats["commits_submitted"] >= total
        assert stats["batches_written"] < stats["commits_submitted"], (
            f"no batching happened: {stats}"
        )
        assert stats["max_batch"] >= 2
        assert stats["fsyncs_per_commit"] < 1.0
        db.close()

        # Every acked commit is durable.
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with db.transaction() as txn:
            seen = {
                db.get_vertex(txn, record.gid).properties["i"]
                for record in db.storage.iter_vertex_records()
                if db.get_vertex(txn, record.gid) is not None
            }
        assert seen == {
            w * 100 + i for w in range(workers) for i in range(per_worker)
        }
        db.close()

    def test_queue_limit_backpressure(self, tmp_path, monkeypatch):
        """``wal_queue_limit=1`` plus a slow append: submitters must
        block (counted) rather than queue without bound, and every
        commit still lands."""
        monkeypatch.setattr(faults_module, "FAULT_DELAY_SECONDS", 0.05)
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
            resilience=ResilienceConfig(wal_queue_limit=1),
        )
        FAILPOINTS.activate("engine.wal.append", "delay", nth=1, times=None)
        try:
            threads = [
                threading.Thread(target=_commit_one, args=(db, i))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            FAILPOINTS.clear()
        stats = db.metrics()["write_path"]
        assert stats["commits_submitted"] == 6
        assert stats["records_written"] == 6
        assert stats["backpressure_waits"] >= 1
        assert stats["queue_depth"] == 0
        db.close()

    def test_uncontended_commits_lead_alone_without_a_thread(self, tmp_path):
        """Sequential commits find no leader active: each commit writes
        its own frame and fsync on the committing thread."""
        before = set(threading.enumerate())
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        for i in range(4):
            _commit_one(db, i)
        stats = db.metrics()["write_path"]
        assert stats["enabled"]
        assert stats["commits_submitted"] == 4
        assert stats["batches_written"] == 4
        assert stats["fsyncs_per_commit"] == 1.0
        assert set(threading.enumerate()) <= before
        db.close()
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with db.transaction() as txn:
            count = sum(
                1
                for record in db.storage.iter_vertex_records()
                if db.get_vertex(txn, record.gid) is not None
            )
        assert count == 4
        db.close()

    def test_each_batch_is_written_by_one_of_its_committers(
        self, tmp_path, monkeypatch
    ):
        """8 committers against a slowed fsync: batches coalesce, and
        the thread that writes a batch always has its own commit in
        it — a leader writes one batch and never drains for others."""
        monkeypatch.setattr(faults_module, "FAULT_DELAY_SECONDS", 0.01)
        written: list[tuple[int, list[int]]] = []
        original = EngineWal.append_batch

        def recording_append_batch(wal, records):
            written.append(
                (threading.get_ident(), [ts for ts, _ops in records])
            )
            return original(wal, records)

        monkeypatch.setattr(EngineWal, "append_batch", recording_append_batch)
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        FAILPOINTS.activate("engine.wal.sync", "delay", nth=1, times=None)
        workers = 8
        barrier = threading.Barrier(workers)
        committed: dict[int, set[int]] = {}

        def committer(worker: int) -> None:
            barrier.wait()
            mine = committed.setdefault(threading.get_ident(), set())
            for i in range(5):
                txn = db.begin()
                db.create_vertex(txn, ["T"], {"i": worker * 100 + i})
                mine.add(db.commit(txn))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=committer, args=(w,))
                for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            FAILPOINTS.clear()
        assert sum(len(ts) for _ident, ts in written) == workers * 5
        assert max(len(ts) for _ident, ts in written) >= 2
        for ident, batch in written:
            assert committed[ident] & set(batch), (
                f"thread {ident} wrote batch {batch} without its own commit"
            )
        db.close()

    def test_error_in_batch_does_not_ack_and_writer_survives(
        self, tmp_path
    ):
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        FAILPOINTS.activate("engine.wal.append", "error", nth=1, times=1)
        with pytest.raises(FaultInjected):
            _commit_one(db, 0)
        FAILPOINTS.clear()
        assert db.metrics()["write_path"]["batch_errors"] == 1
        _commit_one(db, 1)  # a failed batch does not poison the writer
        db.close()


class _Interrupted(BaseException):
    """Stands in for ``KeyboardInterrupt`` (raised by a signal handler)."""


class TestInterruptedFollower:
    """A committer interrupted while asleep on its ticket gives up its
    acknowledgement, never the batch or the leadership hand-off."""

    def test_other_committers_and_close_finish(self, tmp_path, monkeypatch):
        """The main thread sleeps behind a stalled leader with another
        follower queued after it, and a signal interrupts it.  The
        leader must then promote the live follower, not the abandoned
        ticket: both other commits finish, ``close()`` returns, and the
        interrupted commit is still durable (its record was queued)."""
        db = AeonG.open(
            tmp_path / "data", durability_mode="flush",
            gc_interval_transactions=0,
        )
        writer = db._wal_writer
        leader_writing = threading.Event()
        release_leader = threading.Event()
        original = EngineWal.append_batch

        def stalling_append_batch(wal, records):
            if not leader_writing.is_set():
                leader_writing.set()
                release_leader.wait(10)
            return original(wal, records)

        monkeypatch.setattr(EngineWal, "append_batch", stalling_append_batch)

        def raise_interrupted(_signum, _frame):
            raise _Interrupted()

        previous = signal.signal(signal.SIGUSR1, raise_interrupted)
        main = threading.main_thread().ident
        acked: list[int] = []

        def commit_in_thread(i: int) -> None:
            acked.append(_commit_one(db, i))

        def interrupt_the_main_thread() -> None:
            # Wait until the main thread sleeps in CommitTicket.wait
            # (the leader is stalled, so it cannot get past it), queue
            # a second follower behind it, then interrupt it.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                frame = sys._current_frames().get(main)
                if frame is not None and frame.f_code is CommitTicket.wait.__code__:
                    break
                time.sleep(0.001)
            time.sleep(0.05)
            follower.start()
            while len(writer._pending) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            signal.pthread_kill(main, signal.SIGUSR1)
            time.sleep(0.05)
            release_leader.set()

        # Daemons: a regression fails the test instead of hanging exit.
        leader = threading.Thread(target=commit_in_thread, args=(0,), daemon=True)
        follower = threading.Thread(target=commit_in_thread, args=(2,), daemon=True)
        interrupter = threading.Thread(target=interrupt_the_main_thread, daemon=True)
        try:
            leader.start()
            assert leader_writing.wait(5)
            interrupter.start()
            with pytest.raises(_Interrupted):
                _commit_one(db, 1)
        finally:
            release_leader.set()
            signal.signal(signal.SIGUSR1, previous)
        for thread in (interrupter, leader, follower):
            thread.join(timeout=10)
            assert not thread.is_alive(), "a committer never got its ack"
        assert len(acked) == 2
        closer = threading.Thread(target=db.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() waited on an orphaned batch"

        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert db.last_recovery.transactions_replayed == 3
        db.close()

    def test_a_promoted_ticket_leads_for_an_interrupted_owner(self):
        """An interrupt that lands after the ticket was promoted but
        before its owner woke: the owner leads before re-raising, so
        the batch is written and the writer goes idle."""
        written: list[list[int]] = []

        class Wal:
            def append_batch(self, records):
                written.append([ts for ts, _ops in records])
                if len(written) == 1:
                    # Queued while the first leader writes: promoted
                    # when that leader finishes.
                    late.append(writer.submit(2, []))

        class Replication:
            def note_commit_batch(self, records):
                pass

        writer = GroupCommitWriter(Wal(), Replication(), Tracer())
        late: list = []
        writer.submit(1, []).wait()
        (ticket,) = late
        assert not ticket._done  # promoted, owner not awake yet
        writer._abandon(ticket)
        assert ticket._done and ticket.error is None
        assert written == [[1], [2]]
        writer.stop()  # returns: no leader is active, nothing pending


class TestSemiSyncBatchOrdering:
    """Satellite bugfix 2: the replication ring ingests batch-appended
    records in commit-ts order, and semi-sync committers wake
    per-batch."""

    def test_eight_concurrent_semi_sync_committers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(faults_module, "FAULT_DELAY_SECONDS", 0.01)
        config = ReplicationConfig(sync_commit=True, sync_timeout=10.0)
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
            replication=config,
        )
        repl = db.replication
        repl.register_replica("r1", 0, repl.epoch)
        stop = threading.Event()

        def acker() -> None:
            """A fake replica that instantly applies everything the
            primary has durably committed."""
            while not stop.is_set():
                repl.ack("r1", repl.watermark(), repl.epoch)
                time.sleep(0.002)

        acker_thread = threading.Thread(target=acker, daemon=True)
        acker_thread.start()
        # Slow the fsync slightly so concurrent committers coalesce
        # into real multi-record batches.
        FAILPOINTS.activate("engine.wal.sync", "delay", nth=1, times=None)
        workers = 8
        per_worker = 4
        barrier = threading.Barrier(workers)
        failures: list[BaseException] = []

        def committer(worker: int) -> None:
            barrier.wait()
            for i in range(per_worker):
                try:
                    _commit_one(db, worker * 100 + i)
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        try:
            threads = [
                threading.Thread(target=committer, args=(w,))
                for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            FAILPOINTS.clear()
            stop.set()
            acker_thread.join()
        assert not failures, f"semi-sync commit failed: {failures!r}"
        assert repl.counters["sync_commit_timeouts"] == 0
        assert repl.counters["sync_commit_waits"] >= workers * per_worker
        # The ring must be strictly increasing in commit-ts even though
        # records arrived via multi-record batches.
        ring_ts = [ts for ts, _ops in repl._ring]
        assert ring_ts == sorted(ring_ts)
        assert len(ring_ts) == len(set(ring_ts))
        assert len(ring_ts) == workers * per_worker
        assert repl.counters["ring_batches"] >= 1
        stats = db.metrics()["write_path"]
        assert stats["batches_written"] <= stats["commits_submitted"]
        db.close()

    def test_replica_stream_sees_batched_records_in_order(self, tmp_path):
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        barrier = threading.Barrier(4)

        def committer(worker: int) -> None:
            barrier.wait()
            for i in range(5):
                _commit_one(db, worker * 100 + i)

        threads = [
            threading.Thread(target=committer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = db.replication.records_from(1, limit=1000)
        ts_list = [ts for ts, _ops in records]
        assert ts_list == sorted(ts_list)
        assert len(ts_list) == 20
        db.close()


class TestDurabilityAcrossReopen:
    @pytest.mark.parametrize("durability_mode", ["fsync", "flush"])
    def test_acked_commits_survive(self, tmp_path, durability_mode):
        db = AeonG.open(
            tmp_path / "data",
            durability_mode=durability_mode,
            gc_interval_transactions=0,
        )
        gids = [_commit_one(db, i) for i in range(10)]
        db.close()
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with db.transaction() as txn:
            for i, gid in enumerate(gids):
                view = db.get_vertex(txn, gid)
                assert view is not None and view.properties["i"] == i
        db.close()

    def test_durable_replica_journals_applied_records(self, tmp_path):
        """``apply_replicated`` writes through the same group-commit
        path as ``commit``: the replica's write-path counters move, and
        its own WAL brings the applied records back after a restart."""
        primary = AeonG(gc_interval_transactions=0)
        gids = [_commit_one(primary, i) for i in range(5)]
        records = primary.replication.records_from(1, limit=100)
        assert len(records) == 5
        replica = AeonG.open(
            tmp_path / "replica",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        for ts, ops in records:
            assert replica.apply_replicated(ts, ops)
        stats = replica.metrics()["write_path"]
        assert stats["records_written"] == 5
        assert stats["fsyncs_per_commit"] == 1.0
        replica.close()
        replica = AeonG.open(tmp_path / "replica", gc_interval_transactions=0)
        assert replica.last_recovery.transactions_replayed == 5
        with replica.transaction() as txn:
            for i, gid in enumerate(gids):
                assert replica.get_vertex(txn, gid).properties["i"] == i
        replica.close()
        primary.close()

    def test_checkpoint_quiesces_the_writer(self, tmp_path):
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        for i in range(5):
            _commit_one(db, i)
        db.checkpoint()
        # Post-checkpoint commits land in the (truncated) WAL.
        gid = _commit_one(db, 99)
        db.close()
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert db.last_recovery.checkpoint_loaded
        with db.transaction() as txn:
            assert db.get_vertex(txn, gid).properties["i"] == 99
        db.close()


class TestMemtableBulkInsert:
    def test_put_many_matches_sequential_puts(self):
        import random

        rng = random.Random(7)
        reference = KVStore()
        bulk = KVStore()
        # Pre-populate both identically so the bulk pass hits existing
        # keys (overwrites + tombstones), not just fresh inserts.
        base = [
            (f"k{rng.randrange(50):03d}".encode(), b"base")
            for _ in range(30)
        ]
        for key, value in base:
            reference.put(key, value)
            bulk.put(key, value)
        reference.flush()
        bulk.flush()
        batch = WriteBatch()
        for _ in range(80):
            key = f"k{rng.randrange(80):03d}".encode()
            if rng.random() < 0.2:
                reference.delete(key)
                batch.delete(key)
            else:
                value = f"v{rng.randrange(1000)}".encode()
                reference.put(key, value)
                batch.put(key, value)
        bulk.write(batch)
        assert list(bulk.scan_all()) == list(reference.scan_all())
        assert len(bulk) == len(reference)
        assert bulk.approximate_bytes() == reference.approximate_bytes()
        for key, _value in batch.items():
            assert bulk.get(key) == reference.get(key)

    def test_put_many_duplicate_keys_last_wins(self):
        store = KVStore()
        batch = WriteBatch()
        for value in (b"1", b"2", b"3"):
            batch.put(b"a", value)
        store.write(batch)
        assert store.get(b"a") == b"3"
        assert len(store) == 1
