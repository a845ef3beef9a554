"""Crash-matrix harness (the acceptance test for the failpoint work).

For every registered failpoint site, simulate a process crash at that
site in the middle of a live workload, reopen the store, and assert the
*committed-prefix* contract:

- every acknowledged commit is recovered, complete (all of its ops);
- nothing beyond the acknowledged set appears, except possibly the one
  transaction that was in flight when the crash hit (a fully-logged
  record may legitimately survive);
- recovery never misreports expected crash residue (a torn tail) as
  interior corruption.

A coverage test at the bottom asserts the matrix spans *every*
registered site, so adding a new failpoint without matrix coverage
fails the suite.
"""

from __future__ import annotations

import pytest

from repro import AeonG, TemporalCondition
from repro.errors import FaultInjected
from repro.faults import FAILPOINTS, SimulatedCrash
from repro.integrity import Scrubber
from repro.kvstore import KVStore
from repro.kvstore.sstable import decode_table, encode_table
# Importing the protocol module registers the server.conn.* socket
# sites, so the completeness check below sees (and demands) them.
from repro.server.protocol import SITE_CONN_READ, SITE_CONN_WRITE
# Likewise the replication module registers the repl.stream.* and
# repl.snapshot.* sites, and the backup module registers backup.copy,
# backup.manifest and restore.replay.
from repro.backup import (
    SITE_BACKUP_COPY,
    SITE_BACKUP_MANIFEST,
    SITE_RESTORE_REPLAY,
)
from repro.replication import (
    SITE_SNAPSHOT_READ,
    SITE_SNAPSHOT_WRITE,
    SITE_STREAM_READ,
    SITE_STREAM_WRITE,
)

pytestmark = pytest.mark.fault_matrix


@pytest.fixture(autouse=True)
def _clean_registry():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


# -- engine-level matrix ----------------------------------------------------

ENGINE_MATRIX = [
    ("engine.wal.append", "crash"),
    ("engine.wal.append", "torn-write"),
    ("engine.wal.sync", "crash"),
    ("engine.wal.sync", "partial-fsync"),
    ("engine.wal.truncate", "crash"),
    ("checkpoint.current.write", "crash"),
    ("checkpoint.current.write", "torn-write"),
    ("checkpoint.meta.write", "crash"),
    ("checkpoint.meta.write", "torn-write"),
    ("checkpoint.retire", "crash"),
    ("checkpoint.install", "crash"),
    ("checkpoint.cleanup", "crash"),
    ("kv.save.sst", "crash"),
    ("kv.save.manifest", "crash"),
    ("migration.commit_batch", "crash"),
]

#: WAL-tearing combinations whose recovery must flag (and repair) a
#: torn tail.
_TEARS_ENGINE_WAL = {
    ("engine.wal.append", "torn-write"),
    ("engine.wal.sync", "partial-fsync"),
}


_ENGINE_SETTINGS = dict(
    durability_mode="fsync", gc_interval_transactions=0, anchor_interval=2
)


def _commit_one(db: AeonG, i: int) -> int:
    """One acked transaction: a vertex with two properties (so a
    partially-applied transaction is detectable)."""
    txn = db.begin()
    gid = db.create_vertex(txn, ["T"], {"i": i})
    db.set_vertex_property(txn, gid, "j", i * 10)
    db.commit(txn)
    return gid


def _recovered_vertices(db: AeonG) -> dict[int, dict]:
    txn = db.begin()
    try:
        out = {}
        for record in db.storage.iter_vertex_records():
            view = db.get_vertex(txn, record.gid)
            if view is not None:
                out[record.gid] = dict(view.properties)
        return out
    finally:
        db.abort(txn)


def _engine_crash_run(path, site, mode, kv=None, prune=False):
    """Workload with ``site`` armed after a healthy prefix (3 commits,
    one GC epoch, one installed checkpoint — so retire/fence paths are
    live).  Returns what was acked before the simulated crash.

    ``kv`` injects the history store of a fresh engine at ``path``.
    ``prune`` drops the history the healthy prefix migrated before
    each later checkpoint (``prune_history``), so the store compacts
    tombstones away."""
    if kv is None:
        db = AeonG.open(path, **_ENGINE_SETTINGS)
    else:
        db = AeonG(durability_dir=path, kv=kv, **_ENGINE_SETTINGS)
    acked: dict[int, int] = {}
    for i in range(3):
        acked[_commit_one(db, i)] = i
    db.collect_garbage()
    cut = db.now()
    db.checkpoint()

    crashed = False
    inflight: tuple[int, int] | None = None
    FAILPOINTS.activate(site, mode, nth=1, times=None)
    try:
        for i in range(3, 10):
            txn = db.begin()
            gid = db.create_vertex(txn, ["T"], {"i": i})
            db.set_vertex_property(txn, gid, "j", i * 10)
            inflight = (gid, i)
            db.commit(txn)
            acked[gid] = i
            inflight = None
            if i in (5, 8):
                db.collect_garbage()
                if prune:
                    db.prune_history(cut)
                db.checkpoint()
    except SimulatedCrash:
        crashed = True
    finally:
        fired = FAILPOINTS.stats(site).fired
        FAILPOINTS.clear()
    # The crashed engine is abandoned without close() — a real crash
    # gets no goodbye flush either.
    return acked, inflight, crashed, fired


def _assert_committed_prefix(path, site, mode, acked, inflight):
    """Reopen ``path`` through :meth:`AeonG.open` and check the
    committed-prefix contract, then that the engine takes writes."""
    db = AeonG.open(path, **_ENGINE_SETTINGS)
    report = db.last_recovery
    assert report is not None
    # Crash residue must never read as interior corruption.
    assert not report.corruption_detected
    if (site, mode) in _TEARS_ENGINE_WAL:
        assert report.torn_tail
        assert report.wal_repaired
        assert report.bytes_discarded > 0

    recovered = _recovered_vertices(db)
    for gid, i in acked.items():
        assert gid in recovered, f"acked commit {i} lost"
        assert recovered[gid] == {"i": i, "j": i * 10}, (
            f"acked commit {i} recovered incomplete"
        )
    allowed = set(acked)
    if inflight is not None:
        allowed.add(inflight[0])
    assert set(recovered) <= allowed, "phantom transaction recovered"
    if inflight is not None and inflight[0] in recovered:
        # A surviving in-flight txn must still be all-or-nothing.
        gid, i = inflight
        assert recovered[gid] == {"i": i, "j": i * 10}

    # The reopened engine must be fully writable again.
    gid = _commit_one(db, 99)
    with db.transaction() as txn:
        assert db.get_vertex(txn, gid).properties["j"] == 990
    db.close()


class TestEngineCrashMatrix:
    @pytest.mark.parametrize("site,mode", ENGINE_MATRIX)
    def test_committed_prefix_survives(self, tmp_path, site, mode):
        path = tmp_path / "data"
        acked, inflight, crashed, fired = _engine_crash_run(path, site, mode)
        assert crashed, f"site {site} never fired in the workload"
        assert fired >= 1
        _assert_committed_prefix(path, site, mode, acked, inflight)

    def test_crash_during_recovery_truncation(self, tmp_path):
        """engine.wal.truncate inside recovery: the repair of a torn
        tail dies mid-swap; a second open still lands on the same
        committed prefix."""
        path = tmp_path / "data"
        db = AeonG.open(path, **_ENGINE_SETTINGS)
        acked = {_commit_one(db, i): i for i in range(4)}
        FAILPOINTS.activate("engine.wal.append", "torn-write")
        with pytest.raises(SimulatedCrash):
            _commit_one(db, 4)
        FAILPOINTS.clear()

        FAILPOINTS.activate("engine.wal.truncate", "crash")
        with pytest.raises(SimulatedCrash):
            AeonG.open(path, **_ENGINE_SETTINGS)
        FAILPOINTS.clear()

        _assert_committed_prefix(
            path, "engine.wal.append", "torn-write", acked, None
        )


# -- migration inside recovery's replay -------------------------------------

#: Replay runs one GC epoch every this many replayed commits.
_REPLAY_INTERVAL = 4


def _replay_state(db: AeonG) -> tuple:
    db.collect_garbage()
    return (
        _recovered_vertices(db),
        list(db.history.kv.scan_all()),
        db.last_recovery.as_dict(),
    )


class TestReplayMigrationFaults:
    """``migration.commit_batch`` during :meth:`AeonG.open`'s replay,
    which runs a GC epoch every ``gc_interval_transactions`` replayed
    commits: a crash is a crash of ``open`` (the next open lands where
    a clean one does), an error leaves the epoch's transactions queued
    for the next epoch."""

    @staticmethod
    def _wal_only(path) -> None:
        """Ten commits (two vertices, eight updates) in the log alone:
        replay runs epochs after its 4th and 8th commit."""
        db = AeonG.open(path, **_ENGINE_SETTINGS)
        gids = [_commit_one(db, i) for i in range(2)]
        for i in range(8):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gids[i % 2], "j", i)
        db.close()

    @staticmethod
    def _open(path) -> AeonG:
        return AeonG.open(
            path,
            **dict(_ENGINE_SETTINGS, gc_interval_transactions=_REPLAY_INTERVAL),
        )

    def test_crash_in_replay_epoch_then_clean_reopen(self, tmp_path):
        path, clean = tmp_path / "data", tmp_path / "clean"
        self._wal_only(path)
        self._wal_only(clean)
        fired = FAILPOINTS.stats("migration.commit_batch").fired
        FAILPOINTS.activate("migration.commit_batch", "crash", nth=2)
        with pytest.raises(SimulatedCrash):
            self._open(path)
        assert FAILPOINTS.stats("migration.commit_batch").fired == fired + 1
        FAILPOINTS.clear()
        db, reference = self._open(path), self._open(clean)
        try:
            assert db.last_recovery.transactions_replayed == 10
            assert _replay_state(db) == _replay_state(reference)
        finally:
            db.close()
            reference.close()

    def test_error_in_replay_epoch_leaves_its_transactions_queued(
        self, tmp_path
    ):
        path, clean = tmp_path / "data", tmp_path / "clean"
        self._wal_only(path)
        self._wal_only(clean)
        FAILPOINTS.activate("migration.commit_batch", "error", nth=2)
        db = self._open(path)  # the failed epoch does not fail open
        FAILPOINTS.clear()
        reference = self._open(clean)
        try:
            assert db.migrator.failed_epochs == 1
            assert db.migrator.migrations == 1
            assert "FaultInjected" in db.metrics()["gc"]["background_last_error"]
            # The second epoch's four commits stay queued, with the two
            # replayed after it; the clean open left only those two.
            assert len(db.manager.committed_pending_gc) == 6
            assert len(reference.manager.committed_pending_gc) == 2
            assert _replay_state(db) == _replay_state(reference)
            assert db.manager.committed_pending_gc == []
        finally:
            db.close()
            reference.close()


# -- kv.* storage sites, crashed inside an engine ---------------------------

#: The history store's own maintenance sites.  Every GC epoch's
#: migration batch is one KV write, which flushes (``kv.flush``); the
#: workload prunes the oldest history, whose tombstones compaction
#: drops (``kv.compact``), and each checkpoint encodes the store's
#: table (``kv.sstable.encode``).  The store keeps no log: recovery
#: rebuilds it from the checkpoint and the engine WAL.
KV_MATRIX = [
    ("kv.flush", "crash"),
    ("kv.compact", "crash"),
    ("kv.sstable.encode", "crash"),
]


class TestKVStoreCrashMatrix:
    @pytest.mark.parametrize("site,mode", KV_MATRIX)
    def test_committed_prefix_survives(self, tmp_path, site, mode):
        path = tmp_path / "data"
        acked, inflight, crashed, fired = _engine_crash_run(
            path, site, mode, kv=KVStore(), prune=True
        )
        assert crashed, f"site {site} never fired in the workload"
        assert fired >= 1
        _assert_committed_prefix(path, site, mode, acked, inflight)


# -- save() over an already-saved directory ---------------------------------

#: Every site a second ``save()`` into the same directory passes: the
#: snapshot files, the history SSTables, and the checkpoint swap.
SAVE_MATRIX = [
    ("checkpoint.current.write", "crash"),
    ("checkpoint.meta.write", "crash"),
    ("kv.save.sst", "crash"),
    ("kv.save.manifest", "crash"),
    ("checkpoint.retire", "crash"),
    ("checkpoint.install", "crash"),
    ("checkpoint.cleanup", "crash"),
]


def _saved_state(db: AeonG, watched: int) -> tuple:
    """What a reopened directory must reproduce exactly: the live
    vertices and every version of ``watched``."""
    with db.transaction() as txn:
        versions = [
            dict(view.properties)
            for view in db.vertex_versions(
                txn, watched, TemporalCondition.between(0, db.now())
            )
        ]
    return _recovered_vertices(db), versions


class TestSaveCrashMatrix:
    @pytest.mark.parametrize("site,mode", SAVE_MATRIX)
    def test_reopen_sees_old_or_new_save(self, tmp_path, site, mode):
        path = tmp_path / "snap"
        db = AeonG(gc_interval_transactions=0, anchor_interval=2)
        watched = _commit_one(db, 0)
        for i in range(1, 3):
            _commit_one(db, i)
        db.save(path)
        old = _saved_state(db, watched)
        for i in range(3, 6):
            _commit_one(db, i)
        with db.transaction() as txn:
            db.set_vertex_property(txn, watched, "j", -1)
        new = _saved_state(db, watched)

        FAILPOINTS.activate(site, mode, nth=1, times=None)
        try:
            with pytest.raises(SimulatedCrash):
                db.save(path)
        finally:
            FAILPOINTS.clear()

        reopened = AeonG.open(
            path, gc_interval_transactions=0, anchor_interval=2
        )
        state = _saved_state(reopened, watched)
        assert state in (old, new), "reopened a mix of two saves"
        with reopened.transaction() as txn:
            gid = reopened.create_vertex(txn, ["T"], {"i": 99})
        assert gid not in state[0], f"gid {gid} handed out twice"
        reopened.close()


# -- group-commit batch faults ----------------------------------------------


class TestGroupCommitBatchFaults:
    """Deeper coverage of the ``engine.wal.*`` sites on the
    group-commit path (each fires once per batch) beyond the
    parametrized loop: error-mode delivery to every committer in the
    batch, and a genuinely concurrent crash mid-batch recovering to a
    prefix of *acked* commits only."""

    @pytest.mark.parametrize(
        "site", ["engine.wal.append", "engine.wal.sync"]
    )
    def test_error_mode_fails_the_commit_without_acking(
        self, tmp_path, site
    ):
        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        _commit_one(db, 0)
        FAILPOINTS.activate(site, "error", nth=1, times=1)
        with pytest.raises(FaultInjected):
            _commit_one(db, 1)
        FAILPOINTS.clear()
        # A failed batch must not kill the writer: the next commit is
        # durably acknowledged again.
        gid = _commit_one(db, 2)
        db.close()

        db = AeonG.open(
            tmp_path / "data",
            durability_mode="fsync",
            gc_interval_transactions=0,
        )
        recovered = _recovered_vertices(db)
        assert gid in recovered and recovered[gid] == {"i": 2, "j": 20}
        if site == "engine.wal.append":
            # The fault fired before the frame was written: the
            # errored, never-acked commit must not be durable.
            assert all(props["i"] != 1 for props in recovered.values())
        else:
            # At the fsync site the frame is already in the OS buffer;
            # like any fully-logged unacked commit it *may* survive —
            # but only all-or-nothing.
            for props in recovered.values():
                if props["i"] == 1:
                    assert props == {"i": 1, "j": 10}
        db.close()

    @pytest.mark.parametrize(
        "site,mode",
        [
            ("engine.wal.append", "crash"),
            ("engine.wal.append", "torn-write"),
            ("engine.wal.sync", "crash"),
            ("engine.wal.sync", "partial-fsync"),
        ],
    )
    def test_concurrent_crash_mid_batch_keeps_acked_prefix(
        self, tmp_path, site, mode
    ):
        """8 concurrent committers, crash on the 3rd group-commit
        batch: every acked commit survives recovery complete, nothing
        beyond the acked set plus the (unacked) in-flight batch
        surfaces, and replay lands via ``begin_replay``'s forced
        packed-timestamp path."""
        import threading

        path = tmp_path / "data"
        db = AeonG.open(
            path, durability_mode="fsync", gc_interval_transactions=0
        )
        lock = threading.Lock()
        attempted: dict[int, int] = {}
        acked: dict[int, int] = {}
        crashes: list[int] = []
        start = threading.Barrier(8)
        FAILPOINTS.activate(site, mode, nth=3, times=None)

        def committer(worker: int) -> None:
            start.wait()
            for i in range(6):
                tag = worker * 100 + i
                txn = db.begin()
                try:
                    gid = db.create_vertex(txn, ["T"], {"i": tag})
                    db.set_vertex_property(txn, gid, "j", tag * 10)
                    with lock:
                        attempted[gid] = tag
                    db.commit(txn)
                except SimulatedCrash:
                    with lock:
                        crashes.append(tag)
                    return
                with lock:
                    acked[gid] = tag

        threads = [
            threading.Thread(target=committer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fired = FAILPOINTS.stats(site).fired
        FAILPOINTS.clear()
        assert fired >= 1, f"site {site} never fired"
        assert crashes, "no committer observed the batch fault"
        # The crashed engine is abandoned without close(), like a real
        # process death.

        db2 = AeonG.open(
            path, durability_mode="fsync", gc_interval_transactions=0
        )
        report = db2.last_recovery
        assert report is not None
        # A crash mid-batch is expected residue, never corruption.
        assert not report.corruption_detected
        recovered = _recovered_vertices(db2)
        for gid, tag in acked.items():
            assert gid in recovered, f"acked commit {tag} lost"
            assert recovered[gid] == {"i": tag, "j": tag * 10}, (
                f"acked commit {tag} recovered incomplete"
            )
        # Nothing phantom: only acked commits, plus possibly members of
        # the unacked in-flight batch whose frame was fully logged
        # before the crash (fsync-crash mode) — and those must be
        # complete, all-or-nothing.
        assert set(recovered) <= set(attempted)
        for gid in set(recovered) - set(acked):
            tag = attempted[gid]
            assert recovered[gid] == {"i": tag, "j": tag * 10}
        if mode in ("torn-write", "partial-fsync"):
            # A torn batch frame is discarded wholesale: recovery is
            # exactly the acked prefix, and the tail was repaired.
            assert set(recovered) == set(acked)
            assert report.torn_tail
            assert report.wal_repaired
        # The reopened engine groups and commits again.
        gid = _commit_one(db2, 7777)
        with db2.transaction() as txn:
            assert db2.get_vertex(txn, gid).properties["j"] == 77770
        db2.close()


class TestErrorOnlySites:
    def test_sstable_decode_fault_is_surfaced(self, tmp_path):
        """kv.sstable.decode fires while *reading* (load/recovery), so
        a crash there is just a failed open — exercise the error mode
        and a clean retry instead."""
        store = KVStore()
        store.put(b"a", b"1")
        store.save(tmp_path / "snap")
        FAILPOINTS.activate("kv.sstable.decode", "error")
        with pytest.raises(FaultInjected):
            KVStore.load(tmp_path / "snap")
        FAILPOINTS.clear()
        assert KVStore.load(tmp_path / "snap").get(b"a") == b"1"

    def test_sstable_decode_registered(self):
        data = encode_table([(b"k", b"v")])
        FAILPOINTS.activate("kv.sstable.decode", "error")
        with pytest.raises(FaultInjected):
            decode_table(data)

    def test_sstable_decode_corrupt_surfaces_as_corruption(self):
        """corrupt mode damages a byte the decoder verifies (the
        checksummed entries, or an empty table's entry count), so it
        must surface as CorruptionError — never as silently wrong
        data."""
        from repro.errors import CorruptionError

        for entries in ([(b"k", b"v")], []):
            data = encode_table(entries)
            FAILPOINTS.activate("kv.sstable.decode", "corrupt")
            with pytest.raises(CorruptionError):
                decode_table(data)
            FAILPOINTS.clear()
            assert decode_table(data) == entries

    def test_history_fetch_corrupt_heals_via_scrubber(self):
        """corrupt mode flips a bit in a stored history record (at-rest
        rot): the read fails its checksum, the scrubber quarantines and
        repairs, and reads recover."""
        from repro import IntegrityError, TemporalCondition

        db = AeonG(anchor_interval=4, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["H"], {"v": 0})
        for i in range(1, 10):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", i)
        db.collect_garbage()
        cond = TemporalCondition.between(0, db.now())
        FAILPOINTS.activate("history.fetch", "corrupt")
        txn = db.begin()
        try:
            with pytest.raises(IntegrityError):
                list(db.vertex_versions(txn, gid, cond))
        finally:
            db.abort(txn)
            FAILPOINTS.clear()
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.repairs_applied >= 1
        assert scrubber.scrub_full().ok
        assert db.history.quarantine.count() == 0
        with db.transaction() as txn:
            assert list(db.vertex_versions(txn, gid, cond))
        db.close()

    def test_history_fetch_fault_is_surfaced(self):
        """history.fetch fires on the temporal *read* path; the error
        mode surfaces cleanly and a retried read succeeds (breaker
        behaviour is covered in tests/test_resilience.py)."""
        from repro import TemporalCondition

        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["H"], {"v": 0})
        stamp = db.now()
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 1)
        db.collect_garbage()
        txn = db.begin()
        try:
            FAILPOINTS.activate("history.fetch", "error")
            with pytest.raises(FaultInjected):
                list(db.vertex_versions(txn, gid, TemporalCondition.as_of(stamp - 1)))
            FAILPOINTS.clear()
            views = list(
                db.vertex_versions(txn, gid, TemporalCondition.as_of(stamp - 1))
            )
            assert views and views[0].properties["v"] == 0
        finally:
            db.abort(txn)


# -- serving-layer socket matrix --------------------------------------------

#: Every socket fault the serving layer's framing interprets, at both
#: I/O sites.  ``crash`` is deliberately absent: a process crash at a
#: socket boundary is indistinguishable from ``disconnect`` to the
#: peer, and engine-side crash recovery is the engine matrix's job.
SOCKET_MATRIX = [
    (SITE_CONN_READ, "error"),
    (SITE_CONN_READ, "delay"),
    (SITE_CONN_READ, "disconnect"),
    (SITE_CONN_READ, "short-read"),
    (SITE_CONN_WRITE, "error"),
    (SITE_CONN_WRITE, "delay"),
    (SITE_CONN_WRITE, "disconnect"),
    (SITE_CONN_WRITE, "torn-write"),
]


class TestServerSocketMatrix:
    """The committed-prefix contract at the wire: under every socket
    fault mode, a retrying client's acknowledged writes exist, the
    server survives (no unhandled resets, no leaked sessions), and the
    next client is served normally."""

    @pytest.mark.parametrize("site,mode", SOCKET_MATRIX)
    def test_acked_writes_survive_socket_fault(self, site, mode):
        from repro.resilience import ResilienceConfig, RetryPolicy
        from repro.server import Client, ServerThread
        from repro.server.app import ServerConfig

        db = AeonG(
            gc_interval_transactions=0,
            resilience=ResilienceConfig(
                max_concurrent_transactions=4, admission_timeout=0.2
            ),
        )
        thread = ServerThread(db, ServerConfig(executor_workers=4))
        host, port = thread.start()
        acked = []
        try:
            client = Client(
                host,
                port,
                policy=RetryPolicy(
                    max_attempts=8, base_delay=0.005, max_delay=0.05
                ),
            )
            client.connect()
            FAILPOINTS.activate(site, mode, nth=2, times=2)
            for i in range(6):
                try:
                    client.query(
                        "CREATE (n:M {ext_id: $e})", {"e": f"m{i}"}
                    )
                    acked.append(f"m{i}")
                except (Exception, ConnectionError):
                    pass
            fired = FAILPOINTS.stats(site).fired
            FAILPOINTS.clear()
            client.close()
            assert fired >= 1, f"site {site} never fired"

            # acked implies present — no acknowledged write lost
            with Client(host, port) as check:
                rows = check.query("MATCH (n:M) RETURN n.ext_id")
            assert set(acked) <= {row["n.ext_id"] for row in rows}
        finally:
            FAILPOINTS.clear()
            thread.stop()
        # no zombie transactions, no leaked admission slots
        metrics = db.metrics()
        assert metrics["transactions"]["active"] == 0
        assert metrics["resilience"]["admission"]["in_flight"] == 0
        db.close()


# -- replication-stream matrix ----------------------------------------------

REPL_MATRIX = [
    (SITE_STREAM_READ, "error"),
    (SITE_STREAM_READ, "delay"),
    (SITE_STREAM_READ, "disconnect"),
    (SITE_STREAM_READ, "short-read"),
    (SITE_STREAM_READ, "torn-write"),
    (SITE_STREAM_WRITE, "error"),
    (SITE_STREAM_WRITE, "delay"),
    (SITE_STREAM_WRITE, "disconnect"),
    (SITE_STREAM_WRITE, "torn-write"),
]


class TestReplicationStreamMatrix:
    """The committed-prefix contract across the replication stream:
    under every stream fault mode, every write acknowledged by the
    primary eventually exists on the replica (the stream retries,
    refetches torn batches, and never applies a damaged record)."""

    @pytest.mark.parametrize("site,mode", REPL_MATRIX)
    def test_acked_writes_reach_the_replica(self, site, mode):
        import time

        from repro.replication import ReplicaRunner, ReplicationConfig
        from repro.resilience import RetryPolicy
        from repro.server import ServerThread

        primary = AeonG(gc_interval_transactions=0)
        thread = ServerThread(primary)
        host, port = thread.start()
        replica = AeonG(
            gc_interval_transactions=0,
            replication=ReplicationConfig(
                role="replica",
                primary_host=host,
                primary_port=port,
                poll_interval=0.02,
                # The fault must never look like a dead primary.
                lease_timeout=60.0,
                auto_promote=False,
            ),
        )
        runner = ReplicaRunner(
            replica,
            replica.replication.config,
            policy=RetryPolicy(max_attempts=4, base_delay=0.005,
                               max_delay=0.05),
        )
        runner.start()
        try:
            FAILPOINTS.activate(site, mode, nth=2, times=3)
            acked = []
            for i in range(6):
                with primary.transaction() as txn:
                    primary.create_vertex(txn, ["R"], {"ext_id": f"r{i}"})
                acked.append(f"r{i}")
                time.sleep(0.01)  # interleave fetches with the faults
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    replica.replication.watermark()
                    == primary.replication.watermark()
                ):
                    break
                time.sleep(0.01)
            fired = FAILPOINTS.stats(site).fired
            FAILPOINTS.clear()
            assert fired >= 1, f"site {site} never fired"
            # acked implies present — no acknowledged write lost, no
            # damaged record applied.
            rows = replica.execute("MATCH (n:R) RETURN n.ext_id")
            assert {row["n.ext_id"] for row in rows} == set(acked)
            assert (
                replica.replication.watermark()
                == primary.replication.watermark()
            )
        finally:
            FAILPOINTS.clear()
            runner.stop()
            thread.stop()
            replica.close()
            primary.close()


# -- backup/restore matrix --------------------------------------------------

#: Crash-or-error during archiving and restoring.  The contract: the
#: destination is either absent or manifest-valid (the staging-dir +
#: atomic-rename discipline), a crashed run leaves at most removable
#: ``.tmp`` residue, and a clean rerun succeeds.
BACKUP_MATRIX = [
    (SITE_BACKUP_COPY, "crash"),
    (SITE_BACKUP_COPY, "error"),
    (SITE_BACKUP_MANIFEST, "crash"),
    (SITE_BACKUP_MANIFEST, "error"),
    (SITE_RESTORE_REPLAY, "crash"),
    (SITE_RESTORE_REPLAY, "error"),
]


class TestBackupCrashMatrix:
    @staticmethod
    def _source(tmp_path):
        db = AeonG.open(tmp_path / "src", gc_interval_transactions=0)
        for i in range(4):
            with db.transaction() as txn:
                db.create_vertex(txn, ["B"], {"i": i})
        db.checkpoint()
        with db.transaction() as txn:
            db.create_vertex(txn, ["B"], {"i": 4})
        db.close()

    @staticmethod
    def _assert_absent_or_valid(dest):
        from repro.backup import verify_backup

        if dest.exists():
            _manifest, findings = verify_backup(dest)
            assert findings == [], "torn archive passed for valid"

    @pytest.mark.parametrize("site,mode", BACKUP_MATRIX)
    def test_destination_absent_or_valid_and_rerun_succeeds(
        self, tmp_path, site, mode
    ):
        from repro.backup import create_backup, restore_backup

        self._source(tmp_path)
        dest = tmp_path / "arch"
        target = tmp_path / "restored"
        if site == SITE_RESTORE_REPLAY:
            create_backup(tmp_path / "src", dest)
        FAILPOINTS.activate(site, mode, nth=1, times=None)
        with pytest.raises((SimulatedCrash, FaultInjected)):
            if site == SITE_RESTORE_REPLAY:
                restore_backup(dest, target)
            else:
                create_backup(tmp_path / "src", dest)
        fired = FAILPOINTS.stats(site).fired
        FAILPOINTS.clear()
        assert fired >= 1
        if site == SITE_RESTORE_REPLAY:
            assert not target.exists(), "half-restored target left behind"
        else:
            self._assert_absent_or_valid(dest)
        # The rerun (over any crash residue) must land cleanly.
        if site == SITE_RESTORE_REPLAY:
            restore_backup(dest, target)
        else:
            create_backup(tmp_path / "src", dest)
            restore_backup(dest, target)
        restored = AeonG.open(target)
        try:
            with restored.transaction() as txn:
                count = sum(
                    1 for record in restored.storage.iter_vertex_records()
                    if restored.get_vertex(txn, record.gid) is not None
                )
            assert count == 5
        finally:
            restored.close()

    @pytest.mark.parametrize("mode", ["torn-write", "corrupt"])
    def test_silent_archive_damage_is_caught_not_restored(
        self, tmp_path, mode
    ):
        """torn-write/corrupt on backup.copy damage archived bytes
        *silently* — the manifest checksums (computed from the source
        bytes) must catch it at verify/restore time."""
        from repro.backup import create_backup, restore_backup, verify_backup
        from repro.errors import CorruptionError

        self._source(tmp_path)
        FAILPOINTS.activate(SITE_BACKUP_COPY, mode, nth=1, times=1)
        try:
            create_backup(tmp_path / "src", tmp_path / "arch")
        except SimulatedCrash:
            # torn-write through StorageIO is a torn-then-crash; the
            # staging discipline already covers it above.
            FAILPOINTS.clear()
            return
        FAILPOINTS.clear()
        _manifest, findings = verify_backup(tmp_path / "arch")
        assert any(
            f["code"] in ("checksum-mismatch", "size-mismatch")
            for f in findings
        )
        with pytest.raises(CorruptionError):
            restore_backup(tmp_path / "arch", tmp_path / "restored")


# -- snapshot-bootstrap stream matrix ---------------------------------------

#: Every fault the snapshot chunk stream interprets, at both ends.
#: ``crash`` is deliberately absent for the same reason as the socket
#: matrix: a process crash at the wire is ``disconnect`` to the peer,
#: and real SIGKILL-mid-resync coverage lives in benchmarks/test_backup.py.
SNAPSHOT_MATRIX = [
    (SITE_SNAPSHOT_READ, "error"),
    (SITE_SNAPSHOT_READ, "delay"),
    (SITE_SNAPSHOT_READ, "disconnect"),
    (SITE_SNAPSHOT_READ, "short-read"),
    (SITE_SNAPSHOT_READ, "torn-write"),
    (SITE_SNAPSHOT_READ, "corrupt"),
    (SITE_SNAPSHOT_WRITE, "error"),
    (SITE_SNAPSHOT_WRITE, "delay"),
    (SITE_SNAPSHOT_WRITE, "disconnect"),
    (SITE_SNAPSHOT_WRITE, "torn-write"),
    (SITE_SNAPSHOT_WRITE, "corrupt"),
]


class TestSnapshotStreamMatrix:
    """The committed-prefix contract across a snapshot bootstrap:
    under every chunk fault mode, a replica driven into REPL_RESYNC
    still self-heals — damaged chunks fail their CRC and are
    re-fetched, disconnects resume at the same offset, and no fault
    leaves the replica on a forked or partial state."""

    @pytest.mark.parametrize("site,mode", SNAPSHOT_MATRIX)
    def test_resync_converges_through_fault(self, tmp_path, site, mode):
        import time

        from repro.core.durability import open_engine
        from repro.replication import ReplicaRunner, ReplicationConfig
        from repro.server import Client, ServerThread

        primary = open_engine(
            tmp_path / "primary", gc_interval_transactions=0
        )
        thread = ServerThread(primary)
        host, port = thread.start()
        config = ReplicationConfig(
            role="replica", primary_host=host, primary_port=port,
            poll_interval=0.02, lease_timeout=60.0, auto_promote=False,
        )
        replica = open_engine(
            tmp_path / "replica", gc_interval_transactions=0,
            replication=config,
        )
        runner = None
        try:
            with Client(host, port) as client:
                for i in range(4):
                    client.query(
                        "CREATE (n:S {ext_id: $e})", {"e": f"s{i}"}
                    )
            # Truncate past the (never-attached) replica's watermark.
            primary.checkpoint()
            with Client(host, port) as client:
                client.query("CREATE (n:S {ext_id: 'tail'})")
            assert primary.wal_truncation_fence() > 0
            FAILPOINTS.activate(site, mode, nth=1, times=2)
            runner = ReplicaRunner(replica, config)
            runner.start()
            deadline = time.monotonic() + 30.0
            expected = {f"s{i}" for i in range(4)} | {"tail"}
            while time.monotonic() < deadline:
                rows = {
                    r["n.ext_id"]
                    for r in replica.execute("MATCH (n:S) RETURN n.ext_id")
                }
                # The completed-counter is part of the condition: rows
                # become visible the instant the bootstrap swaps state
                # in, a beat before the runner books the heal.
                if (
                    rows == expected
                    and replica.replication.watermark()
                    == primary.replication.watermark()
                    and replica.replication.counters["resyncs_completed"] >= 1
                ):
                    break
                time.sleep(0.01)
            fired = FAILPOINTS.stats(site).fired
            FAILPOINTS.clear()
            assert fired >= 1, f"site {site} never fired"
            assert rows == expected
            assert runner.running, runner.stopped_reason
            assert replica.replication.counters["resyncs_completed"] >= 1
        finally:
            FAILPOINTS.clear()
            if runner is not None:
                runner.stop()
            thread.stop()
            replica.close()
            primary.close()


# -- coverage completeness --------------------------------------------------

#: Sites whose only sensible exercise is the error mode: they fire on
#: the *read* path (including during recovery itself), where "crash"
#: degenerates to "the open failed" rather than a durability question.
ERROR_ONLY_SITES = {"kv.sstable.decode", "history.fetch"}


def test_matrix_covers_every_registered_site():
    """Adding a failpoint without crash-matrix coverage fails here."""
    covered = (
        {site for site, _mode in ENGINE_MATRIX}
        | {site for site, _mode in SAVE_MATRIX}
        | {site for site, _mode in KV_MATRIX}
        | {site for site, _mode in SOCKET_MATRIX}
        | {site for site, _mode in REPL_MATRIX}
        | {site for site, _mode in BACKUP_MATRIX}
        | {site for site, _mode in SNAPSHOT_MATRIX}
        | ERROR_ONLY_SITES
    )
    assert covered == set(FAILPOINTS.sites())
