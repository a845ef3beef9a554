"""Online backup, point-in-time restore, and snapshot-based resync.

Covers the ``repro.backup`` archive format (fuzzy online capture,
incremental WAL archiving, coverage intervals, offline verification),
the point-in-time restore property — a restored engine answers the
full temporal query grid identically to the source at the chosen
timestamp — and the replication self-heal path: a replica driven into
``REPL_RESYNC`` or ``REPL_DIVERGED`` bootstraps itself from a
primary-served snapshot over the wire and rejoins the stream, with
chunk-level fault injection, drain interaction, and the
checkpoint-truncation fence (``WAL.drop_prefix`` vs. replica acks)
exercised property-style.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.backup import (
    create_backup,
    read_manifest,
    restore_backup,
    verify_backup,
)
from repro.core.durability import open_engine
from repro.core.engine import AeonG
from repro.errors import (
    CorruptionError,
    ReplicationResyncRequired,
    ServerError,
    StorageError,
)
from repro.faults import FAILPOINTS
from repro.integrity import Scrubber
from repro.replication import (
    SITE_SNAPSHOT_READ,
    SITE_SNAPSHOT_WRITE,
    SNAPSHOT_DIRNAME,
    ReplicaRunner,
    ReplicationConfig,
)
from repro.resilience import RetryPolicy
from repro.server.app import ServerThread
from repro.server.client import Client

pytestmark = pytest.mark.backup

ONE_SHOT = RetryPolicy(max_attempts=1)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def _wait_until(predicate, timeout: float = 15.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _write_items(db, start, count, label="Item"):
    for i in range(start, start + count):
        db.execute(
            f"CREATE (n:{label} {{ext_id: $e, v: $v}})",
            {"e": f"item-{i}", "v": 0},
        )


def _grid(db, ts):
    """The temporal query grid at ``ts``: point-in-time over all
    items, a single entity's slice, and a TT BETWEEN aggregate."""
    point = sorted(
        (r["n.ext_id"], r["n.v"])
        for r in db.execute(
            f"MATCH (n:Item) TT SNAPSHOT {ts} RETURN n.ext_id, n.v"
        )
    )
    entity = sorted(
        r["n.v"]
        for r in db.execute(
            f"MATCH (n:Item {{ext_id: 'item-3'}}) TT SNAPSHOT {ts} "
            "RETURN n.v"
        )
    )
    between = db.execute(
        f"MATCH (n:Item) TT BETWEEN 0 AND {ts} RETURN count(*) AS c"
    )[0]["c"]
    return point, entity, between


# -- the archive ------------------------------------------------------------


class TestArchive:
    def test_full_backup_verifies_and_restores(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        try:
            _write_items(db, 0, 8)
        finally:
            db.close()
        report = create_backup(tmp_path / "src", tmp_path / "arch")
        assert not report.incremental
        assert report.wal_records_archived == 8
        manifest, findings = verify_backup(tmp_path / "arch")
        assert findings == []
        assert manifest["watermark"] == report.watermark
        restore_backup(tmp_path / "arch", tmp_path / "restored")
        restored = AeonG.open(tmp_path / "restored")
        try:
            rows = restored.execute("MATCH (n:Item) RETURN n.ext_id")
            assert len(rows) == 8
        finally:
            restored.close()

    def test_full_backup_refuses_existing_destination(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        db.close()
        create_backup(tmp_path / "src", tmp_path / "arch")
        with pytest.raises(StorageError, match="exists"):
            create_backup(tmp_path / "src", tmp_path / "arch")

    def test_online_backup_under_concurrent_writers(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                db.execute(
                    "CREATE (n:Noise {ext_id: $e})", {"e": f"w{i}"}
                )
                i += 1

        thread = threading.Thread(target=writer, daemon=True)
        try:
            _write_items(db, 0, 5)
            thread.start()
            for n in range(3):
                report = create_backup(tmp_path / "src",
                                       tmp_path / f"arch{n}")
                assert report.watermark > 0
        finally:
            stop.set()
            thread.join(10.0)
            db.close()
        # Every capture taken mid-write verifies clean and restores to
        # an engine that passes the integrity scrubber.
        for n in range(3):
            _manifest, findings = verify_backup(tmp_path / f"arch{n}")
            assert findings == []
            restore_backup(tmp_path / f"arch{n}", tmp_path / f"r{n}")
            restored = AeonG.open(tmp_path / f"r{n}")
            try:
                assert Scrubber(restored).scrub_full().ok
                assert len(
                    restored.execute("MATCH (n:Item) RETURN n")
                ) == 5
            finally:
                restored.close()

    def test_incremental_extends_watermark_and_coverage(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        try:
            _write_items(db, 0, 4)
            first = create_backup(tmp_path / "src", tmp_path / "arch")
            _write_items(db, 4, 4)
            second = create_backup(
                tmp_path / "src", tmp_path / "arch", incremental=True
            )
        finally:
            db.close()
        assert second.incremental
        assert second.watermark > first.watermark
        manifest = read_manifest(tmp_path / "arch")
        assert manifest["backups"] == 2
        assert len(manifest["segments"]) == 2
        # Contiguous captures merge into one coverage interval.
        assert len(manifest["coverage"]) == 1
        restore_backup(tmp_path / "arch", tmp_path / "restored")
        restored = AeonG.open(tmp_path / "restored")
        try:
            assert len(restored.execute("MATCH (n:Item) RETURN n")) == 8
        finally:
            restored.close()

    def test_coverage_gap_is_refused_not_silently_wrong(self, tmp_path):
        """Commits checkpoint-truncated before any backup archived them
        are unrestorable; a restore inside the gap must error."""
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        try:
            _write_items(db, 0, 6)
            gap_ts = db.manager.oracle.peek() - 1
            _write_items(db, 6, 4)
            db.checkpoint()  # truncates the WAL: ts <= gap_ts are gone
            _write_items(db, 10, 2)
            create_backup(tmp_path / "src", tmp_path / "arch")
        finally:
            db.close()
        manifest = read_manifest(tmp_path / "arch")
        lo = manifest["coverage"][0][0]
        assert gap_ts < lo
        with pytest.raises(StorageError, match="not restorable"):
            restore_backup(
                tmp_path / "arch", tmp_path / "restored", as_of=gap_ts
            )
        # The boundary and the watermark itself restore fine.
        restore_backup(tmp_path / "arch", tmp_path / "ok", as_of=lo)

    def test_restore_beyond_watermark_is_refused(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        _write_items(db, 0, 2)
        db.close()
        create_backup(tmp_path / "src", tmp_path / "arch")
        manifest = read_manifest(tmp_path / "arch")
        with pytest.raises(StorageError, match="beyond the archive"):
            restore_backup(
                tmp_path / "arch", tmp_path / "r",
                as_of=manifest["watermark"] + 1,
            )

    def test_verify_detects_damage_and_restore_refuses(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        _write_items(db, 0, 4)
        db.close()
        create_backup(tmp_path / "src", tmp_path / "arch")
        segment = tmp_path / "arch" / "wal" / "segment-000001.wal"
        blob = bytearray(segment.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        segment.write_bytes(bytes(blob))
        _manifest, findings = verify_backup(tmp_path / "arch")
        assert any(f["code"] == "checksum-mismatch" for f in findings)
        with pytest.raises(CorruptionError, match="verification"):
            restore_backup(tmp_path / "arch", tmp_path / "restored")

    def test_verify_detects_missing_file(self, tmp_path):
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        _write_items(db, 0, 4)
        db.checkpoint()
        db.close()
        create_backup(tmp_path / "src", tmp_path / "arch")
        manifest = read_manifest(tmp_path / "arch")
        victim = next(
            f["name"] for f in manifest["files"]
            if f["name"].startswith("checkpoint-")
        )
        (tmp_path / "arch" / victim).unlink()
        _manifest, findings = verify_backup(tmp_path / "arch")
        assert any(f["code"] == "missing-file" for f in findings)


# -- point-in-time restore property -----------------------------------------


class TestPointInTime:
    @staticmethod
    def _checkpoint_quiesced(db, pause, idle):
        """Checkpoint requires quiescence: pause the writer, wait for
        it to park, retry around any in-flight auto-commit."""
        pause.set()
        idle.wait(10.0)
        for _ in range(500):
            try:
                db.checkpoint()
                pause.clear()
                return
            except StorageError:
                time.sleep(0.005)
        pause.clear()
        raise AssertionError("could not checkpoint under writer load")

    def test_restored_grid_matches_source_at_each_ts(self, tmp_path):
        """The acceptance property: ≥3 checkpoints, concurrent
        writers, and for ≥3 distinct timestamps the restored engine
        answers the temporal grid exactly as the source does.

        Schedule discipline: each incremental backup runs *before* the
        next checkpoint truncates the WAL (and the backups themselves
        run under an active writer), so every sampled timestamp lands
        inside the archive's coverage."""
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        stop = threading.Event()
        pause = threading.Event()
        idle = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                if pause.is_set():
                    idle.set()
                    time.sleep(0.002)
                    continue
                idle.clear()
                db.execute(
                    "CREATE (n:Noise {ext_id: $e})", {"e": f"n{i}"}
                )
                i += 1
                time.sleep(0.001)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        samples = []
        try:
            _write_items(db, 0, 6)
            samples.append(db.manager.oracle.peek() - 1)
            create_backup(tmp_path / "src", tmp_path / "arch")
            for phase in range(3):
                for i in range(6):
                    db.execute(
                        "MATCH (n:Item {ext_id: $e}) SET n.v = $v",
                        {"e": f"item-{i}", "v": phase + 1},
                    )
                db.execute(
                    "CREATE (n:Item {ext_id: $e, v: 0})",
                    {"e": f"item-{6 + phase}"},
                )
                self._checkpoint_quiesced(db, pause, idle)
                samples.append(db.manager.oracle.peek() - 1)
                create_backup(
                    tmp_path / "src", tmp_path / "arch", incremental=True
                )
        finally:
            stop.set()
            pause.clear()
            thread.join(10.0)
        try:
            assert len(set(samples)) >= 4
            manifest = read_manifest(tmp_path / "arch")
            assert len(manifest["checkpoints"]) >= 3
            for k, ts in enumerate(samples):
                expected = _grid(db, ts)
                restore_backup(
                    tmp_path / "arch", tmp_path / f"pit{k}", as_of=ts
                )
                restored = AeonG.open(tmp_path / f"pit{k}")
                try:
                    assert _grid(restored, ts) == expected
                finally:
                    restored.close()
        finally:
            db.close()


# -- the truncation fence (WAL.drop_prefix vs replica acks) -----------------


class TestTruncationFence:
    """Satellite: ``drop_prefix`` under checkpoint truncation racing
    slowest-replica ack movement, property-style with injected
    interleavings, plus fence re-derivation across restart."""

    def _check_invariants(self, db, acked):
        """Every commit past the slowest ack must be fetchable; the
        fence must sit at or below the slowest ack."""
        state = db.replication
        fence = db.wal_truncation_fence()
        assert fence <= acked, (fence, acked)
        watermark = state.watermark()
        if acked < watermark:
            records = state.records_from(acked + 1, 10_000)
            got = [ts for ts, _ops in records]
            assert got, "records past the ack vanished"
            assert got[-1] == watermark
            assert got == sorted(got)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_interleaved_commit_ack_checkpoint(self, tmp_path, seed):
        rng = random.Random(seed)
        db = open_engine(
            tmp_path / f"db{seed}", gc_interval_transactions=0,
            replication=ReplicationConfig(role="primary"),
        )
        state = db.replication
        state.register_replica("r1", 0, 1)
        acked = 0
        committed = 0
        try:
            for step in range(60):
                action = rng.choice(["commit", "commit", "ack", "ckpt"])
                if action == "commit":
                    db.execute(
                        "CREATE (n:P {ext_id: $e})", {"e": f"p{committed}"}
                    )
                    committed += 1
                elif action == "ack":
                    # The slowest replica advances to a random point
                    # at or behind the primary's watermark.
                    target = rng.randint(acked, state.watermark())
                    state.ack("r1", target, 1)
                    acked = max(acked, target)
                else:
                    db.checkpoint()
                self._check_invariants(db, acked)
        finally:
            db.close()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_concurrent_acks_against_checkpoints(self, tmp_path, seed):
        """Thread-based variant: acks move while checkpoints truncate;
        no interleaving may drop a record the replica still needs."""
        rng = random.Random(seed)
        db = open_engine(
            tmp_path / "db", gc_interval_transactions=0,
            replication=ReplicationConfig(role="primary"),
        )
        state = db.replication
        state.register_replica("r1", 0, 1)
        stop = threading.Event()
        errors = []

        def acker():
            local_rng = random.Random(seed + 1)
            while not stop.is_set():
                state.ack("r1", local_rng.randint(0, state.watermark()), 1)
                time.sleep(0.0005)

        thread = threading.Thread(target=acker, daemon=True)
        thread.start()
        try:
            for i in range(40):
                db.execute("CREATE (n:P {ext_id: $e})", {"e": f"p{i}"})
                if rng.random() < 0.3:
                    db.checkpoint()
                slowest = min(
                    info.watermark for info in state.replicas.values()
                )
                if db.wal_truncation_fence() > slowest:
                    errors.append((db.wal_truncation_fence(), slowest))
        finally:
            stop.set()
            thread.join(10.0)
            db.close()
        assert errors == []

    def test_fence_rederived_across_restart(self, tmp_path):
        db = open_engine(
            tmp_path / "db", gc_interval_transactions=0,
            replication=ReplicationConfig(role="primary"),
        )
        state = db.replication
        state.register_replica("r1", 0, 1)
        for i in range(10):
            db.execute("CREATE (n:P {ext_id: $e})", {"e": f"p{i}"})
        state.ack("r1", state.watermark() - 4, 1)
        db.checkpoint()  # fenced: records past the ack survive
        fence_before = db.wal_truncation_fence()
        surviving = [ts for ts, _ in db.wal_records_from(0)]
        db.close()
        reopened = open_engine(tmp_path / "db", gc_interval_transactions=0)
        try:
            # The fence is re-derived from the surviving log: at least
            # as strict as before the restart, but never past the
            # oldest surviving record — and the records the replica
            # had not acked are still fetchable.
            refence = reopened.wal_truncation_fence()
            assert fence_before <= refence < surviving[0]
            assert [ts for ts, _ in reopened.wal_records_from(0)] == surviving
            reopened.replication.register_replica("r1", 0, 1)
            with pytest.raises(ReplicationResyncRequired):
                reopened.replication.records_from(refence, 100)
            got = [
                ts for ts, _ in
                reopened.replication.records_from(refence + 1, 100)
            ]
            assert got == surviving
        finally:
            reopened.close()


# -- snapshot-based resync over the wire ------------------------------------


def _cluster(tmp_path, replica_durable=True, lease=10.0):
    """A durable primary server plus a replica with a live runner."""
    primary = open_engine(tmp_path / "primary", gc_interval_transactions=0)
    thread = ServerThread(primary)
    addr = thread.start()
    config = ReplicationConfig(
        role="replica", replica_id="r1", primary_host=addr[0],
        primary_port=addr[1], poll_interval=0.05, lease_timeout=lease,
        auto_promote=False,
    )
    if replica_durable:
        replica = open_engine(
            tmp_path / "replica", gc_interval_transactions=0,
            replication=config,
        )
    else:
        replica = AeonG(gc_interval_transactions=0, replication=config)
    runner = ReplicaRunner(replica, config)
    runner.start()
    return primary, thread, addr, replica, runner


def _fall_behind(primary, addr, runner):
    """Stop the runner, release its fence, commit + checkpoint so the
    WAL truncates past the replica's watermark."""
    runner.stop()
    primary.replication.replicas.clear()
    with Client(*addr) as client:
        for i in range(10):
            client.query("CREATE (n:P {ext_id: $e})", {"e": f"b{i}"})
    primary.checkpoint()
    with Client(*addr) as client:
        for i in range(5):
            client.query("CREATE (n:P {ext_id: $e})", {"e": f"c{i}"})


def _rows(engine):
    return {
        r["n.ext_id"] for r in engine.execute("MATCH (n:P) RETURN n.ext_id")
    }


class TestResyncSelfHeal:
    def _seed_and_catch_up(self, primary, addr, replica):
        with Client(*addr) as client:
            for i in range(10):
                client.query("CREATE (n:P {ext_id: $e})", {"e": f"a{i}"})
        _wait_until(
            lambda: replica.replication.watermark()
            >= primary.replication.watermark(),
            what="initial catch-up",
        )

    @pytest.mark.parametrize("durable", [True, False])
    def test_truncated_replica_self_heals_end_to_end(
        self, tmp_path, durable
    ):
        """The acceptance scenario: REPL_RESYNC is no longer terminal —
        the replica bootstraps from a snapshot over the wire and
        rejoins the stream, with no operator intervention."""
        primary, thread, addr, replica, runner = _cluster(
            tmp_path, replica_durable=durable
        )
        runner2 = None
        try:
            self._seed_and_catch_up(primary, addr, replica)
            _fall_behind(primary, addr, runner)
            assert (
                replica.replication.watermark()
                < primary.wal_truncation_fence()
            )
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            _wait_until(
                lambda: replica.replication.counters["resyncs_completed"],
                what="snapshot bootstrap",
            )
            _wait_until(
                lambda: replica.replication.watermark()
                >= primary.replication.watermark(),
                what="post-resync catch-up",
            )
            assert runner2.running, runner2.stopped_reason
            assert _rows(replica) == _rows(primary)
            # Still streaming after the heal.
            with Client(*addr) as client:
                client.query("CREATE (n:P {ext_id: 'post'})")
            _wait_until(
                lambda: "post" in _rows(replica),
                what="post-heal streaming",
            )
            counters = replica.replication.counters
            assert counters["resyncs_started"] >= 1
            assert counters["snapshot_chunks_fetched"] >= 1
            assert primary.replication.counters["snapshots_served"] >= 1
        finally:
            if runner2 is not None:
                runner2.stop()
            thread.stop()
            replica.close()
            primary.close()

    def test_durable_replica_survives_restart_after_bootstrap(
        self, tmp_path
    ):
        primary, thread, addr, replica, runner = _cluster(tmp_path)
        try:
            self._seed_and_catch_up(primary, addr, replica)
            _fall_behind(primary, addr, runner)
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            _wait_until(
                lambda: replica.replication.watermark()
                >= primary.replication.watermark(),
                what="post-resync catch-up",
            )
            runner2.stop()
            expected = _rows(primary)
        finally:
            thread.stop()
            replica.close()
            primary.close()
        reopened = open_engine(
            tmp_path / "replica", gc_interval_transactions=0
        )
        try:
            assert _rows(reopened) == expected
        finally:
            reopened.close()

    def test_diverged_replica_self_heals(self, tmp_path):
        """A replica whose watermark ran ahead (forked history) is
        rebuilt from the primary's snapshot instead of stopping."""
        primary, thread, addr, replica, runner = _cluster(tmp_path)
        try:
            self._seed_and_catch_up(primary, addr, replica)
            runner.stop()
            # Fork: local writes land on the replica's engine directly
            # (its serving layer would reject them, but the engine
            # accepts), pushing its watermark past the primary's.
            replica.replication.role = "primary"
            for i in range(8):
                replica.execute(
                    "CREATE (n:Fork {ext_id: $e})", {"e": f"f{i}"}
                )
            replica.replication.role = "replica"
            assert (
                replica.replication.watermark()
                > primary.replication.watermark()
            )
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            try:
                _wait_until(
                    lambda: replica.replication.counters[
                        "resyncs_completed"
                    ],
                    what="divergence heal",
                )
                _wait_until(
                    lambda: _rows(replica) == _rows(primary),
                    what="fork discarded",
                )
                rows = {
                    r["n.ext_id"]
                    for r in replica.execute(
                        "MATCH (n:Fork) RETURN n.ext_id"
                    )
                }
                assert rows == set()
            finally:
                runner2.stop()
        finally:
            thread.stop()
            replica.close()
            primary.close()

    def test_memory_only_primary_is_still_terminal(self, tmp_path):
        """A primary with no durability dir cannot serve snapshots:
        the pre-snapshot semantics (runner stops, reason recorded)
        are preserved."""
        primary = AeonG(gc_interval_transactions=0)
        thread = ServerThread(primary)
        addr = thread.start()
        config = ReplicationConfig(
            role="replica", replica_id="r1", primary_host=addr[0],
            primary_port=addr[1], poll_interval=0.05, lease_timeout=10.0,
            auto_promote=False,
        )
        replica = AeonG(gc_interval_transactions=0, replication=config)
        try:
            with Client(*addr) as client:
                for i in range(4):
                    client.query(
                        "CREATE (n:P {ext_id: $e})", {"e": f"a{i}"}
                    )
            # Fake a truncation on the in-memory primary.
            primary._wal_truncation_fence = primary.replication.watermark()
            runner = ReplicaRunner(replica, config)
            runner.start()
            _wait_until(
                lambda: not runner.running, what="terminal resync stop"
            )
            assert runner.stopped_reason == "resync"
            assert replica.replication.counters["resyncs_completed"] == 0
        finally:
            thread.stop()
            replica.close()
            primary.close()


class TestSnapshotWire:
    def _prepared_primary(self, tmp_path):
        primary = open_engine(
            tmp_path / "primary", gc_interval_transactions=0
        )
        thread = ServerThread(primary)
        addr = thread.start()
        with Client(*addr) as client:
            for i in range(6):
                client.query("CREATE (n:P {ext_id: $e})", {"e": f"a{i}"})
        return primary, thread, addr

    def test_chunk_corruption_is_refetched(self, tmp_path):
        """An injected bit-flip on the read side fails the per-chunk
        CRC and the chunk is re-requested — the resync still lands."""
        primary, thread, addr, replica, runner = _cluster(tmp_path)
        try:
            with Client(*addr) as client:
                client.query("CREATE (n:P {ext_id: 'seed'})")
            _wait_until(
                lambda: replica.replication.watermark()
                >= primary.replication.watermark(),
                what="catch-up",
            )
            _fall_behind(primary, addr, runner)
            FAILPOINTS.activate(SITE_SNAPSHOT_READ, "corrupt", times=2)
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            try:
                _wait_until(
                    lambda: _rows(replica) == _rows(primary),
                    what="resync past corrupt chunks",
                )
                assert replica.replication.counters["checksum_failures"] >= 1
            finally:
                runner2.stop()
        finally:
            FAILPOINTS.clear()
            thread.stop()
            replica.close()
            primary.close()

    def test_disconnect_resumes_at_same_offset(self, tmp_path):
        primary, thread, addr, replica, runner = _cluster(tmp_path)
        try:
            with Client(*addr) as client:
                client.query("CREATE (n:P {ext_id: 'seed'})")
            _wait_until(
                lambda: replica.replication.watermark()
                >= primary.replication.watermark(),
                what="catch-up",
            )
            _fall_behind(primary, addr, runner)
            FAILPOINTS.activate(SITE_SNAPSHOT_READ, "disconnect", times=2)
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            try:
                _wait_until(
                    lambda: _rows(replica) == _rows(primary),
                    what="resync past disconnects",
                )
                assert (
                    replica.replication.counters["snapshot_chunks_resumed"]
                    >= 1
                )
            finally:
                runner2.stop()
        finally:
            FAILPOINTS.clear()
            thread.stop()
            replica.close()
            primary.close()

    def test_stale_snapshot_id_is_structured_storage_error(self, tmp_path):
        primary, thread, addr = self._prepared_primary(tmp_path)
        try:
            with Client(*addr, policy=ONE_SHOT) as client:
                manifest = client.request({"op": "repl_snapshot"})
                with pytest.raises(ServerError) as excinfo:
                    client.request({
                        "op": "repl_snapshot",
                        "snapshot_id": "snap-0",
                        "file": manifest["manifest"]["files"][0]["name"],
                        "offset": 0,
                    })
            assert excinfo.value.code == "STORAGE"
            assert not excinfo.value.retryable
        finally:
            thread.stop()
            primary.close()

    def test_unknown_file_name_is_rejected(self, tmp_path):
        """Only manifest-listed names are served — the path-traversal
        guard on the chunk endpoint."""
        primary, thread, addr = self._prepared_primary(tmp_path)
        try:
            with Client(*addr, policy=ONE_SHOT) as client:
                manifest = client.request({"op": "repl_snapshot"})
                with pytest.raises(ServerError) as excinfo:
                    client.request({
                        "op": "repl_snapshot",
                        "snapshot_id": manifest["snapshot_id"],
                        "file": "../../etc/passwd",
                        "offset": 0,
                    })
            assert excinfo.value.code == "PROTOCOL"
        finally:
            thread.stop()
            primary.close()

    def test_snapshot_reused_until_truncation_passes_it(self, tmp_path):
        primary, thread, addr = self._prepared_primary(tmp_path)
        try:
            with Client(*addr, policy=ONE_SHOT) as client:
                first = client.request({"op": "repl_snapshot"})
                second = client.request({"op": "repl_snapshot"})
                assert first["snapshot_id"] == second["snapshot_id"]
                client.query("CREATE (n:P {ext_id: 'more'})")
            primary.checkpoint()  # truncation fence moves past it
            with Client(*addr, policy=ONE_SHOT) as client:
                third = client.request({"op": "repl_snapshot"})
            assert third["snapshot_id"] != first["snapshot_id"]
        finally:
            thread.stop()
            primary.close()

    def test_drain_sheds_snapshot_stream_not_tears_it(self, tmp_path):
        """Satellite: SIGTERM drain vs. an in-progress snapshot stream.
        The chunk request is shed with a retryable SHUTTING_DOWN, and
        whatever snapshot directory exists stays manifest-valid."""
        primary, thread, addr = self._prepared_primary(tmp_path)
        try:
            with Client(*addr, policy=ONE_SHOT) as client:
                manifest = client.request({"op": "repl_snapshot"})
                thread.server._draining = True
                with pytest.raises(ServerError) as excinfo:
                    client.request({
                        "op": "repl_snapshot",
                        "snapshot_id": manifest["snapshot_id"],
                        "file": manifest["manifest"]["files"][0]["name"],
                        "offset": 0,
                    })
            assert excinfo.value.code == "SHUTTING_DOWN"
            assert excinfo.value.retryable
            snapshot_dir = tmp_path / "primary" / SNAPSHOT_DIRNAME
            assert snapshot_dir.is_dir()
            assert not snapshot_dir.with_name(
                snapshot_dir.name + ".tmp"
            ).exists()
            _manifest, findings = verify_backup(snapshot_dir)
            assert findings == []
        finally:
            thread.server._draining = False
            thread.stop()
            primary.close()


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_engine_metrics_have_backup_sections(self, tmp_path):
        import repro.backup as backup_module

        backup_module.reset_metrics()
        db = open_engine(tmp_path / "src", gc_interval_transactions=0)
        try:
            _write_items(db, 0, 3)
            create_backup(tmp_path / "src", tmp_path / "arch")
            restore_backup(tmp_path / "arch", tmp_path / "restored")
            sections = db.metrics()
            # backup and restore count process-wide work no engine owns:
            # only an exporter that registers them (server, CLI) has them
            assert "backup" not in sections and "restore" not in sections
            assert "resyncs_started" in sections["resync"]
            assert "duration_seconds" in sections["resync"]
            db.observability.registry.register_provider(
                backup_module.metrics_sections
            )
            sections = db.metrics()
            assert sections["backup"]["backups_completed"] == 1
            assert sections["backup"]["snapshot_age_seconds"] is not None
            assert sections["restore"]["restores_completed"] == 1
            text = db.metrics_text()
            assert "aeong_backup_backups_completed" in text
            assert "aeong_restore_restores_completed" in text
            assert "aeong_resync_resyncs_started" in text
        finally:
            db.close()

    def test_a_resync_keeps_the_gc_and_migration_counts(self, tmp_path):
        """The sections are exported as gauges: adopting a snapshot must
        not send a replica's epoch counts back to the donor's."""
        source = AeonG(gc_interval_transactions=0)
        with source.transaction() as txn:
            gid = source.create_vertex(txn, ["P"], {"n": 0})
        source.collect_garbage()
        source.save(tmp_path / "snap")
        source.close()
        db = AeonG(anchor_interval=2, gc_interval_transactions=0)
        with db.transaction() as txn:
            mine = db.create_vertex(txn, ["P"], {"n": 0})
        for n in range(1, 6):  # five epochs, each migrating one SET
            with db.transaction() as txn:
                db.set_vertex_property(txn, mine, "n", n)
            db.collect_garbage()
        before = db.metrics()
        assert before["gc"]["runs"] == 5 and before["migration"]["epochs"] == 5
        db.adopt_snapshot_state(AeonG.open(tmp_path / "snap", gc_interval_transactions=0))
        try:
            after = db.metrics()
            for section in ("gc", "migration"):
                for key, value in before[section].items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        assert after[section][key] >= value, (section, key)
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "n", 1)
            db.collect_garbage()
            later = db.metrics()
            assert later["gc"]["runs"] == after["gc"]["runs"] + 1
            assert later["migration"]["epochs"] == after["migration"]["epochs"] + 1
            assert later["migration"]["records_written"] > after["migration"]["records_written"]
        finally:
            db.close()

    def test_resync_counters_are_exported_once(self):
        db = AeonG(gc_interval_transactions=0)
        try:
            sections = db.metrics()
            assert sections["resync"]["resyncs_started"] == 0
            assert not set(sections["replication"]) & set(sections["resync"])
            names = [
                line.split(" ")[0]
                for line in db.metrics_text().splitlines()
                if line.startswith("aeong_")
            ]
            assert len(names) == len(set(names))
            suffixes = {
                name[len(prefix):]
                for name in names
                for prefix in ("aeong_replication_", "aeong_resync_")
                if name.startswith(prefix)
            }
            assert "resyncs_started" in suffixes
            for suffix in suffixes:
                exported = [
                    name for name in names
                    if name in ("aeong_replication_" + suffix, "aeong_resync_" + suffix)
                ]
                assert len(exported) == 1, exported
        finally:
            db.close()

    def test_resync_duration_histogram_observed(self, tmp_path):
        primary, thread, addr, replica, runner = _cluster(tmp_path)
        try:
            with Client(*addr) as client:
                client.query("CREATE (n:P {ext_id: 'seed'})")
            _wait_until(
                lambda: replica.replication.watermark()
                >= primary.replication.watermark(),
                what="catch-up",
            )
            _fall_behind(primary, addr, runner)
            runner2 = ReplicaRunner(replica, replica.replication.config)
            runner2.start()
            try:
                _wait_until(
                    lambda: replica.replication.counters[
                        "resyncs_completed"
                    ],
                    what="resync",
                )
            finally:
                runner2.stop()
            section = replica.metrics()["resync"]
            assert section["resyncs_completed"] >= 1
            assert section["duration_seconds"]["count"] >= 1
        finally:
            thread.stop()
            replica.close()
            primary.close()
