"""Durability tests: WAL journaling, crash recovery, checkpoints,
timestamp- and gid-exact replay."""

from __future__ import annotations

import shutil

import pytest

from repro import AeonG, TemporalCondition
from repro.core.durability import (
    CHECKPOINT_DIRNAME,
    CHECKPOINT_OLD_DIRNAME,
    EngineWal,
    WAL_FILENAME,
)
from repro.errors import CorruptionError, StorageError
from repro.faults import FAILPOINTS, SimulatedCrash


def _history_signature(db: AeonG):
    """Every (gid, tt, properties) version triple in the database."""
    cond = TemporalCondition.between(0, db.now())
    txn = db.begin()
    signature = []
    try:
        gids = {record.gid for record in db.storage.iter_vertex_records()}
        gids |= db.history.known_gids("vertex")
        for gid in sorted(gids):
            for view in db.vertex_versions(txn, gid, cond):
                signature.append((gid, view.tt, tuple(sorted(view.properties.items()))))
    finally:
        db.abort(txn)
    return signature


def _workload(db: AeonG) -> dict:
    with db.transaction() as txn:
        a = db.create_vertex(txn, ["P"], {"name": "a", "v": 0})
        b = db.create_vertex(txn, ["P"], {"name": "b"})
        e = db.create_edge(txn, a, b, "KNOWS", {"w": 1})
    for value in (1, 2, 3):
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "v", value)
    with db.transaction() as txn:
        db.add_label(txn, b, "Admin")
        db.set_edge_property(txn, e, "w", 9)
    with db.transaction() as txn:
        c = db.create_vertex(txn, ["P"], {"name": "c"})
    with db.transaction() as txn:
        db.delete_vertex(txn, c)
    return {"a": a, "b": b, "e": e, "c": c}


class TestRecovery:
    def test_open_fresh_directory(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        db.close()

    def test_replay_reproduces_state_and_history(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        expected = _history_signature(db)
        db.close()  # "crash" after close: WAL intact, no checkpoint
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert _history_signature(recovered) == expected
        with recovered.transaction() as txn:
            view = recovered.get_vertex(txn, ids["a"])
            assert view.properties["v"] == 3
            edge = recovered.get_edge(txn, ids["e"])
            assert edge.properties["w"] == 9
        recovered.close()

    def test_replay_preserves_commit_timestamps(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        txn = db.begin()
        original = [
            view.tt
            for view in db.vertex_versions(
                txn, ids["a"], TemporalCondition.between(0, db.now())
            )
        ]
        db.abort(txn)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        txn = recovered.begin()
        replayed = [
            view.tt
            for view in recovered.vertex_versions(
                txn, ids["a"], TemporalCondition.between(0, recovered.now())
            )
        ]
        recovered.abort(txn)
        assert replayed == original
        recovered.close()

    def test_replay_survives_packed_concurrent_commits(self, tmp_path):
        """Overlapping committers pack WAL commit timestamps one apart
        (begin A, begin B, commit A at n, commit B at n + 1).  Replay
        must not burn oracle timestamps on its own begins, or the
        second record's forced timestamp lands "in the past"."""
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        a = db.begin()
        b = db.begin()
        va = db.create_vertex(a, ["P"], {"k": "a"})
        vb = db.create_vertex(b, ["P"], {"k": "b"})
        ts_a = db.commit(a)
        ts_b = db.commit(b)
        assert ts_b == ts_a + 1  # the packed shape that broke replay
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert recovered.last_recovery.transactions_replayed == 2
        with recovered.transaction() as txn:
            keys = {
                recovered.get_vertex(txn, gid).properties["k"]
                for gid in (va, vb)
            }
        assert keys == {"a", "b"}
        recovered.close()

    def test_replay_preserves_gids(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["a"]).properties["name"] == "a"
            assert recovered.get_edge(txn, ids["e"]).edge_type == "KNOWS"
        recovered.close()

    def test_new_writes_after_recovery_are_journaled(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        db.close()
        second = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with second.transaction() as txn:
            second.create_vertex(txn, ["P"], {"name": "later"})
        second.close()
        third = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        rows = third.execute(
            "MATCH (n:P {name: 'later'}) RETURN count(*) AS c"
        )
        assert rows == [{"c": 1}]
        third.close()

    def test_torn_tail_drops_only_last_transaction(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        db.close()
        wal_path = tmp_path / "data" / WAL_FILENAME
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-4])  # crash mid-append
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        # Everything but the torn final transaction (the delete of c)
        # survives; c is therefore still alive.
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["c"]) is not None
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 3
        recovered.close()

    def test_aborted_transactions_not_journaled(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        txn = db.begin()
        db.create_vertex(txn, ["P"], {"name": "ghost"})
        db.abort(txn)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        rows = recovered.execute(
            "MATCH (n:P {name: 'ghost'}) RETURN count(*) AS c"
        )
        assert rows == [{"c": 0}]
        recovered.close()

    def test_read_only_transactions_append_nothing(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        before = db._wal.records_appended
        with db.transaction() as txn:
            list(db.iter_vertices(txn))
        assert db._wal.records_appended == before
        db.close()


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        expected = _history_signature(db)
        db.checkpoint()
        wal = EngineWal(tmp_path / "data")
        assert wal.scan()[0] == []
        wal.close()
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert _history_signature(recovered) == expected
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 3
        recovered.close()

    def test_writes_after_checkpoint_replay_on_top(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        db.checkpoint()
        with db.transaction() as txn:
            db.set_vertex_property(txn, ids["a"], "v", 99)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 99
        # Full history still spans both sides of the checkpoint.
        txn = recovered.begin()
        versions = list(
            recovered.vertex_versions(
                txn, ids["a"], TemporalCondition.between(0, recovered.now())
            )
        )
        recovered.abort(txn)
        assert [v.properties["v"] for v in versions] == [99, 3, 2, 1, 0]
        recovered.close()

    def test_checkpoint_requires_durability(self):
        db = AeonG(gc_interval_transactions=0)
        with pytest.raises(StorageError):
            db.checkpoint()

    def test_multiple_checkpoint_cycles(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        for value in (10, 11, 12):
            with db.transaction() as txn:
                db.set_vertex_property(txn, ids["a"], "v", value)
            db.checkpoint()
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        txn = recovered.begin()
        versions = [
            view.properties["v"]
            for view in recovered.vertex_versions(
                txn, ids["a"], TemporalCondition.between(0, recovered.now())
            )
        ]
        recovered.abort(txn)
        assert versions == [12, 11, 10, 3, 2, 1, 0]
        recovered.close()


class TestRecoveryEdgeCases:
    def test_empty_wal_file(self, tmp_path):
        """A zero-byte WAL (crash between create and first append) is a
        clean start, not damage."""
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / WAL_FILENAME).write_bytes(b"")
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        report = db.last_recovery
        assert report.transactions_replayed == 0
        assert not report.torn_tail
        assert not report.corruption_detected
        _workload(db)
        db.close()

    def test_wal_with_only_torn_header(self, tmp_path):
        """A log holding nothing but a partial record header (crash
        inside the very first append) recovers empty, flags the torn
        tail, and repairs it."""
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / WAL_FILENAME).write_bytes(b"\x00\x00\x00")
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        report = db.last_recovery
        assert report.transactions_replayed == 0
        assert report.torn_tail
        assert report.wal_repaired
        assert report.bytes_discarded == 3
        # The repaired log accepts and recovers new commits.
        ids = _workload(db)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 3
        recovered.close()

    def test_truncated_checkpoint_meta_falls_back(self, tmp_path):
        """checkpoint/ exists but meta.bin is cut short: recovery must
        use the retired checkpoint.old, never trust the damaged one."""
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        db.checkpoint()  # old state of the world
        with db.transaction() as txn:
            db.set_vertex_property(txn, ids["a"], "v", 50)
        db.checkpoint()
        with db.transaction() as txn:
            db.set_vertex_property(txn, ids["a"], "v", 51)
        db.close()
        # Damage the primary; resurrect the fallback a crashed swap
        # would have left behind.
        primary = tmp_path / "data" / CHECKPOINT_DIRNAME
        retired = tmp_path / "data" / CHECKPOINT_OLD_DIRNAME
        shutil.copytree(primary, retired)
        meta = primary / "meta.bin"
        meta.write_bytes(meta.read_bytes()[:7])
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        assert recovered.last_recovery.checkpoint_fallback
        with recovered.transaction() as txn:
            # v=50 came from the fallback snapshot, v=51 from the WAL.
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 51
        recovered.close()

    def test_truncated_checkpoint_meta_without_fallback_raises(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        db.checkpoint()
        db.close()
        meta = tmp_path / "data" / CHECKPOINT_DIRNAME / "meta.bin"
        meta.write_bytes(meta.read_bytes()[:7])
        # Silently starting fresh would drop committed data.
        with pytest.raises(CorruptionError):
            AeonG.open(tmp_path / "data", gc_interval_transactions=0)

    def test_checkpoint_after_a_crashed_swap_keeps_the_fallback(
        self, tmp_path
    ):
        """A crash between retire and install leaves checkpoint.old as
        the only snapshot.  The next checkpoint must keep it until its
        own install, or a crash there loses what the WAL no longer
        holds."""
        home = tmp_path / "data"
        db = AeonG.open(home, gc_interval_transactions=0)
        ids = _workload(db)
        db.checkpoint()  # the WAL no longer holds the workload
        with FAILPOINTS.active("checkpoint.install", "crash"):
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
        db = AeonG.open(home, gc_interval_transactions=0)
        assert db.last_recovery.checkpoint_fallback
        with FAILPOINTS.active("checkpoint.current.write", "crash"):
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
        db = AeonG.open(home, gc_interval_transactions=0)
        with db.transaction() as txn:
            assert db.get_vertex(txn, ids["a"]).properties["v"] == 3
        db.close()

    def test_double_close_is_idempotent(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        ids = _workload(db)
        db.close()
        db.close()  # second close must be a no-op, not an error
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        with recovered.transaction() as txn:
            assert recovered.get_vertex(txn, ids["a"]).properties["v"] == 3
        recovered.close()
        recovered.close()


class TestReplayIdempotence:
    """Applying a WAL record range twice must be a no-op.

    The replication stream re-ships overlapping ranges by design (a
    resumed fetch restarts at the watermark; the checkpoint fence keeps
    records a replica already applied): :meth:`AeonG.apply_replicated`
    must skip every record at or below the applied watermark, byte-for-
    byte deterministically, never double-applying a committed write.
    """

    def _records(self, db):
        records = db.wal_records_from(1)
        assert records, "workload journaled nothing"
        return records

    def test_double_apply_is_noop(self, tmp_path):
        source = AeonG.open(tmp_path / "src", gc_interval_transactions=0)
        _workload(source)
        records = self._records(source)
        target = AeonG.open(tmp_path / "dst", gc_interval_transactions=0)
        assert [
            target.apply_replicated(ts, ops) for ts, ops in records
        ] == [True] * len(records)
        first = _history_signature(target)
        watermark = target.replication.watermark()
        # The identical range again: every record skipped, nothing moves.
        assert [
            target.apply_replicated(ts, ops) for ts, ops in records
        ] == [False] * len(records)
        assert target.replication.watermark() == watermark
        assert _history_signature(target) == first == \
            _history_signature(source)
        source.close()
        target.close()

    def test_overlapping_resend_after_restart_applies_only_suffix(
        self, tmp_path
    ):
        source = AeonG.open(tmp_path / "src", gc_interval_transactions=0)
        _workload(source)
        records = self._records(source)
        half = len(records) // 2
        target = AeonG.open(tmp_path / "dst", gc_interval_transactions=0)
        for ts, ops in records[:half]:
            assert target.apply_replicated(ts, ops)
        target.close()
        # Restart: recovery restores the applied watermark from the
        # replica's own WAL, so a full-range resend (the stream picking
        # up from scratch) applies exactly the missing suffix.
        target = AeonG.open(tmp_path / "dst", gc_interval_transactions=0)
        outcomes = [target.apply_replicated(ts, ops) for ts, ops in records]
        assert outcomes == [False] * half + [True] * (len(records) - half)
        assert _history_signature(target) == _history_signature(source)
        source.close()
        target.close()

    def test_reapplying_own_recovered_wal_is_noop(self, tmp_path):
        db = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _workload(db)
        records = self._records(db)
        db.close()
        recovered = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        before = _history_signature(recovered)
        assert not any(
            recovered.apply_replicated(ts, ops) for ts, ops in records
        )
        assert _history_signature(recovered) == before
        recovered.close()

    def test_interleaved_duplicates_within_a_batch(self, tmp_path):
        """A batch that repeats records it already contains (torn-batch
        refetch overlap) applies each commit exactly once."""
        source = AeonG.open(tmp_path / "src", gc_interval_transactions=0)
        _workload(source)
        records = self._records(source)
        duplicated = []
        for record in records:
            duplicated.append(record)
            duplicated.append(record)  # immediate resend of the same ts
        target = AeonG.open(tmp_path / "dst", gc_interval_transactions=0)
        applied = sum(
            1 for ts, ops in duplicated if target.apply_replicated(ts, ops)
        )
        assert applied == len(records)
        assert _history_signature(target) == _history_signature(source)
        source.close()
        target.close()
