"""Assorted unit tests: how the KV store merges writes into its run,
id allocation, latency recorder, rendering, and temporal label-change
corners."""

from __future__ import annotations

import pytest

from repro import AeonG
from repro.common.ids import GidAllocator
from repro.core.stats import LatencyRecorder, StorageReport
from repro.kvstore import KVStore
from repro.kvstore.api import WriteBatch


class TestMergeRuns:
    """A flush merges the memtable into the store's one sorted run."""

    def test_newest_run_wins(self):
        store = KVStore()
        store.put(b"a", b"old")
        store.put(b"c", b"2")
        store.flush()
        store.put(b"a", b"new")
        store.put(b"b", b"1")
        assert dict(store.scan_all()) == {b"a": b"new", b"b": b"1", b"c": b"2"}

    def test_tombstone_suppresses_key(self):
        store = KVStore()
        store.put(b"a", b"old")
        store.flush()
        store.delete(b"a")
        assert list(store.scan_all()) == []
        assert store.get(b"a") is None

    def test_keep_tombstones_for_compaction(self):
        """The tombstone stays in the run (its key still counted) until
        compaction drops it."""
        store = KVStore()
        store.put(b"a", b"old")
        store.flush()
        store.delete(b"a")
        store.flush()
        assert store.approximate_bytes() == 1
        store.compact()
        assert store.approximate_bytes() == 0
        assert store.stats.compactions == 1

    def test_bounded_stops_at_prefix_end(self):
        store = KVStore()
        for key, value in [(b"p1", b"x"), (b"p2", b"y"), (b"q", b"z")]:
            store.put(key, value)
        assert list(store.scan_prefix(b"p")) == [(b"p1", b"x"), (b"p2", b"y")]
        store.put(b"\xff\xff", b"top")
        assert list(store.scan_prefix(b"\xff")) == [(b"\xff\xff", b"top")]

    def test_entries_drops_tombstones(self):
        store = KVStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.flush()
        store.delete(b"b")
        assert list(store.seek(b"a")) == [(b"a", b"1")]
        assert list(store.scan_range(b"a", b"c")) == [(b"a", b"1")]

    def test_empty_runs(self):
        store = KVStore()
        store.flush()
        store.compact()
        assert list(store.scan_all()) == []
        assert list(store.scan_prefix(b"a")) == []
        assert store.stats.flushes == 0


class TestGidAllocator:
    def test_monotone_unique(self):
        allocator = GidAllocator()
        gids = [allocator.allocate() for _ in range(10)]
        assert gids == sorted(set(gids))

    def test_allocate_up_to(self):
        allocator = GidAllocator()
        allocator.allocate()
        allocator.allocate_up_to(100)
        assert allocator.allocate() == 100

    def test_allocate_up_to_never_goes_backwards(self):
        allocator = GidAllocator()
        for _ in range(5):
            allocator.allocate()
        allocator.allocate_up_to(2)
        assert allocator.allocate() == 5


class TestWriteBatch:
    def test_later_op_wins(self):
        batch = WriteBatch()
        batch.put(b"k", b"1")
        batch.delete(b"k")
        assert dict(batch.items()) == {b"k": None}

    def test_clear_and_bool(self):
        batch = WriteBatch()
        assert not batch
        batch.put(b"k", b"1")
        assert batch and len(batch) == 1
        batch.clear()
        assert not batch

    def test_validation(self):
        batch = WriteBatch()
        with pytest.raises(ValueError):
            batch.put(b"", b"v")
        with pytest.raises(TypeError):
            batch.put(b"k", 5)


class TestStats:
    def test_latency_percentiles(self):
        recorder = LatencyRecorder(samples_us=[float(v) for v in range(1, 101)])
        assert recorder.count == 100
        assert recorder.mean_us == pytest.approx(50.5)
        assert recorder.p50_us == pytest.approx(50.0, abs=1.0)
        assert recorder.p99_us >= 98.0

    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.mean_us == 0.0
        assert recorder.p50_us == 0.0

    def test_storage_report_str(self):
        report = StorageReport(
            current_bytes=10, history_bytes=5, vertex_count=2, edge_count=1
        )
        assert report.total_bytes == 15
        assert "current=10B" in str(report)


class TestRendering:
    def test_return_edge_renders_fully(self):
        db = AeonG(gc_interval_transactions=0)
        db.execute("CREATE (a:X {n: 1})")
        db.execute("CREATE (b:X {n: 2})")
        db.execute(
            "MATCH (a:X {n:1}), (b:X {n:2}) CREATE (a)-[:T {w: 9}]->(b)"
        )
        rows = db.execute("MATCH (a)-[r:T]->(b) RETURN r")
        rendered = rows[0]["r"]
        assert rendered["type"] == "T"
        assert rendered["properties"] == {"w": 9}
        assert rendered["from"] != rendered["to"]
        assert rendered["tt"][1] > rendered["tt"][0]

    def test_return_edge_list_from_var_length(self):
        db = AeonG(gc_interval_transactions=0)
        db.execute("CREATE (a:X {n: 1})")
        db.execute("CREATE (b:X {n: 2})")
        db.execute(
            "MATCH (a:X {n:1}), (b:X {n:2}) CREATE (a)-[:T]->(b)"
        )
        rows = db.execute("MATCH (a:X {n:1})-[r:T*1..2]->(b) RETURN r")
        assert isinstance(rows[0]["r"], list)
        assert rows[0]["r"][0]["type"] == "T"


class TestLabelChangeHistory:
    """Label evolution across GC: the old label must still find the
    old versions — the subtle case the scan's pruning must not lose."""

    def _relabeled(self):
        db = AeonG(anchor_interval=2, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["Draft"], {"title": "t"})
        t_draft = db.now()
        with db.transaction() as txn:
            db.add_label(txn, gid, "Published")
            db.remove_label(txn, gid, "Draft")
        db.collect_garbage()
        return db, gid, t_draft

    def test_old_label_found_historically(self):
        db, gid, t_draft = self._relabeled()
        rows = db.execute(
            f"MATCH (n:Draft) TT SNAPSHOT {t_draft - 1} RETURN n.title"
        )
        assert rows == [{"n.title": "t"}]
        assert db.execute("MATCH (n:Draft) RETURN count(*) AS c") == [{"c": 0}]

    def test_new_label_absent_historically(self):
        db, gid, t_draft = self._relabeled()
        rows = db.execute(
            f"MATCH (n:Published) TT SNAPSHOT {t_draft - 1} RETURN count(*) AS c"
        )
        assert rows == [{"c": 0}]
        assert db.execute(
            "MATCH (n:Published) RETURN count(*) AS c"
        ) == [{"c": 1}]

    def test_slice_sees_both_labels(self):
        db, gid, _t = self._relabeled()
        rows = db.execute(
            f"MATCH (n:Draft) TT BETWEEN 0 AND {db.now()} RETURN count(*) AS c"
        )
        assert rows[0]["c"] >= 1
        rows = db.execute(
            f"MATCH (n:Published) TT BETWEEN 0 AND {db.now()} "
            "RETURN count(*) AS c"
        )
        assert rows[0]["c"] >= 1
