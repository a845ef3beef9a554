"""Tests for the key-value store: memtable, sstables, LSM facade, and
the engine WAL whose batches reuse the sstable entry codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.durability import EngineWal
from repro.errors import CorruptionError, KVStoreError
from repro.kvstore import KVStore, WriteBatch
from repro.kvstore.memtable import MemTable
from repro.kvstore.sstable import SSTable


class TestMemTable:
    def test_put_get(self):
        table = MemTable(seed=0)
        table.put(b"a", b"1")
        assert table.get(b"a") == (True, b"1")
        assert table.get(b"b") == (False, None)

    def test_overwrite_keeps_count(self):
        table = MemTable(seed=0)
        table.put(b"a", b"1")
        table.put(b"a", b"22")
        assert len(table) == 1
        assert table.get(b"a") == (True, b"22")

    def test_tombstone_is_found(self):
        table = MemTable(seed=0)
        table.put(b"a", b"1")
        table.put(b"a", None)
        assert table.get(b"a") == (True, None)

    def test_iteration_is_sorted(self):
        table = MemTable(seed=0)
        for key in [b"m", b"a", b"z", b"c", b"b"]:
            table.put(key, key)
        assert [k for k, _ in table] == [b"a", b"b", b"c", b"m", b"z"]

    def test_seek_starts_at_key(self):
        table = MemTable(seed=0)
        for key in [b"a", b"c", b"e"]:
            table.put(key, key)
        assert [k for k, _ in table.seek(b"b")] == [b"c", b"e"]
        assert [k for k, _ in table.seek(b"c")] == [b"c", b"e"]
        assert list(table.seek(b"f")) == []

    def test_byte_accounting(self):
        table = MemTable(seed=0)
        table.put(b"key", b"value")
        assert table.approximate_bytes == 8
        table.put(b"key", b"v")
        assert table.approximate_bytes == 4
        table.put(b"key", None)
        assert table.approximate_bytes == 3

    @given(st.dictionaries(st.binary(min_size=1, max_size=8), st.binary(max_size=8), max_size=60))
    @settings(max_examples=100)
    def test_behaves_like_dict(self, mapping):
        table = MemTable(seed=1)
        for key, value in mapping.items():
            table.put(key, value)
        for key, value in mapping.items():
            assert table.get(key) == (True, value)
        assert [k for k, _ in table] == sorted(mapping)


class TestSSTable:
    def _table(self):
        return SSTable([(b"a", b"1"), (b"c", None), (b"e", b"5")])

    def test_requires_sorted_unique_keys(self):
        with pytest.raises(ValueError):
            SSTable([(b"b", b"1"), (b"a", b"2")])
        with pytest.raises(ValueError):
            SSTable([(b"a", b"1"), (b"a", b"2")])

    def test_get(self):
        table = self._table()
        assert table.get(b"a") == (True, b"1")
        assert table.get(b"c") == (True, None)  # tombstone
        assert table.get(b"d") == (False, None)

    def test_seek(self):
        table = self._table()
        assert [k for k, _ in table.seek(b"b")] == [b"c", b"e"]

    def test_bounds(self):
        table = self._table()
        assert table.smallest_key == b"a"
        assert table.largest_key == b"e"
        assert SSTable([]).smallest_key is None

    def test_encode_decode_roundtrip(self):
        table = self._table()
        clone = SSTable.decode(table.encode())
        assert list(clone) == list(table)

    def test_decode_detects_corruption(self):
        encoded = bytearray(self._table().encode())
        encoded[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            SSTable.decode(bytes(encoded))

    def test_decode_detects_bad_magic(self):
        encoded = self._table().encode()[:-1] + b"X"
        with pytest.raises(CorruptionError):
            SSTable.decode(encoded)

    def test_decode_rejects_short_input(self):
        with pytest.raises(CorruptionError):
            SSTable.decode(b"tiny")


def _ops(i: int) -> list[tuple]:
    return [("svp", 1, "v", i)]


class TestWAL:
    """The engine WAL, whose frame payload is a batch of sstable
    entries: reopen, truncate, and the torn tail a crash leaves."""

    def test_truncate_clears(self, tmp_path):
        wal = EngineWal(tmp_path)
        wal.append(1, _ops(1))
        wal.truncate()
        assert wal.scan()[0] == []
        wal.close()

    def test_file_backed_replay(self, tmp_path):
        wal = EngineWal(tmp_path)
        wal.append(1, _ops(1))
        wal.close()
        recovered = EngineWal(tmp_path)
        assert recovered.scan()[0] == [(1, _ops(1))]
        recovered.close()

    def test_torn_tail_is_ignored(self, tmp_path):
        wal = EngineWal(tmp_path)
        wal.append(1, _ops(1))
        wal.append(2, _ops(2))
        wal.close()
        path = tmp_path / "engine.wal"
        path.write_bytes(path.read_bytes()[:-3])  # crash mid-write of record 2
        recovered = EngineWal(tmp_path)
        assert recovered.scan()[0] == [(1, _ops(1))]
        recovered.close()

    def test_corrupted_record_stops_replay(self, tmp_path):
        wal = EngineWal(tmp_path)
        wal.append(1, _ops(1))
        wal.append(2, _ops(2))
        wal.close()
        path = tmp_path / "engine.wal"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the last record's payload
        path.write_bytes(bytes(data))
        recovered = EngineWal(tmp_path)
        assert recovered.scan()[0] == [(1, _ops(1))]
        recovered.close()


class TestKVStore:
    def test_basic_roundtrip(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_rejects_bad_keys(self):
        store = KVStore()
        with pytest.raises(ValueError):
            store.put(b"", b"v")
        with pytest.raises(TypeError):
            store.put("str", b"v")
        with pytest.raises(TypeError):
            store.put(b"k", "str")

    def test_read_through_flushed_runs(self):
        store = KVStore(memtable_limit_bytes=64)
        for i in range(100):
            store.put(f"key{i:03d}".encode(), f"value{i}".encode())
        assert store.stats.flushes > 0
        for i in range(100):
            assert store.get(f"key{i:03d}".encode()) == f"value{i}".encode()

    def test_newest_run_wins(self):
        store = KVStore()
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        store.flush()
        assert store.get(b"k") == b"new"

    def test_delete_shadows_older_runs(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        assert store.get(b"k") is None
        assert b"k" not in dict(store.scan_all())

    def test_seek_merges_runs_in_order(self):
        store = KVStore()
        store.put(b"b", b"1")
        store.flush()
        store.put(b"a", b"2")
        store.put(b"c", b"3")
        assert [k for k, _ in store.seek(b"a")] == [b"a", b"b", b"c"]

    def test_scan_prefix_bounded(self):
        store = KVStore()
        for key in [b"aa1", b"aa2", b"ab1", b"b"]:
            store.put(key, b"x")
        assert [k for k, _ in store.scan_prefix(b"aa")] == [b"aa1", b"aa2"]

    def test_write_batch_atomic_and_ordered(self):
        store = KVStore()
        store.put(b"gone", b"x")
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"a", b"2")  # later op on same key wins
        batch.delete(b"gone")
        store.write(batch)
        assert store.get(b"a") == b"2"
        assert store.get(b"gone") is None

    def test_compaction_drops_tombstones_and_shrinks(self):
        store = KVStore()
        for i in range(50):
            store.put(f"k{i}".encode(), b"v" * 20)
        store.flush()
        for i in range(25):
            store.delete(f"k{i}".encode())
        before = store.approximate_bytes()
        store.compact()
        assert store.approximate_bytes() < before
        assert len(store) == 25

    def test_len_counts_live_keys(self):
        store = KVStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.delete(b"a")
        assert len(store) == 1

    def test_save_load_roundtrip(self, tmp_path):
        store = KVStore()
        for i in range(30):
            store.put(f"k{i:02d}".encode(), f"v{i}".encode())
        store.delete(b"k00")
        store.save(tmp_path / "db")
        loaded = KVStore.load(tmp_path / "db")
        assert loaded.get(b"k00") is None
        assert loaded.get(b"k29") == b"v29"
        assert len(loaded) == 29

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(KVStoreError):
            KVStore.load(tmp_path / "nope")

    def test_tail_compaction_preserves_newest_wins(self):
        store = KVStore()
        store.put(b"k", b"v1")
        store.flush()
        store.delete(b"k")
        store.flush()
        store.put(b"k", b"v3")
        store.flush()
        store.put(b"other", b"x")
        store.flush()
        # Fold the two oldest runs (delete + v1): the tombstone wins
        # inside the tail and both disappear; the newer v3 survives.
        store.compact_tail(2)
        assert store.get(b"k") == b"v3"
        assert store.get(b"other") == b"x"

    def test_tail_compaction_noop_on_single_run(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.flush()
        before = store.stats.compactions
        store.compact_tail(5)
        assert store.stats.compactions == before

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([b"a", b"b", b"c", b"dd", b"ee", b"long-key"]),
                st.one_of(st.none(), st.binary(max_size=6)),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=100)
    def test_model_based_against_dict(self, ops):
        """The store behaves like a dict under arbitrary op interleaving
        with periodic flush/compact (full and tail)."""
        store = KVStore(memtable_limit_bytes=48)
        model: dict[bytes, bytes] = {}
        for index, (key, value) in enumerate(ops):
            if value is None:
                store.delete(key)
                model.pop(key, None)
            else:
                store.put(key, value)
                model[key] = value
            if index % 13 == 7:
                store.flush()
            if index % 17 == 5:
                store.compact_tail(2)
            if index % 29 == 11:
                store.compact()
        for key in [b"a", b"b", b"c", b"dd", b"ee", b"long-key"]:
            assert store.get(key) == model.get(key)
        assert dict(store.scan_all()) == model
