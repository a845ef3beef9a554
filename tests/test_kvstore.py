"""Tests for the key-value store: the memtable, the table codec, the
sorted run behind them, and the engine WAL whose batches reuse the
table's entry codec."""

from __future__ import annotations

import struct
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import AeonG, TemporalCondition
from repro.core.durability import EngineWal
from repro.errors import CorruptionError, KVStoreError
from repro.kvstore import KVStore, WriteBatch
from repro.kvstore.sstable import decode_table, encode_table
from repro.kvstore.store import CHUNK


class TestMemTable:
    """The memtable: the dict of writes made since the last flush,
    which every read folds into the sorted run first."""

    def test_put_get(self):
        store = KVStore()
        store.put(b"a", b"1")
        assert store.get(b"a") == b"1"
        assert store.get(b"b") is None

    def test_overwrite_keeps_count(self):
        store = KVStore()
        store.put(b"a", b"1")
        store.put(b"a", b"22")
        assert len(store) == 1
        assert store.get(b"a") == b"22"

    def test_tombstone_is_found(self):
        store = KVStore()
        store.put(b"a", b"1")
        store.flush()
        store.delete(b"a")
        assert store.get(b"a") is None
        # The tombstone sits in the run (its key still counted) until
        # compaction drops it.
        assert store.approximate_bytes() == 1
        store.compact()
        assert store.approximate_bytes() == 0

    def test_iteration_is_sorted(self):
        store = KVStore()
        for key in [b"m", b"a", b"z", b"c", b"b"]:
            store.put(key, key)
        assert [k for k, _ in store.scan_all()] == [b"a", b"b", b"c", b"m", b"z"]

    def test_seek_starts_at_key(self):
        store = KVStore()
        for key in [b"a", b"c", b"e"]:
            store.put(key, key)
        assert [k for k, _ in store.seek(b"b")] == [b"c", b"e"]
        assert [k for k, _ in store.seek(b"c")] == [b"c", b"e"]
        assert list(store.seek(b"f")) == []

    def test_byte_accounting(self):
        store = KVStore()
        store.put(b"key", b"value")
        assert store.approximate_bytes() == 8
        store.put(b"key", b"v")
        assert store.approximate_bytes() == 4
        store.delete(b"key")
        assert store.approximate_bytes() == 3

    @given(st.dictionaries(st.binary(min_size=1, max_size=8), st.binary(max_size=8), max_size=60))
    @settings(max_examples=100)
    def test_behaves_like_dict(self, mapping):
        store = KVStore()
        for key, value in mapping.items():
            store.put(key, value)
        for key, value in mapping.items():
            assert store.get(key) == value
        assert [k for k, _ in store.scan_all()] == sorted(mapping)


#: ``[(b"a", b"1"), (b"c", tombstone), (b"e", b"5")]`` as an older
#: writer stored it, with a 20-byte Bloom filter block between the
#: entries and the footer (``bloom_len`` 20).
GOLDEN_ENTRIES = [(b"a", b"1"), (b"c", None), (b"e", b"5")]
_GOLDEN_PAYLOAD = "01610001310163010165000135"
_GOLDEN_FILTER = "0000001c000000060000000000000003b26ac805"
GOLDEN_TABLE = bytes.fromhex(
    _GOLDEN_PAYLOAD
    + _GOLDEN_FILTER
    + "0000000374055e6f00000014524550524f535354"  # footer
)
#: The same entries as :func:`encode_table` writes them: no filter
#: block, ``bloom_len`` 0.
GOLDEN_TABLE_NO_FILTER = bytes.fromhex(
    _GOLDEN_PAYLOAD + "0000000374055e6f00000000524550524f535354"
)
_FOOTER = struct.Struct(">III8s")


def _with_filter_block(table: bytes, block: bytes) -> bytes:
    """``table`` rewritten the way older writers laid it out: a filter
    block between the entries and the footer."""
    count, crc, bloom_len, magic = _FOOTER.unpack(table[-_FOOTER.size:])
    assert bloom_len == 0
    footer = _FOOTER.pack(count, crc, len(block), magic)
    return table[:-_FOOTER.size] + block + footer


class TestSSTable:
    """The table codec (``encode_table`` / ``decode_table``)."""

    def test_requires_sorted_unique_keys(self):
        with pytest.raises(ValueError):
            encode_table([(b"b", b"1"), (b"a", b"2")])
        with pytest.raises(ValueError):
            encode_table([(b"a", b"1"), (b"a", b"2")])

    def test_encode_decode_roundtrip(self):
        assert decode_table(encode_table(GOLDEN_ENTRIES)) == GOLDEN_ENTRIES
        assert decode_table(encode_table([])) == []

    def test_decode_detects_corruption(self):
        encoded = bytearray(encode_table(GOLDEN_ENTRIES))
        encoded[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_table(bytes(encoded))

    def test_decode_detects_bad_magic(self):
        encoded = encode_table(GOLDEN_ENTRIES)[:-1] + b"X"
        with pytest.raises(CorruptionError):
            decode_table(encoded)

    def test_decode_rejects_short_input(self):
        with pytest.raises(CorruptionError):
            decode_table(b"tiny")

    def test_decode_rejects_unsorted_entries(self):
        """A checksum-valid table whose keys are out of order is
        corruption, not data."""
        good = encode_table([(b"a", b"1"), (b"b", b"2")])
        payload = good[:-_FOOTER.size]
        swapped = payload[len(payload) // 2:] + payload[: len(payload) // 2]
        footer = _FOOTER.pack(2, zlib.crc32(swapped), 0, b"REPROSST")
        with pytest.raises(CorruptionError):
            decode_table(swapped + footer)

    def test_golden_table_bytes(self):
        """The writer's bytes: entries, no filter block, footer
        (entries, payload crc, ``bloom_len`` 0, magic)."""
        assert encode_table(GOLDEN_ENTRIES) == GOLDEN_TABLE_NO_FILTER

    def test_golden_table_decodes(self):
        """A table written with a Bloom filter block still reads."""
        assert decode_table(GOLDEN_TABLE) == GOLDEN_ENTRIES

    def test_checkpoint_with_filter_blocks_opens(self, tmp_path):
        """A checkpoint whose history table carries a filter block (as
        older writers saved it) opens through ``AeonG.open`` with the
        same history."""
        db = AeonG(gc_interval_transactions=0, anchor_interval=2)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["T"], {"v": 0})
        for i in range(1, 6):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", i)
        db.collect_garbage()
        cond = TemporalCondition.between(0, db.now())

        def versions(engine):
            with engine.transaction() as txn:
                return [
                    dict(view.properties)
                    for view in engine.vertex_versions(txn, gid, cond)
                ]

        expected = versions(db)
        db.save(tmp_path / "snap")
        db.close()
        (table,) = (tmp_path / "snap").rglob("*.sst")
        block = bytes.fromhex(_GOLDEN_FILTER)
        table.write_bytes(_with_filter_block(table.read_bytes(), block))
        reopened = AeonG.open(tmp_path / "snap")
        assert len(expected) == 6
        assert versions(reopened) == expected
        reopened.close()


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
        store = KVStore()
        for i in range(100):
            store.put(f"key{i:03d}".encode(), f"value{i}".encode())
            if i % 10 == 9:
                store.flush()
        assert store.stats.flushes == 10
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
        """The store is one run, so ``compact()`` folds its whole tail:
        a key's newest write survives the tombstone before it."""
        store = KVStore()
        store.put(b"k", b"v1")
        store.flush()
        store.delete(b"k")
        store.flush()
        store.put(b"dead", b"x")
        store.flush()
        store.delete(b"dead")
        store.put(b"k", b"v3")
        store.flush()
        store.put(b"other", b"x")
        store.flush()
        store.compact()
        assert store.stats.compactions == 1
        assert store.get(b"k") == b"v3"
        assert store.get(b"other") == b"x"
        assert store.get(b"dead") is None
        assert store.approximate_bytes() == len(b"kv3otherx")

    def test_tail_compaction_noop_on_single_run(self):
        """Compaction only drops tombstones: a run without any is left
        alone and not counted."""
        store = KVStore()
        store.put(b"k", b"v")
        store.flush()
        before = store.stats.compactions
        store.compact()
        assert store.stats.compactions == before

    def test_single_puts_cost_one_flush(self):
        """Single-key writes (Clock-G puts one key per op) are staged:
        the read that follows folds all of them in one flush."""
        store = KVStore()
        for i in range(1000):
            store.put(f"log{i:04d}".encode(), b"op")
        assert store.stats.flushes == 0
        assert len(list(store.scan_prefix(b"log"))) == 1000
        assert store.stats.flushes == 1

    def test_scan_result_survives_a_splitting_write(self):
        """A ``scan_prefix`` result is the store as of the call, even
        when a later write splits the chunk it was read from."""
        store = KVStore()
        batch = WriteBatch()
        for i in range(0, 2 * CHUNK - 1):
            batch.put(f"k{i:05d}".encode(), b"old")
        store.write(batch)
        assert len(store._lasts) == 1
        rows = store.scan_prefix(b"k000")
        expected = [(f"k{i:05d}".encode(), b"old") for i in range(100)]
        batch = WriteBatch()
        batch.put(b"k00050", b"new")
        batch.put(b"k00050a", b"new")
        batch.delete(b"k00051")
        store.write(batch)
        assert len(store._lasts) == 2  # the write split the chunk
        assert list(rows) == expected
        assert store.get(b"k00050") == b"new"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1599),
                st.one_of(st.none(), st.binary(max_size=6)),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_model_based_against_dict(self, ops):
        """The store behaves like a dict under arbitrary op interleaving
        with periodic flush/compact, over enough keys (1,200 preloaded)
        that its run splits into several chunks."""
        keys = [f"key-{i:04d}".encode() for i in range(1600)]
        store = KVStore()
        model: dict[bytes, bytes] = {}
        preload = WriteBatch()
        for i in range(1600):
            if i % 4 != 3:
                preload.put(keys[i], b"base")
                model[keys[i]] = b"base"
        store.write(preload)
        assert len(store._lasts) > 1
        for index, (slot, value) in enumerate(ops):
            key = keys[slot]
            if value is None:
                store.delete(key)
                model.pop(key, None)
            else:
                store.put(key, value)
                model[key] = value
            if index % 13 == 7:
                store.flush()
            if index % 29 == 11:
                store.compact()
        for slot, _value in ops:
            assert store.get(keys[slot]) == model.get(keys[slot])
        assert dict(store.scan_all()) == model
        assert list(store.scan_prefix(b"key-08")) == sorted(
            (k, v) for k, v in model.items() if k.startswith(b"key-08")
        )
        assert list(store.scan_range(keys[500], keys[1100])) == sorted(
            (k, v) for k, v in model.items() if keys[500] <= k < keys[1100]
        )


class TestConcurrentReaders:
    def test_readers_see_sorted_whole_rows_while_writers_split_chunks(self):
        """Writers fold batches and single puts (splitting chunks) while
        readers scan: every scan is strictly ascending and returns only
        values that were written for its keys, and no write is lost."""
        store = KVStore()
        writers, readers, per_writer = 3, 3, 5000
        stop = threading.Event()
        failures: list[str] = []

        def value_of(key: bytes) -> bytes:
            return b"v" + key

        def writer(w: int) -> None:
            for i in range(per_writer):
                key = f"{(i * 7919 + w) % 10000:05d}-{w}".encode()
                if i % 3:
                    store.put(key, value_of(key))
                else:
                    batch = WriteBatch()
                    batch.put(key, value_of(key))
                    store.write(batch)

        def reader() -> None:
            while not stop.is_set():
                for rows in (list(store.scan_all()), list(store.scan_prefix(b"0"))):
                    keys = [key for key, _ in rows]
                    if any(a >= b for a, b in zip(keys, keys[1:])):
                        failures.append("scan not strictly ascending")
                    if any(value != value_of(key) for key, value in rows):
                        failures.append("scan returned a torn row")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
            scanners = [threading.Thread(target=reader) for _ in range(readers)]
            for thread in threads + scanners:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            for thread in scanners:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads + scanners)
        assert failures == []
        assert len(store._lasts) > 2  # the run split while readers ran
        assert len(store) == writers * per_writer
