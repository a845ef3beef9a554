"""Failpoint registry, StorageIO, and fault-hardened path tests."""

from __future__ import annotations

import time

import pytest

from repro import AeonG
from repro.errors import CorruptionError, FaultInjected
from repro.faults import (
    FAILPOINTS,
    FailpointRegistry,
    SimulatedCrash,
    StorageIO,
    corrupt_bytes,
    torn_prefix,
)
from repro.kvstore import KVStore
from repro.kvstore.wal import WriteAheadLog


@pytest.fixture(autouse=True)
def _clean_registry():
    """No armed failpoint leaks between tests."""
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


class TestRegistry:
    def test_sites_registered_at_import(self):
        sites = FAILPOINTS.sites()
        for expected in (
            "engine.wal.append",
            "engine.wal.sync",
            "engine.wal.truncate",
            "kv.wal.append",
            "kv.flush",
            "kv.compact",
            "kv.save.sst",
            "kv.save.manifest",
            "kv.sstable.encode",
            "kv.sstable.decode",
            "checkpoint.current.write",
            "checkpoint.meta.write",
            "checkpoint.retire",
            "checkpoint.install",
            "checkpoint.cleanup",
            "migration.commit_batch",
        ):
            assert expected in sites, expected

    def test_unarmed_hit_is_noop(self):
        registry = FailpointRegistry()
        registry.register("x")
        assert registry.hit("x") is None
        assert registry.stats("x").hits == 1
        assert registry.stats("x").fired == 0

    def test_fires_on_nth_hit_once(self):
        registry = FailpointRegistry()
        registry.activate("x", "error", nth=3)
        assert registry.hit("x") is None
        assert registry.hit("x") is None
        assert registry.hit("x") == "error"
        assert registry.hit("x") is None  # one-shot by default

    def test_times_controls_repeat_fires(self):
        registry = FailpointRegistry()
        registry.activate("x", "error", nth=2, times=2)
        assert [registry.hit("x") for _ in range(5)] == [
            None, "error", "error", None, None,
        ]

    def test_times_none_fires_forever(self):
        registry = FailpointRegistry()
        registry.activate("x", "error", times=None)
        assert all(registry.hit("x") == "error" for _ in range(10))

    def test_check_raises_for_simple_modes(self):
        registry = FailpointRegistry()
        registry.activate("x", "error")
        with pytest.raises(FaultInjected):
            registry.check("x")
        registry.activate("x", "crash")
        with pytest.raises(SimulatedCrash):
            registry.check("x")

    def test_simulated_crash_is_not_an_ordinary_exception(self):
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

    def test_context_manager_disarms(self):
        registry = FailpointRegistry()
        with registry.active("x", "error", nth=5):
            assert registry.armed() == {"x": "error"}
        assert registry.armed() == {}

    def test_rejects_unknown_mode_and_bad_nth(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError):
            registry.activate("x", "explode")
        with pytest.raises(ValueError):
            registry.activate("x", "error", nth=0)

    def test_env_activation(self):
        registry = FailpointRegistry()
        env = {"REPRO_FAILPOINTS": "a.b=crash:3;c.d=error:1:2"}
        assert registry.load_env(env) == 2
        armed = registry.armed()
        assert armed == {"a.b": "crash", "c.d": "error"}
        assert [registry.hit("a.b") for _ in range(3)] == [None, None, "crash"]

    def test_env_activation_rejects_malformed(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError):
            registry.load_env({"REPRO_FAILPOINTS": "no-equals-sign"})

    def test_clear_keeps_registrations(self):
        registry = FailpointRegistry()
        registry.register("x")
        registry.activate("x", "error")
        registry.clear()
        assert registry.armed() == {}
        assert "x" in registry.sites()


class TestStorageIO:
    def test_rejects_unknown_durability_mode(self):
        with pytest.raises(ValueError):
            StorageIO("turbo")

    def test_torn_prefix_is_half(self):
        assert torn_prefix(b"abcdef") == b"abc"
        assert torn_prefix(b"") == b""

    def test_write_file_is_atomic_under_torn_write(self, tmp_path):
        path = tmp_path / "f.bin"
        io = StorageIO()
        io.write_file(path, b"original-contents", "t.site")
        FAILPOINTS.activate("t.site", "torn-write")
        with pytest.raises(SimulatedCrash):
            io.write_file(path, b"replacement-data!", "t.site")
        # The target is untouched; only a stray .tmp holds the tear.
        assert path.read_bytes() == b"original-contents"
        assert (tmp_path / "f.bin.tmp").read_bytes() == torn_prefix(
            b"replacement-data!"
        )

    def test_write_file_crash_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "f.bin"
        io = StorageIO("fsync")
        io.write_file(path, b"v1", "t.site")
        FAILPOINTS.activate("t.site", "crash")
        with pytest.raises(SimulatedCrash):
            io.write_file(path, b"v2", "t.site")
        assert path.read_bytes() == b"v1"

    def test_write_file_corrupt_is_silent_bit_rot(self, tmp_path):
        """corrupt mode completes the write without raising — the
        damage is only discoverable by a later checksum verification."""
        path = tmp_path / "f.bin"
        io = StorageIO()
        payload = b"payload-that-should-have-landed-intact"
        FAILPOINTS.activate("t.site", "corrupt")
        io.write_file(path, payload, "t.site")  # no exception
        stored = path.read_bytes()
        assert stored != payload
        assert stored == corrupt_bytes(payload)

    def test_append_corrupt_is_silent_bit_rot(self, tmp_path):
        path = tmp_path / "log.bin"
        io = StorageIO()
        payload = b"record-bytes-on-the-wire"
        FAILPOINTS.activate("t.site", "corrupt")
        with open(path, "wb") as handle:
            io.append(handle, payload, "t.site")
        assert path.read_bytes() == corrupt_bytes(payload)


class TestCorruptBytes:
    def test_deterministic_and_damaging(self):
        payload = b"some stable payload"
        damaged = corrupt_bytes(payload)
        assert damaged == corrupt_bytes(payload)  # reruns reproduce
        assert damaged != payload
        assert len(damaged) == len(payload)
        # exactly one bit differs
        diff = [a ^ b for a, b in zip(payload, damaged)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_seed_varies_the_damage(self):
        payload = b"some stable payload" * 4
        variants = {corrupt_bytes(payload, seed=s) for s in range(8)}
        assert len(variants) > 1
        assert payload not in variants

    def test_empty_input_becomes_junk_byte(self):
        assert corrupt_bytes(b"") == b"\xff"


class TestWalFaults:
    def test_error_mode_append_leaves_log_intact(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        FAILPOINTS.activate("kv.wal.append", "error")
        with pytest.raises(FaultInjected):
            wal.append([(b"b", b"2")])
        wal.append([(b"b", b"2")])  # retries cleanly
        assert [ops for ops in wal.replay()] == [
            [(b"a", b"1")], [(b"b", b"2")],
        ]
        wal.close()

    def test_torn_write_leaves_recoverable_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        FAILPOINTS.activate("kv.wal.append", "torn-write")
        with pytest.raises(SimulatedCrash):
            wal.append([(b"b", b"2")])
        recovered = WriteAheadLog(tmp_path / "w.log")
        scan = recovered.scan()
        assert scan.payloads == [[(b"a", b"1")]]
        assert scan.torn_tail and not scan.corruption
        assert scan.bytes_discarded > 0
        recovered.close()
        wal.close()

    def test_repair_truncates_torn_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        FAILPOINTS.activate("kv.wal.append", "torn-write")
        with pytest.raises(SimulatedCrash):
            wal.append([(b"b", b"2")])
        recovered = WriteAheadLog(tmp_path / "w.log")
        recovered.scan()
        assert recovered.repair() is True
        # Appends after repair land on a clean prefix and replay fully.
        recovered.append([(b"c", b"3")])
        assert list(recovered.replay()) == [[(b"a", b"1")], [(b"c", b"3")]]
        assert recovered.repair() is False
        recovered.close()
        wal.close()

    def test_partial_fsync_loses_unsynced_suffix(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", durability_mode="fsync")
        wal.append([(b"a", b"1")])
        FAILPOINTS.activate("kv.wal.sync", "partial-fsync")
        with pytest.raises(SimulatedCrash):
            wal.append([(b"b", b"2")])
        recovered = WriteAheadLog(tmp_path / "w.log")
        scan = recovered.scan()
        assert scan.payloads == [[(b"a", b"1")]]
        assert scan.torn_tail
        recovered.close()
        wal.close()

    def test_crash_mid_truncate_preserves_old_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        wal.append([(b"b", b"2")])
        FAILPOINTS.activate("kv.wal.truncate", "crash")
        with pytest.raises(SimulatedCrash):
            wal.truncate()
        # The rename never happened: the full old log must survive, and
        # the stray .tmp must be discarded on reopen.
        recovered = WriteAheadLog(tmp_path / "w.log")
        assert list(recovered.replay()) == [[(b"a", b"1")], [(b"b", b"2")]]
        assert not (tmp_path / "w.log.tmp").exists()
        recovered.close()
        wal.close()

    def test_interior_corruption_distinguished_from_torn_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        wal.append([(b"b", b"2")])
        wal.append([(b"c", b"3")])
        wal.close()
        data = bytearray((tmp_path / "w.log").read_bytes())
        # Flip a payload bit in the MIDDLE record: damage followed by a
        # valid record — never producible by a crash of an append-only
        # writer.
        record_len = len(data) // 3
        data[record_len + record_len // 2] ^= 0xFF
        (tmp_path / "w.log").write_bytes(bytes(data))
        recovered = WriteAheadLog(tmp_path / "w.log")
        scan = recovered.scan()
        assert scan.payloads == [[(b"a", b"1")]]
        assert scan.corruption and not scan.torn_tail
        with pytest.raises(CorruptionError):
            recovered.scan(strict=True)
        recovered.close()

    def test_last_record_bitflip_is_torn_tail_not_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append([(b"a", b"1")])
        wal.append([(b"b", b"2")])
        wal.close()
        data = bytearray((tmp_path / "w.log").read_bytes())
        data[-1] ^= 0xFF
        (tmp_path / "w.log").write_bytes(bytes(data))
        recovered = WriteAheadLog(tmp_path / "w.log")
        scan = recovered.scan(strict=True)  # strict tolerates torn tails
        assert scan.payloads == [[(b"a", b"1")]]
        assert scan.torn_tail and not scan.corruption
        recovered.close()


class TestKVStoreFaults:
    def test_flush_no_longer_truncates_wal(self, tmp_path):
        """Flushed runs are memory-only, so the WAL must keep covering
        them — truncating at flush time lost them on crash."""
        store = KVStore(wal_path=tmp_path / "w.log", memtable_limit_bytes=64)
        for i in range(50):
            store.put(f"k{i:03d}".encode(), b"v" * 8)
        assert store.stats.flushes > 0  # runs exist, WAL survived
        store.close()
        crashed = KVStore(wal_path=tmp_path / "w.log")
        assert crashed.recover() == 50
        for i in range(50):
            assert crashed.get(f"k{i:03d}".encode()) == b"v" * 8
        crashed.close()

    def test_recover_repairs_torn_tail_and_reports(self, tmp_path):
        store = KVStore(wal_path=tmp_path / "w.log")
        store.put(b"a", b"1")
        FAILPOINTS.activate("kv.wal.append", "torn-write")
        with pytest.raises(SimulatedCrash):
            store.put(b"b", b"2")
        crashed = KVStore(wal_path=tmp_path / "w.log")
        assert crashed.recover() == 1
        assert crashed.last_recovery_scan.torn_tail
        assert crashed.get(b"a") == b"1"
        assert crashed.get(b"b") is None
        crashed.close()
        store.close()

    def test_error_during_flush_is_recoverable(self, tmp_path):
        store = KVStore(wal_path=tmp_path / "w.log")
        store.put(b"a", b"1")
        FAILPOINTS.activate("kv.flush", "error")
        with pytest.raises(FaultInjected):
            store.flush()
        assert store.get(b"a") == b"1"  # state intact
        store.flush()  # clean retry
        assert store.get(b"a") == b"1"
        store.close()

    def test_save_error_leaves_no_manifest(self, tmp_path):
        store = KVStore()
        store.put(b"a", b"1")
        FAILPOINTS.activate("kv.save.sst", "error")
        with pytest.raises(FaultInjected):
            store.save(tmp_path / "out")
        assert not (tmp_path / "out" / "MANIFEST.json").exists()
        with pytest.raises(Exception):
            KVStore.load(tmp_path / "out")
        store.save(tmp_path / "out")  # retry succeeds
        assert KVStore.load(tmp_path / "out").get(b"a") == b"1"


class TestMigrationFaults:
    def _make_garbage(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"], {"v": 0})
        for value in (1, 2, 3):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        return gid

    def test_failed_migration_requeues_and_retries(self):
        db = AeonG(gc_interval_transactions=0)
        self._make_garbage(db)
        FAILPOINTS.activate("migration.commit_batch", "error")
        with pytest.raises(FaultInjected):
            db.collect_garbage()
        # Nothing reached the history store, nothing was lost: the next
        # epoch migrates the same deltas.
        assert db.history.records_written == 0
        assert len(db.manager.committed_pending_gc) > 0
        reclaimed = db.collect_garbage()
        assert reclaimed > 0
        assert db.history.records_written > 0

    def test_history_identical_after_faulted_epoch(self):
        """The retried migration yields the same queryable history as a
        never-faulted run."""
        from repro import TemporalCondition

        def versions(db, gid):
            txn = db.begin()
            try:
                return [
                    (v.tt, tuple(sorted(v.properties.items())))
                    for v in db.vertex_versions(
                        txn, gid, TemporalCondition.between(0, db.now())
                    )
                ]
            finally:
                db.abort(txn)

        faulted = AeonG(gc_interval_transactions=0)
        gid_f = self._make_garbage(faulted)
        FAILPOINTS.activate("migration.commit_batch", "error")
        with pytest.raises(FaultInjected):
            faulted.collect_garbage()
        faulted.collect_garbage()

        clean = AeonG(gc_interval_transactions=0)
        gid_c = self._make_garbage(clean)
        clean.collect_garbage()

        assert versions(faulted, gid_f) == versions(clean, gid_c)


class TestBackgroundGcHardening:
    def test_gc_thread_survives_faulted_epoch(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"], {"v": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 1)
        FAILPOINTS.activate("migration.commit_batch", "error")
        db.start_background_gc(interval_seconds=0.005)
        deadline = time.time() + 5.0
        while db.metrics()["gc"]["background_errors"] == 0:
            assert time.time() < deadline, "GC never hit the failpoint"
            time.sleep(0.005)
        metrics = db.metrics()["gc"]
        assert metrics["background_running"], "daemon thread died"
        assert "FaultInjected" in metrics["background_last_error"]
        # Failpoint was one-shot: the loop recovers and migrates.
        deadline = time.time() + 5.0
        while db.history.records_written == 0:
            assert time.time() < deadline, "GC never recovered"
            time.sleep(0.005)
        db.stop_background_gc()
        assert db.metrics()["gc"]["background_running"] is False

    def test_backoff_caps_error_rate(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"], {"v": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 1)
        FAILPOINTS.activate("migration.commit_batch", "error", times=None)
        db.start_background_gc(
            interval_seconds=0.005, max_backoff_seconds=10.0
        )
        time.sleep(0.4)
        errors = db.metrics()["gc"]["background_errors"]
        # With doubling backoff from 5ms the loop can fail at most
        # ~log2(10s/5ms)+a few times in 0.4s; without backoff it would
        # be ~80.
        assert 1 <= errors <= 12
        FAILPOINTS.clear()
        db.stop_background_gc()
