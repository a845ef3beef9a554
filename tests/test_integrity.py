"""Online integrity verification and self-healing (repro.integrity).

Covers the checksum envelope, the scrubber's detection battery, the
quarantine gate in ``fetch_versions``, every repair strategy, the
budget/resume/dirty-queue scheduling, and the offline ``aeong verify``
fsck.  The end-to-end acceptance test is
``TestEndToEnd::test_corrupt_failpoint_detect_quarantine_repair``.
"""

from __future__ import annotations

import json

import pytest

from repro import AeonG, IntegrityError, ResilienceConfig, TemporalCondition
from repro.cli import main as cli_main
from repro.core import keys as hk
from repro.core.deltas import (
    ENVELOPE_MAGIC,
    decode_record_payload,
    encode_record_payload,
)
from repro.faults import FAILPOINTS, corrupt_bytes
from repro.integrity import (
    IntegrityReport,
    QuarantineSet,
    Scrubber,
    backward_content_diff,
)
from repro.kvstore import WriteBatch

pytestmark = pytest.mark.integrity


@pytest.fixture(autouse=True)
def _clean_registry():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


@pytest.fixture
def scrubber(db):
    """The scrubber attached to ``db``."""
    return Scrubber(db)


def _build_versioned_vertex(db, updates=12):
    """One vertex with ``updates`` property versions, fully migrated."""
    with db.transaction() as txn:
        gid = db.create_vertex(txn, labels=["P"], properties={"n": 0})
    for i in range(1, updates):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", i)
    db.collect_garbage()
    return gid


def _content_deltas(db, gid):
    prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid)
    return list(db.history.kv.scan_prefix(prefix))


def _anchors(db, gid):
    prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
    return list(db.history.kv.scan_prefix(prefix))


def _corrupt_value(db, key, value):
    batch = WriteBatch()
    batch.put(key, corrupt_bytes(value))
    db.history.kv.write(batch)
    db.history.invalidate_caches()


def _all_versions(db, gid):
    with db.transaction() as txn:
        return list(
            db.vertex_versions(txn, gid, TemporalCondition.between(0, db.now()))
        )


class TestEnvelope:
    def test_roundtrip_is_checksummed(self):
        payload = {"p": {"n": 3}, "la": ["X"]}
        encoded = encode_record_payload(payload)
        assert encoded[:1] == ENVELOPE_MAGIC
        decoded, checksummed = decode_record_payload(encoded)
        assert decoded == payload
        assert checksummed is True

    def test_legacy_bare_value_decodes_unchecksummed(self):
        from repro.common.serde import encode_value

        decoded, checksummed = decode_record_payload(encode_value({"x": 1}))
        assert decoded == {"x": 1}
        assert checksummed is False

    def test_bitflip_anywhere_raises(self):
        encoded = encode_record_payload({"p": {"n": 3}})
        for position in range(1, len(encoded)):
            damaged = bytearray(encoded)
            damaged[position] ^= 0x10
            with pytest.raises(IntegrityError):
                decode_record_payload(bytes(damaged))

    def test_truncated_envelope_raises(self):
        with pytest.raises(IntegrityError):
            decode_record_payload(ENVELOPE_MAGIC + b"\x00\x01")

    def test_non_mapping_body_raises(self):
        from repro.common.serde import encode_value

        with pytest.raises(IntegrityError):
            decode_record_payload(encode_value([1, 2, 3]))


class TestQuarantineSet:
    def test_overlap_semantics(self):
        qs = QuarantineSet()
        qs.add("vertex", 7, 0, 50)
        assert qs.blocks("vertex", 7, 0, 100)
        assert qs.blocks("vertex", 7, 10, 20)
        assert not qs.blocks("vertex", 7, 50, 100)  # past the damage
        assert not qs.blocks("vertex", 8, 0, 100)  # other object
        assert not qs.blocks("edge", 7, 0, 100)  # other kind

    def test_clear_object_and_count(self):
        qs = QuarantineSet()
        qs.add("vertex", 1, 0, 10)
        qs.add("vertex", 1, 0, 20)
        qs.add("edge", 2, 0, 10)
        assert qs.count() == 2
        qs.clear_object("vertex", 1)
        assert not qs.blocks("vertex", 1, 0, 100)
        assert qs.count() == 1
        qs.clear()
        assert qs.count() == 0


class TestCleanScrub:
    def test_clean_store_verifies(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        report = scrubber.scrub_full()
        assert report.ok
        assert report.findings == []
        assert report.gids_checked >= 1
        assert report.records_checked > 0
        assert report.checksums_verified == report.records_checked
        assert report.legacy_records == 0
        assert db.history.quarantine.count() == 0
        assert len(_all_versions(db, gid)) == 12

    def test_edges_are_scrubbed_too(self, db, scrubber):
        with db.transaction() as txn:
            a = db.create_vertex(txn)
            b = db.create_vertex(txn)
            e = db.create_edge(txn, a, b, "KNOWS", properties={"w": 0})
        for i in range(1, 8):
            with db.transaction() as txn:
                db.set_edge_property(txn, e, "w", i)
        db.collect_garbage()
        report = scrubber.scrub_full()
        assert report.ok
        assert e in db.history.known_gids("edge")

    def test_legacy_records_pass_with_counter(self, db, scrubber):
        """Values written before the envelope existed still verify."""
        from repro.common.serde import encode_value

        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[0]
        payload, _ = decode_record_payload(value)
        batch = WriteBatch()
        batch.put(key, encode_value(payload))  # strip the envelope
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        report = scrubber.scrub_full()
        assert report.ok
        assert report.legacy_records >= 1
        # the read path counts legacy decodes as well
        db.history.invalidate_caches()
        assert len(_all_versions(db, gid)) == 12
        assert db.history.legacy_records >= 1


class TestDetectionAndQuarantine:
    def test_checksum_mismatch_detected_and_quarantined(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        deltas = _content_deltas(db, gid)
        key, value = deltas[len(deltas) // 2]
        damaged_end = hk.decode_key(key).tt_end
        _corrupt_value(db, key, value)
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert not report.ok
        codes = [f.code for f in report.errors()]
        assert codes == ["checksum-mismatch"]
        assert db.history.quarantine.blocks("vertex", gid, 0, db.now())
        assert db.history.quarantine.ranges("vertex", gid) == [(0, damaged_end)]

    def test_quarantined_read_raises_and_feeds_breaker(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        scrubber.auto_repair = False
        scrubber.scrub_full()
        with pytest.raises(IntegrityError):
            _all_versions(db, gid)
        assert db.metrics()["resilience"]["quarantined_reads"] == 1
        assert db.metrics()["resilience"]["breaker"]["failures_total"] >= 1

    def test_quarantined_read_degrades_current_only(self):
        db = AeonG(
            anchor_interval=4,
            gc_interval_transactions=0,
            resilience=ResilienceConfig(degraded_reads="current-only"),
        )
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        Scrubber(db, auto_repair=False).scrub_full()
        versions = _all_versions(db, gid)  # no raise: current-only
        assert versions  # the unreclaimed chain still serves
        full = 12
        assert len(versions) < full
        assert db.metrics()["resilience"]["quarantined_reads"] == 1
        db.close()

    def test_reads_newer_than_quarantine_still_work(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[0]  # oldest record
        damaged_end = hk.decode_key(key).tt_end
        _corrupt_value(db, key, value)
        scrubber.auto_repair = False
        scrubber.scrub_full()
        with db.transaction() as txn:
            versions = list(
                db.vertex_versions(
                    txn, gid, TemporalCondition.between(damaged_end, db.now())
                )
            )
        assert versions  # condition starts past the blast radius

    def test_tt_gap_detected(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        deltas = _content_deltas(db, gid)
        batch = WriteBatch()
        batch.delete(deltas[len(deltas) // 2][0])  # hole mid-chain
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert "tt-gap" in [f.code for f in report.errors()]

    def test_current_overlap_detected(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        # forge a content delta claiming time the current store owns
        batch = WriteBatch()
        bogus_key = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid, db.now() + 5, db.now() + 9
        )
        batch.put(bogus_key, encode_record_payload({"p": {"n": -1}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert "current-overlap" in [f.code for f in report.errors()]

    def test_anchor_orphaned_detected(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        last = hk.decode_key(_content_deltas(db, gid)[-1][0])
        batch = WriteBatch()
        orphan = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid, last.tt_end + 101,
            last.tt_end + 103,
        )
        batch.put(orphan, encode_record_payload({"l": [], "p": {}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert "anchor-orphaned" in [f.code for f in report.errors()]

    def test_anchor_replay_mismatch_detected(self, db, scrubber):
        """A wrong-but-well-checksummed anchor is caught by replay."""
        gid = _build_versioned_vertex(db)
        key, _value = _anchors(db, gid)[0]
        batch = WriteBatch()
        batch.put(key, encode_record_payload({"l": ["P"], "p": {"n": 999}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert "anchor-replay-mismatch" in [f.code for f in report.errors()]


class TestRepair:
    def test_delta_rewrite_from_companion_anchor(self, db, scrubber):
        """A corrupt delta sharing an anchor's interval is rebuilt in
        place — no history is lost."""
        gid = _build_versioned_vertex(db)
        anchor = hk.decode_key(_anchors(db, gid)[0][0])
        key = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid, anchor.tt_start,
            anchor.tt_end,
        )
        value = dict(_content_deltas(db, gid))[key]
        _corrupt_value(db, key, value)
        report = scrubber.scrub_full()
        repaired = [f for f in report.errors() if f.code == "checksum-mismatch"]
        assert repaired and "rewritten" in repaired[0].repair
        assert scrubber.scrub_full().ok
        assert db.history.quarantine.count() == 0
        assert [v.properties["n"] for v in _all_versions(db, gid)] == list(
            range(11, -1, -1)
        )

    def test_truncation_when_rewrite_impossible(self, db, scrubber):
        """A corrupt delta with no companion anchor truncates the chain
        below the damage — prune-shaped, so the survivors verify."""
        gid = _build_versioned_vertex(db)
        anchor_ends = {hk.decode_key(k).tt_end for k, _ in _anchors(db, gid)}
        key, value = next(
            (k, v)
            for k, v in _content_deltas(db, gid)
            if hk.decode_key(k).tt_end not in anchor_ends
        )
        _corrupt_value(db, key, value)
        report = scrubber.scrub_full()
        assert report.records_dropped > 0
        assert scrubber.scrub_full().ok
        assert db.history.quarantine.count() == 0
        versions = _all_versions(db, gid)
        assert versions  # newer history still reconstructs

    def test_corrupt_anchor_dropped_reads_survive(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        key, value = _anchors(db, gid)[0]
        _corrupt_value(db, key, value)
        report = scrubber.scrub_full()
        assert any(
            f.code == "checksum-mismatch" and f.kind == "A" and f.repair
            for f in report.errors()
        )
        assert scrubber.scrub_full().ok
        # anchors are an optimization: every version still reconstructs
        assert [v.properties["n"] for v in _all_versions(db, gid)] == list(
            range(11, -1, -1)
        )

    def test_wrong_anchor_reanchored_from_replay(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        key, good_value = _anchors(db, gid)[0]
        batch = WriteBatch()
        batch.put(key, encode_record_payload({"l": ["P"], "p": {"n": 999}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        report = scrubber.scrub_full()
        fixed = [
            f for f in report.errors() if f.code == "anchor-replay-mismatch"
        ]
        assert fixed and fixed[0].repair == "re-anchored from delta replay"
        restored = dict(_anchors(db, gid))[key]
        assert decode_record_payload(restored)[0] == decode_record_payload(
            good_value
        )[0]
        assert scrubber.scrub_full().ok

    def test_orphaned_anchor_dropped(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        last = hk.decode_key(_content_deltas(db, gid)[-1][0])
        orphan = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid, last.tt_end + 101,
            last.tt_end + 103,
        )
        batch = WriteBatch()
        batch.put(orphan, encode_record_payload({"l": [], "p": {}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        report = scrubber.scrub_full()
        assert any(f.code == "anchor-orphaned" and f.repair for f in report.errors())
        assert orphan not in dict(_anchors(db, gid))
        assert scrubber.scrub_full().ok

    def test_current_overlap_repaired(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        bogus = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid, db.now() + 5, db.now() + 9
        )
        batch = WriteBatch()
        batch.put(bogus, encode_record_payload({"p": {"n": -1}}))
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        report = scrubber.scrub_full()
        assert any(f.code == "current-overlap" and f.repair for f in report.errors())
        assert scrubber.scrub_full().ok
        assert [v.properties["n"] for v in _all_versions(db, gid)] == list(
            range(11, -1, -1)
        )

    def test_failed_repair_keeps_quarantine(self, db, scrubber, monkeypatch):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        # sabotage every repair primitive: nothing changes on disk
        monkeypatch.setattr(
            scrubber, "_repair_object", lambda *a, **k: None
        )
        report = scrubber.scrub_full()
        assert report.repairs_failed == 1
        assert db.history.quarantine.blocks("vertex", gid, 0, db.now())
        with pytest.raises(IntegrityError):
            _all_versions(db, gid)


class TestScheduling:
    def test_budget_and_cursor_cover_everything(self, db, scrubber):
        gids = [_build_versioned_vertex(db, updates=3) for _ in range(6)]
        scrubber.note_migrated("vertex", gids[0])  # pretend all clean
        with scrubber._lock:
            scrubber._dirty.clear()
        seen: set[int] = set()
        for _ in range(10):
            report = scrubber.scrub(budget=2)
            assert report.gids_checked <= 2
            if scrubber.cycles["vertex"] >= 1:
                break
        assert scrubber.cycles["vertex"] >= 1
        assert scrubber.totals["gids_checked"] >= len(gids)

    def test_migration_feeds_dirty_queue(self, db, scrubber):
        _build_versioned_vertex(db)
        metrics = db.metrics()["integrity"]
        assert metrics["dirty_pending"] >= 1
        scrubber.scrub(budget=100)
        assert db.metrics()["integrity"]["dirty_pending"] == 0

    def test_dirty_objects_scrubbed_first(self, db, scrubber):
        gids = [_build_versioned_vertex(db, updates=3) for _ in range(4)]
        with scrubber._lock:
            scrubber._dirty.clear()
        scrubber.note_migrated("vertex", gids[-1])
        report = scrubber.scrub(budget=1)
        assert report.gids_checked == 1
        # the dirty one was taken before the cursor's lowest gid
        assert scrubber._cursor["vertex"] == -1

    def test_background_scrub_thread(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        scrubber.start_background(interval_seconds=0.01, budget=50)
        import time

        deadline = time.time() + 5.0
        while time.time() < deadline:
            if db.metrics()["integrity"]["repairs_applied"] >= 1:
                break
            time.sleep(0.01)
        scrubber.stop_background()
        assert db.metrics()["integrity"]["repairs_applied"] >= 1
        assert scrubber.scrub_full().ok
        db.close()  # idempotent with the stopped thread

    def test_metrics_shape(self, db, scrubber):
        _build_versioned_vertex(db)
        scrubber.scrub_full()
        metrics = db.metrics()["integrity"]
        for key in (
            "passes",
            "full_passes",
            "gids_checked",
            "records_checked",
            "findings",
            "errors",
            "warnings",
            "checksum_failures",
            "repairs_applied",
            "repairs_failed",
            "records_dropped",
            "anchors_inserted",
            "dirty_pending",
            "background_running",
        ):
            assert key in metrics, key
        # the history store owns these, scrubber attached or not
        read_path = db.metrics()["read_path"]
        for key in ("quarantined_objects", "checksums_verified", "legacy_records"):
            assert key in read_path, key


class TestAttach:
    """The scrubber is a satellite: an engine has none until one
    attaches, and an attached one follows the engine's components."""

    def test_engine_without_scrubber_keeps_no_scrub_state(self, db):
        _build_versioned_vertex(db)
        assert db.migrator.on_migrated is None
        assert not hasattr(db, "scrubber")
        assert "integrity" not in db.metrics()
        assert "aeong_integrity_" not in db.metrics_text()

    def test_attach_hooks_migration_metrics_and_maintenance(self, db):
        scrubber = Scrubber(db)
        assert db.migrator.on_migrated == scrubber.note_migrated
        _build_versioned_vertex(db)
        assert db.metrics()["integrity"]["dirty_pending"] == 1
        assert "aeong_integrity_dirty_pending 1.0" in db.metrics_text()
        scrubber.start_background(interval_seconds=60.0)
        assert db.metrics()["integrity"]["background_running"]
        scrubber.stop_background()
        assert not db.metrics()["integrity"]["background_running"]

    def test_one_scrubber_per_engine(self, db, scrubber):
        with pytest.raises(ValueError):
            Scrubber(db)
        assert db.migrator.on_migrated == scrubber.note_migrated

    def test_budget_below_one_is_rejected(self, db):
        with pytest.raises(ValueError):
            Scrubber(db, budget=0)
        scrubber = Scrubber(db)  # the refused attach left nothing behind
        for budget in (0, -1):
            with pytest.raises(ValueError):
                scrubber.scrub(budget)

    def test_scrub_one_checks_exactly_one_object(self, db, scrubber):
        for _ in range(3):
            _build_versioned_vertex(db, updates=3)
        assert scrubber.scrub(1).gids_checked == 1
        assert scrubber.scrub(budget=1).gids_checked == 1

    def test_scrub_none_uses_the_scrubbers_budget(self, db):
        scrubber = Scrubber(db, budget=2)
        for _ in range(4):
            _build_versioned_vertex(db, updates=3)
        assert scrubber.scrub().gids_checked == 2
        assert scrubber.scrub(None).gids_checked == 2

    def test_survives_snapshot_adoption(self, tmp_path):
        """A replica resync swaps in the donor's stores: the attached
        scrubber reads, hooks and repairs the adopted ones."""
        source = AeonG.open(
            tmp_path / "src", anchor_interval=4, gc_interval_transactions=0
        )
        gid = _build_versioned_vertex(source)
        source.checkpoint()
        source.close()
        db = AeonG(anchor_interval=4, gc_interval_transactions=0)
        scrubber = Scrubber(db)
        db.adopt_snapshot_state(
            AeonG.open(tmp_path / "src", anchor_interval=4, gc_interval_transactions=0)
        )
        try:
            assert db.migrator.on_migrated == scrubber.note_migrated
            key, value = _content_deltas(db, gid)[2]
            _corrupt_value(db, key, value)
            report = scrubber.scrub_full()
            assert [f.code for f in report.errors()] == ["checksum-mismatch"]
            assert report.repairs_applied >= 1 and report.repairs_failed == 0
            assert scrubber.scrub_full().ok
            # the damage sat below the first anchor: truncated there
            versions = [v.properties["n"] for v in _all_versions(db, gid)]
            assert versions == list(range(11, 1, -1))
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "n", 99)
            db.collect_garbage()
            assert db.metrics()["integrity"]["dirty_pending"] == 1
            assert scrubber.scrub(1).gids_checked == 1
            assert db.metrics()["integrity"]["dirty_pending"] == 0
        finally:
            db.close()


class TestSpacingRepair:
    def test_missing_anchors_reinserted(self, db, scrubber):
        gid = _build_versioned_vertex(db)
        batch = WriteBatch()
        for key, _value in _anchors(db, gid):
            batch.delete(key)
        db.history.kv.write(batch)
        db.history.invalidate_caches()
        report = scrubber.scrub_full()
        assert any(f.code == "anchor-spacing" for f in report.warnings())
        assert report.ok  # warnings do not fail verification
        assert report.anchors_inserted >= 1
        assert _anchors(db, gid)  # synthetic anchors in place
        follow_up = scrubber.scrub_full()
        assert follow_up.ok
        assert not follow_up.warnings()
        assert [v.properties["n"] for v in _all_versions(db, gid)] == list(
            range(11, -1, -1)
        )


class TestEndToEnd:
    def test_corrupt_failpoint_detect_quarantine_repair(self, db, scrubber):
        """The acceptance scenario: the ``corrupt`` failpoint flips a
        bit in a stored history delta; the next temporal read fails its
        checksum; the scrubber detects, quarantines, repairs; a full
        scrub and the offline fsck then report zero findings."""
        gid = _build_versioned_vertex(db)
        # 1. deterministic at-rest bit-flip via the failpoint
        with FAILPOINTS.active("history.fetch", "corrupt"):
            with pytest.raises(IntegrityError):
                _all_versions(db, gid)
        assert db.metrics()["resilience"]["breaker"]["failures_total"] >= 1
        # 2. scrubber detects and quarantines
        scrubber.auto_repair = False
        report = scrubber.scrub_full()
        assert [f.code for f in report.errors()] == ["checksum-mismatch"]
        assert db.history.quarantine.blocks("vertex", gid, 0, db.now())
        with pytest.raises(IntegrityError):
            _all_versions(db, gid)
        # 3. repair pass heals and lifts the quarantine
        scrubber.auto_repair = True
        repair_report = scrubber.scrub_full()
        assert repair_report.repairs_applied >= 1
        assert repair_report.repairs_failed == 0
        assert db.history.quarantine.count() == 0
        # 4. subsequent full scrub is clean and reads work again
        clean = scrubber.scrub_full()
        assert clean.ok and not clean.findings
        assert _all_versions(db, gid)
        # 5. counters surfaced in metrics()["integrity"]
        metrics = db.metrics()["integrity"]
        assert metrics["checksum_failures"] >= 1
        assert metrics["repairs_applied"] >= 1
        assert db.metrics()["read_path"]["quarantined_objects"] == 0


class TestOfflineVerify:
    def test_verify_clean_snapshot(self, db, tmp_path, capsys):
        _build_versioned_vertex(db)
        snap = tmp_path / "snap"
        db.save(snap)
        assert cli_main(["verify", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "verify clean" in out

    def test_verify_json_report(self, db, tmp_path, capsys):
        _build_versioned_vertex(db)
        snap = tmp_path / "snap"
        db.save(snap)
        assert cli_main(["verify", str(snap), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["records_checked"] > 0
        assert report["findings"] == []

    def test_verify_detects_corruption_exit_1(self, db, tmp_path, capsys):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        snap = tmp_path / "snap"
        db.save(snap)
        assert cli_main(["verify", str(snap), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(
            f["code"] == "checksum-mismatch" for f in report["findings"]
        )

    def test_verify_repair_writes_back(self, db, tmp_path, capsys):
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        snap = tmp_path / "snap"
        db.save(snap)
        # A repaired error is still reported (exit 1) ...
        assert cli_main(["verify", str(snap), "--repair"]) == 1
        capsys.readouterr()
        # ... and the repair was written back: the snapshot is now clean.
        assert cli_main(["verify", str(snap), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_verify_repair_keeps_commits_after_the_checkpoint(
        self, tmp_path, capsys
    ):
        home = tmp_path / "data"
        db = AeonG.open(home, anchor_interval=4, gc_interval_transactions=0)
        gid = _build_versioned_vertex(db)
        key, value = _content_deltas(db, gid)[2]
        _corrupt_value(db, key, value)
        db.checkpoint()
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", 100)
        late = []
        for i in range(3):
            with db.transaction() as txn:
                late.append(db.create_vertex(txn, ["Late"], {"i": i}))
        db.close()

        assert cli_main(["verify", str(home), "--repair"]) == 1
        capsys.readouterr()
        assert cli_main(["verify", str(home), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        db = AeonG.open(home, gc_interval_transactions=0)
        with db.transaction() as txn:
            assert db.get_vertex(txn, gid).properties["n"] == 100
            assert [
                db.get_vertex(txn, late_gid).properties["i"]
                for late_gid in late
            ] == [0, 1, 2]
        db.close()

    def test_undecodable_key_is_a_finding_not_an_unopenable_directory(
        self, tmp_path, capsys
    ):
        """One 15-byte key in a checkpointed history store: the store
        loads (the key skipped and counted), ``verify`` reports
        ``bad-key`` instead of exiting 2, and its repair drops the key."""
        home = tmp_path / "data"
        db = AeonG.open(home, anchor_interval=4, gc_interval_transactions=0)
        gid = _build_versioned_vertex(db)
        stored = len(_content_deltas(db, gid))
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid)
        batch = WriteBatch()
        batch.put(prefix + b"\x00" * 5, b"junk")
        db.history.write(batch)
        db.checkpoint()
        db.close()

        db = AeonG.open(home, gc_interval_transactions=0)
        assert db.metrics()["read_path"]["undecodable_keys"] == 1
        db.close()
        assert cli_main(["verify", str(home), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in report["findings"]] == ["bad-key"]
        assert cli_main(["verify", str(home), "--repair"]) == 1
        capsys.readouterr()
        assert cli_main(["verify", str(home), "--json"]) == 0
        db = AeonG.open(home, gc_interval_transactions=0)
        try:
            assert db.metrics()["read_path"]["undecodable_keys"] == 0
            assert len(_content_deltas(db, gid)) == stored
            assert [v.properties["n"] for v in _all_versions(db, gid)] == list(
                range(11, -1, -1)
            )
        finally:
            db.close()

    def test_verify_unreadable_exit_2(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path / "nowhere")]) == 2


class TestBackwardContentDiff:
    def test_vertex_diff_roundtrip(self):
        from repro.core.reconstruct import apply_content_record
        from repro.graph.views import VertexView

        newer = VertexView.blank(1, 10, 20)
        newer.exists = True
        newer.labels = {"A", "B"}
        newer.properties = {"x": 1, "y": 2}
        older = VertexView.blank(1, 5, 10)
        older.exists = True
        older.labels = {"A", "C"}
        older.properties = {"x": 1, "z": 3}
        payload = backward_content_diff(newer, older)
        replayed = newer.fork()
        apply_content_record(replayed, payload, 5, 10)
        assert replayed.labels == older.labels
        assert replayed.properties == older.properties
        assert replayed.exists

    def test_existence_transitions(self):
        from repro.graph.views import VertexView

        alive = VertexView.blank(1, 10, 20)
        alive.exists = True
        dead = VertexView.blank(1, 5, 10)
        dead.exists = False
        assert backward_content_diff(alive, dead)["x"] == 2
        assert backward_content_diff(dead, alive)["x"] == 1
