"""History-retention tests: pruning old versions safely."""

from __future__ import annotations

import pytest

from repro import AeonG, TemporalCondition
from repro.errors import TemporalError
from repro.integrity import Scrubber


@pytest.fixture
def db():
    return AeonG(anchor_interval=3, gc_interval_transactions=0)


def _build(db):
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["X"], {"v": 0})
    stamps = [(db.now() - 1, 0)]
    for value in range(1, 8):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", value)
        stamps.append((db.now() - 1, value))
    db.collect_garbage()
    return gid, stamps


class TestPruneHistory:
    def test_prunes_old_keeps_new(self, db):
        gid, stamps = _build(db)
        cut = stamps[4][0]  # keep versions alive at/after this commit
        removed = db.prune_history(cut - 1)
        assert removed > 0
        reader = db.begin()
        # Versions ending after the cut-off still reconstruct exactly.
        for ts, value in stamps[4:]:
            view = next(db.vertex_versions(reader, gid, TemporalCondition.as_of(ts)))
            assert view.properties["v"] == value
        # Versions that ended before the cut-off are gone.
        assert (
            list(db.vertex_versions(reader, gid, TemporalCondition.as_of(stamps[0][0])))
            == []
        )
        db.abort(reader)

    def test_version_alive_at_cutoff_survives(self, db):
        gid, stamps = _build(db)
        ts_mid, value_mid = stamps[3]
        removed = db.prune_history(ts_mid)
        assert removed > 0
        reader = db.begin()
        view = next(db.vertex_versions(reader, gid, TemporalCondition.as_of(ts_mid)))
        assert view.properties["v"] == value_mid
        db.abort(reader)

    def test_prune_shrinks_storage(self, db):
        gid, stamps = _build(db)
        before = db.history.storage_bytes()
        db.prune_history(stamps[-2][0] - 1)
        assert db.history.storage_bytes() < before

    def test_prune_everything(self, db):
        gid, _stamps = _build(db)
        db.prune_history(db.now())
        assert not db.history.has_history("vertex", gid)
        reader = db.begin()
        # The current version is untouched.
        assert db.get_vertex(reader, gid).properties["v"] == 7
        versions = list(
            db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now()))
        )
        assert [v.properties["v"] for v in versions] == [7]
        db.abort(reader)

    def test_prune_nothing(self, db):
        _build(db)
        assert db.prune_history(0) == 0

    def test_new_history_accumulates_after_prune(self, db):
        gid, _stamps = _build(db)
        db.prune_history(db.now())
        t_mid = db.now()
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 100)
        db.collect_garbage()
        reader = db.begin()
        view = next(db.vertex_versions(reader, gid, TemporalCondition.as_of(t_mid)))
        assert view.properties["v"] == 7
        db.abort(reader)

    def test_requires_temporal(self):
        db = AeonG(temporal=False, gc_interval_transactions=0)
        with pytest.raises(TemporalError):
            db.prune_history(10)


class TestPruneChainSafety:
    """Pruning cuts the reconstruction chain mid-way; everything above
    the cut must still replay exactly, and the survivors must satisfy
    every scrubber invariant (prune is the model for the scrubber's
    truncate-below repair, so this is load-bearing twice)."""

    def test_reconstruction_across_prune_boundary(self, db):
        gid, stamps = _build(db)
        # cut strictly inside the chain, between two reclaimed versions
        cut_ts = stamps[3][0]
        removed = db.prune_history(cut_ts - 1)
        assert removed > 0
        reader = db.begin()
        try:
            # every surviving version reconstructs with its exact value,
            # including the one immediately above the prune boundary
            for ts, value in stamps[3:]:
                view = next(
                    db.vertex_versions(reader, gid, TemporalCondition.as_of(ts))
                )
                assert view.properties["v"] == value, (
                    f"version at t={ts} wrong after prune"
                )
            # a range read spanning the boundary yields exactly the
            # surviving versions, newest first, with no gaps or phantoms
            versions = list(
                db.vertex_versions(
                    reader, gid, TemporalCondition.between(0, db.now())
                )
            )
            assert [v.properties["v"] for v in versions] == list(
                range(7, 1, -1)
            )
        finally:
            db.abort(reader)

    def test_anchor_delta_pairs_pruned_together(self, db):
        """An anchor and the delta sharing its tt_end are staged and
        pruned as a unit — a prune must never leave an orphaned anchor
        (the scrubber would flag it)."""
        from repro.core import keys as hk

        gid, stamps = _build(db)
        db.prune_history(stamps[4][0] - 1)
        delta_ends = {
            hk.decode_key(key).tt_end
            for key, _value in db.history.kv.scan_prefix(
                hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid)
            )
        } | {
            hk.decode_key(key).tt_end
            for key, _value in db.history.kv.scan_prefix(
                hk.object_prefix(hk.SEGMENT_TOPOLOGY, hk.KIND_DELTA, gid)
            )
        }
        for key, _value in db.history.kv.scan_prefix(
            hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
        ):
            assert hk.decode_key(key).tt_end in delta_ends

    def test_scrub_clean_after_prune(self, db):
        gid, stamps = _build(db)
        scrubber = Scrubber(db)
        assert scrubber.scrub_full().ok  # sanity: clean before
        db.prune_history(stamps[3][0])
        report = scrubber.scrub_full()
        assert report.ok, [f.as_dict() for f in report.errors()]
        assert db.history.quarantine.count() == 0

    def test_scrub_clean_after_prune_then_more_history(self, db):
        """Prune, then accumulate and migrate new history on top: the
        seam between old survivors and new records must verify."""
        gid, stamps = _build(db)
        db.prune_history(stamps[3][0])
        for value in range(8, 12):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.ok, [f.as_dict() for f in report.errors()]
        reader = db.begin()
        try:
            versions = list(
                db.vertex_versions(
                    reader, gid, TemporalCondition.between(0, db.now())
                )
            )
            assert [v.properties["v"] for v in versions] == list(
                range(11, 2, -1)
            )
        finally:
            db.abort(reader)
