"""White-box tests for the temporal core: history store internals,
migration mechanics, anchors, reconstruction helpers."""

from __future__ import annotations

import pytest

from repro import AeonG, TemporalCondition
from repro.core import keys as hk
from repro.core.anchors import historical_state
from repro.core.deltas import decode_payload
from repro.core.history_store import HistoricalStore
from repro.core.reconstruct import (
    anchor_payload_from_view,
    edge_view_from_anchor,
    vertex_view_from_anchor,
)
from repro.graph.views import VertexView, oldest_unreclaimed_view
from repro.kvstore import KVStore


def _engine(**kwargs):
    kwargs.setdefault("anchor_interval", 3)
    kwargs.setdefault("gc_interval_transactions", 0)
    return AeonG(**kwargs)


def _versioned_vertex(db, versions):
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["X"], {"v": versions[0]})
    for value in versions[1:]:
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", value)
    return gid


class TestHistoricalStoreInternals:
    def test_fetch_versions_unknown_object_yields_nothing(self):
        store = HistoricalStore()
        assert list(store.fetch_versions("vertex", 99, TemporalCondition.as_of(5))) == []

    def test_known_gids_tracks_migrations(self):
        db = _engine()
        gid = _versioned_vertex(db, [1, 2])
        assert not db.history.has_history("vertex", gid)
        db.collect_garbage()
        assert db.history.has_history("vertex", gid)
        assert gid in db.history.known_gids("vertex")

    @pytest.mark.read_path
    def test_reread_decodes_nothing(self):
        db = _engine()
        gid = _versioned_vertex(db, [0, 1, 2])
        db.collect_garbage()
        db.history.invalidate_caches()  # force the first read to the KV store
        reader = db.begin()
        list(db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now())))
        decoded = db.history.checksums_verified + db.history.legacy_records
        assert decoded > 0
        list(db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now())))
        assert db.history.checksums_verified + db.history.legacy_records == decoded
        db.abort(reader)

    @pytest.mark.read_path
    def test_object_cache_appends_on_later_migration(self):
        db = _engine()
        gid = _versioned_vertex(db, [0, 1])
        db.collect_garbage()
        reader = db.begin()
        first = list(
            db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now()))
        )
        db.abort(reader)
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 2)
        db.collect_garbage()
        reader = db.begin()
        second = list(
            db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now()))
        )
        db.abort(reader)
        assert len(second) == len(first) + 1

    @pytest.mark.read_path
    def test_vertex_mentions_cover_labels_and_values(self):
        db = _engine()
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["A"], {"v": 10})
        with db.transaction() as txn:
            db.add_label(txn, gid, "B")
            db.set_vertex_property(txn, gid, "v", 20)
        with db.transaction() as txn:
            db.remove_label(txn, gid, "A")
        db.collect_garbage()
        labels, values = db.history.vertex_mentions(gid)
        assert "A" in labels and "B" in labels
        assert 10 in values["v"]

    @pytest.mark.read_path
    def test_topology_refs_cover_deleted_edges(self):
        db = _engine()
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["X"])
            b = db.create_vertex(txn, ["X"])
            eid = db.create_edge(txn, a, b, "T")
        with db.transaction() as txn:
            db.delete_edge(txn, eid)
        db.collect_garbage()
        out_refs, _in_refs = db.history.topology_refs(a, 0)
        assert any(ref[2] == eid for ref in out_refs)

    def test_storage_bytes_counts_migrated_data(self):
        db = _engine()
        _versioned_vertex(db, list(range(10)))
        assert db.history.storage_bytes() == 0
        db.collect_garbage()
        assert db.history.storage_bytes() > 0

    def test_rebuild_known_from_preloaded_kv(self):
        db = _engine()
        gid = _versioned_vertex(db, [0, 1])
        db.collect_garbage()
        db.history.kv.compact()
        # A fresh store over the same KV data rediscovers the objects.
        fresh = HistoricalStore(db.history.kv)
        assert fresh.has_history("vertex", gid)


class TestEdgeHistory:
    def test_edge_versions_across_gc(self):
        db = _engine()
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["X"])
            b = db.create_vertex(txn, ["X"])
            eid = db.create_edge(txn, a, b, "T", {"w": 1})
        stamps = [(db.now() - 1, 1)]
        for weight in (2, 3, 4):
            with db.transaction() as txn:
                db.set_edge_property(txn, eid, "w", weight)
            stamps.append((db.now() - 1, weight))
        db.collect_garbage()
        reader = db.begin()
        for ts, weight in stamps:
            view = next(db.edge_versions(reader, eid, TemporalCondition.as_of(ts)))
            assert view.properties["w"] == weight
            assert (view.from_gid, view.to_gid) == (a, b)
        db.abort(reader)

    def test_reclaimed_edge_is_self_describing(self):
        db = _engine()
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["X"])
            b = db.create_vertex(txn, ["X"])
            eid = db.create_edge(txn, a, b, "LINK", {"w": 7})
        t_alive = db.now()
        with db.transaction() as txn:
            db.delete_edge(txn, eid)
        db.collect_garbage()
        assert db.storage.edge_record(eid) is None
        reader = db.begin()
        view = next(db.edge_versions(reader, eid, TemporalCondition.as_of(t_alive - 1)))
        assert view.edge_type == "LINK"
        assert view.properties == {"w": 7}
        assert (view.from_gid, view.to_gid) == (a, b)
        db.abort(reader)


class TestMigrationMechanics:
    def test_same_transaction_deltas_merge_into_one_record(self):
        db = _engine()
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"], {"a": 1, "b": 2})
        before = db.history.records_written
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "a", 10)
            db.set_vertex_property(txn, gid, "b", 20)
            db.add_label(txn, gid, "Y")
        db.collect_garbage()
        # creation record + one merged update record (content only).
        assert db.history.records_written - before == 2

    def test_anchor_intervals_are_content_validity(self):
        db = _engine(anchor_interval=2)
        gid = _versioned_vertex(db, [0, 1, 2, 3, 4, 5])
        db.collect_garbage()
        anchors = db.history._records_for(
            hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid
        )
        assert anchors
        for tt_start, tt_end, stored in anchors:  # read key-only
            payload = decode_payload(stored)
            assert tt_start < tt_end
            assert "p" in payload and "o" not in payload  # content only

    def test_migration_counts(self):
        db = _engine()
        _versioned_vertex(db, [0, 1, 2])
        db.collect_garbage()
        assert db.migrator.migrations >= 1
        assert db.migrator.transactions_migrated == 3


class TestHistoricalStateHelper:
    def test_skips_uncommitted_deltas(self):
        db = _engine()
        gid = _versioned_vertex(db, [0, 1])
        record = db.storage.vertex_record(gid)
        boundary = record.tt_start  # version ending at the last commit
        writer = db.begin()
        db.set_vertex_property(writer, gid, "v", 99)  # uncommitted
        state = historical_state(record, boundary)
        assert state.properties["v"] == 0  # pre-update, pre-uncommitted
        db.abort(writer)

    def test_none_for_never_existing_version(self):
        db = _engine()
        gid = _versioned_vertex(db, [0])
        record = db.storage.vertex_record(gid)
        # The "version" ending at creation time never existed.
        assert historical_state(record, record.tt_start) is None


class TestReconstructHelpers:
    def test_vertex_anchor_roundtrip(self):
        db = _engine()
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["A", "B"], {"x": 1, "y": "s"})
        record = db.storage.vertex_record(gid)
        view = VertexView(record)
        payload = anchor_payload_from_view(view)
        rebuilt = vertex_view_from_anchor(gid, payload, 5, 9)
        assert rebuilt.labels == {"A", "B"}
        assert rebuilt.properties == {"x": 1, "y": "s"}
        assert rebuilt.tt == (5, 9)
        assert rebuilt.exists

    def test_edge_anchor_roundtrip(self):
        db = _engine()
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["X"])
            b = db.create_vertex(txn, ["X"])
            eid = db.create_edge(txn, a, b, "T", {"w": 1})
        record = db.storage.edge_record(eid)
        from repro.graph.views import EdgeView

        payload = anchor_payload_from_view(EdgeView(record))
        rebuilt = edge_view_from_anchor(eid, payload, 3, 7)
        assert rebuilt.edge_type == "T"
        assert (rebuilt.from_gid, rebuilt.to_gid) == (a, b)
        assert rebuilt.properties == {"w": 1}


class TestViewCopyOnWrite:
    def test_unstepped_view_shares_containers(self):
        db = _engine()
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"], {"v": 1})
        record = db.storage.vertex_record(gid)
        view = VertexView(record)
        assert view.properties is record.properties  # shared until a step

    def test_step_detaches_containers(self):
        db = _engine()
        gid = _versioned_vertex(db, [1, 2])
        record = db.storage.vertex_record(gid)
        view = VertexView(record)
        view.step_back(record.delta_head)
        assert view.properties is not record.properties
        assert view.properties["v"] == 1
        assert record.properties["v"] == 2  # record untouched

    def test_oldest_unreclaimed_view_reports_content_interval(self):
        db = _engine()
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["X"], {"v": 1})
            b = db.create_vertex(txn, ["X"])
        c_create = db.now() - 1
        with db.transaction() as txn:
            db.create_edge(txn, a, b, "T")  # structural only
        base = oldest_unreclaimed_view(db.storage.vertex_record(a))
        assert base.tt_start == 0  # pre-creation placeholder
        assert not base.exists


class TestHybridKVInjection:
    def test_engine_accepts_preconfigured_store(self):
        kv = KVStore()
        db = AeonG(kv=kv, gc_interval_transactions=0)
        gid = _versioned_vertex(db, [0, 1])
        db.collect_garbage()
        assert kv.stats.batch_writes >= 1
