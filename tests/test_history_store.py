"""History-store tests: key codec, delta merging, anchors,
reconstruction (paper section 4.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import keys as hk
from repro.core.deltas import (
    OLDER_EXISTS,
    OLDER_MISSING,
    decode_payload,
    merge_transaction_deltas,
)
from repro.errors import CorruptionError
from repro.graph import GraphStorage
from repro.integrity import Scrubber
from repro.mvcc.transaction import Transaction


class TestKeyCodec:
    def test_roundtrip(self):
        key = hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 42, 10, 20)
        decoded = hk.decode_key(key)
        assert decoded == (hk.SEGMENT_VERTEX, hk.KIND_DELTA, 42, 10, 20)

    def test_rejects_bad_segment_and_kind(self):
        with pytest.raises(ValueError):
            hk.encode_key(b"X", hk.KIND_DELTA, 1, 0, 1)
        with pytest.raises(ValueError):
            hk.encode_key(hk.SEGMENT_VERTEX, b"Z", 1, 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, -1, 0, 1)

    def test_decode_rejects_garbage(self):
        with pytest.raises(CorruptionError):
            hk.decode_key(b"short")
        with pytest.raises(CorruptionError):
            hk.decode_key(b"XY" + b"\x00" * 24)

    def test_same_object_versions_cluster_and_sort(self):
        keys = [
            hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 7, s, e)
            for s, e in [(0, 5), (5, 9), (9, 12)]
        ]
        assert keys == sorted(keys)
        other = hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 8, 0, 1)
        assert all(k < other for k in keys)

    def test_anchor_and_delta_segments_disjoint(self):
        anchor = hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, 7, 0, 5)
        delta = hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 7, 0, 5)
        assert anchor != delta
        assert anchor.startswith(hk.segment_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR))

    def test_seek_key_after_lands_after_tt_end(self):
        target = hk.encode_key(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 7, 0, 10)
        assert hk.seek_key_after(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 7, 10) > target
        assert hk.seek_key_after(hk.SEGMENT_VERTEX, hk.KIND_DELTA, 7, 9) <= target

    @given(
        st.integers(0, 2**40),
        st.integers(0, 2**40),
        st.integers(0, 2**40),
    )
    @settings(max_examples=200)
    def test_codec_roundtrip_property(self, gid, a, b):
        key = hk.encode_key(hk.SEGMENT_EDGE, hk.KIND_ANCHOR, gid, a, b)
        decoded = hk.decode_key(key)
        assert (decoded.gid, decoded.tt_start, decoded.tt_end) == (gid, a, b)


def _deltas_of(storage, build):
    """Run ``build(txn)`` and return the committed undo deltas."""
    txn = storage.manager.begin()
    build(txn)
    storage.manager.commit(txn)
    return [delta for _record, delta in txn.undo_buffer]


class TestDeltaMerging:
    def test_property_updates_merge_keeping_oldest(self):
        storage = GraphStorage()
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, [], {"x": 1})
        storage.manager.commit(txn)
        deltas = _deltas_of(
            storage,
            lambda t: (
                storage.set_vertex_property(t, gid, "x", 2),
                storage.set_vertex_property(t, gid, "x", 3),
            ),
        )
        drafts = merge_transaction_deltas(deltas)
        assert len(drafts) == 1
        assert drafts[0].payload["p"] == {"x": 1}  # pre-transaction value

    def test_label_toggle_cancels(self):
        storage = GraphStorage()
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, ["A"])
        storage.manager.commit(txn)
        deltas = _deltas_of(
            storage,
            lambda t: (
                storage.add_label(t, gid, "B"),
                storage.remove_label(t, gid, "B"),
            ),
        )
        drafts = merge_transaction_deltas(deltas)
        assert len(drafts) == 1
        payload = drafts[0].payload
        assert payload.get("la", []) == [] and payload.get("lr", []) == []

    def test_creation_marks_older_missing(self):
        storage = GraphStorage()
        deltas = _deltas_of(
            storage, lambda t: storage.create_vertex(t, ["A"], {"x": 1})
        )
        drafts = merge_transaction_deltas(deltas)
        assert drafts[0].payload["x"] == OLDER_MISSING

    def test_create_then_delete_in_one_txn_stays_missing(self):
        storage = GraphStorage()

        def build(t):
            gid = storage.create_vertex(t, ["A"], {"x": 1})
            storage.delete_vertex(t, gid)

        drafts = merge_transaction_deltas(_deltas_of(storage, build))
        vertex_drafts = [d for d in drafts if d.segment == hk.SEGMENT_VERTEX]
        assert vertex_drafts[0].payload["x"] == OLDER_MISSING

    def test_deletion_produces_edge_and_topology_records(self):
        storage = GraphStorage()
        txn = storage.manager.begin()
        a = storage.create_vertex(txn, ["A"])
        b = storage.create_vertex(txn, ["B"])
        eid = storage.create_edge(txn, a, b, "T", {"w": 5})
        storage.manager.commit(txn)
        deltas = _deltas_of(storage, lambda t: storage.delete_edge(t, eid))
        statics = {eid: ("T", a, b)}
        drafts = merge_transaction_deltas(deltas, statics)
        by_segment = {}
        for draft in drafts:
            by_segment.setdefault(draft.segment, []).append(draft)
        # One E record (property clear + existence) ...
        edge_drafts = by_segment[hk.SEGMENT_EDGE]
        assert len(edge_drafts) == 1
        assert edge_drafts[0].payload["x"] == OLDER_EXISTS
        assert edge_drafts[0].payload["p"] == {"w": 5}
        assert edge_drafts[0].payload["et"] == "T"
        # ... plus one VE record per endpoint.
        topo_drafts = by_segment[hk.SEGMENT_TOPOLOGY]
        assert sorted(d.gid for d in topo_drafts) == sorted([a, b])
        assert any("oa" in d.payload for d in topo_drafts)
        assert any("ia" in d.payload for d in topo_drafts)

    def test_payload_roundtrip(self):
        storage = GraphStorage()
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, [], {"x": 1})
        storage.manager.commit(txn)
        deltas = _deltas_of(
            storage, lambda t: storage.set_vertex_property(t, gid, "x", 2)
        )
        draft = merge_transaction_deltas(deltas)[0]
        assert decode_payload(draft.encode_payload()) == draft.payload


class TestAnchorCadence:
    """An anchor sits at every ``u``-th delta record of each object,
    content and topology counted alike and across GC epochs, valid from
    the end of the object's newest content record of an earlier
    transaction; with no such record it is skipped, and ``u = 0``
    writes none."""

    @staticmethod
    def _churn(db):
        """Two interleaved vertices, ``a`` with edge churn to a third;
        each transaction touches one vertex's content or one edge, and
        GC epochs land at irregular points."""
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["P"], {"v": 0})
        with db.transaction() as txn:
            b = db.create_vertex(txn, ["P"], {"v": 0})
        with db.transaction() as txn:
            c = db.create_vertex(txn, ["Q"], {})
        edges = []
        for step in range(1, 31):
            with db.transaction() as txn:
                if step % 2:
                    db.set_vertex_property(txn, b, "v", step)
                elif step % 6 == 2:
                    db.set_vertex_property(txn, a, "v", step)
                elif step % 6 == 4 or not edges:
                    edges.append(db.create_edge(txn, a, c, "K", {}))
                else:
                    db.delete_edge(txn, edges.pop(0))
            if step % 7 == 0:
                db.collect_garbage()
        db.collect_garbage()
        return [("vertex", gid) for gid in (a, b, c)] + [
            ("edge", gid) for gid in sorted(db.history.known_gids("edge"))
        ]

    @staticmethod
    def _expected(db, object_kind, gid, u):
        content = hk.SEGMENT_VERTEX if object_kind == "vertex" else hk.SEGMENT_EDGE
        records = sorted(
            (hk.decode_key(key).tt_end, segment == content)
            for segment in ((content, hk.SEGMENT_TOPOLOGY) if object_kind == "vertex" else (content,))
            for key, _value in db.history.kv.scan_prefix(
                hk.object_prefix(segment, hk.KIND_DELTA, gid)
            )
        )
        expected, newest = set(), None
        for n, (tt_end, is_content) in enumerate(records, start=1):
            if u and n % u == 0 and newest is not None:
                expected.add((newest, tt_end))
            if is_content:
                newest = tt_end
        return content, expected

    @pytest.mark.parametrize("u", [0, 1, 2, 3])
    def test_anchors_sit_at_every_uth_delta_record(self, u):
        from repro import AeonG

        db = AeonG(anchor_interval=u, gc_interval_transactions=0)
        objects = self._churn(db)
        for object_kind, gid in objects:
            content, expected = self._expected(db, object_kind, gid, u)
            stored = {
                (key.tt_start, key.tt_end)
                for key in (
                    hk.decode_key(k)
                    for k, _value in db.history.kv.scan_prefix(
                        hk.object_prefix(content, hk.KIND_ANCHOR, gid)
                    )
                )
            }
            assert stored == expected, (object_kind, gid)
        assert (db.history.anchors_written > 0) == (u > 0)

    def test_negative_interval_rejected(self):
        from repro import AeonG

        with pytest.raises(ValueError):
            AeonG(anchor_interval=-1)


class TestAnchorIntervalBoundaries:
    """End-to-end round-trips right at the anchor-policy boundary
    (section 3.2's ``u``): exactly ``u`` reclaimed deltas, ``u + 1``,
    and a fully-reclaimed object whose reads must come off anchors."""

    U = 4

    def _engine(self):
        from repro import AeonG

        return AeonG(anchor_interval=self.U, gc_interval_transactions=0)

    def _grow(self, db, updates):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["B"], {"v": 0})
        stamps = [db.now() - 1]
        for value in range(1, updates):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
            stamps.append(db.now() - 1)
        db.collect_garbage()
        return gid, stamps

    def _assert_exact_roundtrip(self, db, gid, stamps):
        from repro import TemporalCondition

        reader = db.begin()
        try:
            for value, ts in enumerate(stamps):
                view = next(
                    db.vertex_versions(reader, gid, TemporalCondition.as_of(ts))
                )
                assert view.properties["v"] == value, f"state at t={ts}"
            versions = list(
                db.vertex_versions(
                    reader, gid, TemporalCondition.between(0, db.now())
                )
            )
            assert [v.properties["v"] for v in versions] == list(
                range(len(stamps) - 1, -1, -1)
            )
        finally:
            db.abort(reader)

    def _anchor_count(self, db, gid):
        prefix = hk.object_prefix(
            hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid
        )
        return sum(1 for _ in db.history.kv.scan_prefix(prefix))

    def test_exactly_u_deltas(self):
        db = self._engine()
        gid, stamps = self._grow(db, updates=self.U)
        self._assert_exact_roundtrip(db, gid, stamps)
        scrubber = Scrubber(db)
        assert scrubber.scrub_full().ok

    def test_u_plus_one_deltas_cross_the_anchor(self):
        db = self._engine()
        gid, stamps = self._grow(db, updates=self.U + 1)
        assert self._anchor_count(db, gid) >= 1
        self._assert_exact_roundtrip(db, gid, stamps)
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.ok and not report.warnings()

    def test_multiple_of_u_boundary(self):
        db = self._engine()
        gid, stamps = self._grow(db, updates=3 * self.U)
        assert self._anchor_count(db, gid) >= 2
        self._assert_exact_roundtrip(db, gid, stamps)
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.ok and not report.warnings()

    def test_fully_reclaimed_object_reads_from_anchor(self):
        """Delete the vertex and migrate everything: with no
        current-store record left, reconstruction bases on anchors (or
        the blank above-history placeholder) only."""
        db = self._engine()
        gid, stamps = self._grow(db, updates=2 * self.U)
        with db.transaction() as txn:
            db.delete_vertex(txn, gid)
        db.collect_garbage()
        assert db.storage.vertex_record(gid) is None
        assert self._anchor_count(db, gid) >= 1
        self._assert_exact_roundtrip(db, gid, stamps)
        scrubber = Scrubber(db)
        assert scrubber.scrub_full().ok
