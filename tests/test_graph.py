"""Graph-layer tests: CRUD, adjacency, version views, indexes."""

from __future__ import annotations

import pytest

from repro.errors import EdgeNotFound, GraphError, VertexNotFound
from repro.graph import GraphStorage
from repro.graph.properties import validate_properties
from repro.graph.views import version_iterator


@pytest.fixture
def storage():
    return GraphStorage()


def _commit(storage, fn):
    txn = storage.manager.begin()
    result = fn(txn)
    storage.manager.commit(txn)
    return result


class TestVertexCrud:
    def test_create_with_labels_and_properties(self, storage):
        gid = _commit(
            storage,
            lambda t: storage.create_vertex(t, ["A", "B"], {"k": 1}),
        )
        view = storage.get_vertex(storage.manager.begin(), gid)
        assert view.labels == {"A", "B"}
        assert view.properties == {"k": 1}

    def test_property_none_removes(self, storage):
        gid = _commit(storage, lambda t: storage.create_vertex(t, [], {"k": 1}))
        _commit(storage, lambda t: storage.set_vertex_property(t, gid, "k", None))
        view = storage.get_vertex(storage.manager.begin(), gid)
        assert view.properties == {}

    def test_noop_property_write_creates_no_delta(self, storage):
        gid = _commit(storage, lambda t: storage.create_vertex(t, [], {"k": 1}))
        txn = storage.manager.begin()
        storage.set_vertex_property(txn, gid, "k", 1)
        assert txn.undo_buffer == []
        storage.manager.abort(txn)

    def test_label_add_remove(self, storage):
        gid = _commit(storage, lambda t: storage.create_vertex(t, ["A"]))
        assert _commit(storage, lambda t: storage.add_label(t, gid, "B"))
        assert not _commit(storage, lambda t: storage.add_label(t, gid, "B"))
        assert _commit(storage, lambda t: storage.remove_label(t, gid, "A"))
        view = storage.get_vertex(storage.manager.begin(), gid)
        assert view.labels == {"B"}

    def test_unknown_vertex_raises(self, storage):
        txn = storage.manager.begin()
        with pytest.raises(VertexNotFound):
            storage.set_vertex_property(txn, 999, "k", 1)

    def test_invalid_property_values_rejected(self, storage):
        txn = storage.manager.begin()
        with pytest.raises(TypeError):
            storage.create_vertex(txn, [], {"k": object()})
        with pytest.raises(TypeError):
            storage.create_vertex(txn, [], {12: "bad name"})

    def test_delete_twice_fails(self, storage):
        gid = _commit(storage, lambda t: storage.create_vertex(t, []))
        _commit(storage, lambda t: storage.delete_vertex(t, gid))
        txn = storage.manager.begin()
        with pytest.raises(VertexNotFound):
            storage.delete_vertex(txn, gid)


class TestEdgeCrud:
    def _pair(self, storage):
        return _commit(
            storage,
            lambda t: (
                storage.create_vertex(t, ["A"]),
                storage.create_vertex(t, ["B"]),
            ),
        )

    def test_create_edge_links_both_endpoints(self, storage):
        a, b = self._pair(storage)
        eid = _commit(storage, lambda t: storage.create_edge(t, a, b, "T", {"w": 1}))
        txn = storage.manager.begin()
        va = storage.get_vertex(txn, a)
        vb = storage.get_vertex(txn, b)
        assert [r.edge_gid for r in va.out_edges] == [eid]
        assert [r.other_gid for r in va.out_edges] == [b]
        assert [r.edge_gid for r in vb.in_edges] == [eid]
        edge = storage.get_edge(txn, eid)
        assert (edge.from_gid, edge.to_gid, edge.edge_type) == (a, b, "T")

    def test_edge_requires_visible_endpoints(self, storage):
        a, b = self._pair(storage)
        _commit(storage, lambda t: storage.delete_vertex(t, b))
        txn = storage.manager.begin()
        with pytest.raises(VertexNotFound):
            storage.create_edge(txn, a, b, "T")

    def test_edge_requires_type(self, storage):
        a, b = self._pair(storage)
        txn = storage.manager.begin()
        with pytest.raises(ValueError):
            storage.create_edge(txn, a, b, "")

    def test_delete_edge_detaches_endpoints(self, storage):
        a, b = self._pair(storage)
        eid = _commit(storage, lambda t: storage.create_edge(t, a, b, "T"))
        _commit(storage, lambda t: storage.delete_edge(t, eid))
        txn = storage.manager.begin()
        assert storage.get_vertex(txn, a).out_edges == []
        assert storage.get_vertex(txn, b).in_edges == []
        assert storage.get_edge(txn, eid) is None

    def test_delete_edge_twice_fails(self, storage):
        a, b = self._pair(storage)
        eid = _commit(storage, lambda t: storage.create_edge(t, a, b, "T"))
        _commit(storage, lambda t: storage.delete_edge(t, eid))
        txn = storage.manager.begin()
        with pytest.raises(EdgeNotFound):
            storage.delete_edge(txn, eid)

    def test_detach_delete_removes_incident_edges(self, storage):
        a, b = self._pair(storage)
        _commit(storage, lambda t: storage.create_edge(t, a, b, "T"))
        _commit(storage, lambda t: storage.create_edge(t, b, a, "T"))
        _commit(storage, lambda t: storage.delete_vertex(t, a, detach=True))
        txn = storage.manager.begin()
        assert storage.get_vertex(txn, a) is None
        vb = storage.get_vertex(txn, b)
        assert vb.out_edges == [] and vb.in_edges == []

    def test_plain_delete_refuses_with_edges(self, storage):
        a, b = self._pair(storage)
        _commit(storage, lambda t: storage.create_edge(t, a, b, "T"))
        txn = storage.manager.begin()
        with pytest.raises(GraphError):
            storage.delete_vertex(txn, a, detach=False)

    def test_self_loop(self, storage):
        a, _ = self._pair(storage)
        eid = _commit(storage, lambda t: storage.create_edge(t, a, a, "SELF"))
        txn = storage.manager.begin()
        view = storage.get_vertex(txn, a)
        assert [r.edge_gid for r in view.out_edges] == [eid]
        assert [r.edge_gid for r in view.in_edges] == [eid]


class TestVersionIterator:
    def test_yields_newest_first_with_intervals(self, storage):
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, [], {"x": 0})
        c0 = storage.manager.commit(txn)
        commits = [c0]
        for value in (1, 2):
            txn = storage.manager.begin()
            storage.set_vertex_property(txn, gid, "x", value)
            commits.append(storage.manager.commit(txn))
        reader = storage.manager.begin()
        versions = list(version_iterator(storage.vertex_record(gid), reader))
        assert [v.properties["x"] for v in versions] == [2, 1, 0]
        assert versions[0].tt_start == commits[2]
        assert versions[1].tt == (commits[1], commits[2])
        assert versions[2].tt == (commits[0], commits[1])

    def test_structural_change_does_not_create_content_version(self, storage):
        txn = storage.manager.begin()
        a = storage.create_vertex(txn, [], {"x": 0})
        b = storage.create_vertex(txn, [])
        storage.manager.commit(txn)
        txn = storage.manager.begin()
        storage.create_edge(txn, a, b, "T")
        storage.manager.commit(txn)
        reader = storage.manager.begin()
        versions = list(version_iterator(storage.vertex_record(a), reader))
        assert len(versions) == 1  # only the current content state

    def test_skips_uncommitted_foreign_changes(self, storage):
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, [], {"x": 0})
        storage.manager.commit(txn)
        writer = storage.manager.begin()
        storage.set_vertex_property(writer, gid, "x", 99)
        reader = storage.manager.begin()
        versions = list(version_iterator(storage.vertex_record(gid), reader))
        assert [v.properties["x"] for v in versions] == [0]


class TestIndexes:
    def _load(self, storage, count=10):
        txn = storage.manager.begin()
        gids = [
            storage.create_vertex(txn, ["P"], {"k": i, "mod": i % 3})
            for i in range(count)
        ]
        storage.manager.commit(txn)
        return gids

    def test_label_index_backfill_and_lookup(self, storage):
        gids = self._load(storage)
        storage.create_label_index("P")
        assert storage.indexes.candidates_by_label("P") == set(gids)

    def test_label_property_index_equality(self, storage):
        gids = self._load(storage)
        storage.create_label_property_index("P", "k")
        assert storage.indexes.candidates_by_value("P", "k", 4) == {gids[4]}
        assert storage.indexes.candidates_by_value("P", "k", 99) == set()

    def test_unindexed_lookup_returns_none(self, storage):
        self._load(storage)
        assert storage.indexes.candidates_by_label("P") is None
        assert storage.indexes.candidates_by_value("P", "k", 1) is None

    def test_range_lookup(self, storage):
        gids = self._load(storage)
        storage.create_label_property_index("P", "k")
        result = storage.indexes.candidates_by_range("P", "k", 3, 5)
        assert result == {gids[3], gids[4], gids[5]}
        result = storage.indexes.candidates_by_range(
            "P", "k", 3, 5, include_low=False, include_high=False
        )
        assert result == {gids[4]}

    def test_range_lookup_after_mixed_type_insert(self, storage):
        """Once two values fail to compare, ordering stays lost: every
        later range lookup scans all buckets instead of bisecting a
        list that only holds the values inserted since."""
        storage.create_label_property_index("P", "k")
        txn = storage.manager.begin()
        one = storage.create_vertex(txn, ["P"], {"k": 1})
        text = storage.create_vertex(txn, ["P"], {"k": "a"})
        five = storage.create_vertex(txn, ["P"], {"k": 5})
        storage.manager.commit(txn)
        indexes = storage.indexes
        assert indexes.candidates_by_range("P", "k", 0, 10) == {one, five}
        assert indexes.candidates_by_range("P", "k", "a", "b") == {text}
        assert indexes.candidates_by_value("P", "k", 1) == {one}

    def test_unhashable_value_is_unindexed(self, storage):
        storage.create_label_property_index("P", "k")
        txn = storage.manager.begin()
        storage.create_vertex(txn, ["P"], {"k": [1, 2]})
        storage.manager.commit(txn)
        assert storage.indexes.candidates_by_value("P", "k", [1, 2]) is None

    def test_new_writes_enter_index(self, storage):
        self._load(storage)
        storage.create_label_property_index("P", "k")
        txn = storage.manager.begin()
        gid = storage.create_vertex(txn, ["P"], {"k": 42})
        storage.manager.commit(txn)
        assert gid in storage.indexes.candidates_by_value("P", "k", 42)

    def test_duplicate_index_rejected(self, storage):
        self._load(storage)
        storage.create_label_index("P")
        with pytest.raises(GraphError):
            storage.create_label_index("P")

    def test_candidates_require_visibility_check(self, storage):
        """Index entries are candidates: uncommitted writes appear and
        must be filtered by the reader's snapshot."""
        self._load(storage)
        storage.create_label_property_index("P", "k")
        writer = storage.manager.begin()
        gid = storage.create_vertex(writer, ["P"], {"k": 777})
        assert gid in storage.indexes.candidates_by_value("P", "k", 777)
        reader = storage.manager.begin()
        assert storage.get_vertex(reader, gid) is None  # snapshot filters


class TestPropertyDiffs:
    def test_validate_accepts_nested(self):
        validate_properties({"a": [1, {"b": (2, 3)}], "c": b"bytes"})
