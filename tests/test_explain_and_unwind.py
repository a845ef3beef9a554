"""Tests for UNWIND and the EXPLAIN surface."""

from __future__ import annotations

import pytest

from repro import AeonG
from repro.errors import ExecutionError, ParseError


@pytest.fixture
def db():
    db = AeonG(gc_interval_transactions=0)
    db.execute("CREATE (n:P {id: 1, tags: ['a', 'b']})")
    db.execute("CREATE (n:P {id: 2, tags: ['b', 'c']})")
    return db


class TestUnwind:
    def test_literal_list(self, db):
        rows = db.execute("UNWIND [3, 1, 2] AS x RETURN x ORDER BY x")
        assert rows == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_parameter_list(self, db):
        rows = db.execute(
            "UNWIND $ids AS i MATCH (n:P {id: i}) RETURN n.id ORDER BY n.id",
            {"ids": [1, 2, 99]},
        )
        assert rows == [{"n.id": 1}, {"n.id": 2}]

    def test_property_list_after_match(self, db):
        rows = db.execute(
            "MATCH (n:P) UNWIND n.tags AS tag "
            "RETURN tag, count(*) AS c ORDER BY tag"
        )
        assert rows == [
            {"tag": "a", "c": 1},
            {"tag": "b", "c": 2},
            {"tag": "c", "c": 1},
        ]

    def test_null_unwinds_to_nothing(self, db):
        assert db.execute("UNWIND null AS x RETURN x") == []

    def test_scalar_unwinds_to_itself(self, db):
        assert db.execute("UNWIND 7 AS x RETURN x") == [{"x": 7}]

    def test_unwind_collect_roundtrip(self, db):
        rows = db.execute(
            "MATCH (n:P) WITH collect(n.id) AS ids "
            "UNWIND ids AS i RETURN i ORDER BY i"
        )
        assert rows == [{"i": 1}, {"i": 2}]

    def test_unwind_requires_as(self, db):
        with pytest.raises(ParseError):
            db.execute("UNWIND [1, 2] RETURN 1")

    def test_unwound_scalar_cannot_be_node(self, db):
        with pytest.raises(ExecutionError):
            db.execute("UNWIND [1] AS x MATCH (x) RETURN x")

    def test_unwind_create(self, db):
        db.execute("UNWIND [10, 11] AS i CREATE (m:Q {id: i})")
        rows = db.execute("MATCH (m:Q) RETURN m.id ORDER BY m.id")
        assert rows == [{"m.id": 10}, {"m.id": 11}]


def _nodes(db, query):
    """The EXPLAIN tree's operators, root first, without the tree art."""
    return [line.split("└─ ")[-1] for line in db.explain_tree(query)]


class TestExplain:
    def test_scan_plan(self, db):
        nodes = _nodes(db, "MATCH (n:P) RETURN n")
        assert nodes[-1] == "Once"
        assert "NodeScan(n:P)" in nodes[-2]
        assert nodes[0] == "Produce(n)"

    def test_expand_plan(self, db):
        nodes = _nodes(db, "MATCH (a:P)-[r:KNOWS]->(b) WHERE a.id = 1 RETURN b")
        assert any(node.startswith("Expand(a)->[r:KNOWS](b)") for node in nodes)
        assert any(node.startswith("Filter") for node in nodes)

    def test_var_length_plan(self, db):
        nodes = _nodes(db, "MATCH (a:P)-[:T*2..4]->(b) RETURN b")
        assert any("*2..4" in node for node in nodes)

    def test_temporal_marker(self, db):
        nodes = _nodes(db, "MATCH (n:P) TT SNAPSHOT 5 RETURN n")
        assert "Temporal(TT SNAPSHOT)" in nodes

    def test_with_and_unwind_markers(self, db):
        nodes = _nodes(db, "MATCH (n:P) WITH n.id AS i UNWIND [1] AS x RETURN i, x")
        assert "With(i)" in nodes
        assert "Unwind(... AS x)" in nodes

    def test_index_changes_plan_shape(self, db):
        """EXPLAIN reflects the planner's anchor choice: with an index
        on the right-hand label+property, the pattern is planned from
        that end."""
        before = _nodes(db, "MATCH (a)-[:R]->(b:P {id: 1}) RETURN a")
        db.create_label_property_index("P", "id")
        after = _nodes(db, "MATCH (a)-[:R]->(b:P {id: 1}) RETURN a")
        assert before == after  # anchor scoring already prefers (b)
        assert any("NodeScan(b:P" in node for node in after)

    def test_explain_does_not_execute(self, db):
        db.explain_tree("CREATE (n:Never)")
        assert db.execute("MATCH (n:Never) RETURN count(*) AS c") == [{"c": 0}]
