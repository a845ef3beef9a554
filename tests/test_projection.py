"""One projection: ``RETURN`` and ``WITH`` share one operator.

``RETURN <p>`` is the statement's last projection and runs through the
same ``Project`` operator as ``WITH <p>``, so the two must agree on
every projection: grouping, DISTINCT, ORDER BY over mixed-type values,
SKIP and LIMIT.  The differential below checks that over random graphs
whose ``v`` column mixes every property type.

Also here: property access on a map value reads the key, ORDER BY's one
value order, ORDER BY naming a column by its text, the compile-time
duplicate-name check, and ``explain()``'s ``SKIP`` modifier.

Run with ``pytest -m query``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AeonG
from repro.errors import ExecutionError, PlanningError

pytestmark = pytest.mark.query

#: projection items: (text, column name); ``min``/``max`` stay off the
#: mixed-type column
_ITEMS = (
    ("n.v AS v", "v"),
    ("n.w AS w", "w"),
    ("count(*) AS c", "c"),
    ("collect(n.v) AS vs", "vs"),
    ("sum(n.w) AS s", "s"),
)

_mixed = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.booleans(),
    st.sampled_from(["", "a", "b", "ab"]),
    st.sampled_from([b"", b"a", b"b"]),
    st.none(),
    st.lists(st.integers(-2, 12), max_size=3),
)
_numeric = st.one_of(st.integers(-5, 5), st.floats(-5, 5, allow_nan=False))


@st.composite
def _projections(draw):
    items = draw(
        st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=4, unique=True)
    )
    names = [name for _, name in items]
    text = ("DISTINCT " if draw(st.booleans()) else "") + ", ".join(
        item for item, _ in items
    )
    order = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    if order:
        text += " ORDER BY " + ", ".join(
            name + draw(st.sampled_from(["", " ASC", " DESC"])) for name in order
        )
    if draw(st.booleans()):
        text += f" SKIP {draw(st.integers(0, 3))}"
    if draw(st.booleans()):
        text += f" LIMIT {draw(st.integers(0, 4))}"
    return text, names


def _graph(vertices) -> AeonG:
    db = AeonG(gc_interval_transactions=0)
    for v, w in vertices:
        db.execute("CREATE (n:T {v: $v, w: $w})", {"v": v, "w": w})
    return db


@given(
    vertices=st.lists(st.tuples(_mixed, _numeric), max_size=8),
    projection=_projections(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_return_equals_with_then_return(vertices, projection):
    text, names = projection
    db = _graph(vertices)
    direct = db.execute(f"MATCH (n:T) RETURN {text}")
    piped = db.execute(f"MATCH (n:T) WITH {text} RETURN {', '.join(names)}")
    assert direct == piped


@pytest.fixture
def db():
    return AeonG(gc_interval_transactions=0)


class TestOrderBy:
    def test_return_orders_mixed_types(self, db):
        for v in ["b", 2, None, "a", 1.5, True, b"x", [1]]:
            db.execute("CREATE (n:T {v: $v})", {"v": v})
        rows = db.execute("MATCH (n:T) RETURN n.v AS v ORDER BY v")
        assert [row["v"] for row in rows] == [
            True, 1.5, 2, "a", "b", b"x", [1], None
        ]
        rows = db.execute("MATCH (n:T) RETURN n.v AS v ORDER BY v DESC")
        assert [row["v"] for row in rows] == [
            None, [1], b"x", "b", "a", 2, 1.5, True
        ]

    def test_with_orders_lists_element_by_element(self, db):
        for v in ([10], [9], [9, 0]):
            db.execute("CREATE (n:T {v: $v})", {"v": v})
        rows = db.execute("MATCH (n:T) WITH n.v AS v ORDER BY v RETURN v")
        assert [row["v"] for row in rows] == [[9], [9, 0], [10]]

    def test_order_by_names_a_column_by_its_text(self, db):
        for v in (3, 1, 2, 1):
            db.execute("CREATE (n:T {v: $v})", {"v": v})
        rows = db.execute("MATCH (n:T) RETURN n.v ORDER BY n.v")
        assert rows == [{"n.v": 1}, {"n.v": 1}, {"n.v": 2}, {"n.v": 3}]
        rows = db.execute(
            "MATCH (n:T) RETURN n.v AS v, count(*) ORDER BY count(*) DESC, v"
        )
        assert rows == [
            {"v": 1, "count(*)": 2},
            {"v": 2, "count(*)": 1},
            {"v": 3, "count(*)": 1},
        ]

    def test_unresolvable_order_expression_raises(self, db):
        db.execute("CREATE (n:T {v: 1})")
        with pytest.raises(ExecutionError):
            db.execute("MATCH (n:T) RETURN n.v AS v ORDER BY n.w")

    def test_entities_render_after_ordering(self, db):
        for name in ("b", "a"):
            db.execute("CREATE (n:T {name: $n})", {"n": name})
        rows = db.execute("MATCH (n:T) RETURN n ORDER BY n.name")
        assert [row["n"]["properties"]["name"] for row in rows] == ["a", "b"]


class TestMapPropertyAccess:
    @pytest.fixture
    def people(self, db):
        for name in ("Cy", "Al", "Bo"):
            db.execute("CREATE (n:P {name: $n})", {"n": name})
        return db

    def test_with_map_key_is_readable(self, people):
        rows = people.execute(
            "MATCH (n:P) WITH properties(n) AS p RETURN p.name AS name"
        )
        assert sorted(row["name"] for row in rows) == ["Al", "Bo", "Cy"]

    def test_return_orders_by_map_key(self, people):
        rows = people.execute(
            "MATCH (n:P) RETURN properties(n) AS p ORDER BY p.name"
        )
        assert [row["p"]["name"] for row in rows] == ["Al", "Bo", "Cy"]


class TestCompileTime:
    def test_duplicate_return_columns_fail_at_compile(self, db):
        with pytest.raises(PlanningError):
            db.compile("MATCH (n) RETURN n.a AS x, n.b AS x")
        with pytest.raises(PlanningError):
            db.execute("EXPLAIN MATCH (n) RETURN n, n")

    def test_explain_lists_skip(self, db):
        lines = db.explain_tree("MATCH (n:T) RETURN DISTINCT n.v AS v SKIP 1 LIMIT 2")
        assert lines[0] == "Produce(v) [DISTINCT, SKIP, LIMIT]"
