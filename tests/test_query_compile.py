"""Compile once, push WHERE equalities into the scan.

Two query-layer mechanisms, and the rules they must keep:

- **the plan cache** (``engine.compile``): a statement text is parsed
  and planned once per index set, bounded at ``PlanCache.SIZE``
  entries; a parse error is never cached; plans are shared read-only
  across threads; PROFILE on a cached plan still reconciles with
  ``metrics()``;
- **WHERE-equality pushdown**: top-level ``v.p = <literal | $param>``
  conjuncts narrow the ``NodeScan`` that binds ``v`` while the
  ``Filter`` stays in the plan.  Differentially: every answer equals
  the one the same plan gives with the recorded conjuncts cleared, over
  the full TT grid of a graph with updated, relabelled, deleted,
  re-created and GC-reclaimed vertices.

Also the null rule the pushdown relies on: ``null`` equals nothing, in
an inline ``{p: v}`` map exactly as in ``WHERE``.

Run with ``pytest -m query``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import AeonG
from repro.errors import ParseError
from repro.query.cache import PlanCache
from repro.query.executor import run_plan
from repro.query.operators import Filter, NodeScan, OptionalMatch
from repro.query.parser import parse
from repro.query.planner import plan_query

pytestmark = pytest.mark.query


def _scans(ops):
    """Every NodeScan of a plan, including those inside OPTIONAL MATCH."""
    for op in ops:
        if isinstance(op, NodeScan):
            yield op
        elif isinstance(op, OptionalMatch):
            yield from _scans(op.sub_ops)


def _filter_only(db, text):
    """A fresh (uncached) plan for ``text`` with every pushed equality
    cleared: the answers the pushdown must reproduce."""
    plan = plan_query(parse(text), db)
    for scan in _scans(plan.ops):
        scan.pushed = ()
    return plan


def _both(db, text, params):
    """(pushed answer, Filter-only answer) from one snapshot."""
    plan = _filter_only(db, text)
    with db.transaction() as txn:
        return (
            db.execute(text, params, txn=txn),
            run_plan(db, txn, plan, params),
        )


def _step(db, stamps, fn):
    txn = db.begin()
    result = fn(txn)
    stamps.append(db.commit(txn))
    return result


def build_history(db) -> list[int]:
    """A small graph whose ``name``/``val`` histories cover the value
    kinds equality must keep apart (``True``/``1``/``1.0``/``"1"``,
    missing, null) across updates, relabels, deletes, re-creation and
    GC.  Returns every commit timestamp."""
    stamps: list[int] = []

    def create(txn):
        make = db.create_vertex
        a = make(txn, ["P"], {"name": "x", "val": 1})
        b = make(txn, ["P"], {"name": "y", "val": True})
        c = make(txn, ["P"], {"name": "x", "val": 1.0})
        d = make(txn, ["P"], {"name": "z", "val": "1"})
        e = make(txn, ["P"], {"age": 3})
        f = make(txn, ["Q"], {"name": "x", "val": 1})
        db.create_edge(txn, a, b, "K")
        db.create_edge(txn, c, d, "K")
        db.create_edge(txn, b, f, "K")
        return a, b, c, d, e, f

    a, b, c, d, e, f = _step(db, stamps, create)
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, a, "name", "y"))
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, a, "val", 2))
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, b, "name", "x"))
    _step(db, stamps, lambda txn: db.remove_label(txn, c, "P"))
    _step(db, stamps, lambda txn: db.add_label(txn, f, "P"))
    _step(db, stamps, lambda txn: db.delete_vertex(txn, d, detach=True))
    _step(
        db, stamps,
        lambda txn: db.create_vertex(txn, ["P"], {"name": "z", "val": "1"}),
    )
    db.collect_garbage()  # d is now history-only; older versions reclaimed
    assert db.storage.vertex_record(d) is None
    _step(db, stamps, lambda txn: db.add_label(txn, c, "P"))
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, e, "name", "x"))
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, b, "val", 1))
    _step(db, stamps, lambda txn: db.set_vertex_property(txn, c, "val", True))
    return stamps


def tt_grid(stamps):
    """``(clause, params)``: non-temporal, TT SNAPSHOT at every commit
    timestamp ± 1, TT BETWEEN every adjacent pair."""
    points = sorted({t + delta for t in stamps for delta in (-1, 0, 1)})
    grid = [("", {})]
    grid += [("TT SNAPSHOT $t", {"t": t}) for t in points]
    grid += [
        ("TT BETWEEN $t AND $t2", {"t": t1, "t2": t2})
        for t1, t2 in zip(stamps, stamps[1:])
    ]
    return grid


SHAPES = (
    "MATCH (n:P) WHERE n.name = $v {tt} RETURN n",
    "MATCH (n:P) WHERE $v = n.val {tt} RETURN n",
    "MATCH (n:P) WHERE n.age = $v {tt} RETURN n",
    "MATCH (n:P)-[k:K]->(m) WHERE n.val = $v AND m.name IS NOT NULL "
    "{tt} RETURN n, k, m",
    "MATCH (n:P) WHERE n.name = 'x' AND n.val = $v {tt} RETURN n",
)
VALUES = (None, "x", "y", "z", 1, True, 1.0, "1", 2, 3)
INDEXES = {
    "none": (),
    "label": (("P", None),),
    "pushed-property": (("P", "name"), ("P", "val")),
}


class TestPushdownDifferential:
    @pytest.mark.parametrize("indexes", sorted(INDEXES))
    def test_pushdown_equals_filter_only_over_tt_grid(self, indexes):
        db = AeonG(anchor_interval=2, gc_interval_transactions=0)
        stamps = build_history(db)
        # Created after the history: an index then holds neither the
        # reclaimed vertex nor pre-index values, which is why a pushed
        # equality must never move the scan onto one.
        for label, prop in INDEXES[indexes]:
            if prop is None:
                db.create_label_index(label)
            else:
                db.create_label_property_index(label, prop)
        checked = nonempty = 0
        for shape in SHAPES:
            for clause, tt_params in tt_grid(stamps):
                text = shape.format(tt=clause)
                plan = db.compile(text)
                assert any(scan.pushed for scan in _scans(plan.ops))
                assert any(isinstance(op, Filter) for op in plan.ops)
                for value in VALUES:
                    params = {"v": value, **tt_params}
                    pushed, filtered = _both(db, text, params)
                    assert pushed == filtered, (text, params)
                    checked += 1
                    nonempty += bool(pushed)
        assert checked == len(SHAPES) * len(tt_grid(stamps)) * len(VALUES)
        assert nonempty > checked // 10  # the grid is not vacuous
        assert db.metrics()["query"]["scans_pushed"] > 0
        db.close()

    def test_values_equal_in_python_are_equal_in_pushdown(self, db):
        with db.transaction() as txn:
            for value in (1, True, 1.0, "1"):
                db.create_vertex(txn, ["P"], {"val": value})
        text = "MATCH (n:P) WHERE n.val = $v RETURN n.val AS val"
        got = {
            repr(v): sorted(repr(row["val"]) for row in db.execute(text, {"v": v}))
            for v in (1, True, 1.0, "1")
        }
        # 1 == True == 1.0 in Python and in `=`; "1" equals only itself.
        assert got["1"] == got["True"] == got["1.0"] == ["1", "1.0", "True"]
        assert got["'1'"] == ["'1'"]

    def test_pushdown_skips_history_fetches(self, db):
        gids = []
        with db.transaction() as txn:
            for i in range(20):
                gids.append(db.create_vertex(txn, ["P"], {"name": f"p{i}", "n": 0}))
        t0 = db.now()
        for round_ in range(1, 4):
            with db.transaction() as txn:
                for gid in gids:
                    db.set_vertex_property(txn, gid, "n", round_)
        db.collect_garbage()
        text = "MATCH (n:P) WHERE n.name = $v TT SNAPSHOT $t RETURN n.n AS n"
        params = {"v": "p7", "t": t0}
        plan = _filter_only(db, text)

        def fetches():
            return db.metrics()["read_path"]["fetches"]

        before = fetches()
        with db.transaction() as txn:
            filtered = run_plan(db, txn, plan, params)
        filter_fetches = fetches() - before
        before = fetches()
        pushed = db.execute(text, params)
        assert pushed == filtered == [{"n": 0}]
        assert fetches() - before == 1 < filter_fetches


class TestNotPushed:
    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (n:P) WHERE n.name = 'x' OR n.val = 1 RETURN n",
            "MATCH (n:P) WHERE n.name <> 'x' RETURN n",
            "MATCH (n:P) WHERE n.name = n.val RETURN n",
            "MATCH (n:P)-[:K]->(m:P) WHERE n.name = m.name RETURN n, m",
            "MATCH (n) WHERE n.name = 'x' RETURN n",
            "MATCH (n:P) OPTIONAL MATCH (m:Q) WHERE m.name = 'x' RETURN n, m",
            "MATCH (n:P) WITH n MATCH (n:P) WHERE n.name = 'x' RETURN n",
            "MATCH (m:P) WITH m AS n MATCH (n)-[:K]->(x) WHERE n.name = 'x' "
            "RETURN x",
            "MATCH (n:P) WITH n.name AS nm MATCH (n:P) WHERE n.name = nm "
            "RETURN n",
        ],
    )
    def test_shape_is_not_pushed(self, db, text):
        build_history(db)
        plan = db.compile(text)
        assert all(not scan.pushed for scan in _scans(plan.ops))
        pushed, filtered = _both(db, text, {})
        assert pushed == filtered

    def test_with_where_is_not_pushed(self, db):
        build_history(db)
        text = (
            "MATCH (n:P) WHERE n.name = 'x' WITH n AS m WHERE m.val = 1 "
            "RETURN m"
        )
        plan = db.compile(text)
        # The MATCH's own WHERE is pushed; the WITH's never is.
        assert [
            [name for name, _ in scan.pushed] for scan in _scans(plan.ops)
        ] == [["name"]]
        pushed, filtered = _both(db, text, {})
        assert pushed == filtered != []

    def test_describe_names_pushed_equalities(self, db):
        lines = db.explain_tree(
            "MATCH (n:P {name: 'x'}) WHERE n.val = $v AND 3 = n.age "
            "RETURN n"
        )
        assert lines == [
            "Produce(n)",
            "└─ Filter(WHERE ...)",
            "   └─ NodeScan(n:P{name} WHERE val, age)",
            "      └─ Once",
        ]

    def test_missing_parameter_still_raises_from_the_filter(self, db):
        from repro.errors import ExecutionError

        db.execute("CREATE (n:P {name: 'x'})")
        with pytest.raises(ExecutionError, match="missing parameter"):
            db.execute("MATCH (n:P) WHERE n.name = $nope RETURN n")
        # ...and, as before, not when nothing reaches the Filter.
        assert db.execute("MATCH (n:Nothing) WHERE n.name = $nope RETURN n") == []


class TestNullEqualsNothing:
    """``(a:P {name:'x'})`` and ``(b:P {age:3})``, ``$v = null``: no
    spelling of the equality may return ``b``."""

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("temporal", [False, True])
    def test_null_inline_and_where(self, db, indexed, temporal):
        db.execute("CREATE (a:P {name: 'x'})")
        db.execute("CREATE (b:P {age: 3})")
        if indexed:
            db.create_label_property_index("P", "name")
        tt = f"TT SNAPSHOT {db.now()}" if temporal else ""
        for text in (
            f"MATCH (n:P {{name: $v}}) {tt} RETURN n.age AS age",
            f"MATCH (n:P) WHERE n.name = $v {tt} RETURN n.age AS age",
        ):
            assert db.execute(text, {"v": None}) == []
            assert db.execute(text, {"v": "x"}) == [{"age": None}]

    def test_null_relationship_map_matches_nothing(self, db):
        db.execute("CREATE (a:P {name: 'a'}), (b:P {name: 'b'})")
        db.execute(
            "MATCH (a:P {name: 'a'}), (b:P {name: 'b'}) CREATE (a)-[:K]->(b)"
        )
        for text in (
            "MATCH (a:P)-[k:K {since: $v}]->(b) RETURN b.name AS b",
            "MATCH (a:P)-[k:K*1..1 {since: $v}]->(b) RETURN b.name AS b",
        ):
            assert db.execute(text, {"v": None}) == []


class TestPlanCache:
    def test_repeat_statement_hits(self, db):
        text = "MATCH (n:P) RETURN n"
        db.execute(text)
        db.execute(text)
        db.execute("EXPLAIN " + text)
        db.profile(text)
        query = db.metrics()["query"]
        assert (query["plan_cache_misses"], query["plan_cache_hits"]) == (1, 3)
        assert query["plan_cache_entries"] == 1
        assert db.compile("PROFILE " + text) is db.compile(text)

    def test_miss_parses_and_plans_through_executor_names(self, db, monkeypatch):
        from repro.query import executor

        calls = []
        for name in ("parse", "plan_query"):
            original = getattr(executor, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(executor, name, counted)
        db.execute("MATCH (n) RETURN n")
        db.execute("MATCH (n) RETURN n")
        assert calls == ["parse", "plan_query"]

    def test_index_creation_replans(self, db):
        db.execute(
            "CREATE (a:P {name: 'x'}), (b:Q {code: 1}), (c:Q {code: 2})"
        )
        db.execute(
            "MATCH (a:P), (b:Q) CREATE (a)-[:K]->(b)"
        )
        text = (
            "MATCH (a:P {name: 'x'})-[:K]->(b:Q {code: 1}) "
            "RETURN a.name AS a, b.code AS b"
        )
        before = db.explain_tree(text)
        rows = db.execute(text)
        assert rows == [{"a": "x", "b": 1}]
        misses = db.metrics()["query"]["plan_cache_misses"]
        db.create_label_property_index("Q", "code")
        after = db.explain_tree(text)
        assert after != before
        assert any("NodeScan(b:Q{code})" in line for line in after[-2:])
        assert db.execute(text) == rows
        assert db.metrics()["query"]["plan_cache_misses"] == misses + 1

    def test_cache_is_bounded(self, db):
        for i in range(PlanCache.SIZE + 44):
            db.execute(f"MATCH (n:P) WHERE n.val = {i} RETURN n")
        query = db.metrics()["query"]
        assert query["plan_cache_entries"] == PlanCache.SIZE
        assert query["plan_cache_misses"] == PlanCache.SIZE + 44
        db.execute("MATCH (n:P) WHERE n.val = 0 RETURN n")  # evicted: LRU
        assert db.metrics()["query"]["plan_cache_misses"] == PlanCache.SIZE + 45

    def test_parse_error_raises_every_call(self, db):
        for attempt in range(3):
            with pytest.raises(ParseError):
                db.execute("MATCH (n:P RETURN n")
            assert db.metrics()["query"]["plan_cache_misses"] == attempt + 1
        assert db.metrics()["query"]["plan_cache_entries"] == 0

    def test_concurrent_same_and_distinct_texts(self, db):
        with db.transaction() as txn:
            for i in range(40):
                db.create_vertex(txn, ["P"], {"val": i % 8, "i": i})
        shared = "MATCH (n:P) WHERE n.val = $v RETURN n.i AS i"
        own = "MATCH (n:P) WHERE n.val = {v} AND n.i >= 0 RETURN n.i AS i"
        want = {
            v: sorted(row["i"] for row in db.execute(shared, {"v": v}))
            for v in range(8)
        }
        db.plans.clear()
        before = db.metrics()["query"]
        errors = []
        barrier = threading.Barrier(8)

        def worker(v):
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    for text, params in (
                        (shared, {"v": v}),
                        (own.format(v=v), {}),
                    ):
                        got = sorted(row["i"] for row in db.execute(text, params))
                        if got != want[v]:
                            errors.append((text, params, got))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(v,)) for v in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        after = db.metrics()["query"]
        assert after["plan_cache_entries"] == 9
        # Every compile and every pushed scan was counted: none lost.
        calls = 8 * 25 * 2
        assert (
            after["plan_cache_hits"] + after["plan_cache_misses"]
            - before["plan_cache_hits"] - before["plan_cache_misses"]
        ) == calls
        assert after["scans_pushed"] - before["scans_pushed"] == calls

    def test_profile_reconciles_on_cached_plan(self, db):
        from tests.test_profiler import (
            COUNTER_KEYS,
            metrics_counters,
            seed_reclaimed_history,
        )

        _, t_mid = seed_reclaimed_history(db)
        text = (
            "MATCH (p:Person) WHERE p.name = 'Alice' TT SNAPSHOT $t "
            "RETURN p.balance"
        )
        db.profile(text, {"t": t_mid})
        db.history.invalidate_caches()
        hits = db.metrics()["query"]["plan_cache_hits"]
        before = metrics_counters(db)
        profile = db.profile(text, {"t": t_mid})
        after = metrics_counters(db)
        assert db.metrics()["query"]["plan_cache_hits"] == hits + 1
        assert profile.totals == {
            key: after[key] - before[key] for key in COUNTER_KEYS
        }
        assert profile.totals["reclaimed_hits"] == 1
        assert profile.rows == [{"p.balance": 0}]

    def test_adopting_new_storage_clears_the_cache(self, db):
        db.execute("CREATE (n:P {name: 'old'})")
        text = "MATCH (n:P) RETURN n.name AS name"
        assert db.execute(text) == [{"name": "old"}]
        donor = AeonG(gc_interval_transactions=0)
        donor.execute("CREATE (n:P {name: 'new'})")
        db.adopt_snapshot_state(donor)
        assert db.metrics()["query"]["plan_cache_entries"] == 0
        assert db.execute(text) == [{"name": "new"}]

    def test_query_metrics_exported(self, db):
        db.execute("MATCH (n) RETURN n")
        text = db.metrics_text()
        for field in (
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_entries",
            "scans_pushed",
        ):
            assert f"aeong_query_{field}" in text


class TestServerCompilesOnce:
    def test_prepare_compiles_and_executes_hit(self, db):
        from repro.server import Client, ServerThread

        db.execute("CREATE (n:P {ext_id: 1})")
        thread = ServerThread(db)
        host, port = thread.start()
        try:
            with Client(host, port) as client:
                client.prepare("get", "MATCH (n:P) WHERE n.ext_id = $e RETURN n.ext_id AS e")
                query = db.metrics()["query"]
                misses, hits = query["plan_cache_misses"], query["plan_cache_hits"]
                for _ in range(3):
                    assert client.execute("get", {"e": 1}) == [{"e": 1}]
                query = db.metrics()["query"]
                assert query["plan_cache_misses"] == misses
                assert query["plan_cache_hits"] == hits + 3
                with pytest.raises(Exception):
                    client.prepare("bad", "MATCH (((")
        finally:
            thread.stop()
