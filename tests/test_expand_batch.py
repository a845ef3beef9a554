"""Batched temporal Expand: two history batches per expand, one fetch path.

Covers: expand answers against two independent references — the
Clock-G baseline's ``neighbors_at`` and an edge/vertex lifetime model —
at every commit timestamp ± 1, in every direction, with and without a
type filter, across re-created edges, GC between steps, the cache on
and off, and an open transaction holding an uncommitted edge create and
delete; slice expands at cache sizes 4096 and 0 against each other and
the lifetime model; the batch's fault behaviour
(one breaker failure for a failing batch, a quarantined neighbour
degrading alone, one failpoint hit per object fetched); quarantine and
breaker changes between two statements; the expand counters; and the
content interval of a version read past another writer's edge write.
"""

from __future__ import annotations

import pytest

from repro import AeonG, TemporalCondition
from repro.baselines import interface
from repro.baselines.clockg import ClockGBackend
from repro.baselines.interface import GraphOp
from repro.errors import DegradedModeError, FaultInjected, IntegrityError
from repro.faults import FAILPOINTS
from repro.resilience import BREAKER_OPEN, ResilienceConfig

pytestmark = [pytest.mark.read_path, pytest.mark.resilience]


@pytest.fixture(autouse=True)
def _clean_registry():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


# -- the scripted history ------------------------------------------------------


class _Script:
    """One engine and one Clock-G backend fed the same single-op
    commits (Clock-G's event time is AeonG's commit timestamp), plus
    the lifetime model: ``{ext: [created, deleted]}`` for vertices and
    ``{ext: [src, dst, type, created, deleted]}`` for edges."""

    def __init__(self, cache_size: int) -> None:
        self.db = AeonG(
            anchor_interval=3,
            gc_interval_transactions=0,
            reconstruction_cache_size=cache_size,
        )
        self.clock = ClockGBackend(snapshot_interval=7)
        self.gid: dict[str, int] = {}
        self.vertices: dict[str, list] = {}
        self.edges: dict[str, list] = {}
        self.commits: list[int] = []

    def _run(self, work, op) -> int:
        txn = self.db.begin()
        result = work(txn)
        ts = self.db.commit(txn)
        self.commits.append(ts)
        self.clock.apply(GraphOp(ts=ts, **op))
        return result if result is not None else ts

    def vertex(self, ext: str) -> None:
        props = {"ext": ext, "n": 0}
        self.gid[ext] = self._run(
            lambda txn: self.db.create_vertex(txn, ["P"], props),
            dict(kind=interface.ADD_VERTEX, ext_id=ext, label="P", properties=props),
        )
        self.vertices[ext] = [self.commits[-1], None]

    def set_vertex(self, ext: str, value: int) -> None:
        self._run(
            lambda txn: self.db.set_vertex_property(txn, self.gid[ext], "n", value),
            dict(kind=interface.UPDATE_VERTEX, ext_id=ext, prop="n", value=value),
        )

    def drop_vertex(self, ext: str) -> None:
        self._run(
            lambda txn: self.db.delete_vertex(txn, self.gid[ext], detach=True),
            dict(kind=interface.DELETE_VERTEX, ext_id=ext),
        )
        self.vertices[ext][1] = self.commits[-1]
        for life in self.edges.values():
            if ext in life[:2] and life[4] is None:
                life[4] = self.commits[-1]

    def link(self, ext: str, src: str, dst: str, kind: str) -> None:
        props = {"w": 0}
        self.gid[ext] = self._run(
            lambda txn: self.db.create_edge(
                txn, self.gid[src], self.gid[dst], kind, properties=props
            ),
            dict(kind=interface.ADD_EDGE, ext_id=ext, label=kind, src=src,
                 dst=dst, properties=props),
        )
        self.edges[ext] = [src, dst, kind, self.commits[-1], None]

    def set_edge(self, ext: str, value: int) -> None:
        self._run(
            lambda txn: self.db.set_edge_property(txn, self.gid[ext], "w", value),
            dict(kind=interface.UPDATE_EDGE, ext_id=ext, prop="w", value=value),
        )

    def unlink(self, ext: str) -> None:
        self._run(
            lambda txn: self.db.delete_edge(txn, self.gid[ext]),
            dict(kind=interface.DELETE_EDGE, ext_id=ext),
        )
        self.edges[ext][4] = self.commits[-1]


def _stages(script: _Script):
    """Build the history in three stages, yielding after each: edges
    created, deleted and re-created between the same endpoints, a
    vertex deleted with its edges, GC between stages, and the last
    writes left on the undo chains."""
    s = script
    for ext in ("v0", "v1", "v2", "v3", "v4"):
        s.vertex(ext)
    s.link("e0", "v0", "v1", "KNOWS")
    s.link("e1", "v0", "v2", "LIKES")
    s.link("e2", "v3", "v0", "KNOWS")
    s.link("e3", "v1", "v2", "KNOWS")
    s.link("e4", "v2", "v0", "LIKES")
    s.set_vertex("v1", 1)
    s.set_edge("e0", 1)
    yield "unreclaimed"
    s.db.collect_garbage()
    s.unlink("e1")
    s.link("e5", "v0", "v2", "LIKES")  # re-created: same endpoints, new gid
    s.set_vertex("v2", 1)
    s.set_vertex("v2", 2)
    s.db.collect_garbage()
    s.unlink("e0")
    s.set_vertex("v0", 1)
    s.link("e6", "v0", "v1", "KNOWS")  # re-created
    yield "one GC"
    s.drop_vertex("v3")
    s.set_edge("e5", 1)
    s.db.collect_garbage()
    s.link("e7", "v4", "v0", "KNOWS")
    s.set_vertex("v4", 1)
    s.set_edge("e6", 2)
    yield "three GCs"


def _alive(life, t) -> bool:
    return life[-2] <= t and (life[-1] is None or t < life[-1])


def _model(script, src, t, direction, kind):
    """(edge gid, neighbour gid) pairs the lifetime model expects."""
    pairs = []
    for ext, life in script.edges.items():
        a, b, edge_kind = life[:3]
        if not _alive(life, t) or (kind is not None and edge_kind != kind):
            continue
        if src == a and direction in ("out", "both"):
            other = b
        elif src == b and direction in ("in", "both"):
            other = a
        else:
            continue
        if _alive(script.vertices[other], t):
            pairs.append((script.gid[ext], script.gid[other]))
    return sorted(pairs)


def _clockg(script, src, t, direction, kind):
    return sorted(
        (
            hit.edge_type,
            tuple(sorted(hit.edge_properties.items())),
            hit.neighbor_ext_id,
            tuple(sorted(hit.neighbor_properties.items())),
        )
        for hit in script.clock.neighbors_at(src, t, direction, kind)
    )


def _expand(db, gid, cond, direction, types):
    """Every (edge, neighbour) row of an expand from each version of
    ``gid`` satisfying ``cond``."""
    with db.transaction() as txn:
        return [
            (edge, neighbour)
            for vertex in db.vertex_versions(txn, gid, cond)
            for edge, neighbour in db.expand(txn, vertex, cond, direction, types)
        ]


def _pair_sig(edge, neighbour):
    return (
        edge.gid, edge.tt_start, edge.tt_end, tuple(sorted(edge.properties.items())),
        neighbour.gid, neighbour.tt_start, neighbour.tt_end,
        tuple(sorted(neighbour.properties.items())),
    )


def _overlap(a, b) -> bool:
    return a.tt_start < b.tt_end and b.tt_start < a.tt_end


def _reference_expand(script, txn, vertex, src, cond, direction, kind):
    """Expand rows from per-object reads, edges by gid."""
    db = script.db
    rows = []
    for ext, (a, b, edge_kind, _c, _d) in sorted(
        script.edges.items(), key=lambda item: script.gid[item[0]]
    ):
        if kind is not None and edge_kind != kind:
            continue
        if src == a and direction in ("out", "both"):
            other = b
        elif src == b and direction in ("in", "both"):
            other = a
        else:
            continue
        for edge in db.edge_versions(txn, script.gid[ext], cond):
            if not _overlap(edge, vertex):
                continue
            for neighbour in db.vertex_versions(txn, script.gid[other], cond):
                if _overlap(edge, neighbour):
                    rows.append(_pair_sig(edge, neighbour))
    return rows


def _check_point_grid(script: _Script) -> int:
    db = script.db
    points = sorted({c + d for c in script.commits for d in (-1, 0, 1) if c + d >= 0})
    checked = 0
    for t in points:
        cond = TemporalCondition.as_of(t)
        for src in script.vertices:
            for direction in ("out", "in", "both"):
                for kind in (None, "KNOWS"):
                    types = None if kind is None else {kind}
                    rows = _expand(db, script.gid[src], cond, direction, types)
                    got = sorted((e.gid, n.gid) for e, n in rows)
                    assert got == _model(script, src, t, direction, kind), (
                        t, src, direction, kind,
                    )
                    assert sorted(
                        (
                            e.edge_type,
                            tuple(sorted(e.properties.items())),
                            n.properties["ext"],
                            tuple(sorted(n.properties.items())),
                        )
                        for e, n in rows
                    ) == _clockg(script, src, t, direction, kind), (
                        t, src, direction, kind,
                    )
                    checked += len(rows)
    return checked


class TestExpandDifferential:
    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_points_equal_clockg_and_lifetime_model(self, cache_size):
        script = _Script(cache_size)
        rows = 0
        for _stage in _stages(script):
            rows += _check_point_grid(script)
            rows += _check_point_grid(script)  # warm re-read
        # An open transaction's edge create and delete stay invisible.
        intruder = script.db.begin()
        script.db.create_edge(intruder, script.gid["v0"], script.gid["v4"], "KNOWS")
        script.db.delete_edge(intruder, script.gid["e6"])
        try:
            rows += _check_point_grid(script)
        finally:
            script.db.abort(intruder)
        assert rows > 500
        report = script.db.metrics()["operators"]
        assert report["expand_pairs"] == rows
        assert (
            report["expand_candidates"]
            >= report["expand_edges_rejected"]
            > 0
        )

    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_slices_equal_per_object_reference(self, cache_size):
        """Algorithm 3 spelled out over the per-object reads: every edge
        the lifetime model ever attached to the source, each of its
        versions intersecting the source version, each neighbour
        version intersecting that edge version (Equation 2)."""
        script = _Script(cache_size)
        for _stage in _stages(script):
            pass
        db = script.db
        stamps = script.commits
        windows = list(zip(stamps, stamps[1:])) + [(0, stamps[-1] + 1)]
        for t1, t2 in windows:
            cond = TemporalCondition.between(t1, t2)
            for src in script.vertices:
                for direction in ("out", "both"):
                    for kind in (None, "LIKES"):
                        types = None if kind is None else {kind}
                        gid = script.gid[src]
                        with db.transaction() as txn:
                            for vertex in db.vertex_versions(txn, gid, cond):
                                rows = db.expand(txn, vertex, cond, direction, types)
                                got = [_pair_sig(e, n) for e, n in rows]
                                want = _reference_expand(
                                    script, txn, vertex, src, cond, direction, kind
                                )
                                assert got == want, (t1, t2, src, direction, kind)

    def test_slices_cached_equal_uncached(self):
        """Cache size 0 (each segment built and dropped) against 4096
        (kept and extended), and both against the lifetime model: the
        pairs a slice expand yields are those of every edge alive at
        some instant of the slice."""
        cold, warm = _Script(0), _Script(4096)
        for _stage in zip(_stages(cold), _stages(warm)):
            pass
        assert (cold.gid, cold.commits) == (warm.gid, warm.commits)
        stamps = warm.commits
        windows = list(zip(stamps, stamps[1:])) + [(0, stamps[-1] + 1)]

        def sig(rows):
            return sorted(
                (e.gid, e.tt_start, e.tt_end, tuple(sorted(e.properties.items())),
                 n.gid, n.tt_start, n.tt_end, tuple(sorted(n.properties.items())))
                for e, n in rows
            )

        for t1, t2 in windows:
            cond = TemporalCondition.between(t1, t2)
            for src in warm.vertices:
                for direction in ("out", "in", "both"):
                    for types in (None, {"LIKES"}):
                        gid = warm.gid[src]
                        expected = sig(_expand(cold.db, gid, cond, direction, types))
                        kind = None if types is None else "LIKES"
                        assert {(row[0], row[4]) for row in expected} == {
                            pair
                            for t in range(t1, t2 + 1)
                            for pair in _model(cold, src, t, direction, kind)
                        }, (t1, t2, src, direction, types)
                        for _round in ("populate", "hits"):
                            got = sig(_expand(warm.db, gid, cond, direction, types))
                            assert got == expected, (t1, t2, src, direction, types)

    def test_rows_come_edges_by_gid_then_neighbour_versions(self):
        script = _Script(4096)
        for _stage in _stages(script):
            pass
        db = script.db
        cond = TemporalCondition.between(0, db.now())
        for src in script.vertices:
            with db.transaction() as txn:
                for vertex in db.vertex_versions(txn, script.gid[src], cond):
                    rows = list(db.expand(txn, vertex, cond, "both"))
                    edge_gids = [e.gid for e, _n in rows]
                    assert edge_gids == sorted(edge_gids)
                    for i in range(1, len(rows)):
                        (e0, n0), (e1, n1) = rows[i - 1], rows[i]
                        if e0 is e1:  # one edge version's neighbours
                            assert n0.tt_start > n1.tt_start


# -- faults ------------------------------------------------------------------------


def _fan(**resilience):
    """A hub linked to four spokes; every spoke changes after the
    links, then GC.  At ``t`` (between) the edges are served from the
    current store and every spoke's version from the history store,
    so an expand at ``t`` fetches exactly one batch: the four spokes."""
    db = AeonG(
        anchor_interval=3,
        gc_interval_transactions=0,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )
    with db.transaction() as txn:
        hub = db.create_vertex(txn, ["H"], {"h": 0})
        spokes = [db.create_vertex(txn, ["S"], {"i": i}) for i in range(4)]
    with db.transaction() as txn:
        for spoke in spokes:
            db.create_edge(txn, hub, spoke, "L")
    t = db.now()
    with db.transaction() as txn:
        for spoke in spokes:
            db.set_vertex_property(txn, spoke, "i", -1)
    db.collect_garbage()
    return db, hub, spokes, t


def _pairs(db, hub, t):
    cond = TemporalCondition.as_of(t)
    with db.transaction() as txn:
        (vertex,) = list(db.vertex_versions(txn, hub, cond))
        return sorted(
            (n.gid, n.properties["i"]) for _e, n in db.expand(txn, vertex, cond, "out")
        )


class TestBatchFaults:
    def test_error_on_third_neighbour_fails_the_batch_once(self):
        db, hub, spokes, t = _fan()
        breaker = db.resilience.breaker
        tracer = db.observability.tracer
        cond = TemporalCondition.as_of(t)
        with db.transaction() as txn:
            (vertex,) = list(db.vertex_versions(txn, hub, cond))
            failures = breaker.failures_total
            FAILPOINTS.activate("history.fetch", "error", nth=3)
            with pytest.raises(FaultInjected):
                list(db.expand(txn, vertex, cond, "out"))
        assert breaker.failures_total == failures + 1
        assert tracer.depth() == 0
        assert FAILPOINTS.stats("history.fetch").fired >= 1
        assert _pairs(db, hub, t) == [(gid, i) for i, gid in enumerate(spokes)]

    def test_quarantined_neighbour_degrades_alone(self):
        db, hub, spokes, t = _fan(degraded_reads="current-only")
        db.history.quarantine.add("vertex", spokes[1], 0, db.now())
        assert _pairs(db, hub, t) == [
            (gid, i) for i, gid in enumerate(spokes) if i != 1
        ]
        resilience = db.metrics()["resilience"]
        assert resilience["quarantined_reads"] == 1
        assert resilience["breaker"]["state"] != BREAKER_OPEN

    def test_failpoint_hits_equal_objects_fetched(self):
        script = _Script(4096)
        for _stage in _stages(script):
            pass
        db, metrics = script.db, script.db.history.read_metrics
        stats = FAILPOINTS.stats("history.fetch")
        conds = [TemporalCondition.as_of(t) for t in script.commits]
        conds.append(TemporalCondition.between(0, db.now()))
        fetched = 0
        with db.transaction() as txn:
            for cond in conds:
                for src in script.vertices:
                    for vertex in list(db.vertex_versions(txn, script.gid[src], cond)):
                        hits, fetches = stats.hits, metrics.fetches
                        list(db.expand(txn, vertex, cond, "both"))
                        assert stats.hits - hits == metrics.fetches - fetches
                        fetched += metrics.fetches - fetches
        assert fetched > 0

    def test_batch_records_one_breaker_success(self):
        db, hub, spokes, t = _fan()
        breaker = db.resilience.breaker
        successes = breaker.successes_total
        fetches = db.history.read_metrics.fetches
        _pairs(db, hub, t)
        # the hub and the edges are current at t: one batch, four spokes
        assert db.history.read_metrics.fetches - fetches == 4
        assert breaker.successes_total - successes == 1


def _version_lists(store):
    """Objects holding a built segment in the history cache."""
    return sum(
        entry.head is not None or bool(entry.segments)
        for entry in store._cache.values()
    )


class TestBatchCacheFill:
    def test_entries_built_across_an_epoch_are_not_installed(self):
        db, hub, spokes, t = _fan()
        store = db.history
        store.invalidate_caches()
        build = store._replay

        def racing_build(*args):
            built = build(*args)
            with store._cache_lock:  # an epoch lands mid-batch
                store._bump_epoch()
            return built

        store._replay = racing_build
        assert len(_pairs(db, hub, t)) == 4
        assert _version_lists(store) == 0
        store._replay = build
        _pairs(db, hub, t)
        assert _version_lists(store) == 4


class TestChangesBetweenStatements:
    QUERY = "MATCH (h:H)-[:L]->(s:S) TT SNAPSHOT $t RETURN s.i AS i"

    def test_quarantine_added_between_expands_applies_to_the_second(self):
        db, _hub, spokes, t = _fan()
        assert len(db.execute(self.QUERY, {"t": t})) == 4
        db.history.quarantine.add("vertex", spokes[2], 0, db.now())
        with pytest.raises(IntegrityError):
            db.execute(self.QUERY, {"t": t})

    def test_breaker_opened_between_expands_applies_to_the_second(self):
        db, _hub, _spokes, t = _fan(breaker_failure_threshold=1)
        assert len(db.execute(self.QUERY, {"t": t})) == 4
        db.resilience.breaker.record_failure()
        assert db.resilience.breaker.state == BREAKER_OPEN
        with pytest.raises(DegradedModeError):
            db.execute(self.QUERY, {"t": t})


class TestExpandCounters:
    def test_counters_in_metrics_and_prometheus(self):
        db, hub, spokes, t = _fan()
        with db.transaction() as txn:
            db.delete_edge(txn, db.storage.vertex_record(hub).out_edges[0].edge_gid)
        before = dict(db.metrics()["operators"])
        assert len(_pairs(db, hub, db.now())) == 3
        after = db.metrics()["operators"]
        assert after["expand_candidates"] - before["expand_candidates"] == 4
        assert after["expand_edges_rejected"] - before["expand_edges_rejected"] == 1
        assert after["expand_pairs"] - before["expand_pairs"] == 3
        text = db.metrics_text()
        for name in ("expand_candidates", "expand_edges_rejected", "expand_pairs"):
            assert f"aeong_operators_{name}" in text


class TestSnapshotInterval:
    def test_invisible_edge_write_keeps_the_endpoints_content_interval(self):
        """Undoing another writer's edge create or delete restores the
        endpoints' adjacency; their version interval stays the content
        timeline's, so a point read inside it still finds them."""
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["P"], {"n": 0})
            b = db.create_vertex(txn, ["P"], {"n": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, b, "n", 1)
        t = db.now()
        with db.transaction() as txn:
            edge = db.create_edge(txn, a, b, "L")
        db.collect_garbage()
        cond = TemporalCondition.as_of(t)

        def at_t():
            with db.transaction() as txn:
                versions = db.vertex_versions(txn, b, cond)
                return [(v.tt_start, v.properties["n"]) for v in versions]

        expected = at_t()
        assert [n for _s, n in expected] == [1]
        writer = db.begin()
        db.delete_edge(writer, edge)
        db.create_edge(writer, b, a, "L")
        try:
            assert at_t() == expected
        finally:
            db.abort(writer)
