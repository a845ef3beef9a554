"""End-to-end engine tests: the hybrid store, migration, temporal
operators, and a random-history oracle check.

The oracle test is the heart of the suite: it applies a random
operation sequence, remembers the expected state after every commit,
garbage-collects at random points, and then asserts that
``TT SNAPSHOT t`` reproduces the remembered state for *every* commit
timestamp — regardless of how the history is split between the
current store (unreclaimed deltas) and the KV store (reclaimed
deltas + anchors).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import AeonG, GraphModel, TemporalCondition
from repro.errors import (
    ConstraintViolation,
    ImmutableHistoryError,
    TemporalError,
)


class TestHybridLifecycle:
    def test_history_survives_garbage_collection(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"balance": 270})
        t_old = db.now()
        for value in (260, 250, 240):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "balance", value)
        db.collect_garbage()
        assert db.storage.vertex_record(gid).delta_head is None
        with db.transaction() as txn:
            old = next(db.vertices_as_of(txn, t_old - 1, label="C"))
            assert old.properties["balance"] == 270

    def test_slice_returns_all_versions(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        for value in range(1, 6):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()
        with db.transaction() as txn:
            versions = list(db.vertices_between(txn, 0, db.now(), label="C"))
        assert [v.properties["v"] for v in versions] == [5, 4, 3, 2, 1, 0]

    def test_versions_split_across_stores(self, db):
        """Some versions reclaimed, some still chained: both found."""
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        for value in (1, 2):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()  # v0, v1 reclaimed
        pin = db.begin()  # pins later versions in the current store
        for value in (3, 4):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()  # v2, v3 stay: pinned by `pin`
        assert db.storage.vertex_record(gid).delta_head is not None
        with db.transaction() as txn:
            versions = list(db.vertices_between(txn, 0, db.now(), label="C"))
        assert [v.properties["v"] for v in versions] == [4, 3, 2, 1, 0]
        db.abort(pin)

    def test_deleted_vertex_found_only_historically(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 1})
        t_alive = db.now()
        with db.transaction() as txn:
            db.delete_vertex(txn, gid)
        db.collect_garbage()
        assert db.storage.vertex_record(gid) is None
        with db.transaction() as txn:
            assert list(db.vertices_as_of(txn, db.now(), label="C")) == []
            old = list(db.vertices_as_of(txn, t_alive - 1, label="C"))
            assert len(old) == 1 and old[0].properties["v"] == 1

    def test_expand_through_deleted_edge(self, db):
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["P"], {"n": "a"})
            b = db.create_vertex(txn, ["P"], {"n": "b"})
            eid = db.create_edge(txn, a, b, "KNOWS", {"w": 1})
        t_connected = db.now()
        with db.transaction() as txn:
            db.delete_edge(txn, eid)
        db.collect_garbage()
        with db.transaction() as txn:
            cond = TemporalCondition.as_of(t_connected - 1)
            vertex = next(db.vertex_versions(txn, a, cond))
            pairs = list(db.expand(txn, vertex, cond))
            assert len(pairs) == 1
            edge, neighbour = pairs[0]
            assert edge.edge_type == "KNOWS"
            assert neighbour.properties["n"] == "b"
            # And the edge is gone now:
            now_cond = TemporalCondition.as_of(db.now())
            current = next(db.vertex_versions(txn, a, now_cond))
            assert list(db.expand(txn, current, now_cond)) == []

    def test_anchor_interval_zero_still_correct(self):
        db = AeonG(anchor_interval=0, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        stamps = []
        for value in range(1, 20):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
            stamps.append((db.now() - 1, value))
        db.collect_garbage()
        assert db.history.anchors_written == 0
        with db.transaction() as txn:
            for t, value in stamps:
                view = next(db.vertex_versions(txn, gid, TemporalCondition.as_of(t)))
                assert view.properties["v"] == value

    def test_anchors_written_at_interval(self):
        db = AeonG(anchor_interval=5, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        for value in range(1, 21):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()
        assert db.history.anchors_written >= 3

    def test_automatic_gc_triggering(self):
        db = AeonG(gc_interval_transactions=5)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        for value in range(1, 20):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        assert db.gc.runs > 0
        assert db.history.records_written > 0


class TestTemporalConstraints:
    def test_reserved_properties_blocked(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"])
            with pytest.raises(ImmutableHistoryError):
                db.set_vertex_property(txn, gid, "_tt_start", 5)
            with pytest.raises(ImmutableHistoryError):
                db.create_vertex(txn, ["C"], {"_tt_end": 1})

    def test_valid_time_rejected_in_tt_model(self):
        db = AeonG(model=GraphModel.TRANSACTION_TIME, gc_interval_transactions=0)
        with db.transaction() as txn:
            with pytest.raises(TemporalError):
                db.create_vertex(txn, ["C"], valid_time=(1, 5))

    def test_edge_vt_containment_enforced(self):
        db = AeonG(enforce_vt_constraints=True, gc_interval_transactions=0)
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["P"], valid_time=(10, 20))
            b = db.create_vertex(txn, ["P"], valid_time=(10, 20))
            db.create_edge(txn, a, b, "T", valid_time=(12, 18))  # fine
            with pytest.raises(ConstraintViolation):
                db.create_edge(txn, a, b, "T", valid_time=(5, 18))

    def test_temporal_queries_rejected_without_temporal(self, db_no_temporal):
        with db_no_temporal.transaction() as txn:
            with pytest.raises(TemporalError):
                next(db_no_temporal.vertices_as_of(txn, 1))

    def test_no_temporal_engine_discards_history(self, db_no_temporal):
        db = db_no_temporal
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"], {"v": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", 1)
        db.collect_garbage()
        assert db.history.records_written == 0
        assert db.history.storage_bytes() == 0


class TestSetValidTime:
    """``set_valid_time`` rewrites the user-maintained VT of one object."""

    VT = "RETURN vt_start({v}) AS s, vt_end({v}) AS e"

    def _vt(self, db, pattern, var, at=None):
        tt = "" if at is None else f" TT SNAPSHOT {at}"
        rows = db.execute(f"MATCH {pattern}{tt} " + self.VT.format(v=var))
        return [(row["s"], row["e"]) for row in rows]

    def _pair(self, db):
        with db.transaction() as txn:
            a = db.create_vertex(txn, ["P"], valid_time=(10, 20))
            b = db.create_vertex(txn, ["P"], valid_time=(10, 20))
            e = db.create_edge(txn, a, b, "T", valid_time=(12, 18))
        return a, b, e

    def test_updates_are_current_not_historical(self, db):
        a, _b, e = self._pair(db)
        before = db.now()
        with db.transaction() as txn:
            db.set_valid_time(txn, "vertex", a, 11, 19)
            db.set_valid_time(txn, "edge", e, 13, 17)
        assert (11, 19) in self._vt(db, "(n:P)", "n")
        assert self._vt(db, "()-[r:T]->()", "r") == [(13, 17)]
        assert (11, 19) not in self._vt(db, "(n:P)", "n", at=before)
        assert self._vt(db, "()-[r:T]->()", "r", at=before) == [(12, 18)]

    def test_rejected_in_tt_model(self):
        db = AeonG(model=GraphModel.TRANSACTION_TIME, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["C"])
            with pytest.raises(TemporalError):
                db.set_valid_time(txn, "vertex", gid, 1, 5)

    def test_edge_outside_endpoint_vt_is_a_violation(self):
        db = AeonG(enforce_vt_constraints=True, gc_interval_transactions=0)
        _a, _b, e = self._pair(db)
        with db.transaction() as txn:
            db.set_valid_time(txn, "edge", e, 10, 20)  # fine
            with pytest.raises(ConstraintViolation):
                db.set_valid_time(txn, "edge", e, 5, 18)

    def test_unknown_kind(self, db):
        a, _b, _e = self._pair(db)
        with db.transaction() as txn:
            with pytest.raises(ValueError):
                db.set_valid_time(txn, "path", a, 1, 5)

    def test_survives_close_and_open(self, tmp_path):
        db = AeonG.open(tmp_path / "db", gc_interval_transactions=0)
        a, _b, e = self._pair(db)
        with db.transaction() as txn:
            db.set_valid_time(txn, "vertex", a, 11, 19)
            db.set_valid_time(txn, "edge", e, 13, 17)
        db.close()
        reopened = AeonG.open(tmp_path / "db", gc_interval_transactions=0)
        try:
            assert sorted(self._vt(reopened, "(n:P)", "n")) == [(10, 20), (11, 19)]
            assert self._vt(reopened, "()-[r:T]->()", "r") == [(13, 17)]
        finally:
            reopened.close()


class TestOracleRandomHistories:
    """Compare the engine against an exhaustive remembered history."""

    def _run(self, seed: int, ops: int, gc_prob: float, anchor_interval: int):
        rng = random.Random(seed)
        db = AeonG(anchor_interval=anchor_interval, gc_interval_transactions=0)
        expected: dict[int, dict[int, dict]] = {}  # commit ts -> gid -> props
        gids: list[int] = []
        alive: dict[int, dict] = {}

        def snapshot(commit_ts):
            expected[commit_ts] = {g: dict(p) for g, p in alive.items()}

        for step in range(ops):
            action = rng.random()
            txn = db.begin()
            if action < 0.25 or not gids:
                props = {"v": step, "tag": f"s{step}"}
                gid = db.create_vertex(txn, ["X"], props)
                gids.append(gid)
                alive[gid] = props
            elif action < 0.80:
                gid = rng.choice(gids)
                if gid in alive:
                    value = rng.randrange(1000)
                    prop = rng.choice(["v", "extra"])
                    db.set_vertex_property(txn, gid, prop, value)
                    alive[gid][prop] = value
                else:
                    db.abort(txn)
                    continue
            else:
                gid = rng.choice(gids)
                if gid in alive:
                    db.delete_vertex(txn, gid)
                    del alive[gid]
                else:
                    db.abort(txn)
                    continue
            commit_ts = db.commit(txn)
            snapshot(commit_ts)
            if rng.random() < gc_prob:
                db.collect_garbage()
        db.collect_garbage()

        reader = db.begin()
        for commit_ts, state in expected.items():
            for gid in gids:
                versions = list(
                    db.vertex_versions(
                        reader, gid, TemporalCondition.as_of(commit_ts)
                    )
                )
                if gid in state:
                    assert len(versions) == 1, (seed, commit_ts, gid, versions)
                    assert versions[0].properties == state[gid], (
                        seed,
                        commit_ts,
                        gid,
                    )
                else:
                    assert versions == [], (seed, commit_ts, gid, versions)
        db.abort(reader)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_match_oracle(self, seed):
        self._run(seed=seed, ops=60, gc_prob=0.15, anchor_interval=3)

    def test_oracle_without_anchors(self):
        self._run(seed=100, ops=50, gc_prob=0.2, anchor_interval=0)

    def test_oracle_anchor_every_record(self):
        self._run(seed=101, ops=50, gc_prob=0.2, anchor_interval=1)

    def test_oracle_single_final_gc(self):
        self._run(seed=102, ops=50, gc_prob=0.0, anchor_interval=4)


@given(
    updates=st.lists(st.integers(0, 999), min_size=1, max_size=25),
    gc_points=st.sets(st.integers(0, 24), max_size=5),
    anchor_interval=st.sampled_from([0, 1, 2, 5]),
)
@settings(max_examples=60, deadline=None)
def test_single_object_full_history_property(updates, gc_points, anchor_interval):
    """Every intermediate value of one object is retrievable at its
    commit timestamp, under arbitrary GC interleavings and anchor
    settings."""
    db = AeonG(anchor_interval=anchor_interval, gc_interval_transactions=0)
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["X"], {"v": -1})
    timeline = [(db.now() - 1, -1)]
    for index, value in enumerate(updates):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "v", value)
        timeline.append((db.now() - 1, value))
        if index in gc_points:
            db.collect_garbage()
    db.collect_garbage()
    reader = db.begin()
    for ts, value in timeline:
        view = next(db.vertex_versions(reader, gid, TemporalCondition.as_of(ts)))
        assert view.properties["v"] == value
    # Slice over everything sees every distinct version.  Writing the
    # same value again is a no-op (no delta, like Memgraph), so
    # consecutive duplicates collapse into one version.
    expected_values = []
    for _ts, value in timeline:
        if not expected_values or expected_values[-1] != value:
            expected_values.append(value)
    versions = list(
        db.vertex_versions(reader, gid, TemporalCondition.between(0, db.now()))
    )
    assert [v.properties["v"] for v in versions] == list(reversed(expected_values))
    db.abort(reader)
