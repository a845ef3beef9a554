"""Robustness and error-path tests across components."""

from __future__ import annotations

import random

import pytest

from repro import AeonG, TemporalCondition
from repro.baselines import ClockGBackend, TGQLBackend
from repro.baselines.interface import (
    ADD_EDGE,
    ADD_VERTEX,
    DELETE_VERTEX,
    GraphOp,
    UPDATE_VERTEX,
)
from repro.errors import (
    EdgeNotFound,
    ExecutionError,
    QueryError,
    StorageError,
    VertexNotFound,
)
from repro.kvstore import KVStore


class TestEngineErrorPaths:
    def test_operations_on_missing_objects(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"])
        txn = db.begin()
        with pytest.raises(VertexNotFound):
            db.set_vertex_property(txn, 999, "x", 1)
        with pytest.raises(EdgeNotFound):
            db.delete_edge(txn, 998)
        with pytest.raises(VertexNotFound):
            db.create_edge(txn, gid, 999, "T")
        db.abort(txn)

    def test_transaction_context_rolls_back_on_error(self):
        db = AeonG(gc_interval_transactions=0)
        with pytest.raises(VertexNotFound):
            with db.transaction() as txn:
                db.create_vertex(txn, ["X"], {"marker": 1})
                db.set_vertex_property(txn, 999, "x", 1)
        rows = db.execute("MATCH (n:X) RETURN count(*) AS c")
        assert rows == [{"c": 0}]

    def test_query_error_does_not_poison_engine(self):
        db = AeonG(gc_interval_transactions=0)
        db.execute("CREATE (n:X {v: 1})")
        for bad in [
            "MATCH (n RETURN n",
            "MATCH (n) RETURN unknown_function(n)",
            "MATCH (n) TT SNAPSHOT 'x' RETURN n",
        ]:
            with pytest.raises((QueryError, ExecutionError)):
                db.execute(bad)
        assert db.execute("MATCH (n:X) RETURN n.v") == [{"n.v": 1}]

    def test_temporal_condition_before_any_commit(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            db.create_vertex(txn, ["X"])
        with db.transaction() as txn:
            assert list(db.vertices_as_of(txn, 0, label="X")) == []

    def test_expand_on_isolated_vertex(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"])
        txn = db.begin()
        view = next(db.vertex_versions(txn, gid, TemporalCondition.as_of(db.now())))
        assert list(db.expand(txn, view, TemporalCondition.as_of(db.now()))) == []
        db.abort(txn)

    def test_bad_expand_direction(self):
        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["X"])
        txn = db.begin()
        view = next(db.vertex_versions(txn, gid, TemporalCondition.as_of(db.now())))
        with pytest.raises(ValueError):
            list(db.expand(txn, view, TemporalCondition.as_of(db.now()),
                           direction="sideways"))
        db.abort(txn)


class TestBaselineRobustness:
    def test_tgql_vertex_delete_closes_everything(self):
        backend = TGQLBackend()
        backend.apply(GraphOp(ADD_VERTEX, 1, "v:0", label="V",
                              properties={"a": 1}))
        backend.apply(GraphOp(ADD_VERTEX, 2, "v:1", label="V", properties={}))
        backend.apply(GraphOp(ADD_EDGE, 3, "e:0", label="L",
                              src="v:0", dst="v:1"))
        backend.apply(GraphOp(DELETE_VERTEX, 4, "v:0"))
        assert backend.vertex_at("v:0", 5) is None
        assert backend.vertex_at("v:0", 3) == {"a": 1}
        assert backend.neighbors_at("v:1", 5, "in") == []
        assert len(backend.neighbors_at("v:1", 3, "in")) == 1

    def test_clockg_delete_vertex_cleans_adjacency(self):
        backend = ClockGBackend(snapshot_interval=2)
        backend.apply(GraphOp(ADD_VERTEX, 1, "v:0", label="V", properties={}))
        backend.apply(GraphOp(ADD_VERTEX, 2, "v:1", label="V", properties={}))
        backend.apply(GraphOp(ADD_EDGE, 3, "e:0", label="L",
                              src="v:0", dst="v:1"))
        backend.apply(GraphOp(DELETE_VERTEX, 4, "v:0"))
        backend.apply(GraphOp(UPDATE_VERTEX, 5, "v:1", prop="x", value=1))
        assert backend.neighbors_at("v:1", 6, "in") == []
        assert len(backend.neighbors_at("v:1", 3, "in")) == 1

    def test_clockg_unknown_vertex(self):
        backend = ClockGBackend(snapshot_interval=10)
        assert backend.vertex_at("ghost", 5) is None
        assert backend.vertex_between("ghost", 0, 5) == []


class TestKVStoreScale:
    def test_many_keys_with_flushes(self):
        rng = random.Random(3)
        store = KVStore()
        model = {}
        for i in range(3000):
            key = f"key-{rng.randrange(800):04d}".encode()
            if rng.random() < 0.15:
                store.delete(key)
                model.pop(key, None)
            else:
                value = f"value-{i}".encode()
                store.put(key, value)
                model[key] = value
            if i % 97 == 0:
                store.flush()
        assert dict(store.scan_all()) == model
        # Point reads across the memtable and the flushed run.
        store.put(b"key-0000", b"staged")
        model[b"key-0000"] = b"staged"
        for probe in range(800):
            key = f"key-{probe:04d}".encode()
            assert store.get(key) == model.get(key)

    def test_save_load_large(self, tmp_path):
        store = KVStore()
        for i in range(1500):
            store.put(f"k{i:05d}".encode(), (b"v" * (i % 17)) or b"-")
        store.save(tmp_path / "big")
        loaded = KVStore.load(tmp_path / "big")
        assert len(loaded) == 1500
        assert loaded.get(b"k01499") is not None


class TestDurabilityErrorPaths:
    def test_unknown_opcode_rejected(self, tmp_path):
        from repro.core.durability import EngineWal, replay_into

        wal = EngineWal(tmp_path)
        wal.append(5, [("zz", 1)])
        wal.close()
        db = AeonG(gc_interval_transactions=0)
        replay_wal = EngineWal(tmp_path)
        with pytest.raises(StorageError):
            replay_into(db, replay_wal)
        replay_wal.close()

    def test_forced_commit_ts_must_advance(self):
        from repro.errors import TransactionStateError

        db = AeonG(gc_interval_transactions=0)
        with db.transaction() as txn:
            db.create_vertex(txn, ["X"])
        txn = db.begin()
        db.create_vertex(txn, ["X"])
        with pytest.raises(TransactionStateError):
            db.manager.commit(txn, commit_ts=1)  # in the past
        db.abort(txn)
