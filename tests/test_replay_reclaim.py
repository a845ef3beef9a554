"""Replay reclaims like a live commit.

Recovery (:meth:`AeonG.open`'s WAL replay) and replica apply
(:meth:`AeonG.apply_replicated`) commit through the GC cadence of a
live commit, so every path that builds an engine from the log ends
with the history store, and the undo-chain debt, of the engine that
wrote it:

- **differential**: after ``collect_garbage()`` on both sides, a
  recovered engine's history KV bytes equal the original's, and a
  replica's equal its primary's — across more than four GC intervals,
  with anchors at ``u = 2`` — and the TT point / slice grid answers
  alike with a history cache of 0 and of the default size;
- **bounded debt**: after an open or an apply of more than four
  intervals of records, fewer than two intervals of transactions wait
  for GC;
- **anchor cadence**: an engine checkpointed and reopened mid-way
  places its anchors where a twin that never reopened does (same
  history KV bytes, no ``anchor-spacing`` finding), the cadence being
  read from the stored history;
- **streaming readers**: a catch-up fetch decodes no frame past its
  ``limit``, and a replication-fenced truncation none past the first
  frame it keeps.
"""

from __future__ import annotations

import random

import pytest

from repro import AeonG
from repro.core import durability
from repro.core.temporal import TemporalCondition
from repro.integrity import Scrubber
from repro.replication import ReplicationConfig

INTERVAL = 8
#: more than four GC intervals of commits
COMMITS = 5 * INTERVAL + 3
SETTINGS = dict(gc_interval_transactions=INTERVAL, anchor_interval=2)


def _workload(db, seed=3):
    """Seeded property updates, label flips and edge churn over six
    vertices, each commit journaled; returns the vertex gids and every
    commit timestamp."""
    rng = random.Random(seed)
    stamps = []
    labelled = set()

    def commit(fn):
        with db.transaction() as txn:
            result = fn(txn)
        stamps.append(txn.commit_ts)
        return result

    vertices = [
        commit(lambda txn, i=i: db.create_vertex(txn, ["P"], {"i": i, "v": 0}))
        for i in range(6)
    ]
    edges = []
    while len(stamps) < COMMITS:
        step = len(stamps)
        roll = rng.random()
        gid = rng.choice(vertices)
        if roll < 0.5:
            commit(lambda txn: db.set_vertex_property(txn, gid, "v", step))
        elif roll < 0.7:
            flip = db.remove_label if gid in labelled else db.add_label
            commit(lambda txn: flip(txn, gid, "Q"))
            labelled ^= {gid}
        elif roll < 0.85 or not edges:
            other = rng.choice([v for v in vertices if v != gid])
            edges.append(
                commit(lambda txn: db.create_edge(txn, gid, other, "K", {"w": step}))
            )
        else:
            edge = edges.pop(rng.randrange(len(edges)))
            commit(lambda txn: db.delete_edge(txn, edge))
    return vertices, stamps


def _vertex(view):
    return (
        view.gid, view.tt_start, view.tt_end,
        tuple(sorted(view.labels)), tuple(sorted(view.properties.items())),
    )


def _answers(db, vertices, stamps):
    """TT points at every commit ts +-1 (with expand both ways) and
    slices over every adjacent pair."""
    txn = db.manager.begin_readonly()
    out = []
    try:
        grid = sorted({t + d for t in stamps for d in (-1, 0, 1)})
        for gid in vertices:
            for t in grid:
                cond = TemporalCondition.as_of(t)
                versions = list(db.vertex_versions(txn, gid, cond))
                out.append(("point", gid, t, [_vertex(v) for v in versions]))
                for view in versions:
                    out.append(("expand", gid, t, sorted(
                        (e.gid, e.tt_start, e.tt_end, n.gid)
                        for e, n in db.expand(txn, view, cond, "both")
                    )))
            for t1, t2 in zip(stamps, stamps[1:]):
                cond = TemporalCondition.between(t1, t2)
                out.append(("slice", gid, t1, t2, sorted(
                    _vertex(v) for v in db.vertex_versions(txn, gid, cond)
                )))
    finally:
        db.abort(txn)
    return out


def _settled_history(db):
    db.maintenance.settle()
    db.collect_garbage()
    return list(db.history.kv.scan_all())


def _pending(db):
    return len(db.manager.committed_pending_gc)


class TestRecovery:
    def test_recovered_history_bytes_and_answers_match_the_original(
        self, tmp_path
    ):
        home = tmp_path / "data"
        original = AeonG.open(home, **SETTINGS)
        vertices, stamps = _workload(original)
        history = _settled_history(original)
        answers = _answers(original, vertices, stamps)
        original.close()
        assert history
        for cache in (0, 4096):
            db = AeonG.open(home, reconstruction_cache_size=cache, **SETTINGS)
            try:
                assert db.last_recovery.transactions_replayed == COMMITS
                assert db.migrator.migrations == COMMITS // INTERVAL
                assert _pending(db) < 2 * INTERVAL
                assert _settled_history(db) == history
                assert _answers(db, vertices, stamps) == answers
            finally:
                db.close()

    def test_no_interval_no_epoch(self, tmp_path):
        """``gc_interval_transactions=0`` runs no epoch on replay, as on
        the live path: every replayed transaction waits for GC."""
        home = tmp_path / "data"
        db = AeonG.open(home, **SETTINGS)
        _workload(db)
        db.close()
        db = AeonG.open(home, gc_interval_transactions=0, anchor_interval=2)
        try:
            assert db.migrator.migrations == 0
            assert _pending(db) == COMMITS
        finally:
            db.close()


def _churn(db, rng, vertices, edges, steps):
    """Seeded SETs and edge churn, one change per commit, with a GC
    epoch every fifth commit."""
    for step in range(steps):
        gid = rng.choice(vertices)
        roll = rng.random()
        with db.transaction() as txn:
            if roll < 0.6:
                db.set_vertex_property(txn, gid, "v", step)
            elif roll < 0.85 or not edges:
                other = rng.choice([v for v in vertices if v != gid])
                edges.append(db.create_edge(txn, gid, other, "K", {"w": step}))
            else:
                db.delete_edge(txn, edges.pop(rng.randrange(len(edges))))
        if step % 5 == 4:
            db.collect_garbage()


@pytest.mark.integrity
class TestAnchorCadenceAcrossReopen:
    @pytest.mark.parametrize("u", [1, 2, 3])
    def test_reopened_engine_anchors_like_its_twin(self, tmp_path, u):
        settings = dict(gc_interval_transactions=0, anchor_interval=u)
        outcomes = []
        for reopen in (True, False):
            home = tmp_path / f"reopen-{reopen}"
            db = AeonG.open(home, **settings)
            rng = random.Random(u)
            with db.transaction() as txn:
                vertices = [db.create_vertex(txn, ["P"], {"v": 0}) for _ in range(3)]
            edges = []
            _churn(db, rng, vertices, edges, 13)
            db.collect_garbage()
            if reopen:
                db.checkpoint()
                db.close()
                db = AeonG.open(home, **settings)
            try:
                _churn(db, rng, vertices, edges, 24)
                history = _settled_history(db)
                report = Scrubber(db).scrub_full()
            finally:
                db.close()
            assert not [f for f in report.findings if f.code == "anchor-spacing"]
            outcomes.append(history)
        reopened, twin = outcomes
        assert any(key[1:2] == b"A" for key, _value in twin)
        assert reopened == twin


@pytest.mark.replication
class TestReplicaApply:
    def test_replica_history_bytes_and_answers_match_the_primary(self):
        primary = AeonG(**SETTINGS)
        vertices, stamps = _workload(primary)
        records = primary.replication.records_from(1, 10_000)
        assert len(records) == COMMITS
        history = _settled_history(primary)
        answers = _answers(primary, vertices, stamps)
        primary.close()
        assert history
        for cache in (0, 4096):
            replica = AeonG(
                reconstruction_cache_size=cache,
                replication=ReplicationConfig(
                    role="replica",
                    replica_id="replica-1",
                    primary_host="127.0.0.1",
                    primary_port=1,
                ),
                **SETTINGS,
            )
            try:
                for ts, ops in records:
                    assert replica.apply_replicated(ts, ops)
                    assert _pending(replica) < 2 * INTERVAL
                assert replica.migrator.migrations > 0
                assert _settled_history(replica) == history
                assert _answers(replica, vertices, stamps) == answers
            finally:
                replica.close()


@pytest.mark.replication
class TestStreamingReaders:
    def _durable(self, home, commits):
        db = AeonG.open(home, gc_interval_transactions=0)
        for i in range(commits):
            with db.transaction() as txn:
                db.create_vertex(txn, ["P"], {"i": i})
        return db

    @staticmethod
    def _count_decodes(monkeypatch):
        decoded = []
        original = durability._decode_frame

        def counting(payload):
            decoded.append(len(payload))
            return original(payload)

        monkeypatch.setattr(durability, "_decode_frame", counting)
        return decoded

    def test_catch_up_fetch_decodes_only_what_it_ships(
        self, tmp_path, monkeypatch
    ):
        """After a restart the ring is empty and a fetch falls back to
        the WAL: it decodes ``limit`` frames (one commit each), not the
        whole log."""
        home = tmp_path / "data"
        self._durable(home, 40).close()
        db = AeonG.open(home, gc_interval_transactions=0)
        try:
            decoded = self._count_decodes(monkeypatch)
            # commits land on even timestamps: 2, 4, ..., 80
            records = db.replication.records_from(21, 5)
            assert [ts for ts, _ops in records] == [22, 24, 26, 28, 30]
            assert len(decoded) == 15
        finally:
            db.close()

    def test_fenced_truncation_stops_at_the_first_kept_frame(
        self, tmp_path, monkeypatch
    ):
        home = tmp_path / "data"
        db = self._durable(home, 40)
        try:
            db.replication.register_replica("r1", 20, 1)
            decoded = self._count_decodes(monkeypatch)
            db.checkpoint()
            # ten frames (ts 2..20) dropped, ts 22's is the first kept
            assert len(decoded) == 11
            assert db.wal_truncation_fence() == 20
            assert db.wal_records_from(0, 1)[0][0] == 22
        finally:
            db.close()
