"""Read-path performance layer (reconstruction cache, record counts,
preload) and its correctness contract.

Covers: output equality over the full (t1, t2) grid between a kept
cache and cache size 0, and against Clock-G's answers, the half-open
seam boundary in ``_object_versions`` (the ``base.tt_start >=
cond.t1`` guard), epoch invalidation on migration
commits / ``prune()`` / integrity repair, quarantine precedence over a
warm cache, the ``ReadMetrics`` counters (no KV seeks on warm
re-reads, no double counting), scan-at-t with concurrent and aborted
writers, the unindexed scan's candidate rosters (differential against
brute force across the whole maintenance lifecycle, under concurrent
writers), view isolation from later uncommitted or rolled-back writes,
reconstructed adjacency on the cached point path against builds at
cache size 0 and edge lifetimes, served views sharing the cache's
containers without aliasing writes, expand's batched preload, the KV
layer's bounded range scan, the anchor segment's bound on a cold read,
and an undecodable key met by a read.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import sys
import threading
from contextlib import nullcontext
from functools import partial
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AeonG, IntegrityError, TemporalCondition
from repro.cli import run as cli_run
from repro.common.timeutil import MAX_TIMESTAMP
from repro.baselines import interface
from repro.baselines.clockg import ClockGBackend
from repro.baselines.interface import GraphOp
from repro.core import keys as hk
from repro.core import operators
from repro.core.deltas import RecordDraft, encode_record_payload
from repro.core.history_store import HistoricalStore, _base_sig, _Entry
from repro.faults import FAILPOINTS, corrupt_bytes
from repro.graph.vertex import EdgeRef
from repro.graph.views import VertexView, oldest_unreclaimed_view, version_iterator
from repro.integrity import Scrubber
from repro.kvstore import KVStore, WriteBatch
from repro.mvcc.delta import Delta, DeltaAction
from repro.resilience import ResilienceConfig

pytestmark = pytest.mark.read_path


@pytest.fixture(autouse=True)
def _clean_registry():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


# -- shared scenario builders -------------------------------------------------


def _vsig(view):
    return (
        view.tt_start,
        view.tt_end,
        tuple(sorted(view.labels)),
        tuple(sorted(view.properties.items())),
    )


def _esig(view):
    return (
        view.tt_start,
        view.tt_end,
        tuple(sorted(view.properties.items())),
    )


def _history_rich_db(cache_size=4096, anchor_interval=3, clock=None):
    """Two vertices and an edge with reclaimed history on every
    segment: property versions, structural (topology) records, a
    deleted edge, a fully reclaimed vertex, and an anchor staged at a
    structural commit (the mid-version anchor case).  With ``clock``
    (a :class:`ClockGBackend`), each commit is also applied to it, at
    its commit timestamp, as ops on ``"a"``, ``"b"`` and ``"e"``."""
    db = AeonG(
        anchor_interval=anchor_interval,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )

    def mirror(txn, *ops):
        for op in ops if clock is not None else ():
            clock.apply(GraphOp(ts=txn.commit_ts, **op))

    with db.transaction() as txn:
        a = db.create_vertex(txn, labels=["P"], properties={"n": 0})
        b = db.create_vertex(txn, labels=["Q"], properties={"m": 0})
    mirror(
        txn,
        dict(kind=interface.ADD_VERTEX, ext_id="a", label="P", properties={"n": 0}),
        dict(kind=interface.ADD_VERTEX, ext_id="b", label="Q", properties={"m": 0}),
    )
    for i in range(1, 9):
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", i)
        mirror(txn, dict(kind=interface.UPDATE_VERTEX, ext_id="a", prop="n", value=i))
    with db.transaction() as txn:
        e = db.create_edge(txn, a, b, "KNOWS", properties={"w": 0})
    mirror(
        txn,
        dict(kind=interface.ADD_EDGE, ext_id="e", label="KNOWS", src="a", dst="b",
             properties={"w": 0}),
    )
    for i in range(1, 5):
        with db.transaction() as txn:
            db.set_edge_property(txn, e, "w", i)
        mirror(txn, dict(kind=interface.UPDATE_EDGE, ext_id="e", prop="w", value=i))
    with db.transaction() as txn:
        db.delete_edge(txn, e)
    mirror(txn, dict(kind=interface.DELETE_EDGE, ext_id="e"))
    with db.transaction() as txn:
        db.delete_vertex(txn, b)
    mirror(txn, dict(kind=interface.DELETE_VERTEX, ext_id="b"))
    db.collect_garbage()
    for i in range(9, 13):
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", i)
        mirror(txn, dict(kind=interface.UPDATE_VERTEX, ext_id="a", prop="n", value=i))
    db.collect_garbage()
    return db, a, b, e


def _versions(db, kind, gid, cond):
    with db.transaction() as txn:
        fetch = db.vertex_versions if kind == "vertex" else db.edge_versions
        sig = _vsig if kind == "vertex" else _esig
        return [sig(v) for v in fetch(txn, gid, cond)]


def _grid(db, kind, gid, hi):
    """Every point and slice query output over [0, hi]."""
    out = []
    for t in range(hi + 1):
        out.append(("point", t, _versions(db, kind, gid, TemporalCondition.as_of(t))))
    for t1 in range(hi + 1):
        for t2 in range(t1, hi + 1):
            out.append(
                ("slice", t1, t2, _versions(db, kind, gid, TemporalCondition.between(t1, t2)))
            )
    return out


def _clock_grid(clock, ext, hi):
    """What :func:`_grid` reads as properties only, from Clock-G: its
    own snapshots and log replay, sharing no code with the engine.  An
    edge's state at ``t`` comes from its source's neighbour list, and
    its slice lists each distinct state the slice passes through (every
    edge write here changes its properties)."""
    if ext == "e":
        at = {}
        for t in range(hi + 1):
            hits = [h for h in clock.neighbors_at("a", t, "out") if h.neighbor_ext_id == "b"]
            at[t] = hits[0].edge_properties if hits else None

        def between(t1, t2):
            states = [at[t] for t in range(t1, t2 + 1) if at[t] is not None]
            distinct = [s for i, s in enumerate(states) if i == 0 or s != states[i - 1]]
            return distinct[::-1]
    else:
        at = {t: clock.vertex_at(ext, t) for t in range(hi + 1)}
        between = partial(clock.vertex_between, ext)
    out = []
    for t in range(hi + 1):
        out.append(("point", t, [] if at[t] is None else [_props(at[t])]))
    for t1 in range(hi + 1):
        for t2 in range(t1, hi + 1):
            out.append(("slice", t1, t2, [_props(state) for state in between(t1, t2)]))
    return out


def _props(state):
    return tuple(sorted(state.items()))


def _grid_props(grid):
    """A :func:`_grid` with each version reduced to its properties."""
    return [(*row[:-1], [sig[-1] for sig in row[-1]]) for row in grid]


# -- cache size 0 vs a kept cache, and an independent reference ---------------


class TestCachedEqualsUncached:
    """Cache size 0 builds each segment and drops it; 4096 keeps and
    extends them.  Both equal each other, and their properties equal
    Clock-G's answers to the same commits."""

    @pytest.mark.parametrize("kind_attr", ["a", "b", "e"])
    def test_full_grid_matches_uncached(self, kind_attr):
        clock = ClockGBackend(snapshot_interval=5)
        cold, a0, b0, e0 = _history_rich_db(cache_size=0, clock=clock)
        warm, a1, b1, e1 = _history_rich_db(cache_size=4096)
        assert (a0, b0, e0) == (a1, b1, e1)  # deterministic timestamps
        kind = "edge" if kind_attr == "e" else "vertex"
        gid = {"a": a0, "b": b0, "e": e0}[kind_attr]
        hi = cold.now()
        truth = _grid(cold, kind, gid, hi)
        assert _grid_props(truth) == _clock_grid(clock, kind_attr, hi)
        populate = _grid(warm, kind, gid, hi)  # first pass fills the cache
        served = _grid(warm, kind, gid, hi)  # second pass is all hits
        assert populate == truth
        assert served == truth
        metrics = warm.history.read_path_metrics()
        assert metrics["cache_hits"] > 0
        assert metrics["reconstructions_avoided"] > 0

    def test_cache_disabled_reports_empty(self):
        db, a, _b, _e = _history_rich_db(cache_size=0)
        _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        metrics = db.history.read_path_metrics()
        assert metrics["cache_entries"] == 0
        assert metrics["cache_capacity"] == 0
        assert metrics["cache_hits"] == 0


# -- satellite: the reclaim-seam boundary in _object_versions -----------------


class TestSeamBoundary:
    """Property-style sweeps of ``t1`` across the reclaim seam: the
    slice/point outputs must equal the half-open-interval selection
    from the full version set, for every boundary value.  A guard that
    skips the KV fetch when the window merely abuts the oldest
    unreclaimed version (the old strict ``>``) would fail the sweep if
    the seam ever stopped tiling exactly."""

    @pytest.mark.parametrize("cache_size", [0, 4096])
    @pytest.mark.parametrize("kind_attr", ["a", "b", "e"])
    def test_t1_sweep_matches_halfopen_selection(self, cache_size, kind_attr):
        db, a, b, e = _history_rich_db(cache_size=cache_size)
        kind = "edge" if kind_attr == "e" else "vertex"
        gid = {"a": a, "b": b, "e": e}[kind_attr]
        hi = db.now()
        full = _versions(db, kind, gid, TemporalCondition.between(0, hi))
        for t1 in range(hi + 1):
            got = _versions(db, kind, gid, TemporalCondition.between(t1, hi))
            expected = [sig for sig in full if sig[1] > t1]
            assert got == expected, f"slice [{t1}, {hi}] at seam"
        for t in range(hi + 1):
            got = _versions(db, kind, gid, TemporalCondition.as_of(t))
            expected = [sig for sig in full if sig[0] <= t < sig[1]]
            assert got == expected, f"point t={t} at seam"

    def test_seam_abutting_slice_hits_fetch(self):
        """t1 == base.tt_start must still reach the history store (the
        ``>=`` direction of the fixed guard) without changing output."""
        db, a, _b, _e = _history_rich_db()
        record = db.storage.vertex_record(a)
        from repro.graph.views import oldest_unreclaimed_view

        base = oldest_unreclaimed_view(record)
        fetches_before = db.history.read_metrics.fetches
        got = _versions(
            db, "vertex", a, TemporalCondition.between(base.tt_start, db.now())
        )
        assert db.history.read_metrics.fetches > fetches_before
        # nothing older than the seam may appear: every version in a
        # [base.tt_start, hi) window ends strictly after the seam
        assert all(sig[1] > base.tt_start for sig in got)


# -- epoch invalidation -------------------------------------------------------


class TestEpochInvalidation:
    def test_migration_commit_bumps_epoch_and_serves_new_versions(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        before = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        epoch = db.history.epoch
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", 99)
        db.collect_garbage()  # migrates the expired version
        assert db.history.epoch > epoch
        after = _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        assert len(after) == len(before) + 1
        assert after[0][3] == (("n", 99),)

    def test_read_prune_reread_serves_no_stale_version(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        full = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        assert db.history.read_path_metrics()["cache_entries"] >= 1
        epoch = db.history.epoch
        # cut below the middle of the reclaimed range: versions at or
        # before the cutoff must vanish, everything newer must survive
        reclaimed_ends = sorted(sig[1] for sig in full if sig[1] != MAX_TIMESTAMP)
        cutoff = reclaimed_ends[len(reclaimed_ends) // 2]
        removed = db.prune_history(cutoff)
        assert removed > 0
        metrics = db.history.read_path_metrics()
        assert metrics["epoch"] > epoch
        assert metrics["cache_entries"] == 0
        after = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        assert after == [sig for sig in full if sig[1] > cutoff]

    def test_failed_migration_epoch_rolls_back_reads(self):
        db, a, _b, _e = _history_rich_db()
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", 99)
        hi = db.now()
        before = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        epoch = db.history.epoch
        from repro.errors import FaultInjected

        with FAILPOINTS.active("migration.commit_batch", "error"):
            with pytest.raises(FaultInjected):
                db.collect_garbage()  # install fails, epoch rolled back
        assert db.history.epoch > epoch  # invalidation, not silence
        assert db.migrator.failed_epochs >= 1
        # the rolled-back epoch's staged records must not be served
        assert _versions(db, "vertex", a, TemporalCondition.between(0, hi)) == before
        # and the retried epoch migrates cleanly to the same answers
        db.collect_garbage()
        assert _versions(db, "vertex", a, TemporalCondition.between(0, hi)) == before

    def test_integrity_repair_invalidates_warm_cache(self):
        db = AeonG(anchor_interval=4, gc_interval_transactions=0)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, labels=["P"], properties={"n": 0})
        for i in range(1, 12):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "n", i)
        db.collect_garbage()
        hi = db.now()
        full = _versions(db, "vertex", gid, TemporalCondition.between(0, hi))
        assert db.history.read_path_metrics()["cache_entries"] >= 1
        warm_epoch = db.history.epoch
        with FAILPOINTS.active("history.fetch", "corrupt"):
            with pytest.raises(IntegrityError):
                _versions(db, "vertex", gid, TemporalCondition.between(0, hi))
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.repairs_applied >= 1 and report.repairs_failed == 0
        assert db.history.epoch > warm_epoch
        assert db.history.quarantine.count() == 0
        healed = _versions(db, "vertex", gid, TemporalCondition.between(0, hi))
        assert healed == full  # anchor replay restored the exact chain
        assert scrubber.scrub_full().ok

    def test_a_record_list_read_across_an_epoch_is_not_kept(self):
        db, a, _b, _e = _history_rich_db()
        store = db.history
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", 99)
        before = _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        store.invalidate_caches()
        content = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, a)
        scan = store.kv.scan_prefix

        def racing_scan(prefix):
            rows = list(scan(prefix))
            if prefix == content:
                store.kv.scan_prefix = scan
                db.collect_garbage()  # publishes a's next record mid-read
            return iter(rows)

        store.kv.scan_prefix = racing_scan
        _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        assert store.kv.scan_prefix == scan
        after = _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        assert after == before

    def test_quarantine_blocks_despite_warm_cache(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        _versions(db, "vertex", a, TemporalCondition.between(0, hi))  # warm
        db.history.quarantine.add("vertex", a, 0, hi)
        with pytest.raises(IntegrityError):
            _versions(db, "vertex", a, TemporalCondition.between(0, hi))

    def test_clean_scrub_preserves_cache_and_epoch(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        _versions(db, "vertex", a, TemporalCondition.between(0, hi))  # warm
        before = db.history.read_path_metrics()
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.ok
        after = db.history.read_path_metrics()
        assert after["epoch"] == before["epoch"]
        assert after["cache_entries"] >= before["cache_entries"]
        # and the warm entries still serve: a re-read is pure hits
        seeks = db.history.kv.stats.seeks
        hits = after["cache_hits"]
        _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        assert db.history.kv.stats.seeks == seeks
        assert db.history.read_path_metrics()["cache_hits"] > hits


# -- satellite: ReadMetrics counters ------------------------------------------


_EVICTION_FILTERS = [
    (None, None, None),
    ("P", None, None),
    ("Q", None, None),
    ("P", "n", 5),
    ("Q", "m", 0),
    ("P", "n", 99),
]


def _scan_sigs(db, cond, label, prop, value):
    with db.transaction() as txn:
        scan = (
            db.vertices_as_of(txn, cond.t1, label, prop, value)
            if cond.is_point
            else db.vertices_between(txn, cond.t1, cond.t2, label, prop, value)
        )
        return sorted((view.gid, _vsig(view)) for view in scan)


def _expand_sigs(db, gid, cond):
    with db.transaction() as txn:
        return sorted(
            (view.gid, _vsig(view), edge.gid, _esig(edge), other.gid, _vsig(other))
            for view in db.vertex_versions(txn, gid, cond)
            for edge, other in db.expand(txn, view, cond, "both")
        )


class TestReadMetrics:
    def test_warm_rereads_add_no_kv_seeks(self):
        db, a, _b, e = _history_rich_db()
        hi = db.now()

        def read_all():
            with db.transaction() as txn:
                for t in range(hi + 1):
                    list(db.vertex_versions(txn, a, TemporalCondition.as_of(t)))
                    list(db.edge_versions(txn, e, TemporalCondition.as_of(t)))
                list(db.vertex_versions(txn, a, TemporalCondition.between(0, hi)))

        read_all()  # populate
        m1 = db.metrics()
        read_all()  # warm
        m2 = db.metrics()
        kv1, kv2 = m1["history_kv"], m2["history_kv"]
        rp1, rp2 = m1["read_path"], m2["read_path"]
        assert kv2["seeks"] == kv1["seeks"]
        assert kv2["range_scans"] == kv1["range_scans"]
        assert kv2["batch_writes"] == kv1["batch_writes"]
        assert rp2["anchor_seeks"] == rp1["anchor_seeks"]
        assert rp2["deltas_replayed"] == rp1["deltas_replayed"]
        assert rp2["cache_misses"] == rp1["cache_misses"]
        assert rp2["cache_hits"] > rp1["cache_hits"]
        assert rp2["fetches"] > rp1["fetches"]

    def test_point_reread_counts_one_hit_no_new_reconstruction(self):
        db, a, _b, _e = _history_rich_db()
        t = 5
        _versions(db, "vertex", a, TemporalCondition.as_of(t))
        rp = db.history.read_path_metrics()
        reconstructions = db.history.reconstructions
        _versions(db, "vertex", a, TemporalCondition.as_of(t))
        rp2 = db.history.read_path_metrics()
        assert rp2["fetches"] == rp["fetches"] + 1
        assert rp2["cache_hits"] == rp["cache_hits"] + 1
        assert rp2["cache_misses"] == rp["cache_misses"]
        assert db.history.reconstructions == reconstructions

    def test_lru_eviction_is_counted_and_results_stay_correct(self):
        tiny, a, b, e = _history_rich_db(cache_size=1)
        full, _, _, _ = _history_rich_db(cache_size=4096)
        hi = tiny.now()
        for _round in range(2):
            for kind, gid in (("vertex", a), ("edge", e), ("vertex", b)):
                assert _versions(
                    tiny, kind, gid, TemporalCondition.between(0, hi)
                ) == _versions(full, kind, gid, TemporalCondition.between(0, hi))
        metrics = tiny.history.read_path_metrics()
        assert metrics["cache_evictions"] >= 2
        assert metrics["cache_entries"] <= 1

        # scans (mentions) and expands (preload, topology) under eviction
        for t in range(hi + 1):
            cond = TemporalCondition.as_of(t)
            for db_filter in _EVICTION_FILTERS:
                assert _scan_sigs(tiny, cond, *db_filter) == _scan_sigs(
                    full, cond, *db_filter
                ), (t, db_filter)
            assert _expand_sigs(tiny, a, cond) == _expand_sigs(full, a, cond), t
        assert tiny.history.read_path_metrics()["cache_entries"] <= 1

        # a record damaged at rest, read back after its entry was evicted
        db, a, _b, e = _history_rich_db(cache_size=1, anchor_interval=100)
        versions = _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        start, end = next(
            (lo, up) for lo, up, _labels, props in versions if props == (("n", 5),)
        )
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, a)
        (key, value), = [
            (key, value)
            for key, value in db.history.kv.scan_prefix(prefix)
            if (hk.decode_key(key).tt_start, hk.decode_key(key).tt_end) == (start, end)
        ]
        batch = WriteBatch()
        batch.put(key, corrupt_bytes(value))
        db.history.kv.write(batch)
        _versions(db, "edge", e, TemporalCondition.between(0, db.now()))  # evicts a
        assert ("vertex", a) not in db.history._cache
        seeks = db.history.kv.stats.seeks
        # stops above the damaged record: served, after a reload from the KV store
        above = _versions(db, "vertex", a, TemporalCondition.as_of(end))
        assert [props for _s, _e, _l, props in above] == [(("n", 6),)]
        assert db.history.kv.stats.seeks > seeks
        # the damage is kept with the segment the read built
        assert db.history._cache[("vertex", a)].head.segment.error is not None
        with pytest.raises(IntegrityError):  # replays through it
            _versions(db, "vertex", a, TemporalCondition.as_of(start))
        with pytest.raises(IntegrityError):  # the roster kept a as a candidate
            with db.transaction() as txn:
                list(db.vertices_as_of(txn, start, "P", "n", 5))

    def test_metrics_shape_in_engine_report(self):
        db, _a, _b, _e = _history_rich_db()
        report = db.metrics()["read_path"]
        assert set(report) >= {
            "fetches",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "anchor_seeks",
            "deltas_replayed",
            "reconstructions_avoided",
            "preload_batches",
            "preload_objects",
            "preload_backoffs",
            "epoch",
            "cache_entries",
            "cache_capacity",
        }
        assert all(isinstance(value, int) for value in report.values())
        assert "aeong_read_path_preload_backoffs" in db.metrics_text()

    def test_cli_metrics_section_and_unknown_section(self):
        db, a, _b, _e = _history_rich_db()
        _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        out = StringIO()
        cli_run([".metrics read_path"], engine=db, out=out)
        payload = json.loads(out.getvalue())
        assert set(payload) == {"read_path"}
        assert payload["read_path"]["cache_misses"] >= 1
        out = StringIO()
        cli_run([".metrics no_such_section"], engine=db, out=out)
        assert "unknown metrics section" in out.getvalue()
        out = StringIO()
        cli_run([".metrics"], engine=db, out=out)
        assert "read_path" in json.loads(out.getvalue())


# -- one bounded history cache -------------------------------------------------


def _wide_db(cache_size, people=40):
    """A hub linked to ``people`` P vertices; every vertex, edge and the
    hub's topology carry reclaimed history: more than 4x a 16-object
    cache."""
    db = AeonG(
        anchor_interval=3,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )
    with db.transaction() as txn:
        hub = db.create_vertex(txn, labels=["H"], properties={"h": 0})
        gids = [
            db.create_vertex(txn, labels=["P"], properties={"name": f"p{i}", "n": 0})
            for i in range(people)
        ]
        edges = [db.create_edge(txn, hub, gid, "L", properties={"w": 0}) for gid in gids]
    for step in (1, 2):
        with db.transaction() as txn:
            for i, gid in enumerate(gids):
                db.set_vertex_property(txn, gid, "n", step)
                db.set_vertex_property(txn, gid, "name", f"p{i}-{step}")
            for edge in edges:
                db.set_edge_property(txn, edge, "w", step)
    with db.transaction() as txn:
        db.delete_edge(txn, edges[0])
    db.collect_garbage()
    return db, hub, gids


class TestBoundedHistoryCache:
    def test_every_read_path_stays_within_capacity(self):
        small, hub, gids = _wide_db(cache_size=16)
        large, _hub, _gids = _wide_db(cache_size=4096)
        store = small.history
        assert len(store.known_gids("vertex")) + len(store.known_gids("edge")) > 64
        hi = small.now()
        conds = [TemporalCondition.as_of(t) for t in range(hi + 1)]
        conds.append(TemporalCondition.between(0, hi))

        def within_capacity():
            assert len(store._cache) <= 16
            assert store.read_path_metrics()["cache_entries"] <= 16

        for cond in conds:
            for gid in gids:
                assert _versions(small, "vertex", gid, cond) == _versions(
                    large, "vertex", gid, cond
                )
        within_capacity()
        # records read at the start of the sweep were evicted, not kept
        seeks = store.kv.stats.seeks
        _versions(small, "vertex", gids[0], conds[-1])
        assert store.kv.stats.seeks > seeks
        for cond in conds:  # unindexed scans read every P vertex's mentions
            for value in ("p3", "p3-1", "p3-2", "nobody"):
                assert _scan_sigs(small, cond, "P", "name", value) == _scan_sigs(
                    large, cond, "P", "name", value
                ), (cond.t1, cond.t2, value)
        within_capacity()
        for cond in conds:  # expand preloads and fetches every neighbour
            assert _expand_sigs(small, hub, cond) == _expand_sigs(large, hub, cond)
        within_capacity()
        assert store.read_path_metrics()["cache_evictions"] > 0

    def test_an_epoch_extends_only_what_it_published(self):
        db = AeonG(anchor_interval=100, gc_interval_transactions=0)
        with db.transaction() as txn:
            x = db.create_vertex(txn, labels=["P"], properties={"n": 0})
            y = db.create_vertex(txn, labels=["P"], properties={"n": 0})
            doomed = db.create_edge(txn, x, y, "L")
        for i in (1, 2):
            with db.transaction() as txn:
                db.set_vertex_property(txn, x, "n", i)
                db.set_vertex_property(txn, y, "n", i)
        with db.transaction() as txn:
            db.delete_edge(txn, doomed)
        db.collect_garbage()
        store = db.history
        whole = TemporalCondition.between(0, db.now())
        before = {gid: _versions(db, "vertex", gid, whole) for gid in (x, y)}
        for gid in (x, y):
            store.vertex_mentions(gid)
        content = (hk.SEGMENT_VERTEX, hk.KIND_DELTA)
        topology = (hk.SEGMENT_TOPOLOGY, hk.KIND_DELTA)
        entry_x = store._cache[("vertex", x)]
        lists_x = dict(entry_x.records)
        assert set(lists_x) >= {content, topology}

        with db.transaction() as txn:  # a GC epoch that migrates x only
            db.set_vertex_property(txn, x, "n", 3)
        epoch = store.epoch
        db.collect_garbage()
        assert store.epoch > epoch
        # x keeps its lists and notes the published row; y is untouched
        assert entry_x.records == lists_x
        assert entry_x.records[content] is lists_x[content]
        assert set(entry_x.fresh) == {content}
        assert entry_x.mentions is None
        entry_y = store._cache[("vertex", y)]
        assert entry_y.fresh == {} and entry_y.mentions is not None

        stats, metrics = store.kv.stats, store.read_metrics
        seeks, hits, misses = stats.seeks, metrics.cache_hits, metrics.cache_misses
        replayed = metrics.deltas_replayed
        assert _versions(db, "vertex", y, whole) == before[y]
        store.vertex_mentions(y)
        assert stats.seeks == seeks  # record lists and mentions kept
        assert metrics.cache_hits == hits + 1  # and its version list
        assert (metrics.cache_misses, metrics.deltas_replayed) == (misses, replayed)

        scans, extended = stats.range_scans, metrics.versions_extended
        after = _versions(db, "vertex", x, TemporalCondition.between(0, db.now()))
        assert after[2:] == before[x][1:]  # a new current version, the old
        assert after[1][3] == before[x][0][3]  # one now reclaimed
        assert stats.seeks == seeks + 1  # one range read, after the tail
        assert stats.range_scans == scans + 1
        assert metrics.versions_extended == extended + 1
        # the new content record, and the edge delete newer than x's old
        # base (a topology record undone again from the new base)
        assert metrics.deltas_replayed == replayed + 2
        assert entry_x.records[content][:-1] == lists_x[content]
        assert entry_x.fresh == {}

    def test_one_migrated_set_costs_its_own_records_only(self):
        """The replay budget of an epoch that migrated one SET on ``x``
        of ``{x, y}``."""
        db = AeonG(anchor_interval=100, gc_interval_transactions=0)
        with db.transaction() as txn:
            x = db.create_vertex(txn, labels=["P"], properties={"n": 0})
            y = db.create_vertex(txn, labels=["P"], properties={"n": 0})
        for i in (1, 2, 3):
            with db.transaction() as txn:
                db.set_vertex_property(txn, x, "n", i)
                db.set_vertex_property(txn, y, "n", i)
        db.collect_garbage()
        store, metrics, stats = db.history, db.history.read_metrics, db.history.kv.stats
        hi = db.now()
        for gid in (x, y):  # warm: every point and slice
            _grid(db, "vertex", gid, hi)
        with db.transaction() as txn:
            db.set_vertex_property(txn, x, "n", 4)
        db.collect_garbage()

        def cost(gid):
            replayed, decoded = metrics.deltas_replayed, store.checksums_verified
            seeks, scans = stats.seeks, stats.range_scans
            grid = _grid(db, "vertex", gid, hi)
            return grid, (
                metrics.deltas_replayed - replayed,
                store.checksums_verified - decoded,
                stats.seeks - seeks,
                stats.range_scans - scans,
            )

        _grid_y, spent_y = cost(y)
        assert spent_y == (0, 0, 0, 0)
        grid_x, spent_x = cost(x)
        assert spent_x == (1, 1, 1, 1)  # one record replayed, read, decoded
        store.invalidate_caches()  # and a full rebuild reads the same
        assert grid_x == _grid(db, "vertex", x, hi)

    def test_a_row_older_than_the_tail_drops_the_list(self):
        db, a, _b, _e = _history_rich_db(anchor_interval=0)
        store = db.history
        whole = TemporalCondition.between(0, db.now())
        before = _versions(db, "vertex", a, whole)
        content = (hk.SEGMENT_VERTEX, hk.KIND_DELTA)
        entry = store._cache[("vertex", a)]
        assert content in entry.records and entry.head is not None
        (_s, created, _p), (first, end, _q) = entry.records[content][:2]
        assert first == created and end > created + 1
        batch = WriteBatch()  # splits a's first version in two
        store.stage_record(
            batch, RecordDraft(hk.SEGMENT_VERTEX, a, first, end - 1, {"p": {"n": -1}})
        )
        store.commit_batch(batch)
        assert content not in entry.records and entry.head is None
        after = _versions(db, "vertex", a, whole)
        assert after[:-1] == before
        assert after[-1] == (first, end - 1, ("P",), (("n", -1),))


# -- extended version lists vs full rebuilds ------------------------------------


def _frozen_state(view):
    """Everything a version-list entry reads as, adjacency included."""
    if view is None:
        return None
    if isinstance(view, VertexView):
        return (
            view.exists,
            tuple(sorted(view.labels)),
            tuple(sorted(view.properties.items())),
            tuple(sorted(view.out_edges)),
            tuple(sorted(view.in_edges)),
        )
    return (view.exists, tuple(sorted(view.properties.items())))


def _current_base(db, kind, gid):
    record = (
        db.storage.vertex_record(gid) if kind == "vertex" else db.storage.edge_record(gid)
    )
    return None if record is None else oldest_unreclaimed_view(record)


def _assert_lists_equal_full_rebuilds(db):
    """Every current head segment in the cache, and every anchor
    segment cached beside it, equals one rebuilt from scratch from the
    same base; returns how many objects were checked."""
    store = db.history
    checked = 0
    for (kind, gid), entry in list(store._cache.items()):
        head = entry.head
        base = _current_base(db, kind, gid)
        if (
            head is None
            or head.generation != entry.generation
            or head.base_sig != _base_sig(base)
        ):
            continue  # stale: the next read extends or rebuilds it
        fills = []
        store._segments(kind, gid, base, _Entry(), None, -1, MAX_TIMESTAMP, fills)
        fresh = {top: built for _entry, top, built in fills}
        full = fresh.pop(None)
        assert head.ends == full.ends and head.below_base == full.below_base
        assert set(entry.segments) <= set(fresh), (kind, gid)
        pairs = [(entry.segments[top], fresh[top]) for top in entry.segments]
        if head.segment is not None:  # else the tops alone, kept for the bisect
            pairs.append((head.segment, full.segment))
        for built, rebuilt in pairs:
            assert [(s, e, _frozen_state(v)) for s, e, v in built.versions] == [
                (s, e, _frozen_state(v)) for s, e, v in rebuilt.versions
            ], (kind, gid)
            assert built.error is rebuilt.error is None
        checked += 1
    return checked


def _answers(db, objects, points, slices):
    """Every point and slice answer of every object, read in one
    transaction (so both twins' clocks advance alike)."""
    txn = db.begin()
    try:
        out = []
        for kind, gid in objects:
            fetch = db.vertex_versions if kind == "vertex" else db.edge_versions
            sig = _vsig if kind == "vertex" else _esig
            for t in points:
                out.append(
                    (kind, gid, t, [sig(v) for v in fetch(txn, gid, TemporalCondition.as_of(t))])
                )
            for t1, t2 in slices:
                cond = TemporalCondition.between(t1, t2)
                out.append((kind, gid, t1, t2, [sig(v) for v in fetch(txn, gid, cond)]))
        return out
    finally:
        db.abort(txn)


class _Twins:
    """The same random history applied to an engine that keeps its
    history cache and one at cache size 0, which builds the segments
    each read needs and drops them."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.warm = AeonG(anchor_interval=3, gc_interval_transactions=0)
        self.cold = AeonG(
            anchor_interval=3, gc_interval_transactions=0, reconstruction_cache_size=0
        )
        self.scrubbers = [Scrubber(self.warm), Scrubber(self.cold)]
        self.commits: list[int] = []
        self.vertices = self.both(
            lambda db, txn: [
                db.create_vertex(txn, ["P"], {"x": 0, "i": i}) for i in range(5)
            ]
        )
        self.edges: list[int] = []
        self.live: list[int] = []
        self.held = None

    def both(self, work):
        results = []
        for db in (self.warm, self.cold):
            with db.transaction() as txn:
                results.append(work(db, txn))
        assert results[0] == results[1]
        self.commits.append(self.warm.now())
        return results[0]

    def boundaries(self):
        """Every instant an answer can change at: around each write."""
        hi = self.warm.now()
        return sorted(
            {0, hi} | {t + d for t in self.commits for d in (-1, 0, 1) if 0 <= t + d <= hi}
        )

    def each(self, work, fault=None):
        """``work(db)`` on each twin, with the failpoint ``(site, mode)``
        armed for each in turn; the twins must fail alike."""
        outcomes = []
        for db in (self.warm, self.cold):
            try:
                with FAILPOINTS.active(*fault) if fault else nullcontext():
                    work(db)
                outcomes.append(None)
            except Exception as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    def step(self):
        rng = self.rng
        roll = rng.random()
        gid = rng.choice(self.vertices)
        if roll < 0.25:
            value = rng.randrange(1000)
            self.both(lambda db, txn: db.set_vertex_property(txn, gid, "x", value))
        elif roll < 0.35:
            label = rng.choice(["A", "B"])
            add = rng.random() < 0.6
            self.both(
                lambda db, txn: (db.add_label if add else db.remove_label)(txn, gid, label)
            )
        elif roll < 0.48:
            dst = rng.choice(self.vertices)
            edge = self.both(lambda db, txn: db.create_edge(txn, gid, dst, "L", {"w": 0}))
            self.edges.append(edge)
            self.live.append(edge)
        elif roll < 0.56 and self.live:
            edge = self.live.pop(rng.randrange(len(self.live)))
            self.both(lambda db, txn: db.delete_edge(txn, edge))
        elif roll < 0.62 and self.live:
            edge = rng.choice(self.live)
            value = rng.randrange(100)
            self.both(lambda db, txn: db.set_edge_property(txn, edge, "w", value))
        elif roll < 0.8:
            self.each(lambda db: db.collect_garbage())
        elif roll < 0.84:
            self.each(
                lambda db: db.collect_garbage(), ("migration.commit_batch", "error")
            )
        elif roll < 0.87:
            cutoff = rng.randrange(max(1, self.warm.now() // 3))
            self.each(lambda db: db.prune_history(cutoff))
        elif roll < 0.9:
            self.each(lambda db: db.history.invalidate_caches())
        elif roll < 0.92:
            self.scrub_repair(gid)
        elif roll < 0.96:
            # a reader holding its snapshot keeps later chains unreclaimed
            if self.held is None:
                self.held = (self.warm.begin(), self.cold.begin())
            else:
                for db, txn in zip((self.warm, self.cold), self.held):
                    db.abort(txn)
                self.held = None
        else:
            self.each(lambda db: db.history.commit_batch(WriteBatch()))

    def scrub_repair(self, gid):
        """Damage one stored record of ``gid`` on both twins, read
        through it, and let each scrubber repair it."""
        def damage(db):
            txn = db.begin()
            try:
                list(db.vertex_versions(txn, gid, TemporalCondition.between(0, db.now())))
            finally:
                db.abort(txn)

        self.each(damage, ("history.fetch", "corrupt"))
        for scrubber in self.scrubbers:
            scrubber.scrub_full()

    def objects(self):
        return [("vertex", g) for g in self.vertices] + [("edge", g) for g in self.edges]


class TestSpliceDifferential:
    """Random interleavings of SET, label and edge writes, GC epochs,
    failed epochs, prunes, cache invalidations and scrub repairs: every
    extended head and every cached segment equals a full rebuild from
    the same base, and the cached engine answers exactly as the one at
    cache size 0, on a point
    sweep after every step and over the full TT grid at the end (every
    slice between instants an answer can change at)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_extended_lists_equal_full_rebuilds(self, seed):
        twins = _Twins(seed)
        checked = 0
        for _step in range(36):
            twins.step()
            hi = twins.warm.now()
            assert twins.cold.now() == hi
            points = range(hi + 1)
            slices = [(0, hi)]
            assert _answers(twins.warm, twins.objects(), points, slices) == _answers(
                twins.cold, twins.objects(), points, slices
            )
            checked += _assert_lists_equal_full_rebuilds(twins.warm)
        if twins.held is not None:
            for db, txn in zip((twins.warm, twins.cold), twins.held):
                db.abort(txn)
        stamps = twins.boundaries()
        grid = [(t1, t2) for t1 in stamps for t2 in stamps if t1 <= t2]
        assert _answers(twins.warm, twins.objects(), stamps, grid) == _answers(
            twins.cold, twins.objects(), stamps, grid
        )
        assert checked > 0
        assert twins.warm.history.read_metrics.versions_extended > 0


# -- satellite: scan-at-t with concurrent / aborted writers -------------------


def _scan_matches_per_object_truth(db, txn, cond):
    """``scan_vertices`` must equal the union of per-gid
    ``vertex_versions`` over every vertex the store knows about."""
    gids = {record.gid for record in db.storage.iter_vertex_records()}
    gids |= set(db.history.known_gids("vertex"))
    expected = []
    for gid in sorted(gids):
        expected.extend(_vsig(v) for v in db.vertex_versions(txn, gid, cond))
    got = [_vsig(v) for v in db.operators.scan_vertices(txn, cond)]
    assert sorted(got) == sorted(expected)
    return got


class TestScanWithWriters:
    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_a_slice_racing_an_epoch_serves_each_version_once(
        self, cache_size, monkeypatch
    ):
        """An epoch that migrates and unlinks the chain while a reader
        walks it: the reader's base is where its own walk ended, so the
        versions it surfaced from the chain are not fetched again."""
        db = AeonG(gc_interval_transactions=0, reconstruction_cache_size=cache_size)
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["P"], {"x": 0})
        for x in (1, 2, 3):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "x", x)
        db.collect_garbage()  # some history, and a chain on top of it
        for x in (4, 5):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "x", x)
        whole = TemporalCondition.between(0, db.now())
        walk = operators.version_iterator

        def racing(record, txn, *args):
            versions = walk(record, txn, *args)
            yield next(versions)
            db.collect_garbage()
            yield from versions

        monkeypatch.setattr(operators, "version_iterator", racing)
        raced = _versions(db, "vertex", gid, whole)
        monkeypatch.undo()
        assert db.migrator.migrations == 2  # the epoch ran mid-walk
        assert raced == _versions(db, "vertex", gid, whole)
        assert [sig[3] for sig in raced] == [(("x", x),) for x in (5, 4, 3, 2, 1, 0)]

    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_a_point_read_racing_an_epoch_undoes_each_structural_change_once(
        self, cache_size, monkeypatch
    ):
        """An epoch that migrates the chain's structural changes after a
        point read's walk undid them and before its fetch: the version
        served from the history store carries the adjacency it had at
        ``t`` (its pending topology records must not undo those changes
        a second time)."""

        def build():
            db = AeonG(
                anchor_interval=3, gc_interval_transactions=0,
                reconstruction_cache_size=cache_size,
            )
            with db.transaction() as txn:
                a = db.create_vertex(txn, ["P"], {"x": 0})
                others = [db.create_vertex(txn, ["Q"], {}) for _ in range(3)]
            edges, lives = [], {}
            for x in range(1, 13):
                with db.transaction() as txn:
                    if x % 3 == 1:
                        edges.append(db.create_edge(txn, a, others[x % 3], "K", {}))
                        lives[edges[-1]] = [db.now(), MAX_TIMESTAMP]
                    elif x % 3 == 2 and len(edges) > 1:
                        db.delete_edge(txn, edges[0])
                        lives[edges.pop(0)][1] = db.now()
                    else:
                        db.set_vertex_property(txn, a, "x", x)
                if x == 6:
                    db.collect_garbage()  # history below, a chain above
            return db, a, lives

        def adjacency(db, a, t):
            with db.transaction() as txn:
                return [
                    (_vsig(v), sorted(ref.edge_gid for ref in v.out_edges))
                    for v in db.vertex_versions(txn, a, TemporalCondition.as_of(t))
                ]

        walk = operators.version_iterator
        settled, a, lives = build()
        settled.collect_garbage()
        raced_points = []
        for t in range(settled.now() + 1):
            db, a, _lives = build()
            bases = []

            def racing(record, txn, oldest):
                yield from walk(record, txn, oldest)
                bases.extend(oldest)
                assert db.collect_garbage() > 0  # after the walk, before the fetch

            monkeypatch.setattr(operators, "version_iterator", racing)
            raced = adjacency(db, a, t)
            monkeypatch.undo()
            if bases:  # t lies below the chain: served by the history store
                assert bases[0].topology_end is not None
                live = sorted(e for e, (start, end) in lives.items() if start <= t < end)
                assert [out for _sig, out in raced] == ([live] if raced else []), t
                assert raced == adjacency(settled, a, t), t
                raced_points.append(t)
        assert raced_points == list(range(14))

    def _sweep(self, db, txn):
        hi = db.now()
        for t in range(hi + 1):
            self_scan = _scan_matches_per_object_truth(
                db, txn, TemporalCondition.as_of(t)
            )
            # point scans yield at most one version per vertex
            assert len(self_scan) == len({sig for sig in self_scan}) or True
        _scan_matches_per_object_truth(db, txn, TemporalCondition.between(0, hi))

    def test_uncommitted_concurrent_writer_is_invisible(self):
        db, a, _b, _e = _history_rich_db()
        writer = db.begin()
        db.set_vertex_property(writer, a, "n", 777)
        db.create_vertex(writer, labels=["Tmp"], properties={"t": 1})
        reader = db.begin()
        try:
            self._sweep(db, reader)
            now_scan = [
                _vsig(v)
                for v in db.operators.scan_vertices(
                    reader, TemporalCondition.as_of(db.now())
                )
            ]
            assert all(("n", 777) not in sig[3] for sig in now_scan)
            assert all(("Tmp",) != sig[2] for sig in now_scan)
        finally:
            db.abort(reader)
            db.abort(writer)

    def test_aborted_writer_leaves_scan_consistent(self):
        db, a, _b, _e = _history_rich_db()
        writer = db.begin()
        db.set_vertex_property(writer, a, "n", 888)
        db.delete_vertex(writer, a)
        db.abort(writer)
        reader = db.begin()
        try:
            self._sweep(db, reader)
            now_scan = [
                _vsig(v)
                for v in db.operators.scan_vertices(
                    reader, TemporalCondition.as_of(db.now())
                )
            ]
            assert any(sig[3] == (("n", 12),) for sig in now_scan)  # a survives
            assert all(("n", 888) not in sig[3] for sig in now_scan)
        finally:
            db.abort(reader)

    def test_inflight_delete_still_scans_the_victim(self):
        db, a, _b, _e = _history_rich_db()
        writer = db.begin()
        db.delete_vertex(writer, a)
        reader = db.begin()
        try:
            self._sweep(db, reader)
            now_scan = [
                _vsig(v)
                for v in db.operators.scan_vertices(
                    reader, TemporalCondition.as_of(db.now())
                )
            ]
            assert any(sig[3] == (("n", 12),) for sig in now_scan)
        finally:
            db.abort(reader)
            db.abort(writer)

    def test_committed_delete_point_scan_boundary(self):
        db, a, _b, _e = _history_rich_db()
        with db.transaction() as txn:
            db.delete_vertex(txn, a)
        before_delete = db.now() - 2  # the instant the last version still lived
        reader = db.begin()
        try:
            self._sweep(db, reader)
            at_death = [
                _vsig(v)
                for v in db.operators.scan_vertices(
                    reader, TemporalCondition.as_of(db.now())
                )
            ]
            assert all(sig[3] != (("n", 12),) for sig in at_death)
            just_before = [
                _vsig(v)
                for v in db.operators.scan_vertices(
                    reader, TemporalCondition.as_of(before_delete)
                )
            ]
            assert any(sig[3] == (("n", 12),) for sig in just_before)
        finally:
            db.abort(reader)

    def test_reclaimed_history_with_inflight_writer(self):
        db, a, _b, _e = _history_rich_db()
        writer = db.begin()
        db.set_vertex_property(writer, a, "n", 999)
        db.collect_garbage()  # migrate everything migratable under the pin
        reader = db.begin()
        try:
            self._sweep(db, reader)
        finally:
            db.abort(reader)
            db.abort(writer)


# -- candidate rosters: the unindexed scan against brute force -----------------


#: (label, prop, value) filters every differential check runs: numeric
#: values that compare equal across types, a string look-alike, an
#: unhashable list, ``None`` ("property absent" through the engine
#: API), a value only reclaimed history holds, and unlabelled equality.
_ROSTER_FILTERS = [
    (None, None, None),
    ("P", None, None),
    ("Q", None, None),
    ("P", "k", 1),
    ("P", "k", 1.0),
    ("P", "k", True),
    ("P", "k", "1"),
    ("P", "k", [1, 2]),
    ("P", "k", None),
    ("P", "k", "gone"),
    (None, "k", 1),
    (None, "k", "gone"),
    ("Q", "k", 2),
    ("R", None, None),
]


def _roster_grid(commits):
    """``TT SNAPSHOT`` at every commit ts ± 1 and ``TT BETWEEN`` over
    every adjacent pair of commits (plus the whole range)."""
    stamps = sorted(set(commits))
    points = sorted({t + d for t in stamps for d in (-1, 0, 1) if t + d >= 0})
    slices = list(zip(stamps, stamps[1:])) + [(0, stamps[-1] + 1)]
    return [TemporalCondition.as_of(t) for t in points] + [
        TemporalCondition.between(t1, t2) for t1, t2 in slices
    ]


def _brute_force_scan(db, txn, cond):
    """``(gid, signature)`` of every version of every vertex the store
    knows, current or history-only, straight from ``vertex_versions``.
    Signatures are taken as each view is produced: a current-version
    view shares the record's containers."""
    gids = {record.gid for record in db.storage.iter_vertex_records()}
    gids |= set(db.history.known_gids("vertex"))
    return [
        (gid, _vsig(view))
        for gid in sorted(gids)
        for view in db.vertex_versions(txn, gid, cond)
    ]


def _keep(sig, label, prop, value) -> bool:
    return (label is None or label in sig[2]) and (
        prop is None or dict(sig[3]).get(prop) == value
    )


def _assert_scans_equal_brute_force(db, commits, txn=None, conds=None, sig=None):
    """Every filter's scan equals brute force over ``conds`` (default:
    the grid over ``commits``); ``sig`` projects the signatures."""
    sig = sig or (lambda full: full)
    own = txn is None
    txn = db.begin() if own else txn
    try:
        for cond in conds if conds is not None else _roster_grid(commits):
            every = _brute_force_scan(db, txn, cond)
            for label, prop, value in _ROSTER_FILTERS:
                expected = sorted(
                    (gid, sig(full))
                    for gid, full in every
                    if _keep(full, label, prop, value)
                )
                scan = (
                    db.vertices_as_of(txn, cond.t1, label, prop, value)
                    if cond.is_point
                    else db.vertices_between(txn, cond.t1, cond.t2, label, prop, value)
                )
                got = sorted((view.gid, sig(_vsig(view))) for view in scan)
                assert got == expected, (cond.t1, cond.t2, label, prop, value)
    finally:
        if own:
            db.abort(txn)


class _Timeline:
    """An engine plus the commit timestamp of every write it ran."""

    def __init__(self, db):
        self.db = db
        self.commits: list[int] = []

    def run(self, work):
        txn = self.db.begin()
        result = work(txn)
        self.commits.append(self.db.commit(txn))
        return result

    def check(self):
        _assert_scans_equal_brute_force(self.db, self.commits)


class TestRosterDifferential:
    def test_scan_equals_brute_force_through_the_lifecycle(self, tmp_path):
        """Every step that adds, moves or drops a label or a value —
        in the current store, the undo chains or the history store —
        followed by the full grid × every filter."""
        home = tmp_path / "db"
        tl = _Timeline(AeonG.open(home, anchor_interval=3, gc_interval_transactions=0))
        db = tl.db
        specs = [
            (["P"], {"k": 1}),
            (["P"], {"k": 1.0}),
            (["P"], {"k": True}),
            (["P"], {"k": "1"}),
            (["P"], {"k": [1, 2]}),
            (["P"], {}),
            (["Q"], {"k": 2}),
            ([], {"k": 1}),
        ]
        a, b, c, _d, _e, f, g, h = tl.run(
            lambda txn: [db.create_vertex(txn, labels, props) for labels, props in specs]
        )
        tl.check()  # create
        tl.run(lambda txn: db.add_label(txn, h, "P"))
        tl.run(lambda txn: db.add_label(txn, f, "R"))
        tl.check()  # add_label
        tl.run(lambda txn: db.remove_label(txn, g, "Q"))
        tl.run(lambda txn: db.set_vertex_property(txn, g, "m", 1))  # rebuild
        tl.check()  # :Q of g lives only on its undo chain
        db.collect_garbage()
        assert "Q" not in db.storage.vertex_record(g).labels
        assert db.storage.vertex_record(g).delta_head is None
        tl.check()  # :Q now lives only in g's reclaimed history
        tl.run(lambda txn: db.set_vertex_property(txn, a, "k", "gone"))
        tl.run(lambda txn: db.set_vertex_property(txn, a, "k", 2))
        tl.run(lambda txn: db.set_vertex_property(txn, b, "k", None))
        tl.check()  # set and unset, still on the undo chains
        tl.run(lambda txn: db.delete_vertex(txn, c))
        db.collect_garbage()
        assert db.storage.vertex_record(c) is None
        assert db.history.has_history("vertex", c)
        tl.check()  # c is history-only
        tl.run(lambda txn: db.set_vertex_property(txn, f, "k", 1))
        db.collect_garbage()
        tl.check()  # collect_garbage
        db.prune_history(tl.commits[1])
        tl.check()  # prune_history
        db.history.invalidate_caches()
        tl.check()  # invalidate_caches
        with FAILPOINTS.active("history.fetch", "corrupt"):
            with pytest.raises(IntegrityError):
                _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        scrubber = Scrubber(db)
        report = scrubber.scrub_full()
        assert report.repairs_applied >= 1 and report.repairs_failed == 0
        tl.check()  # a scrub repair
        db.checkpoint()
        db.close()
        tl.db = db = AeonG.open(home, anchor_interval=3, gc_interval_transactions=0)
        tl.check()  # checkpoint + reopen
        tl.run(lambda txn: db.set_vertex_property(txn, h, "k", "gone"))
        db.collect_garbage()
        tl.check()
        db.save(tmp_path / "snap")
        db.close()
        tl.db = db = AeonG.open(tmp_path / "snap", gc_interval_transactions=0)
        tl.check()  # save / open
        db.close()
        host = AeonG(gc_interval_transactions=0)
        host.adopt_snapshot_state(AeonG.open(tmp_path / "snap"))
        tl.db = host
        tl.check()  # adopt_snapshot_state
        tl.run(lambda txn: host.add_label(txn, a, "Q"))
        tl.check()

    def test_rows_come_current_first_then_history_only(self):
        db, a, b, _e = _history_rich_db()  # b is fully reclaimed
        with db.transaction() as txn:
            late = db.create_vertex(txn, labels=["Q"], properties={"m": 1})
        cond = TemporalCondition.between(0, db.now())
        with db.transaction() as txn:
            order = [view.gid for view in db.operators.scan_vertices(txn, cond)]
            labelled = [
                view.gid for view in db.operators.scan_vertices(txn, cond, "Q")
            ]
        assert list(dict.fromkeys(order)) == [a, late, b]
        assert list(dict.fromkeys(labelled)) == [late, b]

    def test_a_write_between_scans_is_seen(self):
        db, a, _b, _e = _history_rich_db()
        cond = lambda: TemporalCondition.as_of(db.now())  # noqa: E731

        def scan(label, prop=None, value=None):
            with db.transaction() as txn:
                return [
                    view.gid
                    for view in db.operators.scan_vertices(txn, cond(), label, prop, value)
                ]

        assert scan("P", "n", 42) == [] and scan("R") == []
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", 42)
        assert scan("P", "n", 42) == [a]
        with db.transaction() as txn:
            db.add_label(txn, a, "R")
        assert scan("R") == [a]
        with db.transaction() as txn:
            fresh = db.create_vertex(txn, labels=["R"], properties={"n": 42})
        assert scan("R") == [a, fresh]
        assert scan(None, "n", 42) == [a, fresh]

    def test_a_write_during_a_build_forces_the_next_rebuild(self):
        db, _a, _b, _e = _history_rich_db()
        ops = db.operators
        build = ops._build_label_roster
        landed = []

        def racing_build(label):
            roster = build(label)
            if not landed:  # commits after the build read the store
                with db.transaction() as txn:
                    landed.append(db.create_vertex(txn, labels=["P"]))
            return roster

        ops._build_label_roster = racing_build
        with db.transaction() as txn:
            list(db.vertices_as_of(txn, db.now(), "P"))
        with db.transaction() as txn:
            seen = [view.gid for view in db.vertices_as_of(txn, db.now(), "P")]
        assert landed[0] in seen

    def test_history_written_without_a_vertex_write_is_seen(self):
        """The epoch half of the validity key: records installed in the
        history store (a repair, a restore) may name a label that no
        current-store write did."""
        db, a, _b, _e = _history_rich_db()
        assert a not in db.operators._roster("Z", None, None)
        batch = WriteBatch()
        db.history.stage_record(
            batch, RecordDraft(hk.SEGMENT_VERTEX, a, 0, 1, {"la": ["Z"]})
        )
        db.history.commit_batch(batch)
        assert a in db.operators._roster("Z", None, None)

    def test_second_scan_without_writes_builds_nothing(self):
        db, a, _b, _e = _history_rich_db()
        stats = db.operators.stats

        def scan():
            with db.transaction() as txn:
                return [_vsig(v) for v in db.vertices_as_of(txn, db.now(), "P", "n", 12)]

        first = scan()
        builds, candidates = stats.roster_builds, stats.scan_candidates
        assert builds >= 1
        assert scan() == first
        assert stats.roster_builds == builds
        assert stats.scan_candidates == candidates + 1  # only a ever held 12
        report = db.metrics()["operators"]
        assert report["roster_builds"] == builds
        assert "aeong_operators_scan_candidates" in db.metrics_text()
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", 13)
        scan()
        assert stats.roster_builds == builds + 2  # the label and value rosters

    def test_undecodable_history_keeps_the_gid_a_candidate(self):
        db, a, _b, _e = _history_rich_db()
        with FAILPOINTS.active("history.fetch", "corrupt"):
            with pytest.raises(IntegrityError):
                _versions(db, "vertex", a, TemporalCondition.between(0, db.now()))
        with db.transaction() as txn:
            # the current version needs no history: still served
            now = list(db.vertices_as_of(txn, db.now(), "P", "n", 12))
        assert [view.gid for view in now] == [a]


class TestRosterConcurrency:
    def test_each_reader_equals_brute_force_at_its_snapshot(self):
        db, _a, _b, _e = _history_rich_db()
        errors: list = []
        done = threading.Event()

        def writer(w):
            try:
                mine = []
                for i in range(30):
                    with db.transaction() as txn:
                        if mine and i % 3 == 2:
                            db.set_vertex_property(txn, mine[-1], "k", (w + i) % 4)
                        elif mine and i % 5 == 4:
                            db.add_label(txn, mine[0], "Q")
                        else:
                            mine.append(
                                db.create_vertex(
                                    txn, labels=["P"], properties={"k": i % 4}
                                )
                            )
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    txn = db.begin()
                    try:
                        conds = [
                            TemporalCondition.as_of(txn.start_ts),
                            TemporalCondition.between(0, txn.start_ts),
                        ]
                        # A commit landing after the snapshot closes the
                        # version the snapshot sees: tt_end goes from
                        # open to that commit's ts between two reads.
                        # Which versions match is what must agree.
                        _assert_scans_equal_brute_force(
                            db, [], txn, conds, sig=lambda full: full[:1] + full[2:]
                        )
                    finally:
                        db.abort(txn)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(2)]
            writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        assert db.operators.stats.roster_builds > 1
        _assert_scans_equal_brute_force(db, [], conds=[TemporalCondition.as_of(db.now())])


# -- a view handed out, then an uncommitted in-place write ---------------------


def _dirty_write(db, gid):
    """Begin a writer that changes ``gid`` in place and leave it open."""
    writer = db.begin()
    db.set_vertex_property(writer, gid, "n", 777)
    db.add_label(writer, gid, "Dirty")
    return writer


def _clean(view) -> bool:
    return view.properties.get("n") == 12 and "Dirty" not in view.labels


def _linked_db():
    """Three ``:P`` vertices and one committed edge ``x -> y``."""
    db = AeonG(gc_interval_transactions=0)
    with db.transaction() as txn:
        x, y, z = (
            db.create_vertex(txn, labels=["P"], properties={"n": n}) for n in range(3)
        )
    with db.transaction() as txn:
        e = db.create_edge(txn, x, y, "KNOWS")
    return db, x, y, z, e


def _views_of(db, txn, gids):
    """A snapshot view and a ``TT SNAPSHOT`` view of each of ``gids``,
    as ``txn`` sees them."""
    scanned = {view.gid: view for view in db.vertices_as_of(txn, db.now(), "P")}
    return [db.get_vertex(txn, gid) for gid in gids] + [scanned[gid] for gid in gids]


def _adjacency_of(views):
    return [(list(view.out_edges), list(view.in_edges)) for view in views]


class TestViewIsolation:
    """A view shares its record's label set, property map and
    adjacency lists, so a writer that changed them in place would show
    a write made after the view was handed out, before that write
    commits (or after it rolled back).  Writers replace all of them
    instead; every view stays frozen."""

    def test_adjacency_ignores_a_later_uncommitted_create_edge(self):
        db, x, y, z, _e = _linked_db()
        reader = db.begin()
        views = _views_of(db, reader, (x, y, z))
        before = _adjacency_of(views)
        writer = db.begin()
        db.create_edge(writer, x, z, "KNOWS")
        db.create_edge(writer, z, y, "KNOWS")
        try:
            assert _adjacency_of(views) == before
        finally:
            db.abort(writer)
            db.abort(reader)
        assert _adjacency_of(views) == before

    def test_adjacency_survives_an_aborted_delete_edge(self):
        db, x, y, _z, e = _linked_db()
        reader = db.begin()
        views = _views_of(db, reader, (x, y))
        before = _adjacency_of(views)
        writer = db.begin()
        db.delete_edge(writer, e)
        own = _views_of(db, writer, (x, y))  # the writer sees x -> y gone
        deleted = _adjacency_of(own)
        assert deleted == [([], [])] * 4
        db.abort(writer)  # the rollback re-adds the edge to both records
        db.abort(reader)
        assert _adjacency_of(views) == before
        assert _adjacency_of(own) == deleted

    def test_temporal_view_ignores_a_later_uncommitted_write(self):
        db, a, _b, _e = _history_rich_db()
        reader = db.begin()
        (view,) = db.vertices_as_of(reader, db.now(), "P")
        writer = _dirty_write(db, a)
        try:
            assert _clean(view)
        finally:
            db.abort(writer)
            db.abort(reader)

    def test_snapshot_view_ignores_a_later_uncommitted_write(self):
        db, a, _b, _e = _history_rich_db()
        reader = db.begin()
        got = db.get_vertex(reader, a)
        (scanned,) = db.iter_vertices(reader)
        writer = _dirty_write(db, a)
        try:
            assert _clean(got) and _clean(scanned)
        finally:
            db.abort(writer)
            db.abort(reader)


# -- reconstructed adjacency: a kept cache vs cache size 0 ---------------------


def _adjacency_db(cache_size):
    """A hub whose out- and in-edges are created, deleted and
    re-created, some of them inside one content version of the hub,
    one in the same transaction as a content change, plus a spoke
    deleted outright; two GC epochs reclaim most of it and the last
    writes stay on the undo chains.  Anchors are off, so every read
    replays from the current store.  Returns the timeline, the hub and
    spoke gids, and ``{edge gid: [src, dst, type, created, deleted]}``."""
    tl = _Timeline(
        AeonG(
            anchor_interval=0,
            gc_interval_transactions=0,
            reconstruction_cache_size=cache_size,
        )
    )
    db = tl.db
    life: dict[int, list] = {}
    hub, *spokes = tl.run(
        lambda txn: [db.create_vertex(txn, ["H"], {"v": 0})]
        + [db.create_vertex(txn, ["S"], {"i": i}) for i in range(4)]
    )
    s0, s1, s2, s3 = spokes

    def link(src, dst, kind="L"):
        gid = tl.run(lambda txn: db.create_edge(txn, src, dst, kind))
        life[gid] = [src, dst, kind, tl.commits[-1], None]
        return gid

    def unlink(gid):
        tl.run(lambda txn: db.delete_edge(txn, gid))
        life[gid][4] = tl.commits[-1]

    def set_hub(v):
        tl.run(lambda txn: db.set_vertex_property(txn, hub, "v", v))

    first, second = link(hub, s0), link(hub, s1)
    set_hub(1)
    link(s2, hub)
    link(hub, s2)
    unlink(first)
    set_hub(2)
    brief = link(hub, s3, "T")  # created and deleted within one hub version
    unlink(brief)
    link(hub, s0)  # re-created: same endpoints, new gid
    link(s1, hub)
    set_hub(3)
    db.collect_garbage()
    unlink(second)
    link(s3, hub)

    def content_and_topology(txn):  # one commit on both hub timelines
        db.set_vertex_property(txn, hub, "v", 4)
        return db.create_edge(txn, hub, s1, "L")

    both = tl.run(content_and_topology)
    life[both] = [hub, s1, "L", tl.commits[-1], None]
    tl.run(lambda txn: db.delete_vertex(txn, s2, detach=True))
    for record in life.values():
        if s2 in record[:2] and record[4] is None:
            record[4] = tl.commits[-1]
    set_hub(5)
    db.collect_garbage()
    assert db.storage.vertex_record(s2) is None  # history-only now
    link(hub, s3, "U")  # left on the undo chain
    set_hub(6)
    return tl, [hub, *spokes], life


def _adjacency_versions(db, gid, cond):
    with db.transaction() as txn:
        return [
            (view.tt_start, view.tt_end, list(view.out_edges), list(view.in_edges))
            for view in db.vertex_versions(txn, gid, cond)
        ]


def _content_versions(db, gid, cond):
    with db.transaction() as txn:
        return [view.properties["x"] for view in db.vertex_versions(txn, gid, cond)]


def _alive(life, gid, t):
    """The model's adjacency of ``gid`` at ``t``, sorted."""
    out, inn = [], []
    for edge, (src, dst, kind, created, deleted) in life.items():
        if created <= t and (deleted is None or t < deleted):
            if src == gid:
                out.append(EdgeRef(kind, dst, edge))
            if dst == gid:
                inn.append(EdgeRef(kind, src, edge))
    return sorted(out), sorted(inn)


def _reclaim_seam(db, gid):
    """The instant below which every version of ``gid`` is reclaimed."""
    record = db.storage.vertex_record(gid)
    return MAX_TIMESTAMP if record is None else oldest_unreclaimed_view(record).tt_start


class TestCachedAdjacency:
    """No query reads a reconstructed view's adjacency (temporal expand
    takes candidates from the record and the ``VE`` segment), so these
    tests read it directly: a cache hit serves a shared frozen view
    whose topology records resolve on first read.  It must read exactly
    what a build at cache size 0 reads, and what the edge lifetimes
    say."""

    def test_point_adjacency_equals_uncached_replay(self):
        cold, gids, cold_life = _adjacency_db(cache_size=0)
        warm, gids2, life = _adjacency_db(cache_size=4096)
        assert (gids, cold.commits, cold_life) == (gids2, warm.commits, life)
        points = sorted(
            {t + d for t in warm.commits for d in (-1, 0, 1) if t + d >= 0}
        )
        metrics = warm.db.history.read_metrics
        from_history = 0
        for _round in ("populate", "all hits"):
            for gid in gids:
                for t in points:
                    cond = TemporalCondition.as_of(t)
                    served = metrics.versions_served
                    got = _adjacency_versions(warm.db, gid, cond)
                    assert got == _adjacency_versions(cold.db, gid, cond), (gid, t)
                    if metrics.versions_served > served:
                        # a reclaimed version is exact at t (one from
                        # the chain walk may carry newer structure)
                        ((_s, _e, out, inn),) = got
                        assert (sorted(out), sorted(inn)) == _alive(life, gid, t)
                        from_history += 1
        assert from_history >= 60
        assert metrics.cache_hits > 0

    def test_slice_adjacency_equals_uncached_replay(self):
        cold, gids, _life = _adjacency_db(cache_size=0)
        warm, _gids, life = _adjacency_db(cache_size=4096)
        stamps = warm.commits
        reclaimed = 0
        for gid in gids:
            seam = _reclaim_seam(warm.db, gid)
            for t1, t2 in list(zip(stamps, stamps[1:])) + [(0, stamps[-1] + 1)]:
                cond = TemporalCondition.between(t1, t2)
                expected = _adjacency_versions(cold.db, gid, cond)
                for _round in ("populate", "all hits"):
                    assert _adjacency_versions(warm.db, gid, cond) == expected
                # a reclaimed version in a slice has the adjacency of its end
                for _s, end, out, inn in expected:
                    if end <= seam:
                        assert (sorted(out), sorted(inn)) == _alive(life, gid, end)
                        reclaimed += 1
        assert reclaimed >= 20


def _random_links_db(seed, cache_size, anchor_interval=0, vertices=4, steps=40):
    """Random SETs, edge creates and edge deletes over a few vertices
    with GC epochs in between, ending in one that reclaims every chain:
    structural changes often land after a vertex's last content write.
    Returns the timeline, the vertex gids and the edge lifetimes; the
    timeline's ``clock`` has every vertex write applied at its commit
    timestamp (vertex ``str(gid)``), except a SET of the value already
    held, which the engine treats as no change."""
    rng = random.Random(seed)
    tl = _Timeline(
        AeonG(
            anchor_interval=anchor_interval,
            gc_interval_transactions=0,
            reconstruction_cache_size=cache_size,
        )
    )
    db = tl.db
    tl.clock = clock = ClockGBackend(snapshot_interval=7)
    gids = tl.run(
        lambda txn: [db.create_vertex(txn, ["P"], {"x": 0}) for _ in range(vertices)]
    )
    for gid in gids:
        clock.apply(
            GraphOp(interface.ADD_VERTEX, tl.commits[-1], str(gid), "P", properties={"x": 0})
        )
    held = dict.fromkeys(gids, 0)
    life: dict[int, list] = {}
    for step in range(steps):
        roll = rng.random()
        live = sorted(gid for gid, record in life.items() if record[4] is None)
        if roll < 0.35 and live:
            gone = rng.choice(live)
            tl.run(lambda txn: db.delete_edge(txn, gone))
            life[gone][4] = tl.commits[-1]
        elif roll < 0.7:
            src, dst = rng.choice(gids), rng.choice(gids)
            edge = tl.run(lambda txn: db.create_edge(txn, src, dst, "L"))
            life[edge] = [src, dst, "L", tl.commits[-1], None]
        else:
            gid = rng.choice(gids)
            tl.run(lambda txn: db.set_vertex_property(txn, gid, "x", step))
            if held[gid] != step:
                held[gid] = step
                clock.apply(
                    GraphOp(
                        interface.UPDATE_VERTEX, tl.commits[-1], str(gid),
                        prop="x", value=step,
                    )
                )
        if rng.random() < 0.15:
            db.collect_garbage()
    db.collect_garbage()
    return tl, gids, life


def _reclaimed_adjacency_errors(tl, gids, life):
    """Historical point reads (every instant before a vertex's current
    version) whose adjacency differs from the edge lifetimes."""
    db = tl.db
    wrong = []
    for gid in gids:
        for t in range(db.storage.vertex_record(gid).tt_start):
            for _s, _e, out, inn in _adjacency_versions(
                db, gid, TemporalCondition.as_of(t)
            ):
                if (sorted(out), sorted(inn)) != _alive(life, gid, t):
                    wrong.append((gid, t))
    return wrong


class TestReclaimedAdjacency:
    """A vertex version reconstructed from the history store has the
    adjacency of its queried instant, also when edges were created or
    deleted after the vertex's last content change and GC reclaimed
    both."""

    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_edge_created_after_the_last_set_stays_out_of_older_versions(
        self, cache_size
    ):
        db = AeonG(gc_interval_transactions=0, reconstruction_cache_size=cache_size)
        with db.transaction() as txn:
            v1 = db.create_vertex(txn, ["P"], {"x": 0})
            v2 = db.create_vertex(txn, ["P"], {})
        for x in (1, 2):
            with db.transaction() as txn:
                db.set_vertex_property(txn, v1, "x", x)
        with db.transaction() as txn:
            db.create_edge(txn, v1, v2, "L")
        versions = [(2, 4), (4, 6)]

        def older():
            return [
                _adjacency_versions(db, v1, TemporalCondition.as_of(t))
                for t, _end in versions
            ]

        assert older() == [[(s, e, [], [])] for s, e in versions]
        db.collect_garbage()
        assert db.history.read_metrics.versions_served == 0
        assert older() == [[(s, e, [], [])] for s, e in versions]
        assert db.history.read_metrics.versions_served == 2

    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_a_read_racing_the_migration_of_what_its_walk_undid(
        self, cache_size, monkeypatch
    ):
        """The walk undoes an edge delete still on the chain; an epoch
        migrates that delete before the history read.  The base already
        holds the edge, so its topology record is not undone again."""
        db = AeonG(gc_interval_transactions=0, reconstruction_cache_size=cache_size)
        with db.transaction() as txn:
            v = db.create_vertex(txn, ["P"], {"x": 0})
            w = db.create_vertex(txn, ["P"], {})
        with db.transaction() as txn:
            edge = db.create_edge(txn, v, w, "L")
        linked = txn.commit_ts
        with db.transaction() as txn:
            db.set_vertex_property(txn, v, "x", 1)
        db.collect_garbage()
        with db.transaction() as txn:
            db.delete_edge(txn, edge)
        with db.transaction() as txn:  # a later snapshot: the delete is reclaimable
            db.set_vertex_property(txn, w, "y", 1)
        walk = operators.version_iterator

        def racing(record, txn, *args):
            yield from walk(record, txn, *args)
            monkeypatch.undo()
            db.collect_garbage()

        monkeypatch.setattr(operators, "version_iterator", racing)
        at = TemporalCondition.as_of(linked)
        raced = _adjacency_versions(db, v, at)
        assert db.migrator.migrations == 2  # the epoch ran after the walk
        expected = [(linked - 2, linked + 2, [EdgeRef("L", w, edge)], [])]
        assert [(s, e, out, inn) for s, e, out, inn in raced] == expected
        assert _adjacency_versions(db, v, at) == expected  # and what it cached

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cache_size", [0, 4096])
    def test_random_links_match_edge_lifetimes(self, seed, cache_size):
        tl, gids, life = _random_links_db(seed, cache_size)
        assert _reclaimed_adjacency_errors(tl, gids, life) == []

    def test_cached_reads_match_edge_lifetimes_with_anchors(self):
        # The version list is built from the current-store base down,
        # never from an anchor, so anchors do not change its adjacency.
        for seed in range(4):
            tl, gids, life = _random_links_db(seed, 4096, anchor_interval=2)
            assert _reclaimed_adjacency_errors(tl, gids, life) == [], seed

    def test_uncached_reads_from_an_anchor_match_edge_lifetimes(self):
        uncached, gids, life = _random_links_db(0, 0, anchor_interval=2)
        cached, _gids, _life = _random_links_db(0, 4096, anchor_interval=2)
        assert _reclaimed_adjacency_errors(uncached, gids, life) == []
        for gid in gids:
            for t in range(uncached.db.storage.vertex_record(gid).tt_start):
                cond = TemporalCondition.as_of(t)
                got = _adjacency_versions(uncached.db, gid, cond)
                assert got == _adjacency_versions(cached.db, gid, cond), (gid, t)
                state = uncached.clock.vertex_at(str(gid), t)
                assert _content_versions(uncached.db, gid, cond) == (
                    [] if state is None else [state["x"]]
                ), (gid, t)

    @pytest.mark.parametrize("seed", range(2))
    def test_uncached_slices_from_an_anchor_match_cached_adjacency(self, seed):
        # A slice surfaces each anchor's own version with the adjacency
        # of its end, as a segment split off a kept head does.
        uncached, gids, life = _random_links_db(seed, 0, anchor_interval=2)
        cached, _gids, _life = _random_links_db(seed, 4096, anchor_interval=2)
        reclaimed = 0
        for gid in gids:
            end = uncached.db.storage.vertex_record(gid).tt_start
            for t1 in range(0, end, 3):
                for t2 in range(t1, end + 3, 4):
                    cond = TemporalCondition.between(t1, t2)
                    got = _adjacency_versions(uncached.db, gid, cond)
                    assert got == _adjacency_versions(cached.db, gid, cond), (
                        gid, t1, t2,
                    )
                    for _s, version_end, out, inn in got:
                        if version_end <= end:
                            assert (sorted(out), sorted(inn)) == _alive(
                                life, gid, version_end
                            ), (gid, t1, t2)
                            reclaimed += 1
                    states = uncached.clock.vertex_between(str(gid), t1, t2)
                    assert _content_versions(uncached.db, gid, cond) == [
                        state["x"] for state in states
                    ], (gid, t1, t2)
        assert reclaimed > 0


# -- aliasing: served views share the cache's containers -----------------------


def _state(view):
    """Everything a view reads as, in comparable form."""
    return (
        view.exists,
        view.tt_start,
        view.tt_end,
        sorted(view.labels),
        sorted(view.properties.items()),
        list(view.out_edges),
        list(view.in_edges),
    )


def _frozen_entry(db, gid, t):
    entry = db.history._cache[("vertex", gid)]
    built = list(entry.segments.values())
    if entry.head is not None:
        built.append(entry.head.segment)
    (frozen,) = [
        view
        for segment in built
        for s, e, view in segment.versions
        if view is not None and s <= t < e
    ]
    return frozen


def _undo(action, payload, gid):
    return Delta(action, payload, None, "vertex", gid, 0)


class TestViewAliasing:
    @pytest.fixture
    def served(self):
        """The warm hub and an instant whose reclaimed version carries
        pending topology records when served."""
        tl, (hub, *_spokes), _life = _adjacency_db(cache_size=4096)
        db = tl.db
        for t in range(tl.commits[-1]):
            view = self._serve(db, hub, t)
            if view is not None and view._pending:
                return db, hub, t
        raise AssertionError("no reclaimed hub version with pending topology")

    @staticmethod
    def _serve(db, gid, t):
        """The reclaimed version of ``gid`` at ``t``, or None when the
        current store answers."""
        metrics = db.history.read_metrics
        served = metrics.versions_served
        with db.transaction() as txn:
            views = list(db.vertex_versions(txn, gid, TemporalCondition.as_of(t)))
        return views[0] if metrics.versions_served > served else None

    def test_a_cache_hit_shares_the_cached_containers(self, served):
        db, hub, t = served
        hits = db.history.read_metrics.cache_hits
        view = self._serve(db, hub, t)
        assert db.history.read_metrics.cache_hits == hits + 1
        frozen = _frozen_entry(db, hub, t)
        assert view.labels is frozen.labels
        assert view.properties is frozen.properties
        assert view._out_edges is frozen._out_edges
        assert view._in_edges is frozen._in_edges
        assert view._pending and frozen._pending is None

    def test_resolving_or_stepping_a_served_view_changes_nothing_else(self, served):
        db, hub, t = served
        frozen = _frozen_entry(db, hub, t)
        cached = _state(frozen)
        first, sibling = self._serve(db, hub, t), self._serve(db, hub, t)
        expected = _state(self._serve(db, hub, t))
        assert _state(first) == expected  # resolves first's adjacency
        assert first._pending is None and first._out_edges is not frozen._out_edges
        assert sibling._pending  # still unresolved
        stub = EdgeRef("X", hub, 10**9)
        first.step_back(_undo(DeltaAction.SET_PROPERTY, ("v", 999), hub))
        first.step_back(_undo(DeltaAction.ADD_LABEL, "Stepped", hub))
        first.step_back(_undo(DeltaAction.ADD_OUT_EDGE, tuple(stub), hub))
        assert _state(first) != expected
        # a structural step on an unresolved view resolves it first
        second = self._serve(db, hub, t)
        second.step_back(_undo(DeltaAction.ADD_IN_EDGE, tuple(stub), hub))
        assert second.in_edges == expected[6] + [stub]
        assert second.out_edges == expected[5]
        assert _state(frozen) == cached
        assert _state(sibling) == expected
        assert _state(self._serve(db, hub, t)) == expected

    def test_advancing_version_iterator_leaves_yielded_views_alone(self):
        db, x, _y, z, e = _linked_db()
        with db.transaction() as txn:
            db.set_vertex_property(txn, x, "n", 10)
            db.create_edge(txn, x, z, "KNOWS")
        with db.transaction() as txn:
            db.add_label(txn, x, "Q")
        with db.transaction() as txn:
            db.delete_edge(txn, e)
            db.create_edge(txn, z, x, "KNOWS")
        with db.transaction() as txn:
            db.set_vertex_property(txn, x, "n", 11)
        record = db.storage.vertex_record(x)
        containers = (record.labels, record.properties, record.out_edges, record.in_edges)
        record_state = _state(VertexView(record))
        yielded, at_yield = [], []
        with db.transaction() as txn:
            for view in version_iterator(record, txn):
                yielded.append(view)
                at_yield.append(_state(view))
        assert len({repr(state[3:]) for state in at_yield}) == len(yielded) >= 4
        assert [_state(view) for view in yielded] == at_yield
        assert all(
            now is before
            for now, before in zip(
                (record.labels, record.properties, record.out_edges, record.in_edges),
                containers,
            )
        )
        assert _state(VertexView(record)) == record_state


# -- list-valued equality on an indexed property -------------------------------


class TestListValuedEquality:
    @pytest.mark.parametrize("indexed", [False, True], ids=["unindexed", "indexed"])
    @pytest.mark.parametrize("tt", ["", " TT SNAPSHOT $t"], ids=["current", "tt"])
    @pytest.mark.parametrize(
        "match",
        ["MATCH (n:P {tags: $v})", "MATCH (n:P) WHERE n.tags = $v"],
        ids=["inline", "where"],
    )
    def test_list_value_matches_its_vertex(self, indexed, tt, match):
        db = AeonG(gc_interval_transactions=0)
        db.execute("CREATE (n:P {tags: [1, 2]})")
        db.execute("CREATE (n:P {tags: [3]})")
        if indexed:
            db.create_label_property_index("P", "tags")
        rows = db.execute(
            match + tt + " RETURN n.tags AS tags", {"v": [1, 2], "t": db.now()}
        )
        assert rows == [{"tags": [1, 2]}]


# -- expand preload -----------------------------------------------------------


def _hub_db(cache_size=4096):
    db = AeonG(
        anchor_interval=3,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )
    with db.transaction() as txn:
        hub = db.create_vertex(txn, labels=["H"], properties={"h": 0})
    spokes = []
    for i in range(8):
        with db.transaction() as txn:
            n = db.create_vertex(txn, labels=["N"], properties={"i": i})
            e = db.create_edge(txn, hub, n, "LIKES", properties={"w": 0})
        spokes.append((n, e))
    for n, e in spokes:
        with db.transaction() as txn:
            db.set_edge_property(txn, e, "w", 1)
    with db.transaction() as txn:
        db.delete_edge(txn, spokes[0][1])
    with db.transaction() as txn:
        db.delete_vertex(txn, spokes[1][0], detach=True)
    db.collect_garbage()
    return db, hub


class TestExpandPreload:
    def test_preloaded_expand_matches_unbatched(self):
        batched, hub = _hub_db(cache_size=4096)
        plain, hub2 = _hub_db(cache_size=0)
        assert hub == hub2
        hi = batched.now()
        for t in range(hi + 1):
            cond = TemporalCondition.as_of(t)
            with batched.transaction() as txn:
                vertex = next(iter(batched.vertex_versions(txn, hub, cond)), None)
                got = (
                    sorted(
                        (_esig(e), _vsig(v))
                        for e, v in batched.expand(txn, vertex, cond, "both")
                    )
                    if vertex is not None
                    else None
                )
            with plain.transaction() as txn:
                vertex = next(iter(plain.vertex_versions(txn, hub2, cond)), None)
                expected = (
                    sorted(
                        (_esig(e), _vsig(v))
                        for e, v in plain.expand(txn, vertex, cond, "both")
                    )
                    if vertex is not None
                    else None
                )
            assert got == expected, f"expand at t={t}"
        metrics = batched.history.read_path_metrics()
        assert metrics["preload_batches"] >= 1
        assert metrics["preload_objects"] >= 2

    def test_preload_skips_cached_and_sparse_sets(self):
        db, hub = _hub_db()
        # a single wanted gid is not worth a range scan
        assert db.history.preload_objects("vertex", [hub]) == 0
        # wildly sparse gid sets back off to per-object seeks
        assert db.history.preload_objects("vertex", [0, 10**9]) == 0


# -- KV range scans -----------------------------------------------------------


class TestKVRangeScan:
    def test_scan_range_merges_runs_and_memtable(self):
        kv = KVStore()
        for key in (b"a", b"b", b"c", b"d", b"e"):
            kv.put(key, key.upper())
        kv.flush()  # push into an SSTable so seek_range is exercised
        kv.put(b"cc", b"CC")  # memtable overlay
        batch = WriteBatch()
        batch.delete(b"d")
        kv.write(batch)  # tombstone inside the window
        scans = kv.stats.range_scans
        got = list(kv.scan_range(b"b", b"e"))
        assert got == [(b"b", b"B"), (b"c", b"C"), (b"cc", b"CC")]
        assert kv.stats.range_scans == scans + 1

    def test_scan_range_bounds_are_half_open(self):
        kv = KVStore()
        for key in (b"a", b"b", b"c"):
            kv.put(key, key)
        kv.flush()
        assert [k for k, _ in kv.scan_range(b"a", b"b")] == [b"a"]
        assert list(kv.scan_range(b"b", b"b")) == []
        assert [k for k, _ in kv.scan_range(b"b", b"\xff")] == [b"b", b"c"]
        assert list(kv.scan_range(b"x", b"z")) == []


# -- derived-structure memoization --------------------------------------------


class TestKnownGidMemoization:
    def test_sorted_known_gids_is_memoized_and_refreshed(self):
        db, a, b, _e = _history_rich_db()
        first = db.history.sorted_known_gids("vertex")
        assert first == sorted(db.history.known_gids("vertex"))
        assert db.history.sorted_known_gids("vertex") is first  # memo hit
        assert {a, b} <= set(first)
        with db.transaction() as txn:
            c = db.create_vertex(txn, labels=["R"], properties={"r": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, c, "r", 1)
        db.collect_garbage()
        refreshed = db.history.sorted_known_gids("vertex")
        assert c in set(refreshed)
        assert refreshed == sorted(db.history.known_gids("vertex"))

    def test_emptying_repair_drops_counts_gids_and_cached_versions(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        full = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        assert full
        assert ("vertex", a) in db.history._cache
        before = db.history.sorted_known_gids("vertex")
        assert a in before
        # truncating below MAX_TIMESTAMP removes every record
        assert Scrubber(db)._truncate_below("vertex", a, MAX_TIMESTAMP) > 0
        assert not db.history.has_history("vertex", a)
        assert all(a not in counts for counts in db.history._counts.values())
        assert a not in set(db.history.sorted_known_gids("vertex"))
        assert ("vertex", a) not in db.history._cache
        _assert_counts_match(db.history)


# -- the per-stream record counts against the KV store ------------------------


def _reports_repair(report, code, wording):
    return any(f.code == code and wording in (f.repair or "") for f in report.errors())


class TestRecordCounts:
    """After every step that writes the history KV store, each stream's
    record counts equal a brute-force count of its keys."""

    def test_counts_follow_every_writer(self, tmp_path):
        from repro.errors import FaultInjected

        home = tmp_path / "home"
        db = AeonG.open(home, anchor_interval=4, gc_interval_transactions=0)
        store = db.history
        scrubber = Scrubber(db)
        gids = []
        for _ in range(7):
            with db.transaction() as txn:
                gids.append(db.create_vertex(txn, ["P"], {"n": 0}))
        with db.transaction() as txn:
            edge = db.create_edge(txn, gids[0], gids[1], "L", {"w": 0})
        for i in range(1, 12):
            with db.transaction() as txn:
                for gid in gids:
                    db.set_vertex_property(txn, gid, "n", i)
                db.set_edge_property(txn, edge, "w", i)
        db.collect_garbage()  # a migration epoch
        _assert_counts_match(store)
        assert store.has_history("edge", edge)

        with db.transaction() as txn:
            db.set_vertex_property(txn, gids[0], "n", 12)
        with db.transaction() as txn:
            db.set_vertex_property(txn, gids[0], "n", 13)
        with FAILPOINTS.active("migration.commit_batch", "error"):
            with pytest.raises(FaultInjected):
                db.collect_garbage()  # a failed epoch
        _assert_counts_match(store)
        db.collect_garbage()
        _assert_counts_match(store)

        def stream(gid, kind):
            prefix = hk.object_prefix(hk.SEGMENT_VERTEX, kind, gid)
            return list(store.kv.scan_prefix(prefix))

        def damage(puts=(), deletes=()):
            batch = WriteBatch()
            for key, value in puts:
                batch.put(key, value)
            for key in deletes:
                batch.delete(key)
            store.write(batch)
            _assert_counts_match(store)

        def anchored_delta(gid):
            anchor = hk.decode_key(stream(gid, hk.KIND_ANCHOR)[0][0])
            key = hk.encode_key(
                hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid, anchor.tt_start, anchor.tt_end
            )
            return key, dict(stream(gid, hk.KIND_DELTA))[key]

        # checksum rewrite: a corrupt delta sharing an anchor's interval
        key, value = anchored_delta(gids[1])
        damage(puts=[(key, corrupt_bytes(value))])
        # truncation: a corrupt delta with no companion anchor
        anchor_ends = {hk.decode_key(k).tt_end for k, _ in stream(gids[2], hk.KIND_ANCHOR)}
        key, value = next(
            (k, v)
            for k, v in stream(gids[2], hk.KIND_DELTA)
            if hk.decode_key(k).tt_end not in anchor_ends
        )
        damage(puts=[(key, corrupt_bytes(value))])
        # re-anchor: a well-checksummed but wrong anchor
        key, _value = stream(gids[3], hk.KIND_ANCHOR)[0]
        damage(puts=[(key, encode_record_payload({"l": ["P"], "p": {"n": 999}}))])
        # anchor drop: an orphaned anchor past the last delta
        last = hk.decode_key(stream(gids[4], hk.KIND_DELTA)[-1][0])
        orphan = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gids[4], last.tt_end + 101,
            last.tt_end + 103,
        )
        damage(puts=[(orphan, encode_record_payload({"l": [], "p": {}}))])
        # current-overlap drop: a delta claiming time the current store owns
        bogus = hk.encode_key(
            hk.SEGMENT_VERTEX, hk.KIND_DELTA, gids[5], db.now() + 5, db.now() + 9
        )
        damage(puts=[(bogus, encode_record_payload({"p": {"n": -1}}))])
        # spacing-anchor insert: every anchor of an object gone
        damage(deletes=[key for key, _value in stream(gids[6], hk.KIND_ANCHOR)])

        report = scrubber.scrub_full()
        _assert_counts_match(store)
        assert _reports_repair(report, "checksum-mismatch", "rewritten")
        assert _reports_repair(report, "checksum-mismatch", "truncated")
        assert _reports_repair(report, "anchor-replay-mismatch", "re-anchored")
        assert _reports_repair(report, "anchor-orphaned", "dropped anchor")
        assert _reports_repair(report, "current-overlap", "dropped")
        assert report.anchors_inserted >= 1
        assert scrubber.scrub_full().ok
        _assert_counts_match(store)

        with FAILPOINTS.active("history.fetch", "corrupt"):
            with pytest.raises(IntegrityError):
                _versions(db, "vertex", gids[0], TemporalCondition.between(0, db.now()))
        _assert_counts_match(store)
        scrubber.scrub_full()  # truncates below the damage
        _assert_counts_match(store)

        assert store.prune(db.now() // 2) > 0
        _assert_counts_match(store)
        counts = {s: dict(c) for s, c in store._counts.items()}

        db.checkpoint()
        db.close()
        reopened = AeonG.open(home, anchor_interval=4, gc_interval_transactions=0)
        try:
            _assert_counts_match(reopened.history)
            assert reopened.history._counts == counts
        finally:
            reopened.close()


    def test_writes_racing_epochs_lose_no_count(self, monkeypatch):
        """A write() recounting an object and an epoch publishing rows to
        it exclude each other, in both orders: two named schedules, each
        parking one side at its race window (hooks on this store only)
        while the other runs.  The parked side holds the store's lock,
        so the other must still be waiting when released, and the counts
        then equal the KV store."""
        db = AeonG(anchor_interval=4, gc_interval_transactions=0)
        store = db.history
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["P"], {"n": 0})
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", 1)
        db.collect_garbage()
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid)
        scan_prefix, publish = store.kv.scan_prefix, store._publish

        def rewrite():
            batch = WriteBatch()
            batch.put(*list(scan_prefix(prefix))[-1])
            store.write(batch)

        def epoch(i):
            def run():
                with db.transaction() as txn:
                    db.set_vertex_property(txn, gid, "n", i)
                db.collect_garbage()
            return run

        def race(name, parked_side, other_side, park):
            parked, release = threading.Event(), threading.Event()
            first = threading.Thread(target=parked_side, name=f"{name}-parked")
            park(first, parked, release)
            first.start()
            assert parked.wait(10), name
            second = threading.Thread(target=other_side)
            second.start()
            second.join(0.2)
            waited = second.is_alive()
            release.set()
            first.join(10)
            second.join(10)
            monkeypatch.undo()
            assert waited, f"{name}: the other side ran inside the window"
            _assert_counts_match(store)

        def park_write_recount(thread, parked, release):
            # write()'s recount has read the stored rows but not yet
            # installed their count
            def parking_scan(key):
                rows = list(scan_prefix(key))
                if threading.current_thread() is thread and not parked.is_set():
                    parked.set()
                    release.wait(10)
                return iter(rows)

            monkeypatch.setattr(store.kv, "scan_prefix", parking_scan)

        def park_epoch_publish(thread, parked, release):
            # commit_batch has written its rows but not yet counted them
            def parking_publish(*row):
                if not parked.is_set():
                    parked.set()
                    release.wait(10)
                publish(*row)

            monkeypatch.setattr(store, "_publish", parking_publish)

        race("write parked before its recount", rewrite, epoch(2), park_write_recount)
        race("epoch parked before its publish", epoch(3), rewrite, park_epoch_publish)


# -- the range-addressable record counts and the preload density guard --------


def _stage_rows(store, rows, first_tt=0):
    """Stage ``rows`` (``{(segment, gid): record count}``) into a fresh
    batch; record ``i`` of an object covers ``[first_tt + i, first_tt +
    i + 1)``.  The caller installs the batch."""
    batch = WriteBatch()
    for (segment, gid), count in sorted(rows.items()):
        for i in range(count):
            store.stage_record(
                batch,
                RecordDraft(segment, gid, first_tt + i, first_tt + i + 1, {"p": {"x": i}}),
            )
    return batch


def _assert_enumerators_sorted(store):
    """The memoized gid lists equal a fresh sort of their sources."""
    for kind, segment in (("vertex", hk.SEGMENT_VERTEX), ("edge", hk.SEGMENT_EDGE)):
        assert store.sorted_known_gids(kind) == sorted(store.known_gids(kind))
        stream = (segment, hk.KIND_DELTA)
        assert store._sorted_gids(stream) == sorted(store._counts[stream])


def _assert_counts_match(store):
    """Every stream's record counts equal a brute-force count of the
    KV store's keys."""
    expected: dict = {}
    for key, _value in store.kv.scan_all():
        decoded = hk.decode_key(key)
        per_gid = expected.setdefault((decoded.segment, decoded.kind), {})
        per_gid[decoded.gid] = per_gid.get(decoded.gid, 0) + 1
    assert {stream: counts for stream, counts in store._counts.items() if counts} == (
        expected
    )
    for kind, segments in (
        ("vertex", (hk.SEGMENT_VERTEX, hk.SEGMENT_TOPOLOGY)),
        ("edge", (hk.SEGMENT_EDGE,)),
    ):
        known = {
            gid
            for (segment, _kind), counts in expected.items()
            if segment in segments
            for gid in counts
        }
        assert store.sorted_known_gids(kind) == sorted(known)


def _delete_object(store, object_kind, gid):
    """Delete every record of one object through the store's writer."""
    segments = (
        (hk.SEGMENT_VERTEX, hk.SEGMENT_TOPOLOGY)
        if object_kind == "vertex"
        else (hk.SEGMENT_EDGE,)
    )
    batch = WriteBatch()
    for segment in segments:
        for kind in (hk.KIND_ANCHOR, hk.KIND_DELTA):
            for key, _value in store.kv.scan_prefix(hk.object_prefix(segment, kind, gid)):
                batch.delete(key)
    store.write(batch)


def _reference_declines(store, segment, gids):
    """The seed's density guard restated by brute force over the KV
    store itself (one pass over every key, no index): ``True`` = back
    off, ``False`` = batch, ``None`` = the guard is never reached."""
    kind = hk.KIND_DELTA
    object_kind = "edge" if segment == hk.SEGMENT_EDGE else "vertex"
    wanted = sorted(
        gid
        for gid in gids
        if (object_kind, gid) not in store._cache
        or (segment, kind) not in store._cache[(object_kind, gid)].records
    )
    if len(wanted) < 2:
        return None
    rows: dict[int, int] = {}
    for key, _value in store.kv.scan_all():
        decoded = hk.decode_key(key)
        if (decoded.segment, decoded.kind) == (segment, kind):
            rows[decoded.gid] = rows.get(decoded.gid, 0) + 1
    goal = sum(rows.get(gid, 0) for gid in wanted)
    span = sum(n for gid, n in rows.items() if wanted[0] <= gid <= wanted[-1])
    return span > 4 * goal + 16


def _assert_guard_matches_reference(store, candidate_sets):
    for object_kind, segments in (
        ("vertex", (hk.SEGMENT_VERTEX, hk.SEGMENT_TOPOLOGY)),
        ("edge", (hk.SEGMENT_EDGE,)),
    ):
        for candidates in candidate_sets:
            # every check starts cold, or one accepted batch would keep
            # its objects out of all later guard calls
            store._cache.clear()
            known = candidates & store.known_gids(object_kind)
            expected = [_reference_declines(store, seg, known) for seg in segments]
            before = store.read_path_metrics()
            store.preload_objects(object_kind, candidates)
            after = store.read_path_metrics()
            assert (
                after["preload_backoffs"] - before["preload_backoffs"]
                == expected.count(True)
            ), (object_kind, sorted(candidates))
            assert (
                after["preload_batches"] - before["preload_batches"]
                == expected.count(False)
            ), (object_kind, sorted(candidates))


_SEGMENTS = st.sampled_from([hk.SEGMENT_VERTEX, hk.SEGMENT_TOPOLOGY, hk.SEGMENT_EDGE])
_ROWS = st.dictionaries(
    st.tuples(_SEGMENTS, st.integers(0, 300)), st.integers(1, 6), max_size=80
)
# half the candidate sets are scattered over the keyspace (the guard
# declines), half sit in a narrow gid window (the guard batches)
_CANDIDATES = st.lists(
    st.one_of(
        st.sets(st.integers(0, 320), max_size=10),
        st.integers(0, 300).flatmap(
            lambda low: st.sets(st.integers(low, low + 12), max_size=8)
        ),
    ),
    min_size=1,
    max_size=4,
)


def _boundary_rows(extra):
    """Edge gids 0 and 100 wanted (goal 2, limit 24) around ``extra``
    single-row bystanders: 22 of them put the span exactly at the limit."""
    return {(hk.SEGMENT_EDGE, gid): 1 for gid in (0, 100, *range(1, 1 + extra))}


class TestPreloadGuardIndex:
    @example(  # span == limit batches; one staged bystander later declines
        initial=_boundary_rows(22),
        later={(hk.SEGMENT_EDGE, 50): 1},
        candidate_sets=[{0, 100}],
        cutoff=0,
        victim=7,
    )
    @example(  # span == limit + 1 declines until prune() thins the range
        initial=_boundary_rows(23),
        later={(hk.SEGMENT_EDGE, 0): 2, (hk.SEGMENT_EDGE, 100): 2},
        candidate_sets=[{0, 100}],
        cutoff=1,
        victim=0,
    )
    @given(
        initial=_ROWS,
        later=_ROWS,
        candidate_sets=_CANDIDATES,
        cutoff=st.integers(0, 8),
        victim=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_guard_decision_equals_bruteforce_reference(
        self, initial, later, candidate_sets, cutoff, victim
    ):
        store = HistoricalStore()
        store.commit_batch(_stage_rows(store, initial))
        _assert_guard_matches_reference(store, candidate_sets)
        _assert_enumerators_sorted(store)  # memoizes every list
        # new gids and longer row lists arrive through staging, which
        # must leave the memoized lists fresh even before the install
        batch = _stage_rows(store, later, first_tt=6)
        _assert_enumerators_sorted(store)
        store.commit_batch(batch)
        _assert_guard_matches_reference(store, candidate_sets)
        store.prune(cutoff)
        _assert_guard_matches_reference(store, candidate_sets)
        store.invalidate_caches()
        _assert_guard_matches_reference(store, candidate_sets)
        for kind in ("vertex", "edge"):
            known = store.sorted_known_gids(kind)
            if known:
                _delete_object(store, kind, known[victim % len(known)])
        _assert_guard_matches_reference(store, candidate_sets)
        _assert_enumerators_sorted(store)
        _assert_counts_match(store)

    def test_sparse_expand_never_walks_the_per_gid_index(self):
        """An expand over four neighbours scattered across a 20k-object
        store must size its preload from the sorted gid lists — the
        per-gid count maps refuse every form of iteration."""
        db = AeonG(anchor_interval=3, gc_interval_transactions=0)
        with db.transaction() as txn:
            filler = [
                db.create_vertex(txn, labels=["F"], properties={"i": i})
                for i in range(20_000)
            ]
        with db.transaction() as txn:
            for gid in filler:
                db.set_vertex_property(txn, gid, "i", -1)
        hubs = (filler[10_000], filler[10_001])
        spokes = [filler[i] for i in (100, 5_000, 15_000, 19_900)]
        with db.transaction() as txn:
            edges = [
                db.create_edge(txn, hub, spoke, "LIKES", properties={"w": 0})
                for hub in hubs
                for spoke in spokes
            ]
        with db.transaction() as txn:
            for edge in edges:
                db.set_edge_property(txn, edge, "w", 1)
        db.collect_garbage()
        assert len(db.history.known_gids("vertex")) >= 20_000

        def expand_all(hub):
            cond = TemporalCondition.between(0, db.now())
            with db.transaction() as txn:
                return sorted(
                    (_esig(e), _vsig(v))
                    for vertex in db.vertex_versions(txn, hub, cond)
                    for e, v in db.expand(txn, vertex, cond, "both")
                )

        # the first expand after a change may sort each mapping once
        warm = expand_all(hubs[0])
        assert len(warm) >= len(spokes)

        class NoWalk(dict):
            def _refuse(self, *_args):
                raise AssertionError("store-wide walk of a per-gid count map")

            __iter__ = items = values = keys = _refuse

        counts = db.history._counts
        for key in list(counts):
            counts[key] = NoWalk(counts[key])
        db.history._cache.clear()
        before = db.history.read_path_metrics()
        cold = expand_all(hubs[1])
        after = db.history.read_path_metrics()
        assert [pair[1] for pair in cold] == [pair[1] for pair in warm]
        # the scattered neighbours were declined (vertex segment) and the
        # adjacent edge gids batched, both without walking the count maps
        assert after["preload_backoffs"] > before["preload_backoffs"]
        assert after["preload_batches"] > before["preload_batches"]

    def test_hub_expand_counters_and_answers_are_pinned(self):
        """Same decisions, less work: the KV traffic, preload counters
        and every expand answer of the hub fixture, as measured before
        the guard was rewritten."""
        db, hub = _hub_db()
        db.history.invalidate_caches()
        kv = db.history.kv.stats
        seeks, range_scans = kv.seeks, kv.range_scans
        answers = []
        for t in range(db.now() + 1):
            cond = TemporalCondition.as_of(t)
            with db.transaction() as txn:
                vertex = next(iter(db.vertex_versions(txn, hub, cond)), None)
                answers.append(
                    None
                    if vertex is None
                    else sorted(
                        (_esig(e), _vsig(v))
                        for e, v in db.expand(txn, vertex, cond, "both")
                    )
                )
        cond = TemporalCondition.between(0, db.now())
        with db.transaction() as txn:
            for vertex in list(db.vertex_versions(txn, hub, cond)):
                answers.append(
                    sorted(
                        (_esig(e), _vsig(v))
                        for e, v in db.expand(txn, vertex, cond, "both")
                    )
                )
        metrics = db.history.read_path_metrics()
        anchored = sum(
            len(gids)
            for (_segment, kind), gids in db.history._counts.items()
            if kind == hk.KIND_ANCHOR
        )
        assert anchored == 5
        # two prefix reads and three range reads of delta lists; then
        # the anchor lists a cold read bisects, however many objects
        # have anchors: the hub's own (a prefix read) and one range read
        # beside each preloaded kind's deltas (two neighbours', two edges')
        assert kv.seeks - seeks == 5 + 1 + 2
        assert kv.range_scans - range_scans == 3 + 2
        assert metrics["preload_batches"] == 3 + 2
        assert metrics["preload_objects"] == 24 + 2 + 2
        assert metrics["preload_backoffs"] == 0
        assert [None if a is None else len(a) for a in answers] == (
            [None, None, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
            + [8] * 18
            + [7, 7, 6, 6, 16]
        )
        assert (
            hashlib.sha256(repr(answers).encode()).hexdigest()
            == "0919c1f535a95fcdb187f76c63e77b20e1fd5c2290b771e4bfb4ffda9187ea2e"
        )


class TestBatchedAnchorLists:
    def test_a_batch_reads_its_anchor_lists_in_one_range(self):
        """A cold expand over anchored edges reads their anchor lists in
        one range read beside their deltas: its KV seeks do not grow
        with the number of objects that have anchors."""

        def cold_expand(spokes):
            db = AeonG(anchor_interval=1, gc_interval_transactions=0)
            with db.transaction() as txn:
                hub = db.create_vertex(txn, ["H"], {})
                edges = [
                    db.create_edge(txn, hub, db.create_vertex(txn, ["S"], {}), "L", properties={"w": 0})
                    for _ in range(spokes)
                ]
            for w in (1, 2):
                with db.transaction() as txn:
                    for edge in edges:
                        db.set_edge_property(txn, edge, "w", w)
            db.collect_garbage()
            anchored = len(db.history._counts[(hk.SEGMENT_EDGE, hk.KIND_ANCHOR)])
            db.history.invalidate_caches()
            stats = db.history.kv.stats
            seeks = stats.seeks
            cond = TemporalCondition.between(0, db.now())
            with db.transaction() as txn:
                found = sorted(
                    edge.properties["w"]
                    for vertex in db.vertex_versions(txn, hub, cond)
                    for edge, _other in db.expand(txn, vertex, cond, "out")
                )
            return anchored, stats.seeks - seeks, found

        small, large = cold_expand(4), cold_expand(16)
        assert small[0] == 4 and large[0] == 16
        assert large[1] == small[1]
        assert small[2] == sorted([0, 1, 2] * 4) and large[2] == sorted([0, 1, 2] * 16)


# -- the anchor segment bounds a cold read --------------------------------------


def _set_history(anchor_interval, cache_size, sets=200):
    """One vertex with ``sets`` migrated SETs of ``n``; returns the
    engine, its gid and the commit timestamps of the creation and of
    each SET (``n`` holds ``i`` from ``stamps[i]`` on)."""
    db = AeonG(
        anchor_interval=anchor_interval,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["P"], {"n": 0})
    stamps = [txn.commit_ts]
    for n in range(1, sets + 1):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", n)
        stamps.append(txn.commit_ts)
    db.collect_garbage()
    assert db.storage.vertex_record(gid).delta_head is None
    return db, gid, stamps


def _churn_history(anchor_interval, cache_size, sets=120):
    """``_set_history`` with edge churn: the SET of ``n`` also adds an
    edge to a neighbour when ``n % 4 == 0`` and removes it when
    ``n % 4 == 2``, so version ``n`` has an out-edge iff ``n % 4 < 2``
    and ``n >= 4``."""
    db = AeonG(
        anchor_interval=anchor_interval,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["P"], {"n": 0})
        other = db.create_vertex(txn, ["Q"], {})
    stamps = [txn.commit_ts]
    edge = None
    for n in range(1, sets + 1):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", n)
            if n % 4 == 0:
                edge = db.create_edge(txn, gid, other, "L")
            elif n % 4 == 2 and edge is not None:
                db.delete_edge(txn, edge)
        stamps.append(txn.commit_ts)
    db.collect_garbage()
    assert db.storage.vertex_record(gid).delta_head is None
    return db, gid, stamps


def _stored_ends(db, segment, kind, gid):
    """The tt_end of each of ``gid``'s stored records in one stream."""
    prefix = hk.object_prefix(segment, kind, gid)
    return [hk.decode_key(key).tt_end for key, _value in db.history.kv.scan_prefix(prefix)]


def _cold_cost(db, gid, cond):
    """A read of ``gid`` from an empty history cache: the ``n`` of each
    version, and the payloads it decoded, deltas it replayed and
    anchor seeks it made."""
    store = db.history
    store.invalidate_caches()
    metrics = store.read_metrics

    def counters():
        decoded = store.checksums_verified + store.legacy_records
        return decoded, metrics.deltas_replayed, metrics.anchor_seeks

    before = counters()
    with db.transaction() as txn:
        found = [view.properties["n"] for view in db.vertex_versions(txn, gid, cond)]
    return found, tuple(now - then for now, then in zip(counters(), before))


class TestAnchorSegmentBound:
    """``FetchFromKV`` reads one anchor and at most ``u`` deltas: a cold
    point read decodes at most 1 + u payloads, replays at most u deltas
    and seeks the anchors once, whether the cache keeps what it built
    or not; a slice pays that once per segment it overlaps."""

    @pytest.mark.parametrize("cache_size", [4096, 0])
    @pytest.mark.parametrize("u", [1, 10, 100])
    def test_a_cold_point_read_replays_one_segment(self, u, cache_size):
        db, gid, stamps = _set_history(u, cache_size)
        for n, t in enumerate(stamps[:-1]):  # every reclaimed version
            found, cost = _cold_cost(db, gid, TemporalCondition.as_of(t))
            assert found == [n]
            decodes, replays, seeks = cost
            assert decodes <= 1 + u and replays <= u and seeks == 1, (t, cost)

    @pytest.mark.parametrize("cache_size", [4096, 0])
    @pytest.mark.parametrize("u", [1, 10, 100])
    def test_a_cold_slice_pays_per_segment_it_overlaps(self, u, cache_size):
        db, gid, stamps = _set_history(u, cache_size)
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
        # a SET's anchor snapshots the version its record ends: its end
        # is the top of its segment
        tops = [hk.decode_key(key).tt_end for key, _value in db.history.kv.scan_prefix(prefix)]
        assert len(tops) >= len(stamps) // u - 1
        rng = random.Random(u)
        windows = [(stamps[0], stamps[-2])]
        windows += [sorted(rng.sample(stamps[:-1], 2)) for _ in range(8)]
        for t1, t2 in windows:
            found, cost = _cold_cost(db, gid, TemporalCondition.between(t1, t2))
            assert found == list(range(stamps.index(t2), stamps.index(t1) - 1, -1))
            overlapped = bisect.bisect_right(tops, t2) - bisect.bisect_right(tops, t1) + 1
            decodes, _replays, seeks = cost
            assert decodes <= overlapped * (1 + u) and seeks == 1, (t1, t2, cost)


    @pytest.mark.parametrize("cache_size", [4096, 0])
    @pytest.mark.parametrize("u", [3, 10])
    def test_topology_records_replay_once_per_read(self, u, cache_size):
        """An anchor holds content only, so a segment also undoes the
        structural changes above its anchor.  They lie outside the
        1 + u bound, but a read replays each of them once: a slice over
        k segments replays at most k * u content records plus the
        topology records above its lowest segment."""
        db, gid, stamps = _churn_history(u, cache_size)
        tops = _stored_ends(db, hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
        topology = _stored_ends(db, hk.SEGMENT_TOPOLOGY, hk.KIND_DELTA, gid)
        assert len(tops) >= len(stamps) // u - 1 and len(topology) >= len(stamps) // 2 - 2

        def above(floor):
            return len(topology) - bisect.bisect_right(topology, floor)

        for n, t in enumerate(stamps[:-1]):
            store = db.history
            store.invalidate_caches()
            before = store.checksums_verified, store.read_metrics.deltas_replayed
            with db.transaction() as txn:
                views = list(db.vertex_versions(txn, gid, TemporalCondition.as_of(t)))
                got = [(view.properties["n"], len(view.out_edges)) for view in views]
            assert got == [(n, int(n >= 4 and n % 4 < 2))], t
            decodes = store.checksums_verified - before[0]
            replays = store.read_metrics.deltas_replayed - before[1]
            floor = max((top for top in tops if top <= t), default=-1)
            assert decodes <= 1 + u + above(floor) and replays <= u + above(floor), (t, decodes, replays)
        rng = random.Random(u)
        windows = [(stamps[0], stamps[-2])]
        windows += [sorted(rng.sample(stamps[:-1], 2)) for _ in range(8)]
        for t1, t2 in windows:
            found, cost = _cold_cost(db, gid, TemporalCondition.between(t1, t2))
            assert found == list(range(stamps.index(t2), stamps.index(t1) - 1, -1))
            overlapped = bisect.bisect_right(tops, t2) - bisect.bisect_right(tops, t1) + 1
            floor = max((top for top in tops if top <= t1), default=-1)
            decodes, replays, _seeks = cost
            assert replays <= overlapped * u + above(floor), (t1, t2, cost)
            assert decodes <= overlapped * (1 + u) + above(floor), (t1, t2, cost)

    @pytest.mark.parametrize("cache_size", [4096, 0])
    def test_a_damaged_anchor_is_replayed_past(self, cache_size):
        """A damaged anchor costs its segment the bound, not its
        answers: the segment's versions replay from the deltas above
        it."""
        db, gid, stamps = _churn_history(5, cache_size, sets=40)
        store = db.history
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
        anchors = list(store.kv.scan_prefix(prefix))
        key, value = anchors[len(anchors) // 2]
        batch = WriteBatch()
        batch.put(key, corrupt_bytes(value))
        store.write(batch)
        expected = [(n, int(n >= 4 and n % 4 < 2)) for n in range(len(stamps) - 1)]
        store.invalidate_caches()
        for n, t in enumerate(stamps[:-1]):
            with db.transaction() as txn:
                got = [
                    (view.properties["n"], len(view.out_edges))
                    for view in db.vertex_versions(txn, gid, TemporalCondition.as_of(t))
                ]
            assert got == [expected[n]], t
        # a slice's versions, each with its adjacency at its end, as an
        # undamaged twin serves them
        twin = _churn_history(5, cache_size, sets=40)[0]
        cond = TemporalCondition.between(stamps[0], stamps[-2])
        store.invalidate_caches()
        slices = []
        for engine in (db, twin):
            with engine.transaction() as txn:
                slices.append([
                    (view.properties["n"], len(view.out_edges))
                    for view in engine.vertex_versions(txn, gid, cond)
                ])
        assert slices[0] == slices[1]
        assert [n for n, _degree in slices[0]] == list(range(len(stamps) - 2, -1, -1))

    @pytest.mark.parametrize("cache_size", [4096, 0])
    def test_damage_stays_in_its_segment(self, cache_size):
        """A damaged delta stops only its own segment's build, below
        it: every version above it, and every version of another
        segment, still serves."""
        db, gid, stamps = _set_history(5, cache_size, sets=30)
        store = db.history
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_ANCHOR, gid)
        tops = [hk.decode_key(key).tt_end for key, _value in store.kv.scan_prefix(prefix)]
        prefix = hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid)
        key, value = next(
            (key, value)
            for key, value in list(store.kv.scan_prefix(prefix))[16:]
            if hk.decode_key(key).tt_end not in tops  # an anchor stands in for that one
        )
        damaged = hk.decode_key(key).tt_end
        batch = WriteBatch()
        batch.put(key, corrupt_bytes(value))
        store.write(batch)
        floor = max(top for top in tops if top < damaged)
        for warm in (False, True):
            for n, t in enumerate(stamps[:-1]):
                if not warm:
                    store.invalidate_caches()
                cond = TemporalCondition.as_of(t)
                with db.transaction() as txn:
                    if floor <= t < damaged:  # replays through the damage
                        with pytest.raises(IntegrityError):
                            list(db.vertex_versions(txn, gid, cond))
                    else:
                        got = [view.properties["n"] for view in db.vertex_versions(txn, gid, cond)]
                        assert got == [n], t

    def test_racing_cold_readers_share_the_rows_they_decode(self):
        """Readers building the same segments at once, each decoding
        shared rows in place, answer as one reader does."""
        db, gid, stamps = _set_history(10, 4096, sets=60)
        reclaimed = stamps[:-1]
        db.history.invalidate_caches()
        errors: list = []

        def reader(offset):
            try:
                for i in range(len(reclaimed)):
                    n = (i + offset) % len(reclaimed)
                    with db.transaction() as txn:
                        got = [
                            view.properties["n"]
                            for view in db.vertex_versions(
                                txn, gid, TemporalCondition.as_of(reclaimed[n])
                            )
                        ]
                    if got != [n]:
                        errors.append((n, got))
            except Exception as exc:  # reported below, with the thread's answer
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(k * 7,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # a row holds its stored bytes or its payload, nothing between
        entry = db.history._cache[("vertex", gid)]
        for rows in entry.records.values():
            assert all(isinstance(row[2], (bytes, dict)) for row in rows)


# -- an undecodable key on the read path ----------------------------------------


def _two_histories(**resilience):
    """Vertices ``x`` and ``y``, each with five migrated SETs."""
    db = AeonG(
        anchor_interval=3,
        gc_interval_transactions=0,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )
    with db.transaction() as txn:
        x = db.create_vertex(txn, ["P"], {"n": 0})
        y = db.create_vertex(txn, ["P"], {"n": 0})
    for n in range(1, 6):
        with db.transaction() as txn:
            db.set_vertex_property(txn, x, "n", n)
            db.set_vertex_property(txn, y, "n", n)
    db.collect_garbage()
    return db, x, y


def _write_bad_key(db, gid):
    """A 15-byte key under ``gid``'s content-delta prefix."""
    batch = WriteBatch()
    batch.put(hk.object_prefix(hk.SEGMENT_VERTEX, hk.KIND_DELTA, gid) + b"\x00" * 5, b"junk")
    db.history.write(batch)


@pytest.mark.integrity
class TestUndecodableKeyOnTheReadPath:
    """The key-only pass counts an undecodable key and quarantines the
    object whose prefix it sits under, alone: its reads follow the
    ``degraded_reads`` policy, every other object answers unchanged,
    and the scrubber's ``bad-key`` repair lifts the quarantine."""

    def test_a_bad_key_quarantines_its_object_alone(self):
        db, x, y = _two_histories(degraded_reads="current-only")
        hi = db.now()
        current = db.storage.vertex_record(x).tt_start

        def versions(gid):
            conds = [TemporalCondition.as_of(t) for t in range(hi + 1)]
            with db.transaction() as txn:
                return [
                    [view.properties["n"] for view in db.vertex_versions(txn, gid, cond)]
                    for cond in conds + [TemporalCondition.between(0, hi)]
                ]

        def matched(gid):
            return [
                [
                    row["n"]
                    for row in db.execute(
                        "MATCH (v:P) TT SNAPSHOT $t RETURN id(v) AS gid, v.n AS n",
                        {"t": t},
                    )
                    if row["gid"] == gid
                ]
                for t in range(hi + 1)
            ]

        before = {gid: (versions(gid), matched(gid)) for gid in (x, y)}
        assert {n for rows in before[y][1] for n in rows} == set(range(6))
        _write_bad_key(db, x)
        # x serves its current version only, and raises nothing
        current_only = [[5] if t >= current else [] for t in range(hi + 1)]
        assert versions(x) == current_only + [[5]]
        assert matched(x) == current_only
        assert (versions(y), matched(y)) == before[y]
        read = db.metrics()["read_path"]
        assert (read["undecodable_keys"], read["quarantined_objects"]) == (1, 1)
        assert db.history.quarantine.ranges("vertex", x) == [(0, MAX_TIMESTAMP)]

        report = Scrubber(db).scrub_full()
        assert [finding.code for finding in report.errors()] == ["bad-key"]
        assert db.history.quarantine.count() == 0
        assert db.metrics()["read_path"]["undecodable_keys"] == 0
        assert (versions(x), matched(x)) == before[x]

    def test_under_the_raise_policy_the_read_names_the_quarantine(self):
        db, x, y = _two_histories()
        _write_bad_key(db, x)
        with db.transaction() as txn:
            with pytest.raises(IntegrityError, match="quarantined"):
                list(db.vertex_versions(txn, x, TemporalCondition.between(0, db.now())))
            assert [
                view.properties["n"]
                for view in db.vertex_versions(txn, y, TemporalCondition.between(0, db.now()))
            ] == [5, 4, 3, 2, 1, 0]
