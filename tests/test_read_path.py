"""Read-path performance layer (reconstruction cache, key index,
preload) and its correctness contract.

Covers: cached-vs-uncached output equality over the full (t1, t2)
grid, the half-open seam boundary in ``_object_versions`` (the
``base.tt_start >= cond.t1`` guard), epoch invalidation on migration
commits / ``prune()`` / integrity repair, quarantine precedence over a
warm cache, the ``ReadMetrics`` counters (no KV seeks on warm
re-reads, no double counting), scan-at-t with concurrent and aborted
writers, expand's batched preload, and the KV layer's bounded range
scan.
"""

from __future__ import annotations

import hashlib
import json
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AeonG, IntegrityError, TemporalCondition
from repro.cli import run as cli_run
from repro.common.timeutil import MAX_TIMESTAMP
from repro.core import keys as hk
from repro.core.deltas import RecordDraft
from repro.core.history_store import HistoricalStore
from repro.faults import FAILPOINTS, corrupt_bytes
from repro.kvstore import KVStore, WriteBatch

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


def _history_rich_db(cache_size=4096, anchor_interval=3):
    """Two vertices and an edge with reclaimed history on every
    segment: property versions, structural (topology) records, a
    deleted edge, a fully reclaimed vertex, and an anchor staged at a
    structural commit (the mid-version anchor case)."""
    db = AeonG(
        anchor_interval=anchor_interval,
        gc_interval_transactions=0,
        reconstruction_cache_size=cache_size,
    )
    with db.transaction() as txn:
        a = db.create_vertex(txn, labels=["P"], properties={"n": 0})
        b = db.create_vertex(txn, labels=["Q"], properties={"m": 0})
    for i in range(1, 9):
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", i)
    with db.transaction() as txn:
        e = db.create_edge(txn, a, b, "KNOWS", properties={"w": 0})
    for i in range(1, 5):
        with db.transaction() as txn:
            db.set_edge_property(txn, e, "w", i)
    with db.transaction() as txn:
        db.delete_edge(txn, e)
    with db.transaction() as txn:
        db.delete_vertex(txn, b)
    db.collect_garbage()
    for i in range(9, 13):
        with db.transaction() as txn:
            db.set_vertex_property(txn, a, "n", i)
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


# -- cached vs uncached equality ----------------------------------------------


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("kind_attr", ["a", "b", "e"])
    def test_full_grid_matches_uncached(self, kind_attr):
        cold, a0, b0, e0 = _history_rich_db(cache_size=0)
        warm, a1, b1, e1 = _history_rich_db(cache_size=4096)
        assert (a0, b0, e0) == (a1, b1, e1)  # deterministic timestamps
        kind = "edge" if kind_attr == "e" else "vertex"
        gid = {"a": a0, "b": b0, "e": e0}[kind_attr]
        hi = cold.now()
        truth = _grid(cold, kind, gid, hi)
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
        db.scrubber.auto_repair = True
        report = db.scrub_full()
        assert report.repairs_applied >= 1 and report.repairs_failed == 0
        assert db.history.epoch > warm_epoch
        assert db.history.quarantine.count() == 0
        healed = _versions(db, "vertex", gid, TemporalCondition.between(0, hi))
        assert healed == full  # anchor replay restored the exact chain
        assert db.scrub_full().ok

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
        report = db.scrub_full()
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

    def test_discard_known_also_drops_cached_versions(self):
        db, a, _b, _e = _history_rich_db()
        hi = db.now()
        full = _versions(db, "vertex", a, TemporalCondition.between(0, hi))
        assert full
        db.history.discard_known("vertex", a)
        assert not db.history.has_history("vertex", a)
        assert a not in set(db.history.sorted_known_gids("vertex"))


# -- the range-addressable key index and the preload density guard -------------


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
        per_gid = store._ensure_index().get((segment, hk.KIND_DELTA), {})
        assert list(store.iter_gids(kind)) == sorted(per_gid)


def _reference_declines(store, segment, gids):
    """The seed's density guard restated by brute force over the KV
    store itself (one pass over every key, no index): ``True`` = back
    off, ``False`` = batch, ``None`` = the guard is never reached."""
    kind = hk.KIND_DELTA
    wanted = sorted(
        gid for gid in gids if (segment, kind, gid) not in store._object_cache
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
            store._object_cache.clear()
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
                store.discard_known(kind, known[victim % len(known)])
        _assert_guard_matches_reference(store, candidate_sets)
        _assert_enumerators_sorted(store)

    def test_sparse_expand_never_walks_the_per_gid_index(self):
        """An expand over four neighbours scattered across a 20k-object
        store must size its preload from the sorted gid lists — the
        per-gid mappings refuse every form of iteration."""
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
                raise AssertionError("store-wide walk of the per-gid index")

            __iter__ = items = values = keys = _refuse

        index = db.history._gid_index
        for key in list(index):
            index[key] = NoWalk(index[key])
        db.history._object_cache.clear()
        db.history._reconstruction_cache.clear()
        before = db.history.read_path_metrics()
        cold = expand_all(hubs[1])
        after = db.history.read_path_metrics()
        assert [pair[1] for pair in cold] == [pair[1] for pair in warm]
        # the scattered neighbours were declined (vertex segment) and the
        # adjacent edge gids batched, both without touching the mappings
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
        assert kv.seeks - seeks == 6
        assert kv.range_scans - range_scans == 3
        assert metrics["preload_batches"] == 3
        assert metrics["preload_objects"] == 24
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
