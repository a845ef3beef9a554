"""Read-path baseline — repeated temporal scans, cold vs warm.

Fig5(b)-style time-point scans and fig5(c)-style time-slice scans run
twice over the same reclaimed history: cold (every derived read
structure dropped before each repetition, so reconstruction replays
anchor+delta chains from the KV store) and warm (reconstruction cache
populated, repeated queries served by bisect).  The measured speedup
is the value of the read-path performance layer and the baseline for
later PRs; ``BENCH_read_path.json`` in ``benchmarks/results/`` is the
machine-readable artifact.

A third row holds the cold path to the paper's Expand cost model: the
first-touch 1-hop expand of one fixed neighbourhood is timed in a store
of ``FILLER`` history-carrying bystanders and again in one four times
the size.  Locating a neighbourhood's records must not depend on how
many unrelated objects the history holds.

Acceptance: warm repeated time-point scans over reclaimed history are
at least 3x faster than cold, and a cold expand grows by less than 1.5x
when the store grows 4x.

Set ``BENCH_SMOKE=1`` for the CI smoke configuration (seconds, not
minutes).
"""

from __future__ import annotations

import json
import os
from statistics import median
from time import perf_counter

import pytest

from repro import AeonG, TemporalCondition
from benchmarks.conftest import RESULTS_DIR, write_report

pytestmark = pytest.mark.read_path

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
VERTICES = 6 if SMOKE else 24
VERSIONS = 8 if SMOKE else 30
POINTS = 4 if SMOKE else 12
SLICES = 3 if SMOKE else 8
REPS = 2 if SMOKE else 5
FILLER = 1_000 if SMOKE else 12_000
HUBS = 12 if SMOKE else 48
DEGREE = 4


def _build():
    """A graph whose vertices each carry ``VERSIONS`` reclaimed
    property versions (plus a ring of edges for topology records)."""
    db = AeonG(
        anchor_interval=8,
        gc_interval_transactions=0,
        reconstruction_cache_size=4096,
    )
    gids = []
    with db.transaction() as txn:
        for i in range(VERTICES):
            gids.append(
                db.create_vertex(txn, labels=["P"], properties={"n": 0, "g": i})
            )
    with db.transaction() as txn:
        for i in range(VERTICES):
            db.create_edge(
                txn, gids[i], gids[(i + 1) % VERTICES], "KNOWS", {"w": 0}
            )
    for version in range(1, VERSIONS):
        for gid in gids:
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "n", version)
        db.collect_garbage()
    db.collect_garbage()
    return db


def _instants(db):
    hi = db.now() - 1
    return [1 + (i * (hi - 1)) // max(1, POINTS - 1) for i in range(POINTS)]


def _windows(db):
    hi = db.now() - 1
    span = max(2, hi // (SLICES + 1))
    return [
        (start, min(hi, start + span))
        for start in range(1, hi - span, max(1, (hi - span) // SLICES))
    ][:SLICES]


def _time_point_pass(db, instants):
    rows = 0
    started = perf_counter()
    with db.transaction() as txn:
        for t in instants:
            rows += sum(1 for _ in db.vertices_as_of(txn, t))
    return perf_counter() - started, rows


def _time_slice_pass(db, windows):
    rows = 0
    started = perf_counter()
    with db.transaction() as txn:
        for t1, t2 in windows:
            rows += sum(1 for _ in db.vertices_between(txn, t1, t2))
    return perf_counter() - started, rows


def _measure(db, one_pass, queries):
    """(cold mean, warm mean, rows) over ``REPS`` repetitions.

    ``queries`` is computed once up front: every pass (cold or warm)
    must ask the identical questions, and each pass's read transaction
    ticks the engine clock, so deriving instants from ``now()`` inside
    the loop would silently shift the workload between passes.
    """
    cold = 0.0
    for _ in range(REPS):
        db.history.invalidate_caches()
        elapsed, cold_rows = one_pass(db, queries)
        cold += elapsed
    db.history.invalidate_caches()
    one_pass(db, queries)  # populate
    warm = 0.0
    for _ in range(REPS):
        elapsed, warm_rows = one_pass(db, queries)
        warm += elapsed
    assert warm_rows == cold_rows  # identical answers either way
    return cold / REPS, warm / REPS, warm_rows


def _build_hub_store(filler):
    """``HUBS`` hubs, each with ``DEGREE`` reclaimed edges to neighbours
    scattered evenly over ``filler`` vertices that all carry reclaimed
    history of their own: the neighbourhood is the same at every store
    size, only the number of bystanders between its gids changes."""
    db = AeonG(anchor_interval=8, gc_interval_transactions=0)
    with db.transaction() as txn:
        gids = [
            db.create_vertex(txn, labels=["F"], properties={"n": 0})
            for _ in range(filler)
        ]
    with db.transaction() as txn:
        for gid in gids:
            db.set_vertex_property(txn, gid, "n", 1)
    hubs = gids[:HUBS]
    stride = filler // (DEGREE + 1)
    with db.transaction() as txn:
        edges = [
            db.create_edge(txn, hub, gids[h + (k + 1) * stride], "KNOWS", {"w": 0})
            for h, hub in enumerate(hubs)
            for k in range(DEGREE)
        ]
    with db.transaction() as txn:
        for edge in edges:
            db.set_edge_property(txn, edge, "w", 1)
    with db.transaction() as txn:
        for edge in edges[::DEGREE]:
            db.delete_edge(txn, edge)
    db.collect_garbage()
    return db, hubs


def _cold_expand(db, hubs):
    """(median us per first-touch expand, pairs yielded).  Every hub's
    neighbourhood is read exactly once; the first expand is untimed
    because it pays the once-per-change sort of the index's gid lists."""
    cond = TemporalCondition.between(0, db.now())
    samples, pairs = [], 0
    with db.transaction() as txn:
        for hub in hubs:
            vertex = next(iter(db.vertex_versions(txn, hub, cond)))
            started = perf_counter()
            pairs += sum(1 for _ in db.expand(txn, vertex, cond, "both"))
            samples.append(perf_counter() - started)
    return median(samples[1:]) * 1e6, pairs


def _cold_expand_vs_store_size():
    row = {"hubs": HUBS, "degree": DEGREE}
    for factor in (1, 4):
        db, hubs = _build_hub_store(FILLER * factor)
        expand_us, pairs = _cold_expand(db, hubs)
        metrics = db.metrics()["read_path"]
        row[f"{factor}x"] = {
            "history_objects": len(db.history.known_gids("vertex"))
            + len(db.history.known_gids("edge")),
            "expand_us": expand_us,
            "pairs": pairs,
            "preload_batches": metrics["preload_batches"],
            "preload_backoffs": metrics["preload_backoffs"],
        }
        db.close()
    row["growth"] = row["4x"]["expand_us"] / max(row["1x"]["expand_us"], 1e-9)
    return row


def test_read_path_cold_vs_warm():
    db = _build()
    instants = _instants(db)
    windows = _windows(db)
    point_cold, point_warm, point_rows = _measure(db, _time_point_pass, instants)
    slice_cold, slice_warm, slice_rows = _measure(db, _time_slice_pass, windows)
    point_speedup = point_cold / max(point_warm, 1e-9)
    slice_speedup = slice_cold / max(slice_warm, 1e-9)

    payload = {
        "bench": "read_path",
        "smoke": SMOKE,
        "workload": {
            "vertices": VERTICES,
            "versions_per_vertex": VERSIONS,
            "time_points": POINTS,
            "time_slices": SLICES,
            "repetitions": REPS,
        },
        "fig5b_time_point": {
            "cold_s": point_cold,
            "warm_s": point_warm,
            "speedup": point_speedup,
            "rows": point_rows,
        },
        "fig5c_time_slice": {
            "cold_s": slice_cold,
            "warm_s": slice_warm,
            "speedup": slice_speedup,
            "rows": slice_rows,
        },
        "cold_expand_vs_store_size": _cold_expand_vs_store_size(),
        "read_path_metrics": db.metrics()["read_path"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_read_path.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = ["Read path: repeated temporal scans, cold vs warm (mean s/pass)"]
    lines.append(f"{'query':<12}{'cold':>10}{'warm':>10}{'speedup':>10}{'rows':>8}")
    lines.append(
        f"{'time-point':<12}{point_cold:>10.4f}{point_warm:>10.4f}"
        f"{point_speedup:>9.1f}x{point_rows:>8}"
    )
    lines.append(
        f"{'time-slice':<12}{slice_cold:>10.4f}{slice_warm:>10.4f}"
        f"{slice_speedup:>9.1f}x{slice_rows:>8}"
    )
    expand = payload["cold_expand_vs_store_size"]
    lines.append("")
    lines.append("Cold 1-hop expand of one neighbourhood vs store size (median us)")
    lines.append(f"{'store':<8}{'objects':>10}{'expand us':>12}{'pairs':>8}")
    for factor in ("1x", "4x"):
        lines.append(
            f"{factor:<8}{expand[factor]['history_objects']:>10}"
            f"{expand[factor]['expand_us']:>12.1f}{expand[factor]['pairs']:>8}"
        )
    lines.append(f"growth  {expand['growth']:.2f}x")
    print("\n" + write_report("read_path", lines))

    # the acceptance bar: warm repeated time-point scans >= 3x cold
    assert point_speedup >= 3.0, payload["fig5b_time_point"]
    # slices also win, with headroom for CI timer noise
    assert slice_speedup >= 2.0, payload["fig5c_time_slice"]
    # same neighbourhood, same answers, same decisions at both sizes,
    # and a cost that tracks the neighbourhood rather than the store
    for field in ("pairs", "preload_batches", "preload_backoffs"):
        assert expand["1x"][field] == expand["4x"][field], expand
    assert expand["growth"] < 1.5, expand


def test_disabled_observability_adds_no_work():
    """With observability off, the instrumented hot paths must do no
    extra work: every span site returns one shared no-op handle (no
    allocation, no clock reads) and nothing is ever recorded."""
    from repro import ObservabilityConfig
    from repro.observability import NULL_SPAN

    db = AeonG(
        anchor_interval=8,
        gc_interval_transactions=0,
        observability=ObservabilityConfig(enabled=False),
    )
    try:
        tracer = db.observability.tracer
        # Zero-allocation fast path: the identical singleton every time.
        assert tracer.span("engine.commit") is tracer.span("kv.flush")
        assert tracer.span("anything") is NULL_SPAN

        gids = []
        with db.transaction() as txn:
            for i in range(VERTICES):
                gids.append(db.create_vertex(txn, ["P"], {"n": 0, "g": i}))
        for version in range(1, VERSIONS):
            for gid in gids:
                with db.transaction() as txn:
                    db.set_vertex_property(txn, gid, "n", version)
        db.collect_garbage()
        db.history.invalidate_caches()
        with db.transaction() as txn:
            for t in _instants(db):
                for _ in db.vertices_as_of(txn, t):
                    pass
        db.execute("MATCH (p:P) RETURN count(p)")

        # A full write/GC/temporal-read/query workload recorded nothing.
        assert tracer.spans_recorded == 0
        assert tracer.spans() == []
        assert db.observability.registry.counter("statements").value == 0
        assert db.metrics()["observability"]["spans_recorded"] == 0
    finally:
        db.close()
