"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is rendered from these tables
(``python3 benchmarks/aeonbench/spec.py`` prints it); the smoke test
asserts the two agree.  Names are permanent: later PRs state their
claims against them.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

WORKLOADS = [
    ("cold_history",
     "reclaimed history 4x the 4096-entry reconstruction cache, direct API: "
     "anchor seek, delta replay, KV seek and payload decode do the work; "
     "query, server and WAL do none"),
    ("hot_query",
     "history fits the cache, statements through engine.execute: lexer, "
     "parser, planner, operator loop and MVCC visibility dominate while "
     "kvstore idles; a history-store change must not move it"),
    ("commit_gc",
     "two fsync writers, one op per transaction, commit-triggered GC: "
     "migration encode, history commit_batch, group commit and WAL - the "
     "write side of what cold_history reads"),
    ("served_mix",
     "two TCP clients, 80% temporal reads and 20% SET commits against a "
     "flush-mode server process: framing, JSON, dispatch and executor "
     "hand-off dominate the small hot engine work"),
]

ALL = tuple(name for name, _why in WORKLOADS)
READS = ("cold_history", "hot_query", "served_mix")
WRITES = ("commit_gc", "served_mix")

# (name, unit, better, bound, workloads that report it).  An untraced
# run prints its workload's rows under exactly these names and
# ``compare`` holds each to its bound.  ``bound`` is the share of the
# base's median a metric may get worse by: a tenth for throughput and
# every median, 2 % for byte counts, 0 (no increase) for failures, and
# for the rest what ``baseline/`` measured; ``None`` marks a tail that
# did not repeat within a tenth there: it is printed and compared but
# carries no verdict; ``client.<name>`` in PER_LAYER lists it.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, ALL),
    ("ops_per_s", "1/s", "higher", 0.10, ALL),
    ("point_p50_us", "us", "lower", 0.10, READS),
    ("point_p99_us", "us", "lower", None, READS[:2]),
    ("slice_p50_us", "us", "lower", 0.10, READS),
    ("slice_p99_us", "us", "lower", None, READS[:2]),
    ("expand_p50_us", "us", "lower", 0.10, READS[:2]),
    ("scan_p50_us", "us", "lower", 0.10, ("hot_query",)),
    ("commit_p50_us", "us", "lower", 0.10, WRITES),
    ("commit_p99_us", "us", "lower", None, WRITES),
    ("store_bytes_per_op", "B/op", "lower", 0.02, ALL),
    ("wal_bytes_per_commit", "B", "lower", 0.02, ("commit_gc",)),
    ("recover_s", "s", "lower", 0.25, ("commit_gc",)),
    ("failed_share", "1/op", "lower", 0.0, ALL),
    ("peak_rss_mb", "MB", "lower", 0.05, ALL),
]

#: The rows ``BENCHMARK.json`` lists as end-to-end, with the driver's
#: bound.  The driver has every workload report every such metric and
#: none may ever be 0, so these are the rows all four workloads share,
#: less ``failed_share`` (0 on the seed; the result's ``attempted`` /
#: ``failed`` carry it).  The driver refuses the whole benchmark when
#: the quartile spread of ten runs exceeds a bound, where ``compare``
#: merely answers ``unresolved``; in this sandbox's bad hours
#: ``ops_per_s`` spreads 0.13 (``baseline/``), so the driver gets the
#: widest bound it takes for the two times and ``compare`` keeps the
#: tenth above.
DRIVER = {
    "setup_s": 0.25,
    "ops_per_s": 0.25,
    "store_bytes_per_op": 0.02,
    "peak_rss_mb": 0.05,
}

# (name, unit, better).  ``*_us`` are mean self time per timed op in
# the traced phase; ``1/op`` are counter deltas over the traced phase
# divided by its ops; ``client.*`` repeat the per-class end-to-end rows
# (0 where the class does not run) from the traced run's untraced half,
# so that the driver, which sees only what all workloads share, has them.
PER_LAYER = [
    ("client.point_p50_us", "us", "lower"),
    ("client.point_p99_us", "us", "lower"),
    ("client.slice_p50_us", "us", "lower"),
    ("client.slice_p99_us", "us", "lower"),
    ("client.expand_p50_us", "us", "lower"),
    ("client.scan_p50_us", "us", "lower"),
    ("client.commit_p50_us", "us", "lower"),
    ("client.commit_p99_us", "us", "lower"),
    ("client.wal_bytes_per_commit", "B", "lower"),
    ("client.recover_s", "s", "lower"),
    ("client.failed_share", "1/op", "lower"),
    ("client.roundtrip_self_us", "us", "lower"),
    ("server.frame_encode_us", "us", "lower"),
    ("server.frame_decode_us", "us", "lower"),
    ("server.dispatch_self_us", "us", "lower"),
    ("server.bytes_per_request", "B", "lower"),
    ("server.requests", "1/op", "lower"),
    ("server.shed", "count", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.parse_calls_per_stmt", "1/op", "lower"),
    ("query.plan_us", "us", "lower"),
    ("query.exec_self_us", "us", "lower"),
    ("core.operators.scan_self_us", "us", "lower"),
    ("core.operators.expand_self_us", "us", "lower"),
    ("core.operators.versions_served", "1/op", "lower"),
    ("core.operators.current_hits", "1/op", "higher"),
    ("core.operators.reclaimed_hits", "1/op", "lower"),
    ("mvcc.begin_us", "us", "lower"),
    ("mvcc.commit_us", "us", "lower"),
    ("mvcc.gc_us", "us", "lower"),
    ("mvcc.conflicts", "1/op", "lower"),
    ("graph.mutate_us", "us", "lower"),
    ("core.history_store.fetch_self_us", "us", "lower"),
    ("core.history_store.fetches", "1/op", "lower"),
    ("core.history_store.cache_hit_ratio", "ratio", "higher"),
    ("core.history_store.cache_evictions", "1/op", "lower"),
    ("core.history_store.anchor_seeks", "1/op", "lower"),
    ("core.history_store.deltas_replayed_per_miss", "ratio", "lower"),
    ("core.history_store.preload_objects", "1/op", "lower"),
    ("core.history_store.commit_batch_us", "us", "lower"),
    ("kvstore.seek_us", "us", "lower"),
    ("kvstore.seeks", "1/op", "lower"),
    ("kvstore.scan_range_us", "us", "lower"),
    ("kvstore.get_us", "us", "lower"),
    ("kvstore.write_us", "us", "lower"),
    ("kvstore.flush_us", "us", "lower"),
    ("kvstore.compact_us", "us", "lower"),
    ("kvstore.bytes", "B", "lower"),
    ("common.serde.decode_us", "us", "lower"),
    ("common.serde.decodes", "1/op", "lower"),
    ("common.serde.encode_us", "us", "lower"),
    ("common.serde.encodes", "1/op", "lower"),
    ("core.migration.migrate_us", "us", "lower"),
    ("core.migration.epochs", "1/op", "lower"),
    ("core.migration.records_per_epoch", "ratio", "lower"),
    ("core.migration.stall_p50_ms", "ms", "lower"),
    ("core.write_path.submit_us", "us", "lower"),
    ("core.write_path.ack_wait_us", "us", "lower"),
    ("core.write_path.avg_batch", "ratio", "higher"),
    ("core.write_path.fsyncs_per_commit", "ratio", "lower"),
    ("core.write_path.backpressure_waits", "count", "lower"),
    ("core.durability.append_batch_us", "us", "lower"),
    ("core.durability.wal_bytes", "B", "lower"),
    ("core.durability.replay_us", "us", "lower"),
    ("core.durability.records_replayed", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.op_mean_us", "us", "lower"),
]

#: Span times that do not add up into an op's wall: the group-commit
#: writer thread works while the committer sits in ``ack_wait``, and
#: replay runs once after the timed phase.  Every other ``*_us`` layer
#: metric plus ``unattributed_share * op_mean_us`` sums to
#: ``trace.op_mean_us``.
OFF_PATH = {"core.durability.append_batch_us", "core.durability.replay_us"}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/aeonbench/run.py"],
        "paths": ["benchmarks/aeonbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": DRIVER[n]}
            for n, u, b, _bound, _on in END_TO_END
            if n in DRIVER
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
