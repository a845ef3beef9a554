"""aeonbench entry point: one workload per invocation.

    python3 benchmarks/aeonbench/run.py --workload W --seed N \
        --seconds S --trace 0|1

Generates every input from the seed, sets the system up, measures,
checks answers against an independent model and prints each metric by
name with its unit.  The last two lines are for programs: ``aeonbench``
followed by one JSON object with the seed, the inputs' SHA-256 and
every metric of the run (the ``run`` wrapper reads it), then the
driver's line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, the latter holding only what
``BENCHMARK.json`` lists.

A timed phase is a fixed number of ops per client, ``--seconds`` times
the rate the seed commit sustains on that workload, so it measures for
about ``--seconds`` there and does identical work on any other commit.
``--trace 0`` sets up three times (``setup_s`` is the median), warms
up, and times one untraced phase: the end-to-end metrics.
``--trace 1`` sets up once and times two phases of half the length,
the second with spans recorded around each layer's public functions:
the per-layer metrics, tracing overhead included.

``--smoke`` shrinks the data to an eighth and a phase to 600 ops per
client, sets up once and checks every answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parents[1]
# Run as a script, this directory leads sys.path and its trace.py would
# shadow the standard library's; import through the package instead.
sys.path[0] = str(ROOT_DIR)
sys.path.insert(1, str(ROOT_DIR / "src"))

from benchmarks.aeonbench import spec  # noqa: E402
from benchmarks.aeonbench.trace import ROOT, Tracer, install, uninstall  # noqa: E402
from benchmarks.aeonbench.workloads import (  # noqa: E402
    CHECK_EVERY,
    WORKLOADS,
    quantile,
)


SETUPS = 3
SMOKE_SCALE = 0.125
SMOKE_OPS = 600


def class_latencies(phase) -> dict:
    """``<class>_p50_us`` / ``<class>_p99_us`` over a phase's samples
    (0 for a class the workload does not run)."""
    out = {}
    for cls in ("point", "slice", "expand", "scan", "commit"):
        values = phase.samples.get(cls, [])
        out[f"{cls}_p50_us"] = quantile(values, 0.50) * 1e6
        out[f"{cls}_p99_us"] = quantile(values, 0.99) * 1e6
    return out


def end_to_end(workload: str, phase, setup_times, extras, failed_share) -> dict:
    """The rows of ``spec.END_TO_END`` that ``workload`` reports."""
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s(),
        "failed_share": failed_share,
        **class_latencies(phase),
        **extras,
    }
    return {
        name: values[name]
        for name, _unit, _better, _bound, on in spec.END_TO_END
        if workload in on
    }


def per_layer(plain, traced, before, after, tracer, child, extras,
              failed_share) -> dict:
    """Every PER_LAYER metric of one traced run.

    ``child`` is the serve child's span summary (``name -> [count,
    self_ns, busy_ns]``), merged with this process's own.
    """
    ops = max(1, traced.ops)
    wall_ns = traced.wall * 1e9
    delta = {k: after[k] - before.get(k, 0) for k in after}
    merged = dict(child)
    for name, row in tracer.summary().items():
        have = merged.setdefault(name, [0, 0, 0])
        merged[name] = [a + b for a, b in zip(have, row)]

    def row(name):
        return merged.get(name) or merged.get("~" + name) or [0, 0, 0]

    out = {name: 0.0 for name, _unit, _better in spec.PER_LAYER}
    for name in out:
        if name.endswith("_us") and not name.startswith("client."):
            stem = name[:-3].removesuffix("_self")
            out[name] = row(stem)[1] / ops / 1e3

    for name, value in class_latencies(plain).items():
        if "client." + name in out:
            out["client." + name] = value
    commits = delta["wal_records"]
    out["client.wal_bytes_per_commit"] = delta["wal_bytes"] / max(1, commits)
    out["client.recover_s"] = extras.get("recover_s", 0.0)
    out["client.failed_share"] = failed_share

    if child:
        # The client's wall splits into the handler's and the rest: the
        # wire, the kernel, both framings, and the frame read that
        # happens before a handler span exists.
        handler_ns = row("server.dispatch")[2]
        decode_ns = row("server.frame_decode")[1]
        out["client.roundtrip_self_us"] = (
            (wall_ns - handler_ns - decode_ns) / ops / 1e3
        )
        unattributed_ns = row("server.engine_work")[1]
        out["server.requests"] = delta["requests"] / ops
        out["server.shed"] = delta["shed"]
        out["server.bytes_per_request"] = delta["bytes_out"] / max(
            1, delta["requests"]
        )
    else:
        unattributed_ns = row(ROOT)[1]

    statements = row("query.exec")[0]
    out["query.parse_calls_per_stmt"] = row("query.parse")[0] / max(1, statements)
    out["common.serde.decodes"] = row("common.serde.decode")[0] / ops
    out["common.serde.encodes"] = row("common.serde.encode")[0] / ops
    for name, key in (
        ("core.operators.current_hits", "current_hits"),
        ("core.operators.reclaimed_hits", "reclaimed_hits"),
        ("mvcc.conflicts", "conflicts"),
        ("core.history_store.fetches", "fetches"),
        ("core.history_store.cache_evictions", "cache_evictions"),
        ("core.history_store.anchor_seeks", "anchor_seeks"),
        ("core.history_store.preload_objects", "preload_objects"),
        ("kvstore.seeks", "seeks"),
        ("core.migration.epochs", "epochs"),
    ):
        out[name] = delta[key] / ops
    out["core.operators.versions_served"] = (
        delta["current_hits"] + delta["reclaimed_hits"]
    ) / ops
    lookups = delta["cache_hits"] + delta["cache_misses"]
    out["core.history_store.cache_hit_ratio"] = delta["cache_hits"] / max(1, lookups)
    out["core.history_store.deltas_replayed_per_miss"] = delta[
        "deltas_replayed"
    ] / max(1, delta["cache_misses"])
    out["kvstore.bytes"] = after["kv_bytes"]
    out["core.migration.records_per_epoch"] = delta["records_migrated"] / max(
        1, delta["epochs"]
    )
    stalled = [
        traced.by_op[op]
        for op in tracer.ops_with("core.migration.migrate")
        if op in traced.by_op
    ]
    out["core.migration.stall_p50_ms"] = quantile(stalled, 0.50) * 1e3
    out["core.write_path.avg_batch"] = commits / max(1, delta["wal_batches"])
    out["core.write_path.fsyncs_per_commit"] = delta["fsyncs"] / max(1, commits)
    out["core.write_path.backpressure_waits"] = delta["backpressure_waits"]
    out["core.durability.wal_bytes"] = delta["wal_bytes"]
    replayed = extras.get("records_replayed", 0)
    out["core.durability.records_replayed"] = replayed
    # Replay runs once, after the timed phase: per replayed record.
    out["core.durability.replay_us"] = (
        row("core.durability.replay")[2] / max(1, replayed) / 1e3
    )
    out["trace.overhead_pct"] = 100.0 * (
        1.0 - traced.ops_per_s() / plain.ops_per_s()
    )
    out["trace.unattributed_share"] = unattributed_ns / wall_ns
    out["trace.op_mean_us"] = wall_ns / ops / 1e3
    return out


def run(args, tmp: Path) -> tuple[dict, dict]:
    """One run: ``(record for the wrapper, result for the driver)``."""
    cls = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    n_ops = SMOKE_OPS if args.smoke else int(cls.ops_per_s * args.seconds)
    workload = cls(args.seed, scale, n_ops, tmp)
    sha256 = workload.generate()
    print(f"workload {args.workload} seed {args.seed} scale {scale}")
    print(f"inputs sha256 {sha256}")
    traced_run = args.trace == 1
    setup_times = []
    tracer, undo = None, []
    try:
        for attempt in range(1 if traced_run or args.smoke else SETUPS):
            if attempt:
                workload.teardown()
                gc.collect()
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
        workload.materialise()
        n_ops = workload.timed_ops
        workload.warm_up()
        # As a server does once it is up: what set-up allocated (the
        # materialised inputs included) is not rescanned by the cyclic
        # collector during the timed phases.  Rescanning it cost about
        # a tenth of commit_gc's throughput and most of its run-to-run
        # spread; garbage the timed ops make is collected as usual.
        gc.collect()
        gc.freeze()
        before = workload.counters()
        plain = workload.drive(n_ops if not traced_run else n_ops // 2, None)
        after = workload.counters()
        phases = [plain]
        if traced_run:
            tracer = Tracer()
            undo = install(tracer)
            workload.start_tracing()
            before = workload.counters()
            traced = workload.drive(n_ops // 2, tracer)
            after = workload.counters()
            child = workload.child_spans()
            phases.append(traced)
        wrong = workload.check(phases, 1 if args.smoke else CHECK_EVERY)
        extras = workload.extras()
    finally:
        workload.teardown()
        uninstall(undo)
    attempted = sum(p.ops for p in phases) + workload.checked
    failed = sum(p.failed for p in phases) + wrong
    for phase in phases:
        for error in phase.errors:
            print(f"failed op: {error}")
    if wrong:
        print(f"wrong answers: {wrong} of {workload.checked} checked")
    if traced_run:
        tracer.dump(tmp.parent / f"trace-{args.workload}.jsonl")
        values = per_layer(
            plain, traced, before, after, tracer, child, extras,
            failed / attempted,
        )
        units = {name: unit for name, unit, _better in spec.PER_LAYER}
        for_driver = list(units)
    else:
        extras["wal_bytes_per_commit"] = (
            after["wal_bytes"] - before["wal_bytes"]
        ) / max(1, after["wal_records"] - before["wal_records"])
        values = end_to_end(
            args.workload, plain, setup_times, extras, failed / attempted
        )
        units = {row[0]: row[1] for row in spec.END_TO_END}
        for_driver = spec.DRIVER
    counts = {cls: len(v) for cls, v in plain.samples.items()}
    print(f"samples per class {counts}; answers checked {workload.checked}")
    metrics = {}
    for name, value in values.items():
        print(f"{name:44s} {value:16.4f} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in for_driver},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sha256": sha256, "samples": counts, "correct": failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    tmp = HERE / "out" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        record, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("aeonbench " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
