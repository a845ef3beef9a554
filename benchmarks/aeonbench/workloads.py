"""The four workloads: set-up, closed-loop clients, answer checks.

All loops are closed (a client sends its next op when the previous one
returns) and all clients are threads of the one benchmark process:
one for the embedded read workloads, two for ``commit_gc`` and
``served_mix`` (the sandbox has two cores).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import AeonG
from repro.baselines.interface import (
    ADD_EDGE,
    ADD_VERTEX,
    DELETE_EDGE,
    UPDATE_EDGE,
    UPDATE_VERTEX,
)
from repro.core.temporal import TemporalCondition
from repro.server.client import Client

from . import inputs as gen
from .trace import ROOT

#: Re-ask every Nth timed point/slice question (>= 1 %), at most this many.
CHECK_EVERY = 40
CHECK_CAP = 1500


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_counters(engine, server=None) -> dict:
    """The counters per-layer metrics are deltas of."""
    m = engine.metrics()
    read, kv, wp = m["read_path"], m["history_kv"], m["write_path"]
    wal = engine._durability_dir
    out = {
        "fetches": read["fetches"],
        "reclaimed_hits": read["versions_served"],
        "cache_hits": read["cache_hits"],
        "cache_misses": read["cache_misses"],
        "cache_evictions": read["cache_evictions"],
        "anchor_seeks": read["anchor_seeks"],
        "deltas_replayed": read["deltas_replayed"],
        "preload_objects": read["preload_objects"],
        "current_hits": m["operators"]["current_hits"],
        "seeks": kv["seeks"],
        "kv_bytes": kv["bytes"],
        "epochs": m["migration"]["epochs"],
        "records_migrated": m["migration"]["records_written"],
        "conflicts": m["resilience"]["conflict_retries"],
        "wal_records": wp["records_written"],
        "wal_batches": wp["batches_written"],
        "fsyncs": wp["fsyncs"],
        "backpressure_waits": wp["backpressure_waits"],
        "wal_bytes": (
            os.path.getsize(wal / "engine.wal") if wal is not None else 0
        ),
    }
    if server is not None:
        counters = server.metrics()
        out["requests"] = counters["requests_served"]
        out["shed"] = counters["requests_shed"]
        out["bytes_out"] = counters["bytes_out"]
    return out


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: A phase is cut into this many equal runs of ops; throughput is the
#: median over them, so a stall of the sandbox that covers less than
#: half a phase does not move it.
SEGMENTS = 10


class Phase:
    """What one timed phase of one workload measured."""

    def __init__(self) -> None:
        #: class -> latencies in seconds, over all clients
        self.samples: dict[str, list[float]] = {}
        #: per client, the latencies in op order
        self.per_client: list[list[float]] = []
        self.by_op: dict = {}
        self.executed: list[tuple[int, int, int]] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def ops(self) -> int:
        return sum(map(len, self.per_client))

    @property
    def wall(self) -> float:
        return sum(map(sum, self.per_client))

    def _segments(self, lat: list[float]) -> list[list[float]]:
        size = max(1, len(lat) // SEGMENTS)
        cuts = range(0, min(len(lat), size * SEGMENTS), size)
        return [lat[cut:cut + size] for cut in cuts]

    def ops_per_s(self) -> float:
        """Sum over clients of the median segment's ops per second of
        that client's own wall (closed loop: the sum of its latencies)."""
        return sum(
            statistics.median(len(seg) / sum(seg) for seg in self._segments(lat))
            for lat in self.per_client
        )


class Workload:
    name = ""
    clients = 1
    #: Timed ops per client and second of ``--seconds``: what the seed
    #: commit completes, so a phase of ``ops_per_s * seconds`` ops
    #: measures for about ``--seconds`` there.  Phases are op counts,
    #: not durations, so that both sides of a comparison do the same
    #: work in the same order whatever their speed.
    ops_per_s = 0

    def __init__(self, seed: int, scale: float, n_ops: int, tmp: Path):
        """``n_ops`` timed ops per client, after a warm-up of 5 %."""
        self.seed, self.scale, self.tmp = seed, scale, tmp
        self.warm_ops = max(1, n_ops // 20)
        self.total_ops = self.warm_ops + n_ops
        self.streams: list[list] = []
        self.cursor: list[int] = []
        self.engine = None
        self.checked = 0

    # Subclasses add generate(), setup(), materialise(),
    # executor(client), check(phases, every) and extras().

    def teardown(self) -> None:
        """Release what ``setup`` opened; safe after a failed set-up."""
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def op_id(self, client: int, index: int) -> str:
        return f"c{client}:{index}"

    def counters(self) -> dict:
        return engine_counters(self.engine)

    def child_spans(self) -> dict:
        """Span summary of a process other than this one (served_mix)."""
        return {}

    def start_tracing(self) -> None:
        """The traced phase is next (the in-process tracer is already
        installed; a workload with a second process installs its own)."""

    @property
    def timed_ops(self) -> int:
        """Ops per client left for the timed phases (a stream may hold
        fewer than asked for: ``cold_history`` is capped by its data)."""
        return min(map(len, self.streams)) - self.warm_ops

    def warm_up(self) -> None:
        self.drive(self.warm_ops, None)

    def drive(self, n_ops: int, tracer) -> Phase:
        """Every client runs its next ``n_ops`` ops (fewer if its
        stream ends first)."""
        phase = Phase()
        results: list = [None] * self.clients

        def client_loop(client: int) -> None:
            results[client] = self._client_loop(client, n_ops, tracer)

        if self.clients == 1:
            client_loop(0)
        else:
            threads = [
                threading.Thread(target=client_loop, args=(c,))
                for c in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for client, (start, lat, failed, errors, ids) in enumerate(results):
            stream = self.streams[client]
            phase.executed.append((client, start, len(lat)))
            phase.per_client.append(lat)
            phase.failed += failed
            phase.errors.extend(errors)
            phase.by_op.update(zip(ids, lat))
            for offset, value in enumerate(lat):
                cls = stream[start + offset][0]
                phase.samples.setdefault(cls, []).append(value)
        return phase

    def _client_loop(self, client, n_ops, tracer):
        execute = self.executor(client)
        stream = self.streams[client]
        start = self.cursor[client]
        stop = min(len(stream), start + n_ops)
        lat: list[float] = []
        errors: list[str] = []
        ids: list[str] = []
        failed = 0
        clock = time.perf_counter
        for index in range(start, stop):
            op = stream[index]
            began = clock()
            root = None
            if tracer is not None:
                ids.append(self.op_id(client, index))
                root = tracer.begin(ROOT, op=ids[-1])
            try:
                execute(op)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                failed += 1
                if len(errors) < 3:
                    errors.append(f"{op[0]}: {exc!r}")
            if root is not None:
                tracer.end(root)
            lat.append(clock() - began)
        self.cursor[client] = stop
        return start, lat, failed, errors, ids

    def sampled(self, phases: list[Phase], classes, every: int):
        """``(client, index)`` of every ``every``-th timed op of the
        given classes, capped at :data:`CHECK_CAP`."""
        picked = []
        for phase in phases:
            for client, start, count in phase.executed:
                stream = self.streams[client]
                for index in range(start, start + count):
                    if stream[index][0] in classes:
                        picked.append((client, index))
        return picked[::every][:CHECK_CAP]


# -- embedded read workloads -------------------------------------------------


class Embedded(Workload):
    """Engine in this process, no durability directory."""

    def extras(self) -> dict:
        return {
            "store_bytes_per_op": self.engine.storage_report().total_bytes
            / self.applied,
            "peak_rss_mb": peak_rss_mb(),
        }


class ColdHistory(Embedded):
    name = "cold_history"
    ops_per_s = 3300

    def generate(self) -> str:
        self.inputs = gen.cold_inputs(self.seed, self.scale, self.total_ops)
        return self.inputs.sha256

    def setup(self) -> None:
        self.engine = AeonG(**self.inputs.engine_kwargs)
        self.loader = gen.Loader(self.engine)
        self.model = gen.Model()
        self.loader.load(self.inputs.ops, self.model)
        self.engine.collect_garbage()
        self.applied = len(self.inputs.ops)

    def materialise(self) -> None:
        now = self.engine.now()
        gids = self.loader.vertex_gids
        stream = []
        for cls, customer, f1, f2 in self.inputs.queries:
            t = gen.instant(f1, now)
            cond = (
                TemporalCondition.between(t, gen.instant(f2, now))
                if cls == "slice"
                else TemporalCondition.as_of(t)
            )
            stream.append((cls, gids[customer], cond, customer))
        self.streams, self.cursor = [stream], [0]

    def _versions(self, gid, cond) -> list:
        engine = self.engine
        txn = engine.begin()
        try:
            return list(engine.vertex_versions(txn, gid, cond))
        finally:
            engine.abort(txn)

    def executor(self, client):
        engine = self.engine

        def execute(op):
            cls, gid, cond, _customer = op
            if cls != "expand":
                self._versions(gid, cond)
                return
            txn = engine.begin()
            try:
                for vertex in engine.vertex_versions(txn, gid, cond):
                    for _pair in engine.expand(txn, vertex, cond):
                        pass
            finally:
                engine.abort(txn)

        return execute

    def check(self, phases, every) -> int:
        wrong = 0
        for client, index in self.sampled(phases, ("point", "slice"), every):
            _cls, gid, cond, customer = self.streams[client][index]
            got = {gen.canon(v.properties) for v in self._versions(gid, cond)}
            wrong += got != expected_states(self.model, customer, cond.t1, cond.t2)
            self.checked += 1
        return wrong


def expected_states(model, ext_id, t1, t2, columns=None) -> set:
    """The model's answer to a point (``t1 == t2``) or slice question."""
    if t1 == t2:
        props = model.at(ext_id, t1)
        states = [props] if props is not None else []
    else:
        states = model.between(ext_id, t1, t2)
    return {gen.canon(props, columns) for props in states}


# -- hot_query ---------------------------------------------------------------


def load_hot(engine, inputs) -> tuple:
    """Load the hot dataset, reclaim its history, index it."""
    loader, model = gen.Loader(engine), gen.Model()
    loader.load(inputs.ops, model)
    engine.collect_garbage()
    for label in inputs.labels:
        engine.create_label_property_index(label, gen.EXT)
    return loader, model


class HotQuery(Embedded):
    name = "hot_query"
    ops_per_s = 1650

    def generate(self) -> str:
        self.inputs = gen.hot_inputs(self.seed, self.scale, self.total_ops)
        return self.inputs.sha256

    def setup(self) -> None:
        self.engine = AeonG()
        self.loader, self.model = load_hot(self.engine, self.inputs)
        self.applied = len(self.inputs.ops)
        self.now = self.engine.now()

    def materialise(self) -> None:
        now = self.now
        self.streams = [
            [
                (spec[0], *gen.statement(*spec, now), spec[1])
                for spec in statements
            ]
            for statements in self.inputs.statements
        ]
        self.cursor = [0] * len(self.streams)

    def executor(self, client):
        run = self.engine.execute
        return lambda op: run(op[1], op[2])

    def ask(self, client, text, params):
        return self.engine.execute(text, params)

    def check(self, phases, every) -> int:
        wrong = 0
        for client, index in self.sampled(phases, ("point", "slice"), every):
            _cls, text, params, person = self.streams[client][index]
            rows = self.ask(client, text, params)
            got = {gen.canon(row, gen.PERSON_COLUMNS) for row in rows}
            want = expected_states(
                self.model, person, params["t"],
                params.get("t2", params["t"]), gen.PERSON_COLUMNS,
            )
            wrong += got != want
            self.checked += 1
        return wrong


# -- commit_gc ---------------------------------------------------------------


class CommitGc(Workload):
    name = "commit_gc"
    clients = 2
    ops_per_s = 1900

    def generate(self) -> str:
        # A tenth over, so that the smaller partition is long enough.
        self.inputs = gen.commit_inputs(
            self.seed, self.scale, int(self.total_ops * self.clients * 1.1)
        )
        return self.inputs.sha256

    def setup(self) -> None:
        self.dir = self.tmp / "commit_gc"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.engine = AeonG.open(self.dir, durability_mode="fsync")
        self.loader = gen.Loader(self.engine)
        self.model = gen.Model()
        self.loader.load(self.inputs.base, self.model)
        self.engine.collect_garbage()
        self.acked: list[list] = [[] for _ in range(self.clients)]

    def materialise(self) -> None:
        self.streams = [
            [("commit", op) for op in part[:self.total_ops]]
            for part in self.inputs.partitions
        ]
        self.cursor = [0] * self.clients

    def executor(self, client):
        engine, apply, acked = self.engine, self.loader.apply, self.acked[client]

        def execute(op):
            graph_op = op[1]
            txn = engine.run_transaction(
                lambda txn: (apply(txn, graph_op), txn)[1]
            )
            acked.append((graph_op, txn.commit_ts))

        return execute

    def check(self, phases, every) -> int:
        """Close, time a reopen (the whole WAL replays: close does not
        checkpoint), then compare every acknowledged commit's final
        state and a grid of past instants with the model."""
        engine = self.engine
        self.applied = len(self.inputs.base) + sum(map(len, self.acked))
        engine.collect_garbage()
        self.store_bytes = engine.storage_report().total_bytes
        engine.close()
        began = time.perf_counter()
        engine = self.engine = AeonG.open(self.dir, durability_mode="fsync")
        self.recover_s = time.perf_counter() - began
        self.replayed = engine.last_recovery.transactions_replayed

        edge_props: dict[str, dict] = {}
        deleted = set()
        touched = set()
        for acked in self.acked:
            for op, commit_ts in acked:
                self.model.record(op, commit_ts)
                if op.kind in (ADD_VERTEX, UPDATE_VERTEX):
                    touched.add(op.ext_id)
                elif op.kind == ADD_EDGE:
                    edge_props[op.ext_id] = dict(op.properties or {})
                elif op.kind == UPDATE_EDGE:
                    edge_props.setdefault(op.ext_id, {})[op.prop] = op.value
                elif op.kind == DELETE_EDGE:
                    deleted.add(op.ext_id)
        wrong = 0
        vertex_gids, edge_gids = self.loader.vertex_gids, self.loader.edge_gids
        txn = engine.begin()
        try:
            for ext_id in sorted(touched):
                view = engine.get_vertex(txn, vertex_gids[ext_id])
                wrong += view is None or view.properties != self.model.current(ext_id)
            for ext_id, props in edge_props.items():
                if ext_id in deleted:
                    continue
                view = engine.get_edge(txn, edge_gids[ext_id])
                wrong += view is None or any(
                    view.properties.get(k) != v for k, v in props.items()
                )
            for ext_id in deleted:
                wrong += engine.get_edge(txn, edge_gids[ext_id]) is not None
            self.checked += len(touched) + len(edge_props) + len(deleted)
            now = engine.now()
            grid = sorted(touched)[:: max(1, len(touched) // 400)]
            for position, ext_id in enumerate(grid):
                t = gen.instant((position % 97) / 97.0, now)
                got = {
                    gen.canon(v.properties)
                    for v in engine.vertex_versions(
                        txn, vertex_gids[ext_id], TemporalCondition.as_of(t)
                    )
                }
                wrong += got != expected_states(self.model, ext_id, t, t)
            self.checked += len(grid)
        finally:
            engine.abort(txn)
        return wrong

    def extras(self) -> dict:
        return {
            "store_bytes_per_op": self.store_bytes / self.applied,
            "peak_rss_mb": peak_rss_mb(),
            "recover_s": self.recover_s,
            "records_replayed": self.replayed,
        }


# -- served_mix --------------------------------------------------------------


class ServedMix(HotQuery):
    name = "served_mix"
    clients = 2
    child = None
    conns: tuple | list = ()
    ops_per_s = 900

    def generate(self) -> str:
        self.inputs = gen.served_inputs(self.seed, self.scale, self.total_ops)
        return self.inputs.sha256

    def setup(self) -> None:
        """Start the child that hosts engine and server; it loads the
        same seeded dataset and reports its commit log for the model."""
        self.dir = self.tmp / "served_mix"
        shutil.rmtree(self.dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        self.child = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.aeonbench.serve_child",
                str(self.dir), str(self.seed), str(self.scale),
                str(self.tmp.parent / "trace-served_mix-server.jsonl"),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        hello = self._reply()
        self.now = hello["now"]
        self.model = gen.Model(hello["log"])
        self.conns = []
        self.sids = []
        for _ in range(self.clients):
            client = Client("127.0.0.1", hello["port"])
            self.sids.append(client.connect()["session"])
            self.conns.append(client)
        self.written: list[dict] = [{} for _ in range(self.clients)]

    def _reply(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve child exited with {self.child.wait()} before replying"
            )
        return json.loads(line)

    def _command(self, word: str) -> dict:
        self.child.stdin.write(word + "\n")
        self.child.stdin.flush()
        return self._reply()

    def teardown(self) -> None:
        for client in self.conns:
            client.close()
        self.conns = []
        if self.child is None:
            return
        try:
            self._command("quit")
        finally:
            self.child.stdin.close()
            self.child.stdout.close()
            self.child.wait(timeout=60)
            self.child = None

    def op_id(self, client: int, index: int) -> str:
        # session:request-id, the name the child's handler span gives
        # the same op; valid while the loop runs (ids count up by one).
        return f"{self.sids[client]}:{self.conns[client]._next_id + 1}"

    def executor(self, client):
        query, written = self.conns[client].query, self.written[client]

        def execute(op):
            cls, text, params, person = op
            if cls == "commit":
                query(text, params, idempotent=False)
                written[person] = params["v"]
            else:
                query(text, params)

        return execute

    def ask(self, client, text, params):
        return self.conns[client].query(text, params)

    def start_tracing(self) -> None:
        self._command("trace")

    def counters(self) -> dict:
        return self._command("counters")

    def child_spans(self) -> dict:
        return self._command("spans")

    def check(self, phases, every) -> int:
        wrong = super().check(phases, every)
        for client, written in enumerate(self.written):
            for person, value in written.items():
                rows = self.ask(client, gen.CURRENT_Q, {"id": person})
                wrong += rows != [{"locationIP": value}]
                self.checked += 1
        return wrong

    def extras(self) -> dict:
        report = self._command("report")
        return {
            "store_bytes_per_op": report["store_bytes"] / report["applied"],
            "peak_rss_mb": report["peak_rss_mb"],
        }


WORKLOADS = {w.name: w for w in (ColdHistory, HotQuery, CommitGc, ServedMix)}
