"""Outside-in tracer: spans around each layer's public functions.

Nothing in ``src/`` is edited.  :func:`install` replaces each function
where callers look it up (a class attribute, or the importing module's
global for ``from x import f`` call sites) with a wrapper that records
a span, and returns the undo list.  Spans carry id, name, start, end,
parent and the benchmark op they belong to; they stay in memory and
are written out when the run ends.

Most layer entry points here are generators, so a generator span is
charged only for the time spent inside its ``next()`` calls, and that
time is charged as child time to whichever span was running the
consumer at that moment.  Self time is busy time minus child time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time

_current: contextvars.ContextVar = contextvars.ContextVar(
    "aeonbench_span", default=None
)
_clock = time.perf_counter_ns
_ids = itertools.count(1)

#: Root span of one benchmark op; its self time is what no layer span
#: covered (``trace.unattributed_share``).
ROOT = "client.op"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "busy", "child")

    def __init__(self, name: str, parent: "Span | None", op=None) -> None:
        self.id = next(_ids)
        self.name = name
        self.parent = parent.id if parent is not None else 0
        self.op = op if parent is None else parent.op
        self.start = self.end = 0
        self.busy = 0
        self.child = 0


class Tracer:
    """Owns the span list of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    # -- explicit spans (benchmark loop, cross-thread links) ---------------

    def begin(self, name: str, op=None, parent: "Span | None" = None) -> Span:
        if parent is None:
            parent = _current.get()
        span = Span(name, parent, op)
        _current.set(span)
        span.start = _clock()
        return span

    def end(self, span: Span, restore: "Span | None" = None) -> None:
        span.end = _clock()
        span.busy = span.end - span.start
        _current.set(restore)
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, op_from=None):
        """Span around ``fn``; picks the plain, generator or coroutine
        form from what ``fn`` is.  ``op_from(*args)`` names the op for a
        span that has no parent (the server's request handler)."""
        spans = self.spans

        def open_span(args):
            parent = _current.get()
            op = op_from(*args) if op_from and parent is None else None
            return parent, Span(name, parent, op)

        def close_span(parent, span):
            span.end = _clock()
            _current.set(parent)
            span.busy = span.end - span.start
            if parent is not None:
                parent.child += span.busy
            spans.append(span)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent, span = open_span(args)
                _current.set(span)
                span.start = _clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close_span(parent, span)

            return traced_async

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                span = None
                try:
                    while True:
                        running = _current.get()
                        if span is None:
                            span = Span(name, running)
                            span.start = _clock()
                        _current.set(span)
                        began = _clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.end = _clock()
                            _current.set(running)
                            spent = span.end - began
                            span.busy += spent
                            if running is not None:
                                running.child += spent
                        yield item
                finally:
                    inner.close()
                    if span is not None:
                        spans.append(span)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, span = open_span(args)
            _current.set(span)
            span.start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(parent, span)

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, list[int]]:
        """``name -> [count, self_ns, busy_ns]`` over spans that belong
        to an op; spans without one (writer thread, frame reads before a
        handler exists) are keyed ``"~" + name``."""
        out: dict[str, list[int]] = {}
        for span in self.spans:
            key = span.name if span.op is not None else "~" + span.name
            row = out.setdefault(key, [0, 0, 0])
            row[0] += 1
            row[1] += span.busy - span.child
            row[2] += span.busy
        return out

    def ops_with(self, name: str) -> set:
        return {s.op for s in self.spans if s.name == name and s.op is not None}

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        [s.id, s.name, s.start, s.end, s.parent, s.op,
                         s.busy - s.child]
                    )
                )
                out.write("\n")


#: (module, class or None, attribute, span name).  A ``None`` class
#: patches the module global — the name the *caller's* module holds.
TARGETS = [
    ("repro.query.executor", None, "execute_query", "query.exec"),
    ("repro.query.executor", None, "parse", "query.parse"),
    ("repro.query.executor", None, "plan_query", "query.plan"),
    ("repro.core.operators", "TemporalOperators", "scan_vertices", "core.operators.scan"),
    ("repro.core.operators", "TemporalOperators", "vertex_versions", "core.operators.scan"),
    ("repro.core.operators", "TemporalOperators", "edge_versions", "core.operators.scan"),
    ("repro.core.operators", "TemporalOperators", "expand", "core.operators.expand"),
    ("repro.mvcc.manager", "TransactionManager", "begin", "mvcc.begin"),
    ("repro.mvcc.manager", "TransactionManager", "commit", "mvcc.commit"),
    ("repro.mvcc.gc", "GarbageCollector", "collect", "mvcc.gc"),
    ("repro.graph.storage", "GraphStorage", "create_vertex", "graph.mutate"),
    ("repro.graph.storage", "GraphStorage", "create_edge", "graph.mutate"),
    ("repro.graph.storage", "GraphStorage", "set_vertex_property", "graph.mutate"),
    ("repro.graph.storage", "GraphStorage", "set_edge_property", "graph.mutate"),
    ("repro.graph.storage", "GraphStorage", "delete_vertex", "graph.mutate"),
    ("repro.graph.storage", "GraphStorage", "delete_edge", "graph.mutate"),
    ("repro.core.history_store", "HistoricalStore", "fetch_versions", "core.history_store.fetch"),
    ("repro.core.history_store", "HistoricalStore", "preload_objects", "core.history_store.fetch"),
    ("repro.core.history_store", "HistoricalStore", "commit_batch", "core.history_store.commit_batch"),
    ("repro.kvstore.store", "KVStore", "seek", "kvstore.seek"),
    ("repro.kvstore.store", "KVStore", "scan_prefix", "kvstore.seek"),
    ("repro.kvstore.store", "KVStore", "scan_range", "kvstore.scan_range"),
    ("repro.kvstore.store", "KVStore", "get", "kvstore.get"),
    ("repro.kvstore.store", "KVStore", "write", "kvstore.write"),
    ("repro.kvstore.store", "KVStore", "flush", "kvstore.flush"),
    ("repro.kvstore.store", "KVStore", "compact", "kvstore.compact"),
    ("repro.core.history_store", None, "decode_record_payload", "common.serde.decode"),
    ("repro.core.history_store", None, "encode_record_payload", "common.serde.encode"),
    ("repro.core.deltas", "RecordDraft", "encode_payload", "common.serde.encode"),
    ("repro.core.migration", "Migrator", "migrate", "core.migration.migrate"),
    ("repro.core.write_path", "GroupCommitWriter", "submit", "core.write_path.submit"),
    ("repro.core.write_path", "CommitTicket", "wait", "core.write_path.ack_wait"),
    ("repro.core.durability", "EngineWal", "append_batch", "core.durability.append_batch"),
    ("repro.core.durability", None, "replay_into", "core.durability.replay"),
    ("repro.server.protocol", None, "encode_frame", "server.frame_encode"),
    ("repro.server.protocol", None, "decode_body", "server.frame_decode"),
]


def install(tracer: Tracer) -> list:
    """Patch every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, class_name, attr, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(span_name, original))
        undo.append((owner, attr, original))
    undo.extend(_install_server(tracer))
    return undo


def _install_server(tracer: Tracer) -> list:
    """The request handler is the root span of a served op (named
    ``session:request-id``, which the client side also knows), and the
    executor hand-off carries it onto the worker thread."""
    from repro.server.app import AeonGServer

    answer = AeonGServer._answer
    run = AeonGServer._run

    def op_id(_server, session, _writer, request):
        return f"{session.sid}:{request.get('id')}"

    async def linked_run(self, span, fn, *args, executor=None, **kwargs):
        handler = _current.get()

        def work(*a, **kw):
            link = tracer.begin("server.engine_work", parent=handler)
            try:
                return fn(*a, **kw)
            finally:
                tracer.end(link)
                if handler is not None:
                    handler.child += link.busy

        return await run(self, span, work, *args, executor=executor, **kwargs)

    AeonGServer._answer = tracer.wrap("server.dispatch", answer, op_from=op_id)
    AeonGServer._run = linked_run
    return [(AeonGServer, "_answer", answer), (AeonGServer, "_run", run)]


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
