"""Seeded inputs, the loader, and the independent answer model.

Everything a workload feeds the engine is produced here from the seed
alone and fully materialised before any timing starts.  Query instants
are drawn as fractions of the loaded time span, because the span's
commit timestamps exist only once the engine has assigned them.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

from repro.baselines.interface import (
    ADD_EDGE,
    ADD_VERTEX,
    DELETE_EDGE,
    DELETE_VERTEX,
    UPDATE_EDGE,
    UPDATE_VERTEX,
    GraphOp,
)
from repro.workloads import bildbc, ldbc, tpcds

EXT = "ext_id"

#: Transactions the loaders pack ops into (loading is untimed set-up;
#: the timed commit workloads use one op per transaction).
LOAD_BATCH = 64


def digest(*parts) -> str:
    """SHA-256 over the materialised inputs, so two runs can prove they
    ran the same ones."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
    return sha.hexdigest()


class Model:
    """``ext_id -> [(commit_ts, properties | None)]`` in commit order.

    Fed only with the ops the benchmark issued and the commit
    timestamps the engine acknowledged; never reads engine state.
    """

    def __init__(self, log: dict | None = None) -> None:
        self.log: dict[str, list] = log if log is not None else {}

    def record(self, op: GraphOp, commit_ts: int) -> None:
        if op.kind == ADD_VERTEX:
            props = dict(op.properties or {})
            props[EXT] = op.ext_id
            self.log[op.ext_id] = [(commit_ts, props)]
        elif op.kind == UPDATE_VERTEX:
            versions = self.log[op.ext_id]
            props = dict(versions[-1][1])
            props[op.prop] = op.value
            versions.append((commit_ts, props))
        elif op.kind == DELETE_VERTEX:
            self.log[op.ext_id].append((commit_ts, None))

    def current(self, ext_id: str):
        return self.log[ext_id][-1][1]

    def at(self, ext_id: str, t: int):
        """Properties visible at instant ``t`` (``st <= t < end``)."""
        versions = self.log.get(ext_id, ())
        index = bisect.bisect_right([v[0] for v in versions], t) - 1
        return versions[index][1] if index >= 0 else None

    def between(self, ext_id: str, t1: int, t2: int) -> list:
        """Every property state with ``st <= t2 and end > t1``."""
        versions = self.log.get(ext_id, ())
        states = []
        for index, (start, props) in enumerate(versions):
            end = versions[index + 1][0] if index + 1 < len(versions) else None
            if props is None or start > t2:
                continue
            if end is None or (end > t1 and end > start):
                states.append(props)
        return states


def canon(props: dict, columns=None) -> tuple:
    """Hashable form of one property state (optionally projected)."""
    if columns is None:
        return tuple(sorted(props.items()))
    return tuple(props.get(name) for name in columns)


class Loader:
    """Applies :class:`GraphOp` streams through the engine's Python
    API, keeping the external-id directory every real loader keeps."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.vertex_gids: dict[str, int] = {}
        self.edge_gids: dict[str, int] = {}

    def apply(self, txn, op: GraphOp) -> None:
        engine = self.engine
        kind = op.kind
        if kind == UPDATE_VERTEX:
            engine.set_vertex_property(
                txn, self.vertex_gids[op.ext_id], op.prop, op.value
            )
        elif kind == ADD_VERTEX:
            props = dict(op.properties or {})
            props[EXT] = op.ext_id
            self.vertex_gids[op.ext_id] = engine.create_vertex(
                txn, [op.label], props
            )
        elif kind == ADD_EDGE:
            self.edge_gids[op.ext_id] = engine.create_edge(
                txn,
                self.vertex_gids[op.src],
                self.vertex_gids[op.dst],
                op.label,
                dict(op.properties or {}),
            )
        elif kind == UPDATE_EDGE:
            engine.set_edge_property(
                txn, self.edge_gids[op.ext_id], op.prop, op.value
            )
        elif kind == DELETE_EDGE:
            engine.delete_edge(txn, self.edge_gids[op.ext_id])
        else:
            raise ValueError(f"workloads here never issue {kind}")

    def load(self, ops: list[GraphOp], model: Model | None = None) -> None:
        """Bulk-load ``ops`` in transactions of :data:`LOAD_BATCH`."""
        engine = self.engine
        for start in range(0, len(ops), LOAD_BATCH):
            chunk = ops[start:start + LOAD_BATCH]
            txn = engine.begin()
            for op in chunk:
                self.apply(txn, op)
            commit_ts = engine.commit(txn)
            if model is not None:
                for op in chunk:
                    model.record(op, commit_ts)


# -- cold_history ------------------------------------------------------------


@dataclass
class ColdInputs:
    ops: list[GraphOp]
    customers: list[str]
    #: Empty at full scale (engine defaults); a smoke run shrinks the
    #: reconstruction cache with the data so the 4x ratio holds.
    engine_kwargs: dict
    #: ``(class, customer, f1, f2)``: instants as fractions of the span.
    queries: list[tuple]
    sha256: str = ""


def cold_inputs(seed: int, scale: float, n_queries: int) -> ColdInputs:
    """A ``workloads.tpcds`` retail graph whose customers number 4x the
    reconstruction cache, plus one skewed attribute update per customer
    on average (``tpcds.generate``'s own update sampler is O(customers)
    per draw, so the stream is drawn here with the same property mix
    and a quadratic rank skew: a hot few get deep chains)."""
    rng = random.Random(seed)
    cache_size = 4096 if scale >= 1 else max(64, int(4096 * scale))
    engine_kwargs = {} if scale >= 1 else {"reconstruction_cache_size": cache_size}
    customers = 4 * cache_size + 16
    data = tpcds.generate(
        customers=customers, stores=5, items=100, updates=0, seed=seed
    )
    ops = list(data.ops)
    ts = data.last_ts
    for _ in range(customers):
        ts += 1
        target = data.customer_ids[int(customers * rng.random() ** 2)]
        prop = rng.choice(["balance", "city", "creditRating"])
        if prop == "balance":
            value = rng.randrange(0, 10_000)
        elif prop == "city":
            value = rng.choice(tpcds._CITIES)
        else:
            value = rng.choice(["low", "good", "high"])
        ops.append(GraphOp(UPDATE_VERTEX, ts, target, prop=prop, value=value))
    # Each question is the first touch of its customer: below the
    # 4096-entry reconstruction cache the engine keeps every record
    # list it has read, unbounded, so a second touch would measure a
    # different, warm path and the mix would drift as the run goes on.
    queries = []
    targets = rng.sample(data.customer_ids, min(n_queries, customers))
    for index, customer in enumerate(targets):
        cls = ("point", "slice", "expand")[index % 3]
        f1 = rng.random()
        if cls == "slice":
            f1 *= 0.9
        queries.append((cls, customer, f1, f1 + 0.1))
    inputs = ColdInputs(ops, data.customer_ids, engine_kwargs, queries)
    inputs.sha256 = digest(ops, queries)
    return inputs


# -- hot_query / served_mix --------------------------------------------------

PERSON_COLUMNS = ("firstName", "browserUsed", "locationIP")
_RETURN = ", ".join(f"n.{c} AS {c}" for c in PERSON_COLUMNS)
POINT_Q = f"MATCH (n:Person {{ext_id: $id}}) TT SNAPSHOT $t RETURN {_RETURN}"
SLICE_Q = f"MATCH (n:Person {{ext_id: $id}}) TT BETWEEN $t AND $t2 RETURN {_RETURN}"
EXPAND_Q = (
    "MATCH (n:Person {ext_id: $id})-[k:KNOWS]-(f:Person) TT SNAPSHOT $t "
    "RETURN f.ext_id AS friend, k.creationDate AS since"
)
SCAN_Q = (
    "MATCH (n:Person) WHERE n.firstName = $f TT SNAPSHOT $t "
    "RETURN n.ext_id AS id"
)
SET_Q = "MATCH (n:Person {ext_id: $id}) SET n.locationIP = $v"
CURRENT_Q = "MATCH (n:Person {ext_id: $id}) RETURN n.locationIP AS locationIP"


@dataclass
class HotInputs:
    ops: list[GraphOp]
    persons: list[str]
    first_names: list[str]
    sha256: str = ""

    @property
    def labels(self) -> list[str]:
        """Vertex labels, each of which gets a label+``ext_id`` index."""
        return sorted({op.label for op in self.ops if op.kind == ADD_VERTEX})

    #: ``(class, person, f1, f2, extra)`` per statement; ``extra`` is
    #: the scanned first name or the value a SET writes.
    statements: list[list[tuple]] = field(default_factory=list)


def hot_dataset(seed: int, scale: float) -> HotInputs:
    """``workloads.ldbc`` persons=100 plus 5 k ``bildbc`` ops: ~14 k
    history records over ~5 k objects, of which the ~100 queried
    persons and their neighbourhoods fit the cache many times over."""
    persons = 100 if scale >= 1 else 40
    data = ldbc.generate(persons=persons, seed=seed)
    stream = bildbc.generate_operations(
        data, 5000 if scale >= 1 else 600, seed=seed + 1
    )
    names = sorted(
        {
            op.properties["firstName"]
            for op in data.ops
            if op.kind == ADD_VERTEX and op.label == "Person"
        }
    )
    return HotInputs(data.ops + stream.ops, list(data.person_ids), names)


def hot_inputs(seed: int, scale: float, n_statements: int) -> HotInputs:
    """One client cycling point, slice and KNOWS-expand lookups, with
    every 20th statement an unindexed firstName label scan."""
    inputs = hot_dataset(seed, scale)
    rng = random.Random(seed + 2)
    statements = []
    for index in range(n_statements):
        if index % 20 == 19:
            cls, extra = "scan", rng.choice(inputs.first_names)
        else:
            cls, extra = ("point", "slice", "expand")[index % 3], None
        f1 = rng.random() * (0.9 if cls == "slice" else 1.0)
        statements.append((cls, rng.choice(inputs.persons), f1, f1 + 0.1, extra))
    inputs.statements = [statements]
    inputs.sha256 = digest(inputs.ops, statements)
    return inputs


def served_inputs(seed: int, scale: float, n_statements: int) -> HotInputs:
    """Two clients, each cycling point, slice, point, slice, SET; client
    ``c`` writes only persons of parity ``c``, so the final state is
    the same however the two interleave."""
    inputs = hot_dataset(seed, scale)
    rng = random.Random(seed + 3)
    for client in range(2):
        own = inputs.persons[client::2]
        statements = []
        for index in range(n_statements):
            cls = ("point", "slice", "point", "slice", "commit")[index % 5]
            if cls == "commit":
                extra = f"10.{client}.{index % 251}.{rng.randrange(256)}"
                statements.append((cls, rng.choice(own), 0.0, 0.0, extra))
                continue
            f1 = rng.random() * (0.9 if cls == "slice" else 1.0)
            statements.append(
                (cls, rng.choice(inputs.persons), f1, f1 + 0.1, None)
            )
        inputs.statements.append(statements)
    inputs.sha256 = digest(inputs.ops, inputs.statements)
    return inputs


def instant(fraction: float, now: int) -> int:
    """Map a span fraction onto a commit timestamp in ``[1, now)``."""
    return 1 + int(fraction * (now - 1))


def statement(cls: str, person: str, f1: float, f2: float, extra, now: int):
    """``(text, params)`` for one materialised statement."""
    if cls == "commit":
        return SET_Q, {"id": person, "v": extra}
    t = instant(f1, now)
    if cls == "point":
        return POINT_Q, {"id": person, "t": t}
    if cls == "slice":
        return SLICE_Q, {"id": person, "t": t, "t2": instant(f2, now)}
    if cls == "expand":
        return EXPAND_Q, {"id": person, "t": t}
    return SCAN_Q, {"f": extra, "t": t}


# -- commit_gc ---------------------------------------------------------------


@dataclass
class CommitInputs:
    base: list[GraphOp]
    #: One dependency-safe op list per writer thread.
    partitions: list[list[GraphOp]]
    sha256: str = ""


def commit_inputs(seed: int, scale: float, n_ops: int) -> CommitInputs:
    """LDBC persons=400 base graph and a ``bildbc`` stream split in two.

    Every op goes to the writer that owns the object it names, an edge
    to the writer that created whichever endpoint the stream itself
    created, so no op can run before what it depends on.  The rare edge
    between two stream-created vertices of different writers is
    dropped, with the later ops on it.  Writers still meet on shared
    endpoints' adjacency lists; those conflicts are retried, not
    avoided.
    """
    data = ldbc.generate(persons=400 if scale >= 1 else 60, seed=seed)
    stream = bildbc.generate_operations(data, n_ops, seed=seed + 1)
    owner: dict[str, int] = {}
    dropped: set[str] = set()
    partitions: list[list[GraphOp]] = [[], []]

    def side(ext_id: str) -> int:
        return owner.get(ext_id, hashlib.md5(ext_id.encode()).digest()[0] & 1)

    for op in stream.ops:
        if op.kind == ADD_EDGE:
            created = [owner[v] for v in (op.src, op.dst) if v in owner]
            if len(set(created)) > 1:
                dropped.add(op.ext_id)
                continue
            part = created[0] if created else side(op.ext_id)
        elif op.ext_id in dropped:
            continue
        else:
            part = side(op.ext_id)
        if op.kind in (ADD_VERTEX, ADD_EDGE):
            owner[op.ext_id] = part
        partitions[part].append(op)
    inputs = CommitInputs(data.ops, partitions)
    inputs.sha256 = digest(data.ops, partitions)
    return inputs
