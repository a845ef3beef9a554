"""GraphStorage: transactional CRUD over vertices and edges.

This is the write path of the current store.  Every mutation follows
the Memgraph protocol the paper extends:

1. **conflict check** — if the object's newest delta belongs to another
   active transaction, or to one committed after our snapshot, abort
   with a serialization conflict (first-updater-wins);
2. **undo delta** — create the delta that reverses the change, copy the
   object's current transaction-time start into it, chain it at the
   head, and register it in the transaction's undo buffer;
3. **in-place change** — apply the new value to the record.  A label
   set, property map or adjacency list is replaced rather than
   mutated, so every view already sharing the old container keeps
   showing its version.

Deletions follow the paper's decomposition (section 4.1, "Delta
organization"): an edge deletion clears the edge's properties and
detaches it from both endpoints (one ``E`` delta plus two ``VE``
deltas); a vertex deletion first deletes the incident edges, then
clears the vertex.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterator, Optional

from repro.common.ids import GidAllocator
from repro.errors import (
    EdgeNotFound,
    GraphError,
    SerializationConflict,
    VertexNotFound,
)
from repro.graph.edge import EdgeRecord
from repro.graph.constraints import ConstraintRegistry
from repro.graph.indexes import IndexRegistry
from repro.graph.properties import validate_properties, validate_value
from repro.graph.vertex import EdgeRef, VertexRecord
from repro.graph.views import EdgeView, VertexView, visible_view
from repro.mvcc.delta import Delta, DeltaAction
from repro.mvcc.manager import TransactionManager
from repro.mvcc.transaction import CommitStatus, Transaction


def _with_property(properties: dict, name: str, value: Any) -> dict:
    """A copy of ``properties`` with ``name`` set (``None`` removes it);
    records get a new map, never an edited one (see step 3 above)."""
    updated = dict(properties)
    if value is None:
        updated.pop(name, None)
    else:
        updated[name] = value
    return updated


def apply_undo_to_record(record, delta: Delta) -> None:
    """Apply one undo delta to the in-place record (abort rollback)."""
    action = delta.action
    if action == DeltaAction.SET_PROPERTY:
        name, old_value = delta.payload
        record.properties = _with_property(record.properties, name, old_value)
    elif action == DeltaAction.ADD_LABEL:
        record.labels = record.labels | {delta.payload}
    elif action == DeltaAction.REMOVE_LABEL:
        record.labels = record.labels - {delta.payload}
    elif action == DeltaAction.ADD_OUT_EDGE:
        record.out_edges = record.out_edges + [EdgeRef(*delta.payload)]
    elif action == DeltaAction.ADD_IN_EDGE:
        record.in_edges = record.in_edges + [EdgeRef(*delta.payload)]
    elif action == DeltaAction.REMOVE_OUT_EDGE:
        ref = EdgeRef(*delta.payload)
        record.out_edges = [r for r in record.out_edges if r.edge_gid != ref.edge_gid]
    elif action == DeltaAction.REMOVE_IN_EDGE:
        ref = EdgeRef(*delta.payload)
        record.in_edges = [r for r in record.in_edges if r.edge_gid != ref.edge_gid]
    elif action == DeltaAction.RECREATE_OBJECT:
        record.deleted = False
    elif action == DeltaAction.DELETE_OBJECT:
        record.deleted = True
    else:  # pragma: no cover - exhaustive over DeltaAction
        raise GraphError(f"cannot undo {action}")


class GraphStorage:
    """Vertex/edge maps with MVCC write protocol and visibility reads."""

    def __init__(self, manager: Optional[TransactionManager] = None) -> None:
        #: Changes after every vertex write that can add a label or a
        #: property value to a gid's timeline (create, add_label,
        #: set_vertex_property, an abort rollback step); deletes and
        #: label removal only take away.  Each change draws a fresh
        #: value from a counter, so a value is never seen twice even
        #: when concurrent writers store out of order — memoized
        #: candidate sets key their validity on it.
        self.vertex_generation = 0
        self._vertex_generations = itertools.count(1)
        self.manager = manager if manager is not None else TransactionManager()
        self.manager.set_undo_applier(self._undo)
        self._gids = GidAllocator()
        self._vertices: dict[int, VertexRecord] = {}
        self._edges: dict[int, EdgeRecord] = {}
        self._lock = threading.RLock()
        self.indexes = IndexRegistry()
        self.constraints = ConstraintRegistry()

    # -- write protocol helpers ------------------------------------------

    def _check_write_conflict(self, txn: Transaction, record) -> None:
        head = record.delta_head
        if head is None:
            return
        info = head.commit_info
        if info.status == CommitStatus.ACTIVE and info.transaction_id != txn.id:
            raise SerializationConflict(
                f"{record.kind} {record.gid} locked by transaction "
                f"{info.transaction_id}"
            )
        if (
            info.status == CommitStatus.COMMITTED
            and info.commit_ts is not None
            and info.commit_ts > txn.start_ts
        ):
            raise SerializationConflict(
                f"{record.kind} {record.gid} modified after snapshot "
                f"{txn.start_ts}"
            )

    def _push_delta(
        self,
        txn: Transaction,
        record,
        action: DeltaAction,
        payload: Any,
    ) -> Delta:
        # Fail before touching the record: a transaction the watchdog
        # aborted in the background must not chain a dangling delta
        # (the owner gets TransactionTimeout here instead).
        txn.check_active()
        structural = action in (
            DeltaAction.ADD_OUT_EDGE,
            DeltaAction.ADD_IN_EDGE,
            DeltaAction.REMOVE_OUT_EDGE,
            DeltaAction.REMOVE_IN_EDGE,
        )
        tt_start = (
            record.tt_structure_start
            if structural and isinstance(record, VertexRecord)
            else record.tt_start
        )
        delta = Delta(
            action=action,
            payload=payload,
            commit_info=txn.commit_info,
            object_kind=record.kind,
            object_gid=record.gid,
            tt_start=tt_start,
        )
        delta.next = record.delta_head
        record.delta_head = delta
        txn.record_delta(record, delta)
        return delta

    # -- vertex writes ------------------------------------------------------

    def create_vertex(
        self,
        txn: Transaction,
        labels: tuple[str, ...] | list[str] = (),
        properties: Optional[dict[str, Any]] = None,
        gid: Optional[int] = None,
    ) -> int:
        """Insert a vertex; returns its gid.

        ``gid`` forces a specific identifier (WAL replay only — gids
        key the history store, so replay must reproduce them).
        """
        txn.check_active()
        properties = dict(properties or {})
        validate_properties(properties)
        record = VertexRecord(self._claim_gid(gid))
        record.labels.update(labels)
        record.properties.update(properties)
        self.constraints.check_new_vertex(
            txn, record.gid, record.labels, record.properties
        )
        # The undo of a create: the object did not exist before.  It is
        # chained before the record is published, so no reader ever
        # finds the record without it (and takes it for committed).
        self._push_delta(txn, record, DeltaAction.DELETE_OBJECT, None)
        with self._lock:
            self._vertices[record.gid] = record
        self.indexes.notify_vertex_write(record, txn)
        self._advance_vertex_generation()
        return record.gid

    def add_label(self, txn: Transaction, gid: int, label: str) -> bool:
        """Add a label; returns False if it was already present."""
        record = self._writable_vertex(txn, gid)
        if label in record.labels:
            return False
        labels = record.labels | {label}
        self.constraints.check_vertex_write(txn, record, labels, record.properties)
        self._push_delta(txn, record, DeltaAction.REMOVE_LABEL, label)
        record.labels = labels
        self.indexes.notify_vertex_write(record, txn)
        self._advance_vertex_generation()
        return True

    def remove_label(self, txn: Transaction, gid: int, label: str) -> bool:
        """Remove a label; returns False if it was absent."""
        record = self._writable_vertex(txn, gid)
        if label not in record.labels:
            return False
        labels = record.labels - {label}
        self.constraints.check_vertex_write(txn, record, labels, record.properties)
        self._push_delta(txn, record, DeltaAction.ADD_LABEL, label)
        record.labels = labels
        return True

    def set_vertex_property(
        self, txn: Transaction, gid: int, name: str, value: Any
    ) -> None:
        """Set (or, with ``value=None``, remove) a vertex property."""
        record = self._writable_vertex(txn, gid)
        self._set_property(txn, record, name, value)
        self.indexes.notify_vertex_write(record, txn)
        self._advance_vertex_generation()

    def delete_vertex(
        self, txn: Transaction, gid: int, detach: bool = True
    ) -> None:
        """Delete a vertex, decomposed per the paper: delete the linked
        edges first, then clear the vertex's attributes.

        Without ``detach`` the delete fails if any visible edge remains
        (mirroring Cypher's plain ``DELETE``).
        """
        record = self._writable_vertex(txn, gid)
        view = visible_view(record, txn)
        incident = list(view.out_edges) + list(view.in_edges)
        if incident and not detach:
            raise GraphError(
                f"vertex {gid} still has {len(incident)} edges; "
                "use detach=True"
            )
        for ref in incident:
            self.delete_edge(txn, ref.edge_gid)
        for name in list(record.properties):
            self._set_property(txn, record, name, None)
        for label in record.labels:
            self._push_delta(txn, record, DeltaAction.ADD_LABEL, label)
        record.labels = set()
        self._push_delta(txn, record, DeltaAction.RECREATE_OBJECT, None)
        record.deleted = True

    # -- edge writes -----------------------------------------------------------

    def create_edge(
        self,
        txn: Transaction,
        from_gid: int,
        to_gid: int,
        edge_type: str,
        properties: Optional[dict[str, Any]] = None,
        gid: Optional[int] = None,
    ) -> int:
        """Insert an edge between two visible vertices; returns its gid."""
        txn.check_active()
        if not edge_type:
            raise ValueError("edge_type must be a non-empty string")
        properties = dict(properties or {})
        validate_properties(properties)
        source = self._writable_vertex(txn, from_gid)
        target = self._writable_vertex(txn, to_gid)
        record = EdgeRecord(self._claim_gid(gid), edge_type, from_gid, to_gid)
        record.properties.update(properties)
        self._push_delta(txn, record, DeltaAction.DELETE_OBJECT, None)
        with self._lock:
            self._edges[record.gid] = record
        out_ref = EdgeRef(edge_type, to_gid, record.gid)
        in_ref = EdgeRef(edge_type, from_gid, record.gid)
        self._push_delta(txn, source, DeltaAction.REMOVE_OUT_EDGE, tuple(out_ref))
        source.out_edges = source.out_edges + [out_ref]
        self._push_delta(txn, target, DeltaAction.REMOVE_IN_EDGE, tuple(in_ref))
        target.in_edges = target.in_edges + [in_ref]
        return record.gid

    def set_edge_property(
        self, txn: Transaction, gid: int, name: str, value: Any
    ) -> None:
        """Set (or, with ``value=None``, remove) an edge property."""
        record = self._writable_edge(txn, gid)
        self._set_property(txn, record, name, value)

    def delete_edge(self, txn: Transaction, gid: int) -> None:
        """Delete an edge: one property-clearing ``E`` delta plus a
        structural ``VE`` delta on each endpoint (paper section 4.1)."""
        record = self._writable_edge(txn, gid)
        source = self._writable_vertex(txn, record.from_gid)
        target = self._writable_vertex(txn, record.to_gid)
        for name in list(record.properties):
            self._set_property(txn, record, name, None)
        self._push_delta(txn, record, DeltaAction.RECREATE_OBJECT, None)
        record.deleted = True
        out_ref = EdgeRef(record.edge_type, record.to_gid, record.gid)
        in_ref = EdgeRef(record.edge_type, record.from_gid, record.gid)
        self._push_delta(txn, source, DeltaAction.ADD_OUT_EDGE, tuple(out_ref))
        source.out_edges = [
            r for r in source.out_edges if r.edge_gid != record.gid
        ]
        self._push_delta(txn, target, DeltaAction.ADD_IN_EDGE, tuple(in_ref))
        target.in_edges = [
            r for r in target.in_edges if r.edge_gid != record.gid
        ]

    def _claim_gid(self, gid: Optional[int]) -> int:
        if gid is None:
            return self._gids.allocate()
        if gid in self._vertices or gid in self._edges:
            raise GraphError(f"gid {gid} already in use (bad replay?)")
        self._gids.allocate_up_to(gid + 1)
        return gid

    # -- shared write internals ---------------------------------------------

    def _set_property(
        self, txn: Transaction, record, name: str, value: Any
    ) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError("property names must be non-empty strings")
        if value is not None:
            validate_value(value)
        old_value = record.properties.get(name)
        if old_value == value and (value is not None or name not in record.properties):
            return  # no-op write: no delta, like Memgraph
        properties = _with_property(record.properties, name, value)
        if isinstance(record, VertexRecord):
            self.constraints.check_vertex_write(
                txn, record, record.labels, properties
            )
        self._push_delta(
            txn, record, DeltaAction.SET_PROPERTY, (name, old_value)
        )
        record.properties = properties

    def _advance_vertex_generation(self) -> None:
        self.vertex_generation = next(self._vertex_generations)

    def _undo(self, record, delta: Delta) -> None:
        apply_undo_to_record(record, delta)
        if isinstance(record, VertexRecord):
            # Abort restores the in-place state *before* unlinking the
            # delta, so a reader can see the aborted value and then find
            # no delta holding the restored one.
            self._advance_vertex_generation()

    def _writable_vertex(self, txn: Transaction, gid: int) -> VertexRecord:
        txn.check_active()
        record = self._vertices.get(gid)
        if record is None:
            raise VertexNotFound(gid)
        self._check_write_conflict(txn, record)
        if record.deleted:
            raise VertexNotFound(gid)
        return record

    def _writable_edge(self, txn: Transaction, gid: int) -> EdgeRecord:
        txn.check_active()
        record = self._edges.get(gid)
        if record is None:
            raise EdgeNotFound(gid)
        self._check_write_conflict(txn, record)
        if record.deleted:
            raise EdgeNotFound(gid)
        return record

    # -- reads ---------------------------------------------------------------

    def get_vertex(self, txn: Transaction, gid: int) -> Optional[VertexView]:
        """The version of vertex ``gid`` visible to ``txn``, or None."""
        record = self._vertices.get(gid)
        if record is None:
            return None
        return visible_view(record, txn)

    def get_edge(self, txn: Transaction, gid: int) -> Optional[EdgeView]:
        """The version of edge ``gid`` visible to ``txn``, or None."""
        record = self._edges.get(gid)
        if record is None:
            return None
        return visible_view(record, txn)

    def iter_vertices(self, txn: Transaction) -> Iterator[VertexView]:
        """All vertices visible to ``txn`` (snapshot-isolation scan)."""
        with self._lock:
            records = list(self._vertices.values())
        for record in records:
            view = visible_view(record, txn)
            if view is not None:
                yield view

    def iter_edges(self, txn: Transaction) -> Iterator[EdgeView]:
        """All edges visible to ``txn``."""
        with self._lock:
            records = list(self._edges.values())
        for record in records:
            view = visible_view(record, txn)
            if view is not None:
                yield view

    # -- indexes ----------------------------------------------------------------

    def create_label_index(self, label: str) -> None:
        """Create and backfill an index on ``:label``."""
        self.indexes.create_label_index(label, self.iter_vertex_records())

    def create_label_property_index(self, label: str, prop: str) -> None:
        """Create and backfill an index on ``(:label {prop})``."""
        self.indexes.create_label_property_index(
            label, prop, self.iter_vertex_records()
        )

    def create_unique_constraint(self, label: str, prop: str) -> None:
        """Enforce uniqueness of ``prop`` values among ``:label``
        vertices (validates existing data first)."""
        self.constraints.create_unique(label, prop, self.iter_vertex_records())

    def drop_unique_constraint(self, label: str, prop: str) -> None:
        """Remove a unique constraint."""
        self.constraints.drop_unique(label, prop)

    # -- raw access for the temporal engine and GC ----------------------------

    def vertex_record(self, gid: int) -> Optional[VertexRecord]:
        return self._vertices.get(gid)

    def edge_record(self, gid: int) -> Optional[EdgeRecord]:
        return self._edges.get(gid)

    def iter_vertex_records(self) -> Iterator[VertexRecord]:
        with self._lock:
            return iter(list(self._vertices.values()))

    def iter_edge_records(self) -> Iterator[EdgeRecord]:
        with self._lock:
            return iter(list(self._edges.values()))

    def drop_record(self, record) -> None:
        """Remove a fully reclaimed, deleted record (GC callback)."""
        with self._lock:
            if isinstance(record, VertexRecord):
                self._vertices.pop(record.gid, None)
                self.indexes.forget_vertex(record.gid)
            else:
                self._edges.pop(record.gid, None)

    # -- accounting -------------------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return len(self._edges)

    def metrics(self) -> dict[str, int]:
        """The ``current_store`` metrics section."""
        return {
            "vertices": self.vertex_count(),
            "edges": self.edge_count(),
            "bytes": self.approximate_bytes(),
        }

    def approximate_bytes(self) -> int:
        """Wire-size model of the whole current store (records only;
        undo deltas are transient and excluded, as in the paper where
        they are reclaimed by GC)."""
        with self._lock:
            total = sum(r.approximate_bytes() for r in self._vertices.values())
            total += sum(r.approximate_bytes() for r in self._edges.values())
            return total
