"""Materialized version views and undo application.

A *view* is an immutable-by-convention, copy-on-write image of one
version of a vertex or edge.  Starting from the in-place record (the
newest version), the reader repeatedly applies undo deltas to step
the view backwards in time; each step also narrows the view's
transaction-time interval to the one recorded on the delta.  Both
snapshot-isolation reads and temporal scans are built from this
single primitive.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.common.timeutil import MAX_TIMESTAMP
from repro.errors import StorageError
from repro.graph.edge import EdgeRecord
from repro.graph.vertex import EdgeRef, VertexRecord
from repro.mvcc.delta import Delta, DeltaAction
from repro.mvcc.transaction import Transaction, delta_visible_at


class VertexView:
    """One version of a vertex, detached from the record.

    Views are copy-on-write over two container groups, content (label
    set + property map) and adjacency (the two edge lists).
    Construction *shares* the record's containers (a snapshot scan
    materializes a view per record, so this keeps it allocation-free),
    and :meth:`fork` shares a view's containers with its clone.  The
    first step that changes a group copies that group only.  Writers
    replace a record's containers instead of mutating them, so a shared
    one never shows a later write.

    A reconstructed version served from the history store's cache may
    carry *pending* topology records: the structural changes between
    its cached state and the queried instant.  They are applied the
    first time ``out_edges`` or ``in_edges`` is read (temporal expand
    never reads them — it takes candidate edges from the record and the
    ``VE`` segment).  Treat views as read-only snapshots; mutate
    through the engine API.

    ``topology_end`` is set only on a reconstruction base that
    :func:`version_iterator` read from an undo chain: the commit
    timestamp of the oldest structural change the walk undid.  History
    topology records from that instant on are already undone in the
    base's adjacency (a GC epoch may migrate them while the read runs).
    """

    __slots__ = (
        "gid",
        "labels",
        "properties",
        "_out_edges",
        "_in_edges",
        "exists",
        "tt_start",
        "tt_end",
        "_owns_content",
        "_owns_edges",
        "_pending",
        "topology_end",
    )

    def __init__(self, record: VertexRecord) -> None:
        self.gid = record.gid
        self.labels = record.labels
        self.properties = record.properties
        self._out_edges = record.out_edges
        self._in_edges = record.in_edges
        self.exists = not record.deleted
        self.tt_start = record.tt_start
        self.tt_end = MAX_TIMESTAMP
        self._owns_content = False
        self._owns_edges = False
        self._pending = None

    @property
    def out_edges(self) -> list[EdgeRef]:
        if self._pending is not None:
            self._own_edges()
        return self._out_edges

    @property
    def in_edges(self) -> list[EdgeRef]:
        if self._pending is not None:
            self._own_edges()
        return self._in_edges

    def _own_content(self) -> None:
        if not self._owns_content:
            self.labels = set(self.labels)
            self.properties = dict(self.properties)
            self._owns_content = True

    def _own_edges(self) -> None:
        """Own the adjacency lists, resolving pending topology records
        (newest first) into the copies.  The result is published before
        the records are cleared, so a reader never sees a half-applied
        list."""
        pending = self._pending
        if pending is not None:
            # reconstruct imports this module; the history record
            # format is its to apply
            from repro.core.reconstruct import undo_topology_payload

            out_edges, in_edges = list(self._out_edges), list(self._in_edges)
            for _tt_start, _tt_end, payload in pending:
                out_edges, in_edges = undo_topology_payload(
                    out_edges, in_edges, payload
                )
            self._out_edges, self._in_edges = out_edges, in_edges
            self._owns_edges = True
            self._pending = None
        elif not self._owns_edges:
            self._out_edges = list(self._out_edges)
            self._in_edges = list(self._in_edges)
            self._owns_edges = True

    def fork(self) -> "VertexView":
        """A clone sharing every container (and pending records) with
        this view.  Both give up ownership, so whichever steps first
        copies only the group it changes."""
        clone = object.__new__(VertexView)
        clone.gid = self.gid
        clone.labels = self.labels
        clone.properties = self.properties
        clone._out_edges = self._out_edges
        clone._in_edges = self._in_edges
        clone.exists = self.exists
        clone.tt_start = self.tt_start
        clone.tt_end = self.tt_end
        clone._pending = self._pending
        clone._owns_content = clone._owns_edges = False
        self._owns_content = self._owns_edges = False
        return clone

    @classmethod
    def blank(cls, gid: int, tt_start: int, tt_end: int) -> "VertexView":
        """A non-existent placeholder version (reconstruction base for
        objects already reclaimed from the current store)."""
        view = object.__new__(cls)
        view.gid = gid
        view.labels = set()
        view.properties = {}
        view._out_edges = []
        view._in_edges = []
        view.exists = False
        view.tt_start = tt_start
        view.tt_end = tt_end
        view._owns_content = view._owns_edges = True
        view._pending = None
        return view

    def step_back(self, delta: Delta) -> None:
        """Apply one undo delta, turning this view into the older version."""
        action = delta.action
        if action == DeltaAction.SET_PROPERTY:
            self._own_content()
            name, old_value = delta.payload
            if old_value is None:
                self.properties.pop(name, None)
            else:
                self.properties[name] = old_value
        elif action == DeltaAction.ADD_LABEL:
            self._own_content()
            self.labels.add(delta.payload)
        elif action == DeltaAction.REMOVE_LABEL:
            self._own_content()
            self.labels.discard(delta.payload)
        elif action == DeltaAction.ADD_OUT_EDGE:
            self._own_edges()
            self._out_edges.append(EdgeRef(*delta.payload))
        elif action == DeltaAction.ADD_IN_EDGE:
            self._own_edges()
            self._in_edges.append(EdgeRef(*delta.payload))
        elif action == DeltaAction.REMOVE_OUT_EDGE:
            self._own_edges()
            ref = EdgeRef(*delta.payload)
            self._out_edges = [r for r in self._out_edges if r.edge_gid != ref.edge_gid]
        elif action == DeltaAction.REMOVE_IN_EDGE:
            self._own_edges()
            ref = EdgeRef(*delta.payload)
            self._in_edges = [r for r in self._in_edges if r.edge_gid != ref.edge_gid]
        elif action == DeltaAction.RECREATE_OBJECT:
            self.exists = True
        elif action == DeltaAction.DELETE_OBJECT:
            self.exists = False
        else:  # pragma: no cover - exhaustive over DeltaAction
            raise StorageError(f"cannot apply {action} to a vertex view")
        self.tt_start = delta.tt_start
        self.tt_end = delta.tt_end

    @property
    def tt(self) -> tuple[int, int]:
        return (self.tt_start, self.tt_end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VertexView(gid={self.gid}, exists={self.exists},"
            f" tt=[{self.tt_start},{self.tt_end}))"
        )


class EdgeView:
    """One version of an edge, detached from the record.

    Copy-on-write like :class:`VertexView`: the property map is shared
    with the record (or a forked view) until the first mutating step.
    """

    __slots__ = (
        "gid",
        "edge_type",
        "from_gid",
        "to_gid",
        "properties",
        "exists",
        "tt_start",
        "tt_end",
        "_owns_content",
    )

    def __init__(self, record: EdgeRecord) -> None:
        self.gid = record.gid
        self.edge_type = record.edge_type
        self.from_gid = record.from_gid
        self.to_gid = record.to_gid
        self.properties = record.properties
        self.exists = not record.deleted
        self.tt_start = record.tt_start
        self.tt_end = MAX_TIMESTAMP
        self._owns_content = False

    def _own_content(self) -> None:
        if not self._owns_content:
            self.properties = dict(self.properties)
            self._owns_content = True

    def fork(self) -> "EdgeView":
        """A clone sharing the property map; both give up ownership."""
        clone = object.__new__(EdgeView)
        clone.gid = self.gid
        clone.edge_type = self.edge_type
        clone.from_gid = self.from_gid
        clone.to_gid = self.to_gid
        clone.properties = self.properties
        clone.exists = self.exists
        clone.tt_start = self.tt_start
        clone.tt_end = self.tt_end
        clone._owns_content = self._owns_content = False
        return clone

    @classmethod
    def blank(cls, gid: int, tt_start: int, tt_end: int) -> "EdgeView":
        """A non-existent placeholder version (reconstruction base)."""
        view = object.__new__(cls)
        view.gid = gid
        view.edge_type = ""
        view.from_gid = -1
        view.to_gid = -1
        view.properties = {}
        view.exists = False
        view.tt_start = tt_start
        view.tt_end = tt_end
        view._owns_content = True
        return view

    def step_back(self, delta: Delta) -> None:
        """Apply one undo delta, turning this view into the older version."""
        action = delta.action
        if action == DeltaAction.SET_PROPERTY:
            self._own_content()
            name, old_value = delta.payload
            if old_value is None:
                self.properties.pop(name, None)
            else:
                self.properties[name] = old_value
        elif action == DeltaAction.RECREATE_OBJECT:
            self.exists = True
        elif action == DeltaAction.DELETE_OBJECT:
            self.exists = False
        else:  # pragma: no cover - exhaustive over edge-legal actions
            raise StorageError(f"cannot apply {action} to an edge view")
        self.tt_start = delta.tt_start
        self.tt_end = delta.tt_end

    @property
    def tt(self) -> tuple[int, int]:
        return (self.tt_start, self.tt_end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EdgeView(gid={self.gid}, exists={self.exists},"
            f" tt=[{self.tt_start},{self.tt_end}))"
        )


def visible_view(record, txn: Transaction):
    """Materialize the version of ``record`` visible to ``txn``.

    Implements snapshot isolation: undo every delta whose change is not
    part of the transaction's snapshot, stop at the first visible one
    (chains are newest-to-oldest with decreasing commit timestamps).
    Returns ``None`` when the visible version does not exist (deleted,
    or created after the snapshot).
    """
    view = VertexView(record) if isinstance(record, VertexRecord) else EdgeView(record)
    delta = record.delta_head
    while delta is not None:
        if delta_visible_at(delta, txn.start_ts, txn):
            break
        view.step_back(delta)
        delta = delta.next
    return view if view.exists else None


def current_view(record):
    """The record's in-place state as a view.  Take the view *before*
    reading the chain head: a writer chains its delta before installing
    its change, so if the change is in the view, its delta is then in
    the chain to be undone."""
    return VertexView(record) if isinstance(record, VertexRecord) else EdgeView(record)


def version_iterator(record, txn: Transaction, oldest: Optional[list] = None) -> Iterator:
    """Yield every version of ``record`` in the current store, newest
    first, starting from the version visible to ``txn``.

    This is the "current data storage" half of the paper's Algorithm 2
    (the loop over ``v ∪ v.deltas``): uncommitted foreign changes are
    skipped via the snapshot check, then each unreclaimed historical
    version is surfaced for the temporal check.  Versions where the
    object did not exist are not yielded.

    Run to the end, the iterator appends to ``oldest`` (when given) the
    view after every delta it applied: what :func:`oldest_unreclaimed_view`
    returns for the chain as this walk read it, with ``topology_end``
    set if it undid a structural change.  A GC epoch may cut the chain,
    or migrate what the walk undid, while the read runs; a base read
    from the record afterwards would start above versions the walk
    already surfaced.
    """
    view = current_view(record)
    delta = record.delta_head
    # First, roll back changes invisible to the snapshot (SnapshotCheck).
    # The visible version's interval is the content timeline's: undoing
    # another writer's edge create or delete restores adjacency only.
    content_tt = (view.tt_start, view.tt_end)
    topology_end = None
    while delta is not None and not delta_visible_at(delta, txn.start_ts, txn):
        view.step_back(delta)
        if delta.is_structural:
            topology_end = delta.tt_end
        else:
            content_tt = (delta.tt_start, delta.tt_end)
        delta = delta.next
    view.tt_start, view.tt_end = content_tt
    if view.exists:
        yield view
        # Detach lazily: this line only runs if the consumer resumes
        # the generator, so a point query that stops at the first
        # version never pays for a fork (and the fork copies nothing
        # until a step changes a container group).
        view = view.fork()
    # Then surface older, unreclaimed versions for temporal filtering.
    # Versions are transaction-granular: all consecutive deltas sharing
    # one commit info describe a single version transition and must be
    # applied together before the older version is surfaced.  Purely
    # structural transitions do not create content versions (that is
    # what the separate structural transaction-time field is for), so
    # a group is only surfaced when it touched content, and the
    # surfaced interval is the content timeline's.
    oldest_tt = content_tt
    while delta is not None:
        commit_info = delta.commit_info
        content_tt = None
        while delta is not None and delta.commit_info is commit_info:
            view.step_back(delta)
            if delta.is_structural:
                topology_end = delta.tt_end
            else:
                content_tt = oldest_tt = (delta.tt_start, delta.tt_end)
            delta = delta.next
        if content_tt is not None and view.exists:
            view.tt_start, view.tt_end = content_tt
            yield view
            view = view.fork()
    if oldest is not None:
        view.tt_start, view.tt_end = oldest_tt
        if topology_end is not None:
            view.topology_end = topology_end
        oldest.append(view)


def oldest_unreclaimed_view(record):
    """The view after applying the *entire* delta chain.

    This is "the object's oldest version from current storage"
    (Algorithm 2 line 14), the base ``FetchFromKV`` reconstructs from
    when no anchor supersedes it.  The result may be a non-existent
    placeholder (the chain still holds the creation delta), which the
    history store handles by finding nothing older.
    """
    view = current_view(record)
    delta = record.delta_head
    content_tt = (view.tt_start, view.tt_end)
    while delta is not None:
        view.step_back(delta)
        if not delta.is_structural:
            content_tt = (delta.tt_start, delta.tt_end)
        delta = delta.next
    # The base's interval is the content timeline's: reclaimed content
    # records all end at or before it, which is what the history
    # store's collection boundary relies on.
    view.tt_start, view.tt_end = content_tt
    return view
