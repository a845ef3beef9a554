"""Materialized version views and undo application.

A *view* is an immutable-by-convention copy of one version of a vertex
or edge.  Starting from the in-place record (the newest version), the
reader repeatedly applies undo deltas to step the view backwards in
time; each step also narrows the view's transaction-time interval to
the one recorded on the delta.  Both snapshot-isolation reads and
temporal scans are built from this single primitive.
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

    Views are copy-on-write: construction *shares* the record's label
    set, property map and adjacency lists (a snapshot scan materializes
    a view per record, so this keeps it allocation-free).  Labels and
    properties are copied by the first step that changes either, the
    adjacency lists by the first structural step.  Temporal
    reads start from :func:`current_view` instead.  Treat views as
    read-only snapshots; mutate through the engine API.
    """

    __slots__ = (
        "gid",
        "labels",
        "properties",
        "out_edges",
        "in_edges",
        "exists",
        "tt_start",
        "tt_end",
        "_owns_content",
        "_owns_edges",
    )

    def __init__(self, record: VertexRecord) -> None:
        self.gid = record.gid
        self.labels = record.labels
        self.properties = record.properties
        self.out_edges = record.out_edges
        self.in_edges = record.in_edges
        self.exists = not record.deleted
        self.tt_start = record.tt_start
        self.tt_end = MAX_TIMESTAMP
        self._owns_content = False
        self._owns_edges = False

    def _own(self) -> None:
        """Copy every container still shared with the record."""
        self._own_content()
        self._own_edges()

    def _own_content(self) -> None:
        if not self._owns_content:
            self.labels = set(self.labels)
            self.properties = dict(self.properties)
            self._owns_content = True

    def _own_edges(self) -> None:
        if not self._owns_edges:
            self.out_edges = list(self.out_edges)
            self.in_edges = list(self.in_edges)
            self._owns_edges = True

    @classmethod
    def blank(cls, gid: int, tt_start: int, tt_end: int) -> "VertexView":
        """A non-existent placeholder version (reconstruction base for
        objects already reclaimed from the current store)."""
        view = object.__new__(cls)
        view.gid = gid
        view.labels = set()
        view.properties = {}
        view.out_edges = []
        view.in_edges = []
        view.exists = False
        view.tt_start = tt_start
        view.tt_end = tt_end
        view._owns_content = view._owns_edges = True
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
            self.out_edges.append(EdgeRef(*delta.payload))
        elif action == DeltaAction.ADD_IN_EDGE:
            self._own_edges()
            self.in_edges.append(EdgeRef(*delta.payload))
        elif action == DeltaAction.REMOVE_OUT_EDGE:
            self._own_edges()
            ref = EdgeRef(*delta.payload)
            self.out_edges = [r for r in self.out_edges if r.edge_gid != ref.edge_gid]
        elif action == DeltaAction.REMOVE_IN_EDGE:
            self._own_edges()
            ref = EdgeRef(*delta.payload)
            self.in_edges = [r for r in self.in_edges if r.edge_gid != ref.edge_gid]
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
    with the record until the first mutating step.
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

    def _own(self) -> None:
        if not self._owns_content:
            self.properties = dict(self.properties)
            self._owns_content = True

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
            self._own()
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
    """The record's in-place state as a view that owns its labels and
    properties.  Writers change both in place, so a view sharing them
    could show a later, uncommitted write to whoever reads it after it
    was made; adjacency stays shared until a structural step.  Take the
    view *before* reading the chain head: if a writer's change is in
    the copy, its delta is then in the chain to be undone."""
    if isinstance(record, VertexRecord):
        view = VertexView(record)
        view.labels = set(view.labels)
    else:
        view = EdgeView(record)
    view.properties = dict(view.properties)
    view._owns_content = True
    return view


def version_iterator(record, txn: Transaction) -> Iterator:
    """Yield every version of ``record`` in the current store, newest
    first, starting from the version visible to ``txn``.

    This is the "current data storage" half of the paper's Algorithm 2
    (the loop over ``v ∪ v.deltas``): uncommitted foreign changes are
    skipped via the snapshot check, then each unreclaimed historical
    version is surfaced for the temporal check.  Versions where the
    object did not exist are not yielded.
    """
    view = current_view(record)
    delta = record.delta_head
    # First, roll back changes invisible to the snapshot (SnapshotCheck).
    while delta is not None and not delta_visible_at(delta, txn.start_ts, txn):
        view.step_back(delta)
        delta = delta.next
    if view.exists:
        yield view
        # Detach lazily: this line only runs if the consumer resumes
        # the generator, so a point query that stops at the first
        # version never pays for a copy.
        view = _copy_view(view)
    # Then surface older, unreclaimed versions for temporal filtering.
    # Versions are transaction-granular: all consecutive deltas sharing
    # one commit info describe a single version transition and must be
    # applied together before the older version is surfaced.  Purely
    # structural transitions do not create content versions (that is
    # what the separate structural transaction-time field is for), so
    # a group is only surfaced when it touched content, and the
    # surfaced interval is the content timeline's.
    while delta is not None:
        commit_info = delta.commit_info
        content_tt = None
        while delta is not None and delta.commit_info is commit_info:
            view.step_back(delta)
            if not delta.is_structural:
                content_tt = (delta.tt_start, delta.tt_end)
            delta = delta.next
        if content_tt is not None and view.exists:
            view.tt_start, view.tt_end = content_tt
            yield view
            view = _copy_view(view)


def oldest_unreclaimed_view(record):
    """The view after applying the *entire* delta chain.

    This is "the object's oldest version from current storage"
    (Algorithm 2 line 14), the base ``FetchFromKV`` reconstructs from
    when no anchor supersedes it.  The result may be a non-existent
    placeholder (the chain still holds the creation delta), which the
    history store handles by finding nothing older.
    """
    view = VertexView(record) if isinstance(record, VertexRecord) else EdgeView(record)
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


def _copy_view(view):
    """Snapshot a mutable stepping view into an independent object."""
    clone = object.__new__(type(view))
    for slot in type(view).__slots__:
        value = getattr(view, slot)
        if isinstance(value, set):
            value = set(value)
        elif isinstance(value, dict):
            value = dict(value)
        elif isinstance(value, list):
            value = list(value)
        setattr(clone, slot, value)
    # The clone got fresh containers above.
    clone._owns_content = True
    if isinstance(clone, VertexView):
        clone._owns_edges = True
    return clone
