"""Temporal Scan and Expand operators (paper Algorithms 2 and 3).

The operators merge three sources of versions, on demand ("reconstruct
as needed" — no full snapshot is ever materialized):

1. the current version, via ordinary MVCC visibility;
2. unreclaimed historical versions still chained in the current store,
   surfaced by stepping the undo chain;
3. reclaimed versions in the historical store, reconstructed by
   :meth:`~repro.core.history_store.HistoricalStore.fetch_many` — one
   batch per object for scans, two batches per expand.

A time-point query stops at the first version satisfying the temporal
condition (the ``flag`` of Algorithm 2); a time-slice query collects
every satisfying version.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.common.timeutil import MAX_TIMESTAMP
from repro.core.history_store import HistoricalStore
from repro.core.temporal import TemporalCondition, intersects
from repro.errors import IntegrityError
from repro.graph.storage import GraphStorage
from repro.graph.vertex import EdgeRef
from repro.graph.views import (
    EdgeView,
    VertexView,
    current_view,
    version_iterator,
)
from repro.mvcc.delta import DeltaAction
from repro.mvcc.transaction import CommitStatus, Transaction

_LABEL_UNDO = (DeltaAction.ADD_LABEL, DeltaAction.REMOVE_LABEL)


def _current_match(record, label, prop, value) -> Optional[VertexView]:
    """The in-place version as a view, or None when it is deleted or
    fails the label / property-equality filters."""
    if record.deleted:
        return None
    if label is not None and label not in record.labels:
        return None
    if prop is not None and record.properties.get(prop) != value:
        return None
    return current_view(record)


class TemporalOpStats:
    """Counters for the temporal operators, split by version source.

    ``current_hits`` counts versions served from the current store
    (MVCC-visible heads plus unreclaimed undo-chain versions — lines
    SnapshotCheck/TemporalCheck of Algorithm 2); reclaimed-version hits
    are counted by the history store as
    ``read_path.versions_served``, so the pair partitions every version
    a temporal read returns.  ``scan_candidates`` counts the gids the
    unindexed scan visited (its roster's length, for a scan run to the
    end) and ``roster_builds`` the rosters built to answer them.
    ``expand_candidates`` counts the candidate edges expands considered,
    ``expand_edges_rejected`` those with no version passing the
    temporal condition and Equation 2 against the source vertex, and
    ``expand_pairs`` the ``(edge, neighbour)`` rows expands yielded.
    Exported as ``metrics()["operators"]``; ``current_hits`` is also
    snapshotted per-operator by ``PROFILE``.
    """

    __slots__ = (
        "scans",
        "expands",
        "current_hits",
        "roster_builds",
        "scan_candidates",
        "expand_candidates",
        "expand_edges_rejected",
        "expand_pairs",
    )

    def __init__(self) -> None:
        for slot in self.__slots__:
            setattr(self, slot, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class TemporalOperators:
    """Built-in temporal support for scan and expand."""

    def __init__(self, storage: GraphStorage, history: HistoricalStore) -> None:
        self.storage = storage
        self.history = history
        self.stats = TemporalOpStats()
        # Unindexed-scan candidate sets (see _roster): key ->
        # (validity, roster).  A ("label", label) roster is a gid list;
        # a ("value", label, prop) roster maps value -> gid list, or is
        # None when some candidate's history could not be decoded.
        self._rosters: dict[tuple, tuple[tuple[int, int], object]] = {}

    # -- per-object version retrieval (Algorithm 2 core) ------------------

    def vertex_versions(
        self, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> Iterator[VertexView]:
        """Versions of vertex ``gid`` satisfying ``cond``, newest first."""
        yield from self._object_versions("vertex", txn, gid, cond)

    def edge_versions(
        self, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> Iterator[EdgeView]:
        """Versions of edge ``gid`` satisfying ``cond``, newest first."""
        yield from self._object_versions("edge", txn, gid, cond)

    def _object_versions(
        self, object_kind: str, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> Iterator:
        current, request = self._current_versions(object_kind, txn, gid, cond)
        yield from current
        if request is not None:
            yield from self.history.fetch_many(object_kind, (request,), cond)[0]

    def _versions_many(
        self,
        object_kind: str,
        txn: Transaction,
        gids: Sequence[int],
        cond: TemporalCondition,
    ) -> list[list]:
        """Versions of each of ``gids`` satisfying ``cond``, newest
        first, with every reclaimed part read in one history batch."""
        out: list[list] = []
        slots: list[int] = []
        requests: list[tuple] = []
        for gid in gids:
            current, request = self._current_versions(object_kind, txn, gid, cond)
            if request is not None:
                slots.append(len(out))
                requests.append(request)
            out.append(current)
        if requests:
            fetched = self.history.fetch_many(object_kind, requests, cond)
            for slot, versions in zip(slots, fetched):
                out[slot].extend(versions)
        return out

    def _current_versions(
        self, object_kind: str, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> tuple[list, Optional[tuple]]:
        """The object's current-store versions satisfying ``cond``,
        newest first (SnapshotCheck then TemporalCheck), and the history
        request ``(gid, base)`` still owed for its older reclaimed
        versions, or ``None`` when no reclaimed version can match."""
        record = (
            self.storage.vertex_record(gid)
            if object_kind == "vertex"
            else self.storage.edge_record(gid)
        )
        if record is None:
            # Fully reclaimed object: the history store is the only source.
            return [], (gid, None)
        view = current_view(record)
        if record.delta_head is None:
            # No undo chain: GC truncates only deltas committed before
            # every live snapshot, so the in-place state (read before
            # the head, as writers chain before they write) is visible
            # and the record's stamps decide — it is both the newest
            # version and the reconstruction base.
            base = view
            if view.exists and cond.matches(view.tt_start, view.tt_end):
                self.stats.current_hits += 1
                if cond.is_point:
                    return [view], None  # flag := false
                current, base = [view], view.fork()
            else:
                current = []
        else:
            current = []
            # The base comes from the same walk, so a GC epoch cutting
            # the chain meanwhile cannot serve a version twice.
            oldest: list = []
            for version in version_iterator(record, txn, oldest):
                if cond.matches(version.tt_start, version.tt_end):
                    self.stats.current_hits += 1
                    current.append(version)
                    if cond.is_point:
                        return current, None  # flag := false
            (base,) = oldest
        # Older reclaimed versions, reconstructed from the KV store.
        if not self.history.has_history(object_kind, gid):
            return current, None
        # Reclaimed records tile the content timeline up to the base's
        # start with half-open intervals, so when the window only abuts
        # the seam (t1 == base.tt_start) nothing older can match — but
        # that relies on the tiling invariant holding.  ``>=`` keeps the
        # fetch decision sound on its own terms (fetching more never
        # loses a version; matches() still rejects at the boundary), so
        # a store whose seam was disturbed by repairs or truncation
        # degrades to a harmless extra lookup instead of a missed
        # version.
        if base.tt_start >= cond.t1:
            return current, (gid, base)
        return current, None

    # -- scan (Algorithm 2) ----------------------------------------------------

    def scan_vertices(
        self,
        txn: Transaction,
        cond: TemporalCondition,
        label: Optional[str] = None,
        prop: Optional[str] = None,
        value=None,
    ) -> Iterator[VertexView]:
        """All vertex versions satisfying ``cond`` (plus optional label /
        property-equality filters), grouped per vertex, newest first.

        Uses a label(+property) index when one exists; the index holds
        current-store candidates, so the indexed path skips objects
        whose every trace has been reclaimed (the same trade the
        paper's implementation makes — indexes live in the current
        store).  Otherwise the scan visits the filters' roster (see
        :meth:`_roster`): current-store candidates ascending by gid,
        then history-only ones.
        """
        self.stats.scans += 1
        candidates = self._index_candidates(label, prop, value)
        if candidates is not None:
            for gid in sorted(candidates):
                yield from self._filtered_versions(txn, gid, cond, label, prop, value)
            return
        stats = self.stats
        vertex_record = self.storage.vertex_record
        has_history = self.history.has_history
        for gid in self._roster(label, prop, value):
            stats.scan_candidates += 1
            record = vertex_record(gid)
            if record is None:
                # Fully reclaimed: the history store is the only source.
                yield from self._filtered_versions(txn, gid, cond, label, prop, value)
                continue
            head = record.delta_head
            if cond.is_point and record.tt_start <= cond.t1:
                # The visible current version *is* the version at t
                # (Algorithm 2's flag, decided without touching the
                # chain) — provided the head is committed within our
                # snapshot so the in-place state is the visible one.
                # A head that is in-flight, uncommitted-ours, aborted-
                # but-not-yet-unlinked, or newer than the snapshot
                # takes the chain walk below, which applies the usual
                # snapshot check per delta.
                info = head.commit_info if head is not None else None
                settled = info is None or (
                    info.status == CommitStatus.COMMITTED
                    and info.commit_ts is not None
                    and info.commit_ts <= txn.start_ts
                )
                in_window = True
            else:
                # A single-version object: filter on the record directly,
                # skipping the chain walk and the history store — this
                # is what keeps an unindexed temporal scan close to a
                # plain Memgraph scan on mostly-static graphs.
                settled = head is None and not has_history("vertex", gid)
                in_window = cond.matches(record.tt_start, MAX_TIMESTAMP)
            if settled:
                view = (
                    _current_match(record, label, prop, value) if in_window else None
                )
                # Writers chain their delta before changing the record in
                # place, so an unchanged head means the state just read
                # is the one the decision above was made for.
                if record.delta_head is head:
                    if view is not None:
                        stats.current_hits += 1
                        yield view
                    continue
            yield from self._filtered_versions(txn, gid, cond, label, prop, value)

    def _index_candidates(self, label, prop, value) -> Optional[set[int]]:
        if label is None:
            return None
        indexes = self.storage.indexes
        if prop is not None and value is not None:
            by_value = indexes.candidates_by_value(label, prop, value)
            if by_value is not None:
                return by_value
        return indexes.candidates_by_label(label)

    def _filtered_versions(
        self, txn, gid, cond, label, prop, value
    ) -> Iterator[VertexView]:
        for view in self.vertex_versions(txn, gid, cond):
            if label is not None and label not in view.labels:
                continue
            if prop is not None and view.properties.get(prop) != value:
                continue
            yield view

    # -- rosters: the unindexed scan's candidate sets ------------------------
    #
    # A version of a vertex can carry ``label`` (resp. ``prop == value``)
    # only if the label (resp. the value) occurs in the current record,
    # an unreclaimed undo delta, or a reclaimed backward diff — every
    # historical state is reachable from those three sources.  A roster
    # is that test run once over every gid, in the other direction:
    # label -> gids, (label, prop) -> value -> gids.  Supersets are
    # sound (the per-gid filters above still decide), so a roster stays
    # valid while nothing can *add* a label or a value to a timeline:
    # the history epoch (migration, prune, repair, invalidation) and
    # the storage's vertex_generation (create, add_label, property
    # writes, abort rollback) both unchanged.  Deletes, label removal
    # and GC truncation only take away.

    def _roster(self, label, prop, value) -> Sequence[int]:
        """The gids an unindexed scan with these filters must visit.

        ``None`` and unhashable values narrow by label only (``None``
        keeps the engine API's "property absent" meaning; an unhashable
        value cannot key a roster).  ``label=None`` means every vertex.
        """
        if prop is not None and value is not None:
            try:
                hash(value)
            except TypeError:
                pass
            else:
                by_value = self._memoized(
                    ("value", label, prop), self._build_value_roster, label, prop
                )
                if by_value is not None:
                    return by_value.get(value, ())
        return self._memoized(("label", label), self._build_label_roster, label)

    def _memoized(self, key: tuple, build, *args):
        # Read the validity *before* building: a write landing during
        # the build then makes the next reader rebuild.
        validity = (self.history.epoch, self.storage.vertex_generation)
        entry = self._rosters.get(key)
        if entry is not None and entry[0] == validity:
            return entry[1]
        roster = build(*args)
        self.stats.roster_builds += 1
        self._rosters[key] = (validity, roster)
        return roster

    def _mention_reader(self):
        """``gid -> (labels, {prop: values})`` of the vertex's reclaimed
        history: empty for a vertex without history, ``None`` when its
        records cannot be decoded (the gid then stays a candidate, and
        a read that needs the damaged record fails there, exactly as a
        direct read would)."""
        has_history = self.history.has_history
        mentions = self.history.vertex_mentions
        nothing = (frozenset(), {})

        def read(gid: int):
            if not has_history("vertex", gid):
                return nothing
            try:
                return mentions(gid)
            except IntegrityError:
                return None

        return read

    def _build_label_roster(self, label: Optional[str]) -> list[int]:
        records = list(self.storage.iter_vertex_records())
        present = {record.gid for record in records}
        history_only = [
            gid
            for gid in self.history.sorted_known_gids("vertex")
            if gid not in present
        ]
        if label is None:
            return sorted(present) + history_only
        read = self._mention_reader()

        def mentioned(gid: int) -> bool:
            mentions = read(gid)
            return mentions is None or label in mentions[0]

        current = []
        for record in records:
            if label in record.labels:
                current.append(record.gid)
                continue
            delta = record.delta_head
            while delta is not None and not (
                delta.payload == label and delta.action in _LABEL_UNDO
            ):
                delta = delta.next
            if delta is not None or mentioned(record.gid):
                current.append(record.gid)
        current.sort()
        current.extend(gid for gid in history_only if mentioned(gid))
        return current

    def _build_value_roster(self, label: Optional[str], prop: str):
        by_value: dict = {}
        vertex_record = self.storage.vertex_record
        read = self._mention_reader()
        for gid in self._memoized(("label", label), self._build_label_roster, label):
            values = []
            record = vertex_record(gid)
            if record is not None:
                values.append(record.properties.get(prop))
                delta = record.delta_head
                while delta is not None:
                    if delta.action == DeltaAction.SET_PROPERTY:
                        name, old_value = delta.payload
                        if name == prop:
                            values.append(old_value)
                    delta = delta.next
            mentions = read(gid)
            if mentions is None:
                return None  # narrow by label only
            values.extend(mentions[1].get(prop, ()))
            for candidate in values:
                if candidate is None:
                    continue
                try:
                    gids = by_value.setdefault(candidate, [])
                except TypeError:
                    continue  # unhashable: never equal to a roster key
                if not gids or gids[-1] != gid:
                    gids.append(gid)
        return by_value

    # -- expand (Algorithm 3) -----------------------------------------------------

    def expand(
        self,
        txn: Transaction,
        vertex: VertexView,
        cond: TemporalCondition,
        direction: str = "out",
        edge_types: Optional[set[str]] = None,
    ) -> Iterator[tuple[EdgeView, VertexView]]:
        """Expand from one vertex version: yield ``(edge version,
        neighbour version)`` pairs satisfying ``cond``.

        Candidate edges are the union of the current adjacency (incl.
        unreclaimed structural history) and the history store's
        topology records (``EdgeRead`` ∪ ``FetchFromKV``-VE), checked
        per Equation 2 — the edge's TT must intersect both the vertex's
        and the neighbour's — in two batches: every candidate edge is
        resolved in one history read and checked against the vertex
        before any neighbour is touched, then the surviving edges'
        neighbours are resolved in a second.  Rows come edges by gid,
        each edge's versions and then each neighbour's versions newest
        first (a point condition serves at most one version of each).
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(f"bad expand direction {direction!r}")
        stats = self.stats
        stats.expands += 1
        refs = self._candidate_refs(vertex.gid, cond, direction, edge_types)
        stats.expand_candidates += len(refs)
        if len(refs) > 1:
            # Warm every candidate neighbour's records with one bounded
            # range scan per segment (the edge batch preloads its own
            # misses), so neighbours that survive one at a time across
            # expands never pay a KV seek each.
            self.history.preload_objects("vertex", (ref.other_gid for ref in refs))
        survivors = []
        edge_versions = self._versions_many(
            "edge", txn, [ref.edge_gid for ref in refs], cond
        )
        for ref, versions in zip(refs, edge_versions):
            kept = [
                edge
                for edge in versions
                if intersects(
                    edge.tt_start, edge.tt_end, vertex.tt_start, vertex.tt_end
                )
            ]
            if kept:
                survivors.append((ref, kept))
        stats.expand_edges_rejected += len(refs) - len(survivors)
        if not survivors:
            return
        # One neighbour request per surviving edge (a neighbour two
        # edges reach is requested twice), so failpoint hits and the
        # per-object counters follow the edges that reached it.
        others = [ref.other_gid for ref, _kept in survivors]
        neighbours = self._versions_many("vertex", txn, others, cond)
        for (ref, kept), candidates in zip(survivors, neighbours):
            for edge in kept:
                for neighbour in candidates:
                    if intersects(
                        edge.tt_start,
                        edge.tt_end,
                        neighbour.tt_start,
                        neighbour.tt_end,
                    ):
                        stats.expand_pairs += 1
                        yield edge, neighbour

    def _candidate_refs(
        self,
        gid: int,
        cond: TemporalCondition,
        direction: str,
        edge_types: Optional[set[str]],
    ) -> list[EdgeRef]:
        want_out = direction != "in"
        want_in = direction != "out"
        # Edge stubs (type, other gid, edge gid) from the current
        # adjacency, the unreclaimed structural deltas and the history
        # topology records; the type and direction filters apply during
        # collection so high-degree vertices (many LIKES) stay cheap.
        groups: list = []
        record = self.storage.vertex_record(gid)
        if record is not None:
            if want_out:
                groups.append(record.out_edges)
            if want_in:
                groups.append(record.in_edges)
            structural = []
            delta = record.delta_head
            while delta is not None:
                if delta.is_structural and (
                    want_out if "OUT" in delta.action.name else want_in
                ):
                    structural.append(delta.payload)
                delta = delta.next
            groups.append(structural)
        if self.history.has_history("vertex", gid):
            hist_out, hist_in = self.history.topology_refs(gid, cond.t1)
            if want_out:
                groups.append(hist_out)
            if want_in:
                groups.append(hist_in)
        selected: dict[int, EdgeRef] = {}
        for group in groups:
            for ref in group:
                if ref[2] not in selected and (
                    edge_types is None or ref[0] in edge_types
                ):
                    selected[ref[2]] = (
                        ref if type(ref) is EdgeRef else EdgeRef(ref[0], ref[1], ref[2])
                    )
        return [selected[edge_gid] for edge_gid in sorted(selected)]
