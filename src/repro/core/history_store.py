"""The historical data storage engine (paper section 4.2).

Wraps the key-value store with the AeonG record layout: merged backward
deltas under ``D`` keys, full-state anchors under ``A`` keys, topology
records in their own segment.  The central read operation,
:meth:`HistoricalStore.fetch_versions`, is the paper's ``FetchFromKV``:
seek the nearest anchor newer than the queried time, then walk the
younger-to-older delta records applying each backward diff, yielding
every reconstructed version that satisfies the temporal condition.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Iterable, Iterator, Optional

from repro.common.timeutil import MAX_TIMESTAMP
from repro.core import keys as history_keys
from repro.errors import IntegrityError, StorageError
from repro.faults import FAILPOINTS, MODE_CORRUPT, corrupt_bytes
from repro.core.deltas import (
    RecordDraft,
    decode_record_payload,
    encode_record_payload,
)
from repro.integrity import QuarantineSet
from repro.core.reconstruct import (
    apply_content_record,
    apply_topology_record,
    edge_view_from_anchor,
    vertex_view_from_anchor,
)
from repro.core.temporal import TemporalCondition
from repro.graph.views import EdgeView, VertexView, _copy_view as _clone
from repro.kvstore import KVStore, WriteBatch

FAILPOINTS.register("history.fetch")


class _QuarantineDegrade(Exception):
    """Internal control flow: a quarantined read degrading to
    current-only results.  Deliberately *not* a StorageError — policy
    degradation must not feed the circuit breaker."""


class _CorruptPayload:
    """Cache placeholder for a record value that failed its checksum.

    Decode failures are deferred to the point a replay actually *needs*
    the payload: a read whose range stops above the damaged record must
    still succeed (the record's key intervals stay trustworthy, so
    range filtering works), while any reconstruction that would step
    through the damage raises the original
    :class:`~repro.errors.IntegrityError`.
    """

    __slots__ = ("key", "error")

    def __init__(self, key: bytes, error: IntegrityError) -> None:
        self.key = key
        self.error = error

    def raise_(self) -> None:
        raise IntegrityError(
            f"history record {self.key.hex()} is unreadable: {self.error}"
        )


class ReadMetrics:
    """Read-path performance counters (``metrics()["read_path"]``).

    ``deltas_replayed`` counts backward-record applications actually
    paid; ``reconstructions_avoided`` counts the applications a cache
    hit saved (the hit entry's build cost — what serving the same fetch
    cold would have replayed).  ``versions_served`` counts reclaimed
    versions materialized for callers — the history-store side of the
    current-vs-reclaimed split whose current-store half is
    ``metrics()["operators"]["current_hits"]``.
    """

    __slots__ = (
        "fetches",
        "versions_served",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "anchor_seeks",
        "deltas_replayed",
        "reconstructions_avoided",
        "preload_batches",
        "preload_objects",
        "preload_backoffs",
    )

    def __init__(self) -> None:
        for slot in self.__slots__:
            setattr(self, slot, 0)

    def as_dict(self) -> dict[str, int]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _merge_mentions(payload: dict, labels: set, values: dict) -> None:
    """Fold one content payload into the pruning aggregates."""
    for field in ("la", "lr"):
        for label in payload.get(field, ()):
            labels.add(label)
    diff = payload.get("p")
    if diff:
        for name, value in diff.items():
            bucket = values.get(name)
            if bucket is None:
                values[name] = [value]
            elif value not in bucket:
                bucket.append(value)


class HistoricalStore:
    """AeonG's reclaimed-delta store over a key-value engine."""

    def __init__(
        self,
        kv: Optional[KVStore] = None,
        reconstruction_cache_size: int = 4096,
    ) -> None:
        self.kv = kv if kv is not None else KVStore()
        #: the owning engine's ResilienceController (or None): gates
        #: fetches through the history-store circuit breaker and feeds
        #: it success/failure observations
        self.resilience = None
        #: the owning engine's Tracer (or None): brackets fetch and
        #: reconstruct work with ``history.*`` spans (repro.observability)
        self.tracer = None
        self.records_written = 0
        self.anchors_written = 0
        self.reconstructions = 0
        #: record payloads that passed / predated checksum verification
        self.checksums_verified = 0
        self.legacy_records = 0
        #: transaction-time ranges the scrubber has found damaged and
        #: not yet repaired; fetches overlapping them refuse to serve
        #: silently-wrong reconstructions (see repro.integrity)
        self.quarantine = QuarantineSet()
        # Which objects have any migrated record, by kind.  Scans use
        # this to skip the KV store entirely for never-migrated objects
        # (the overwhelmingly common case in a mostly-static graph).
        self._known: dict[str, set[int]] = {"vertex": set(), "edge": set()}
        # Lazily built per-object record lists (the "block cache"):
        # (segment, kind, gid) -> [(tt_start, tt_end, payload)] sorted
        # ascending by tt_end.  History records are immutable once
        # written; consumers must not mutate the decoded dicts.
        self._object_cache: dict[tuple[bytes, bytes, int], list] = {}
        # gid -> (labels mentioned in diffs, {prop: [values in diffs]});
        # the scan's O(1) pruning structure (see vertex_mentions).
        self._mention_cache: dict[int, tuple[set, dict]] = {}
        #: read-path performance counters (surfaced via engine metrics)
        self.read_metrics = ReadMetrics()
        #: maximum entries in the reconstruction cache; 0 disables it
        self.reconstruction_cache_size = reconstruction_cache_size
        # Invalidation epoch for the derived read structures below.  It
        # advances whenever the stored record set can have changed — a
        # migration commit, prune(), invalidate_caches() (which repair
        # paths route through) — so correctness never depends on a
        # caller remembering to flush a specific cache.
        self._epoch = 0
        # (object_kind, gid) -> (base_sig, versions, build_replays):
        # the LRU cache of fully reconstructed version lists.  ``versions``
        # is ascending by tt_end, one entry per content record, each a
        # frozen view (None where the state is non-existence);
        # ``base_sig`` is the reconstruction base's content interval
        # (None for fully reclaimed objects) and guards against the
        # base advancing without an epoch bump; ``versions is None``
        # marks an object whose full chain failed to decode this epoch.
        self._reconstruction_cache: OrderedDict[
            tuple[str, int], tuple[Optional[tuple[int, int]], Optional[list], int]
        ] = OrderedDict()
        # (segment, kind) -> {gid: [(tt_start, tt_end)] ascending by
        # tt_end}: the key index, built from one key-only scan at open
        # and appended to by staging (records arrive in commit order).
        # Serves absence checks, newest-record lookups, gid enumeration
        # and preload sizing without touching the KV store.  ``None``
        # means dropped by invalidation; rebuilt lazily.
        self._gid_index: Optional[
            dict[tuple[bytes, bytes], dict[int, list[tuple[int, int]]]]
        ] = None
        # The index's range side: ``(segment, kind)`` -> ascending gids
        # of that per-gid mapping, object_kind -> ascending known gids.
        # Derived state: staging a *new* gid pops the affected entries
        # (O(1)), every epoch bump and discard_known() drops them, and
        # _sorted_gids() re-sorts on the next read — so the gids in a
        # range are two bisects away, never a pass over the mapping.
        self._sorted: dict[object, list[int]] = {}
        if len(self.kv) > 0:
            self._rebuild_index()
        else:
            self._gid_index = {}

    def _decode(self, value: bytes) -> dict:
        payload, checksummed = decode_record_payload(value)
        if checksummed:
            self.checksums_verified += 1
        else:
            self.legacy_records += 1
        return payload

    def _rebuild_index(self) -> None:
        """One key-only pass over the store rebuilding the known-object
        sets and the per-(segment, kind) key index together."""
        known: dict[str, set[int]] = {"vertex": set(), "edge": set()}
        index: dict[tuple[bytes, bytes], dict[int, list[tuple[int, int]]]] = {}
        for key, _value in self.kv.scan_all():
            decoded = history_keys.decode_key(key)
            kind = "edge" if decoded.segment == history_keys.SEGMENT_EDGE else "vertex"
            known[kind].add(decoded.gid)
            per_gid = index.setdefault((decoded.segment, decoded.kind), {})
            # scan_all yields keys ascending, so per-gid rows arrive
            # sorted by tt_end (the key order within an object).
            per_gid.setdefault(decoded.gid, []).append(
                (decoded.tt_start, decoded.tt_end)
            )
        self._known = known
        self._gid_index = index
        self._sorted.clear()

    def _ensure_index(
        self,
    ) -> dict[tuple[bytes, bytes], dict[int, list[tuple[int, int]]]]:
        if self._gid_index is None:
            self._rebuild_index()
        return self._gid_index

    def _index_append(
        self, segment: bytes, kind: bytes, gid: int, tt_start: int, tt_end: int
    ) -> None:
        if self._gid_index is not None:
            per_gid = self._gid_index.setdefault((segment, kind), {})
            rows = per_gid.get(gid)
            if rows is None:
                rows = per_gid[gid] = []
                self._sorted.pop((segment, kind), None)
            rows.append((tt_start, tt_end))

    def _sorted_gids(self, key, source: Iterable[int]) -> list[int]:
        """Memoized ``sorted(source)``: ``key`` is the ``(segment,
        kind)`` of a per-gid mapping or the object kind of a
        known-object set.  Treat the list as read-only."""
        cached = self._sorted.get(key)
        if cached is None:
            cached = self._sorted[key] = sorted(source)
        return cached

    def _bump_epoch(self) -> None:
        self._epoch += 1
        self._reconstruction_cache.clear()
        self._sorted.clear()

    @property
    def epoch(self) -> int:
        """Current invalidation epoch of the derived read structures."""
        return self._epoch

    def known_gids(self, object_kind: str) -> set[int]:
        """Gids with at least one migrated record (live reference)."""
        return self._known[object_kind]

    def sorted_known_gids(self, object_kind: str) -> list[int]:
        """Memoized ascending list of :meth:`known_gids` (treat as
        read-only — scans iterate it on every unindexed query)."""
        return self._sorted_gids(object_kind, self._known[object_kind])

    def discard_known(self, object_kind: str, gid: int) -> None:
        """Drop one gid from the known-object set (used by integrity
        repairs after they empty an object's record set)."""
        self._known[object_kind].discard(gid)
        self._sorted.pop(object_kind, None)
        self._reconstruction_cache.pop((object_kind, gid), None)

    # -- write side (used by Migrate) ------------------------------------

    def stage_record(self, batch: WriteBatch, draft: RecordDraft) -> None:
        """Add one merged delta record to a migration batch."""
        key = history_keys.encode_key(
            draft.segment,
            history_keys.KIND_DELTA,
            draft.gid,
            draft.tt_start,
            draft.tt_end,
        )
        batch.put(key, draft.encode_payload())
        kind = "edge" if draft.segment == history_keys.SEGMENT_EDGE else "vertex"
        if draft.gid not in self._known[kind]:
            self._known[kind].add(draft.gid)
            self._sorted.pop(kind, None)
        self._index_append(
            draft.segment,
            history_keys.KIND_DELTA,
            draft.gid,
            draft.tt_start,
            draft.tt_end,
        )
        self._cache_append(
            draft.segment,
            history_keys.KIND_DELTA,
            draft.gid,
            draft.tt_start,
            draft.tt_end,
            draft.payload,
        )
        self.records_written += 1

    def stage_anchor(
        self,
        batch: WriteBatch,
        segment: bytes,
        gid: int,
        tt_start: int,
        tt_end: int,
        payload: dict,
    ) -> None:
        """Add one full-state anchor record to a migration batch."""
        key = history_keys.encode_key(
            segment, history_keys.KIND_ANCHOR, gid, tt_start, tt_end
        )
        batch.put(key, encode_record_payload(payload))
        self._index_append(
            segment, history_keys.KIND_ANCHOR, gid, tt_start, tt_end
        )
        self._cache_append(
            segment, history_keys.KIND_ANCHOR, gid, tt_start, tt_end, payload
        )
        self.anchors_written += 1

    def commit_batch(self, batch: WriteBatch) -> None:
        """Atomically install a migration epoch (``putMultiples``).

        Installing records changes what reconstruction must produce, so
        the read-cache epoch advances here — the reconstruction cache
        and memoized scan lists are rebuilt on next use.
        """
        if batch:
            self.kv.write(batch)
            self._bump_epoch()

    # -- read side (FetchFromKV) ---------------------------------------------

    def fetch_versions(
        self,
        object_kind: str,
        gid: int,
        cond: TemporalCondition,
        base_view=None,
    ) -> Iterator:
        """Reconstruct reclaimed versions of one object matching ``cond``.

        ``base_view`` is "the object's oldest version from current
        storage" (Algorithm 2 line 14) — the state reconstruction
        starts from when no anchor supersedes it.  Pass ``None`` for
        objects with no current-store record left.  Yields newest
        version first; a time-point caller can stop at the first hit.

        Routed through the engine's history-store circuit breaker when
        one is attached: while the breaker is open the fetch degrades
        per the ``degraded_reads`` policy (raise
        :class:`~repro.errors.DegradedModeError`, or yield nothing so
        callers serve current-only results), and every KV failure or
        success feeds the breaker.  The ``history.fetch`` failpoint
        fires here so tests can inject deterministic store failures.

        When a tracer is attached, the whole fetch (including list
        materialization, so reconstruction work is inside the span) is
        bracketed by a ``history.fetch`` span — recorded on the error
        path too, so injected faults leave the nesting well-formed.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._fetch_versions_guarded(object_kind, gid, cond, base_view)
        with tracer.span("history.fetch"):
            return self._fetch_versions_guarded(object_kind, gid, cond, base_view)

    def _fetch_versions_guarded(
        self,
        object_kind: str,
        gid: int,
        cond: TemporalCondition,
        base_view=None,
    ) -> Iterator:
        ctrl = self.resilience
        if ctrl is not None and not ctrl.allow_history_read():
            return iter(())
        try:
            mode = FAILPOINTS.check("history.fetch")
            if mode == MODE_CORRUPT:
                # At-rest bit rot: damage the stored value itself, so
                # the failure surfaces where it would in production —
                # the record's checksum verification at decode time.
                self._corrupt_stored_record(object_kind, gid)
            if self.quarantine.blocks(object_kind, gid, cond.t1, cond.t2):
                if ctrl is None or ctrl.quarantined_read_raises():
                    raise IntegrityError(
                        f"{object_kind} gid={gid}: temporal read over a "
                        "quarantined transaction-time range (awaiting "
                        "scrub repair)"
                    )
                raise _QuarantineDegrade()
            versions = list(
                self._fetch_versions(object_kind, gid, cond, base_view)
            )
        except _QuarantineDegrade:
            # degraded_reads="current-only": serve no historical
            # versions rather than possibly-wrong ones
            return iter(())
        except StorageError:
            if ctrl is not None:
                ctrl.history_failed()
            raise
        if ctrl is not None:
            ctrl.history_ok()
        self.read_metrics.versions_served += len(versions)
        return iter(versions)

    def _corrupt_stored_record(self, object_kind: str, gid: int) -> bool:
        """Flip one bit in the object's first stored record value (the
        ``corrupt`` mode of the ``history.fetch`` failpoint).  Returns
        False when the object has no stored records to damage."""
        segment = (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )
        prefix = history_keys.object_prefix(
            segment, history_keys.KIND_DELTA, gid
        )
        for key, value in self.kv.scan_prefix(prefix):
            batch = WriteBatch()
            batch.put(key, corrupt_bytes(value))
            self.kv.write(batch)
            # decoded payloads may already be cached; drop them so the
            # damaged bytes are actually re-read and re-verified
            self.invalidate_caches()
            return True
        return False

    def _fetch_versions(
        self,
        object_kind: str,
        gid: int,
        cond: TemporalCondition,
        base_view=None,
    ) -> Iterator:
        segment = (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )
        self.read_metrics.fetches += 1
        versions = self._cached_versions(object_kind, segment, gid, base_view)
        if versions is None:
            yield from self._fetch_versions_uncached(
                object_kind, segment, gid, cond, base_view
            )
            return
        if cond.is_point:
            yield from self._serve_cached_point(segment, gid, versions, cond)
            return
        for tt_start, tt_end, frozen in reversed(versions):
            if frozen is not None and cond.matches(tt_start, tt_end):
                yield _clone(frozen)

    # -- reconstruction cache ---------------------------------------------
    #
    # ``FetchFromKV`` replays the same anchor+delta chains on every
    # query.  The cache stores, per object, the *complete* reconstructed
    # version list (built once from the topmost base straight down), so
    # any later condition is served by bisect over the list instead of a
    # replay — the reconstruct-as-needed rule with the work memoized.
    # Entries are invalidated wholesale by the epoch bump, and each
    # entry additionally records the base it was built from: the
    # current-store base can advance (GC reclaim truncates undo chains
    # without a KV write), which changes which versions are the
    # history's to serve, so a signature mismatch forces a rebuild.

    def _cached_versions(
        self, object_kind: str, segment: bytes, gid: int, base_view
    ) -> Optional[list]:
        """The object's cached version list, building it on a miss.

        Returns ``None`` when caching is disabled or the object's full
        chain cannot be decoded (the caller falls back to the bounded
        per-query replay, which may avoid the damaged record).
        """
        if self.reconstruction_cache_size <= 0:
            return None
        base_sig = (
            (base_view.tt_start, base_view.tt_end)
            if base_view is not None
            else None
        )
        cache = self._reconstruction_cache
        key = (object_kind, gid)
        entry = cache.get(key)
        if entry is not None and entry[0] == base_sig:
            cache.move_to_end(key)
            if entry[1] is None:
                return None  # known-unbuildable this epoch
            self.read_metrics.cache_hits += 1
            self.read_metrics.reconstructions_avoided += entry[2]
            return entry[1]
        self.read_metrics.cache_misses += 1
        try:
            versions, replays = self._build_versions(
                object_kind, segment, gid, base_view
            )
        except IntegrityError:
            cache[key] = (base_sig, None, 0)
            return None
        cache[key] = (base_sig, versions, replays)
        cache.move_to_end(key)
        while len(cache) > self.reconstruction_cache_size:
            cache.popitem(last=False)
            self.read_metrics.cache_evictions += 1
        return versions

    def _build_versions(
        self, object_kind: str, segment: bytes, gid: int, base_view
    ) -> tuple[list, int]:
        """Replay the object's whole record set once, freezing every
        content state.  The list excludes the base itself (a
        current-store base is surfaced by the caller's chain walk) and
        keeps non-existence states as ``None`` placeholders so point
        lookups can distinguish "deleted at t" from "version at t"."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._build_versions_inner(object_kind, segment, gid, base_view)
        with tracer.span("history.reconstruct"):
            return self._build_versions_inner(object_kind, segment, gid, base_view)

    def _build_versions_inner(
        self, object_kind: str, segment: bytes, gid: int, base_view
    ) -> tuple[list, int]:
        if base_view is not None:
            base = _clone(base_view)
        else:
            newest_end = self._newest_record_end(segment, gid)
            if newest_end is None:
                return [], 0
            base = (
                VertexView.blank(gid, newest_end, MAX_TIMESTAMP)
                if object_kind == "vertex"
                else EdgeView.blank(gid, newest_end, MAX_TIMESTAMP)
            )
        records = self._collect_records(segment, gid, -1, base.tt_start)
        versions: list[tuple[int, int, Optional[object]]] = []
        replays = 0
        for tt_start, tt_end, seg, payload in records:
            self.reconstructions += 1
            self.read_metrics.deltas_replayed += 1
            replays += 1
            self._apply(base, seg, payload, tt_start, tt_end)
            if seg != history_keys.SEGMENT_TOPOLOGY:
                versions.append(
                    (tt_start, tt_end, _clone(base) if base.exists else None)
                )
        versions.reverse()  # ascending by tt_end for bisect serving
        return versions, replays

    def _serve_cached_point(
        self, segment: bytes, gid: int, versions: list, cond: TemporalCondition
    ) -> Iterator:
        """State-at-t from the cached list: bisect to the content
        version containing ``t``, then apply the few topology records
        ending in ``(t, version end]`` — the frozen view was captured
        just after its content record, i.e. with only the structural
        changes *newer* than the version already undone."""
        t = cond.t1
        index = bisect.bisect_right(versions, t, key=lambda v: v[1])
        if index >= len(versions):
            return
        tt_start, tt_end, frozen = versions[index]
        if frozen is None or tt_start > t:
            return
        view = _clone(frozen)
        if segment == history_keys.SEGMENT_VERTEX:
            topo = self._records_for(
                history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid
            )
            low = bisect.bisect_right(topo, t, key=lambda rec: rec[1])
            high = bisect.bisect_right(topo, tt_end, lo=low, key=lambda rec: rec[1])
            for r_start, r_end, payload in reversed(topo[low:high]):
                if isinstance(payload, _CorruptPayload):
                    payload.raise_()
                apply_topology_record(view, payload, r_start, r_end)
            view.tt_start, view.tt_end = tt_start, tt_end
        if view.exists and cond.matches(view.tt_start, view.tt_end):
            yield view

    def _fetch_versions_uncached(
        self,
        object_kind: str,
        segment: bytes,
        gid: int,
        cond: TemporalCondition,
        base_view=None,
    ) -> Iterator:
        base, include_base = self._reconstruction_base(
            segment, object_kind, gid, cond, base_view
        )
        if base is None:
            return
        records = self._collect_records(segment, gid, cond.t1, base.tt_start)
        if cond.is_point:
            # State-at-t semantics: undo *every* change that happened
            # after t (both the content and the topology timeline) and
            # surface the single resulting state.  The version interval
            # reported (and checked) is the content timeline's, which
            # rejects states that began only after t.
            content_tt = (base.tt_start, base.tt_end)
            for tt_start, tt_end, seg, payload in records:
                self.reconstructions += 1
                self.read_metrics.deltas_replayed += 1
                self._apply(base, seg, payload, tt_start, tt_end)
                if seg != history_keys.SEGMENT_TOPOLOGY:
                    content_tt = (tt_start, tt_end)
            base.tt_start, base.tt_end = content_tt
            if base.exists and cond.matches(base.tt_start, base.tt_end):
                yield base
            return
        # Time-slice: enumerate each distinct content state whose
        # interval touches the range, newest first.  Topology records
        # are applied silently — structural changes do not create
        # content versions (the separate structural transaction-time
        # field exists precisely for this, section 4.1).
        if include_base and base.exists and cond.matches(base.tt_start, base.tt_end):
            yield _clone(base)
        for tt_start, tt_end, seg, payload in records:
            self.reconstructions += 1
            self.read_metrics.deltas_replayed += 1
            self._apply(base, seg, payload, tt_start, tt_end)
            if seg == history_keys.SEGMENT_TOPOLOGY:
                continue
            if base.exists and cond.matches(base.tt_start, base.tt_end):
                yield _clone(base)

    @staticmethod
    def _apply(view, segment: bytes, payload: dict, tt_start: int, tt_end: int) -> None:
        if isinstance(payload, _CorruptPayload):
            payload.raise_()
        if segment == history_keys.SEGMENT_TOPOLOGY:
            apply_topology_record(view, payload, tt_start, tt_end)
        else:
            apply_content_record(view, payload, tt_start, tt_end)

    def _reconstruction_base(
        self, segment: bytes, object_kind: str, gid: int, cond, base_view
    ):
        """Pick anchor, current-store base, or blank placeholder.

        Returns ``(view, include_base)``; ``include_base`` marks an
        anchor whose own version may satisfy the condition (a
        current-store base was already surfaced by the caller's scan of
        unreclaimed versions, so it must not be yielded again).
        """
        anchor = self._seek_anchor(segment, gid, cond.t2)
        if anchor is not None:
            tt_start, tt_end, payload = anchor
            if isinstance(payload, _CorruptPayload):
                payload.raise_()
            if base_view is None or tt_end <= base_view.tt_start:
                # An anchor staged at a structural commit ends mid-way
                # through the content version containing it.  Widen to
                # the containing version's own interval (from its delta
                # record) so the version's reported identity never
                # depends on which anchor a query starts from.
                tt_start, tt_end = self._containing_version(
                    segment, gid, tt_start, tt_end
                )
                if object_kind == "vertex":
                    view = vertex_view_from_anchor(gid, payload, tt_start, tt_end)
                else:
                    view = edge_view_from_anchor(gid, payload, tt_start, tt_end)
                return view, True
        if base_view is not None:
            return _clone(base_view), False
        newest_end = self._newest_record_end(segment, gid)
        if newest_end is None:
            return None, False
        blank = (
            VertexView.blank(gid, newest_end, MAX_TIMESTAMP)
            if object_kind == "vertex"
            else EdgeView.blank(gid, newest_end, MAX_TIMESTAMP)
        )
        return blank, False

    def _containing_version(
        self, segment: bytes, gid: int, tt_start: int, tt_end: int
    ) -> tuple[int, int]:
        """The content version interval containing ``[tt_start, tt_end)``.

        Anchors start where the previous content record ended, so the
        first content record ending after the anchor's start is the
        record of the version the anchor snapshots; fall back to the
        given interval when no such record covers it (e.g. a store
        whose seam was disturbed)."""
        records = self._records_for(segment, history_keys.KIND_DELTA, gid)
        index = bisect.bisect_right(records, tt_start, key=lambda rec: rec[1])
        if index < len(records):
            rec_start, rec_end, _payload = records[index]
            if rec_start <= tt_start and rec_end >= tt_end:
                return rec_start, rec_end
        return tt_start, tt_end

    # -- per-object read cache -------------------------------------------
    #
    # The read path would otherwise pay one KV seek + key decode per
    # record per query.  A real RocksDB serves hot seeks from its
    # memtable and block cache at sub-microsecond cost; the equivalent
    # here is an in-memory mirror of each object's record list, built
    # lazily from the KV store on first access and appended to by the
    # migrator (records arrive in commit order, so the lists stay
    # sorted by ``tt_end``).

    def _records_for(
        self, segment: bytes, kind: bytes, gid: int
    ) -> list[tuple[int, int, dict]]:
        """The object's records in one segment, ascending by tt_end."""
        cache_key = (segment, kind, gid)
        records = self._object_cache.get(cache_key)
        if records is None:
            index = self._gid_index
            if index is not None:
                per_gid = index.get((segment, kind))
                if not per_gid or gid not in per_gid:
                    # The index is authoritative about absence: skip
                    # the KV seek entirely for record-less objects.
                    self._object_cache[cache_key] = []
                    return []
            records = []
            prefix = history_keys.object_prefix(segment, kind, gid)
            for key, value in self.kv.scan_prefix(prefix):
                decoded = history_keys.decode_key(key)
                try:
                    payload = self._decode(value)
                except IntegrityError as exc:
                    # Defer the failure: keys are still sound, so reads
                    # that never replay through this record may proceed.
                    payload = _CorruptPayload(key, exc)
                records.append((decoded.tt_start, decoded.tt_end, payload))
            self._object_cache[cache_key] = records
        return records

    def _cache_append(
        self, segment: bytes, kind: bytes, gid: int, tt_start: int, tt_end: int, payload: dict
    ) -> None:
        records = self._object_cache.get((segment, kind, gid))
        if records is not None:
            records.append((tt_start, tt_end, payload))
        if segment == history_keys.SEGMENT_VERTEX and kind == history_keys.KIND_DELTA:
            mentions = self._mention_cache.get(gid)
            if mentions is not None:
                _merge_mentions(payload, mentions[0], mentions[1])

    def preload_objects(self, object_kind: str, gids: Iterable[int]) -> int:
        """Bulk-fill the per-object record cache for many objects with
        one bounded range scan per segment (Expand's batched
        ``FetchFromKV``-VE path: a high-degree vertex preloads every
        candidate edge in one KV iteration instead of one seek each).

        Skips objects with no history or already-cached records.  When
        the key index shows the gid range is mostly other objects'
        records (sparse candidates over a dense keyspace), the range
        scan would read more than it saves, so the call backs off and
        leaves the per-object lazy loads to do the work.  Returns the
        number of objects actually preloaded.
        """
        segment = (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )
        known = self._known[object_kind]
        loaded = 0
        streams = [segment]
        if segment == history_keys.SEGMENT_VERTEX:
            streams.append(history_keys.SEGMENT_TOPOLOGY)
        wanted_gids = {gid for gid in gids if gid in known}
        for seg in streams:
            loaded = max(loaded, self._preload_segment(seg, wanted_gids))
        return loaded

    def _preload_segment(self, segment: bytes, gids: set[int]) -> int:
        kind = history_keys.KIND_DELTA
        wanted = sorted(
            gid for gid in gids
            if (segment, kind, gid) not in self._object_cache
        )
        if len(wanted) < 2:
            return 0  # a single object's lazy prefix scan is already one seek
        per_gid = self._ensure_index().get((segment, kind)) or {}
        low_gid, high_gid = wanted[0], wanted[-1]
        goal = sum(len(per_gid.get(gid, ())) for gid in wanted)
        if self._span_exceeds(segment, kind, low_gid, high_gid, 4 * goal + 16):
            self.read_metrics.preload_backoffs += 1
            return 0
        start = history_keys.object_prefix(segment, kind, low_gid)
        stop = history_keys.object_prefix(segment, kind, high_gid) + b"\xff" * 17
        wanted_set = set(wanted)
        rows: dict[int, list] = {gid: [] for gid in wanted_set}
        for key, value in self.kv.scan_range(start, stop):
            decoded = history_keys.decode_key(key)
            if decoded.gid not in wanted_set:
                continue
            try:
                payload = self._decode(value)
            except IntegrityError as exc:
                payload = _CorruptPayload(key, exc)
            rows[decoded.gid].append(
                (decoded.tt_start, decoded.tt_end, payload)
            )
        for gid, records in rows.items():
            self._object_cache[(segment, kind, gid)] = records
        self.read_metrics.preload_batches += 1
        self.read_metrics.preload_objects += len(wanted)
        return len(wanted)

    def _span_exceeds(
        self, segment: bytes, kind: bytes, low_gid: int, high_gid: int, limit: int
    ) -> bool:
        """Whether gids in ``[low_gid, high_gid]`` hold more than
        ``limit`` index rows.  Two bisects bound the gids in range;
        each holds at least one row, so more than ``limit`` gids settle
        it unsummed — O(log N + limit) however large the store."""
        per_gid = self._ensure_index().get((segment, kind)) or {}
        gids = self._sorted_gids((segment, kind), per_gid)
        start = bisect.bisect_left(gids, low_gid)
        stop = bisect.bisect_right(gids, high_gid, lo=start)
        if stop - start > limit:
            return True
        return sum(len(per_gid.get(gid, ())) for gid in gids[start:stop]) > limit

    def _seek_anchor(self, segment: bytes, gid: int, t: int):
        """First anchor of ``gid`` with ``tt_end > t`` (nearest newer)."""
        self.read_metrics.anchor_seeks += 1
        anchors = self._records_for(segment, history_keys.KIND_ANCHOR, gid)
        index = bisect.bisect_right(anchors, t, key=lambda rec: rec[1])
        if index < len(anchors):
            return anchors[index]
        return None

    def _collect_records(
        self, segment: bytes, gid: int, t1: int, boundary: int
    ) -> list[tuple[int, int, bytes, dict]]:
        """All delta records with ``t1 < tt_end <= boundary``, newest
        first, merging the content and (for vertices) topology segments."""
        streams = [segment]
        if segment == history_keys.SEGMENT_VERTEX:
            streams.append(history_keys.SEGMENT_TOPOLOGY)
        collected: list[tuple[int, int, bytes, dict]] = []
        for seg in streams:
            records = self._records_for(seg, history_keys.KIND_DELTA, gid)
            low = bisect.bisect_right(records, t1, key=lambda rec: rec[1])
            for tt_start, tt_end, payload in records[low:]:
                if tt_end > boundary:
                    break
                collected.append((tt_start, tt_end, seg, payload))
        collected.sort(key=lambda rec: rec[1], reverse=True)
        return collected

    def _newest_record_end(self, segment: bytes, gid: int) -> Optional[int]:
        """Largest ``tt_end`` among the object's records (across the
        content and topology segments for vertices).  Answered from the
        key index — no payload is decoded and no KV seek is paid."""
        index = self._ensure_index()
        streams = [segment]
        if segment == history_keys.SEGMENT_VERTEX:
            streams.append(history_keys.SEGMENT_TOPOLOGY)
        newest: Optional[int] = None
        for seg in streams:
            per_gid = index.get((seg, history_keys.KIND_DELTA))
            rows = per_gid.get(gid) if per_gid else None
            if rows and (newest is None or rows[-1][1] > newest):
                newest = rows[-1][1]
        return newest

    # -- enumeration (for scans over reclaimed-only objects) ---------------

    def iter_gids(self, object_kind: str) -> Iterator[int]:
        """Distinct gids present in the store for one object kind,
        ascending — served from the key index (the skip scan this used
        to run now happens at most once, inside the index rebuild)."""
        segment = (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )
        key = (segment, history_keys.KIND_DELTA)
        yield from self._sorted_gids(key, self._ensure_index().get(key, ()))

    def content_payloads(self, object_kind: str, gid: int) -> list[dict]:
        """Every content-record payload of one object (cached).

        Used by the scan's pruning check: the set of values a property
        ever took is exactly {current value} ∪ {values in backward
        diffs}, so equality filters can reject an object without
        reconstructing any version.
        """
        segment = (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )
        records = self._records_for(segment, history_keys.KIND_DELTA, gid)
        return [payload for _s, _e, payload in records]

    def vertex_mentions(self, gid: int) -> tuple[set, dict]:
        """Aggregated pruning data for one vertex's reclaimed history:
        every label its diffs mention and every value each property
        ever took in a diff.  O(1) per scan candidate once built."""
        mentions = self._mention_cache.get(gid)
        if mentions is None:
            labels: set = set()
            values: dict = {}
            for payload in self.content_payloads("vertex", gid):
                if isinstance(payload, _CorruptPayload):
                    payload.raise_()
                _merge_mentions(payload, labels, values)
            mentions = (labels, values)
            self._mention_cache[gid] = mentions
        return mentions

    def topology_refs(
        self, gid: int, t1: int
    ) -> tuple[set[tuple[str, int, int]], set[tuple[str, int, int]]]:
        """Every out/in edge stub mentioned by topology records of
        ``gid`` ending after ``t1``.

        This is the ``VE`` lookup of Algorithm 3 (line 4): any edge
        alive at some instant ``>= t1`` but since detached appears in a
        topology record with ``tt_end > t1``, so the union of these
        stubs with the current adjacency over-approximates the
        candidate edge set; per-edge temporal checks then filter.
        """
        out_refs: set[tuple[str, int, int]] = set()
        in_refs: set[tuple[str, int, int]] = set()
        records = self._records_for(
            history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid
        )
        low = bisect.bisect_right(records, t1, key=lambda rec: rec[1])
        for _tt_start, _tt_end, payload in records[low:]:
            if isinstance(payload, _CorruptPayload):
                payload.raise_()
            for field in ("oa", "or"):
                for ref in payload.get(field, ()):
                    out_refs.add((ref[0], ref[1], ref[2]))
            for field in ("ia", "ir"):
                for ref in payload.get(field, ()):
                    in_refs.add((ref[0], ref[1], ref[2]))
        return out_refs, in_refs

    def has_history(self, object_kind: str, gid: int) -> bool:
        """Whether any reclaimed record exists for the object."""
        return gid in self._known[object_kind]

    def invalidate_caches(self) -> None:
        """Drop every derived read structure (rebuilt lazily from the
        KV store) and advance the invalidation epoch.

        Called after a failed migration epoch (staging optimistically
        appended to the caches, so a retry of the same drafts would
        otherwise leave duplicate entries) and by integrity repairs
        that rewrite records in place — both mean anything memoized
        about the record set may be wrong.
        """
        self._object_cache.clear()
        self._mention_cache.clear()
        self._gid_index = None
        self._bump_epoch()

    # -- retention ---------------------------------------------------------------

    def prune(self, before_ts: int) -> int:
        """Drop every record of versions that ended at or before
        ``before_ts``; returns the number of records removed.

        Retention policy for the history store: temporal queries older
        than the cut-off stop finding those versions, while everything
        newer (including reconstructions that used to pass *through*
        the pruned region — they only ever replay records newer than
        the target version) is unaffected.
        """
        doomed: list[bytes] = []
        for key, _value in self.kv.scan_all():
            decoded = history_keys.decode_key(key)
            if decoded.tt_end <= before_ts:
                doomed.append(key)
        if not doomed:
            return 0
        batch = WriteBatch()
        for key in doomed:
            batch.delete(key)
        self.kv.write(batch)
        self.kv.compact()
        # Every derived structure — decode/object/mention caches, the
        # reconstruction cache, the key index and the known-object set
        # — is rebuilt from scratch; pruning is a rare administrative
        # operation and serving even one stale version would violate
        # the retention contract.
        self.invalidate_caches()
        self._rebuild_index()
        return len(doomed)

    # -- accounting --------------------------------------------------------------

    def read_path_metrics(self) -> dict[str, int]:
        """Read-path counters plus cache occupancy (monitoring)."""
        report = self.read_metrics.as_dict()
        report["epoch"] = self._epoch
        report["cache_entries"] = len(self._reconstruction_cache)
        report["cache_capacity"] = self.reconstruction_cache_size
        return report

    def storage_bytes(self) -> int:
        """Physical footprint of the history store."""
        return self.kv.approximate_bytes()
