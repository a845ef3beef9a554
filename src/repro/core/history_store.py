"""The historical data storage engine (paper section 4.2).

Wraps the key-value store with the AeonG record layout: merged backward
deltas under ``D`` keys, full-state anchors under ``A`` keys, topology
records in their own segment.  The central read operation,
:meth:`HistoricalStore.fetch_many`, is the paper's ``FetchFromKV`` over
a batch of objects: per object, seek the nearest anchor newer than the
queried time, then walk the younger-to-older delta records applying
each backward diff, returning every reconstructed version that
satisfies the temporal condition.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

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
from repro.graph.views import EdgeView, VertexView
from repro.kvstore import KVStore, WriteBatch

FAILPOINTS.register("history.fetch")

_SEGMENT = {"vertex": history_keys.SEGMENT_VERTEX, "edge": history_keys.SEGMENT_EDGE}
#: sort / bisect key of record and version rows ``(tt_start, tt_end, ...)``
_END = itemgetter(1)


def _base_sig(base_view) -> Optional[tuple[int, int]]:
    """The reconstruction base's content interval (``None`` for a fully
    reclaimed object): what a cache entry was built from."""
    return None if base_view is None else (base_view.tt_start, base_view.tt_end)


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
        # Keys of record lists that may hold an undecodable payload (a
        # superset: added before the list is memoized, cleared with the
        # lists), so serving from any other list skips the per-record
        # damage check.
        self._damaged: set[tuple[bytes, bytes, int]] = set()
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
        # Epochs (on the maintenance thread) publish staged rows to the
        # read structures only in commit_batch, under this lock with the
        # KV write and the epoch bump; readers fill them via _memo.
        self._cache_lock = threading.Lock()
        #: the epoch in flight's records, published by commit_batch
        self._staged: list[tuple] = []
        # (segment, kind) -> {gid: [(tt_start, tt_end)] ascending by
        # tt_end}: the key index, built from one key-only scan at open
        # and appended to by commit_batch (records arrive in commit order).
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

    def _rebuild_index(self) -> dict:
        """One key-only pass over the store rebuilding the known-object
        sets and the per-(segment, kind) key index together."""
        epoch = self._epoch
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
        with self._cache_lock:
            if epoch == self._epoch:
                self._known = known
                self._gid_index = index
                self._sorted.clear()
        return index

    def _ensure_index(
        self,
    ) -> dict[tuple[bytes, bytes], dict[int, list[tuple[int, int]]]]:
        index = self._gid_index
        return self._rebuild_index() if index is None else index

    def _memo(self, epoch: int, table: dict, key, value):
        """Memoize ``value``, read at ``epoch``, unless an epoch landed since."""
        with self._cache_lock:
            if epoch == self._epoch:
                table[key] = value
        return value

    def _publish(self, segment, kind, gid, tt_start, tt_end) -> None:
        """(Under ``_cache_lock``.)  Add one committed record to the
        known-object set and the key index, and drop the object's cached
        record list and mentions (the next reader rebuilds them)."""
        object_kind = "edge" if segment == history_keys.SEGMENT_EDGE else "vertex"
        if kind == history_keys.KIND_DELTA and gid not in self._known[object_kind]:
            self._known[object_kind].add(gid)
            self._sorted.pop(object_kind, None)
        if self._gid_index is not None:
            per_gid = self._gid_index.setdefault((segment, kind), {})
            rows = per_gid.get(gid)
            if rows is None:
                rows = per_gid[gid] = []
                self._sorted.pop((segment, kind), None)
            rows.append((tt_start, tt_end))
        self._object_cache.pop((segment, kind, gid), None)
        if segment == history_keys.SEGMENT_VERTEX:
            self._mention_cache.pop(gid, None)

    def _sorted_gids(self, key, source: Iterable[int]) -> list[int]:
        """Memoized ``sorted(source)``: ``key`` is the ``(segment,
        kind)`` of a per-gid mapping or the object kind of a
        known-object set.  Treat the list as read-only."""
        cached = self._sorted.get(key)
        if cached is None:
            epoch = self._epoch
            cached = self._memo(epoch, self._sorted, key, sorted(source))
        return cached

    def _bump_epoch(self) -> None:
        """(Under ``_cache_lock``.)"""
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
        with self._cache_lock:
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
        self._staged.append(
            (draft.segment, history_keys.KIND_DELTA, draft.gid,
             draft.tt_start, draft.tt_end)
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
        self._staged.append(
            (segment, history_keys.KIND_ANCHOR, gid, tt_start, tt_end)
        )
        self.anchors_written += 1

    def commit_batch(self, batch: WriteBatch) -> None:
        """Atomically install a migration epoch (``putMultiples``).

        The staged rows reach the read structures here, atomically with
        the write, and the read-cache epoch advances: the
        reconstruction cache and memoized scan lists rebuild on next use.
        """
        staged, self._staged = self._staged, []
        if batch:
            # Locked write: a racing _rebuild_index that saw these rows must
            # find the epoch bumped, not install them for publish to re-add.
            with self._cache_lock:
                self.kv.write(batch)
                for row in staged:
                    self._publish(*row)
                self._bump_epoch()

    # -- read side (FetchFromKV) ---------------------------------------------

    def fetch_versions(
        self,
        object_kind: str,
        gid: int,
        cond: TemporalCondition,
        base_view=None,
    ) -> Iterator:
        """Reconstruct reclaimed versions of one object matching ``cond``,
        newest first: :meth:`fetch_many` with a single request."""
        return iter(self.fetch_many(object_kind, ((gid, base_view),), cond)[0])

    def fetch_many(
        self,
        object_kind: str,
        requests: Sequence[tuple[int, object]],
        cond: TemporalCondition,
    ) -> list[list]:
        """Reconstruct reclaimed versions matching ``cond`` for a batch
        of objects: the one history read path (``FetchFromKV``).

        ``requests`` holds ``(gid, base_view)`` pairs.  ``base_view`` is
        "the object's oldest version from current storage" (Algorithm 2
        line 14) — the state reconstruction starts from when no anchor
        supersedes it — or ``None`` for objects with no current-store
        record left.  Returns one list per request, in request order,
        each newest version first.

        Paid once per batch: the ``history.fetch`` span (when a tracer
        is attached; reconstruction work runs inside it), the
        history-store circuit breaker's gate and its success or failure
        record, one locked reconstruction-cache lookup and one locked
        fill, and one preload of the records the cache misses replay.
        While the breaker is open the batch degrades per the
        ``degraded_reads`` policy (raise
        :class:`~repro.errors.DegradedModeError`, or serve every object
        current-only).  Checked per object: the ``history.fetch``
        failpoint (so its Nth hit is the Nth object), the quarantine
        (a degraded quarantined object alone comes back empty), and the
        ``fetches`` / ``versions_served`` counters.
        """
        if not requests:
            return []
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._fetch_many(object_kind, requests, cond)
        with tracer.span("history.fetch"):
            return self._fetch_many(object_kind, requests, cond)

    def _fetch_many(
        self,
        object_kind: str,
        requests: Sequence[tuple[int, object]],
        cond: TemporalCondition,
    ) -> list[list]:
        ctrl = self.resilience
        if ctrl is not None and not ctrl.allow_history_read():
            return [[] for _ in requests]
        segment = _SEGMENT[object_kind]
        entries, uncached, epoch = self._cache_lookup(object_kind, requests)
        caching = self.reconstruction_cache_size > 0
        check = FAILPOINTS.check
        blocks = self.quarantine.blocks
        t1, t2, is_point = cond.t1, cond.t2, cond.is_point
        built: list[tuple[tuple[str, int], tuple]] = []
        out: list[list] = []
        # Counted per object, added to the shared counters once.
        fetches = hits = misses = avoided = served = 0
        try:
            if len(uncached) > 1:
                self.preload_objects(object_kind, uncached)
            for (gid, base_view), entry in zip(requests, entries):
                if check("history.fetch") == MODE_CORRUPT:
                    # At-rest bit rot: damage the stored value itself, so
                    # the failure surfaces where it would in production —
                    # the record's checksum verification at decode time.
                    self._corrupt_stored_record(object_kind, gid)
                    entry = None
                if blocks(object_kind, gid, t1, t2):
                    if ctrl is None or ctrl.quarantined_read_raises():
                        raise IntegrityError(
                            f"{object_kind} gid={gid}: temporal read over a "
                            "quarantined transaction-time range (awaiting "
                            "scrub repair)"
                        )
                    # degraded_reads="current-only": serve no historical
                    # versions of this object rather than possibly-wrong ones
                    out.append([])
                    continue
                fetches += 1
                versions = None if entry is None else entry[1]
                if entry is None and caching:
                    misses += 1
                    try:
                        versions, replays = self._build_versions(
                            object_kind, segment, gid, base_view
                        )
                    except IntegrityError:
                        # Unbuildable this epoch: the bounded per-query
                        # replay below may still avoid the damaged record.
                        versions, replays = None, 0
                    built.append(
                        ((object_kind, gid), (_base_sig(base_view), versions, replays))
                    )
                elif versions is not None:
                    hits += 1
                    avoided += entry[2]
                if versions is None:
                    found = list(
                        self._fetch_versions_uncached(
                            object_kind, segment, gid, cond, base_view
                        )
                    )
                elif is_point:
                    found = self._serve_cached_point(segment, gid, versions, t1)
                else:
                    found = [
                        frozen.fork()
                        for tt_start, tt_end, frozen in reversed(versions)
                        if frozen is not None and cond.matches(tt_start, tt_end)
                    ]
                served += len(found)
                out.append(found)
        except StorageError:
            if ctrl is not None:
                ctrl.history_failed()
            raise
        finally:
            metrics = self.read_metrics
            metrics.fetches += fetches
            metrics.cache_hits += hits
            metrics.cache_misses += misses
            metrics.reconstructions_avoided += avoided
            metrics.versions_served += served
            if built:
                self._cache_fill(epoch, built)
        if ctrl is not None and fetches:
            ctrl.history_ok()
        return out

    def _corrupt_stored_record(self, object_kind: str, gid: int) -> bool:
        """Flip one bit in the object's first stored record value (the
        ``corrupt`` mode of the ``history.fetch`` failpoint).  Returns
        False when the object has no stored records to damage."""
        prefix = history_keys.object_prefix(
            _SEGMENT[object_kind], history_keys.KIND_DELTA, gid
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

    def _cache_lookup(
        self, object_kind: str, requests: Sequence[tuple[int, object]]
    ) -> tuple[list, list[int], int]:
        """Each request's cache entry ``(base_sig, versions, replays)``,
        or ``None`` on a miss (and always when caching is disabled),
        under one lock; the gids whose versions must be replayed (misses
        and entries whose ``versions`` is ``None``, objects known to be
        unbuildable this epoch); and the epoch the entries were read at."""
        if self.reconstruction_cache_size <= 0:
            return [None] * len(requests), [gid for gid, _ in requests], self._epoch
        cache = self._reconstruction_cache
        entries = []
        uncached = []
        with self._cache_lock:
            for gid, base_view in requests:
                key = (object_kind, gid)
                entry = cache.get(key)
                if entry is not None and entry[0] == _base_sig(base_view):
                    cache.move_to_end(key)
                    if entry[1] is None:
                        uncached.append(gid)
                else:
                    entry = None
                    uncached.append(gid)
                entries.append(entry)
            epoch = self._epoch
        return entries, uncached, epoch

    def _cache_fill(self, epoch: int, built: list) -> None:
        """Install entries built from the record set of ``epoch``, under
        one lock, evicting least recently used entries past capacity."""
        cache = self._reconstruction_cache
        with self._cache_lock:
            # A migration installed mid-build has bumped the epoch; an
            # entry built from the older record set must not outlive it.
            if epoch != self._epoch:
                return
            for key, entry in built:
                cache[key] = entry
                cache.move_to_end(key)
            while len(cache) > self.reconstruction_cache_size:
                cache.popitem(last=False)
                self.read_metrics.cache_evictions += 1

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
            base = base_view.fork()
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
                    (tt_start, tt_end, base.fork() if base.exists else None)
                )
        versions.reverse()  # ascending by tt_end for bisect serving
        return versions, replays

    def _serve_cached_point(
        self, segment: bytes, gid: int, versions: list, t: int
    ) -> list:
        """State-at-t from the cached list: bisect to the content
        version containing ``t`` and serve a fork of its frozen view.

        The frozen view was captured just after its content record,
        i.e. with only the structural changes *newer* than the version
        already undone; the state at ``t`` also undoes the topology
        records ending in ``(t, version end]``.  The fork carries that
        slice, newest first, and applies it only if its adjacency is
        read.  Damaged records in the slice still fail here, at serve
        time."""
        index = bisect.bisect_right(versions, t, key=_END)
        if index >= len(versions):
            return []
        tt_start, tt_end, frozen = versions[index]
        if frozen is None or tt_start > t:
            return []  # non-existence at t, or t predates every version
        view = frozen.fork()
        if segment == history_keys.SEGMENT_VERTEX:
            topo_key = (history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid)
            topo = self._records_for(*topo_key)
            low = bisect.bisect_right(topo, t, key=_END)
            high = bisect.bisect_right(topo, tt_end, lo=low, key=_END)
            if low < high:
                pending = topo[low:high]
                if topo_key in self._damaged:
                    for _r_start, _r_end, payload in pending:
                        if isinstance(payload, _CorruptPayload):
                            payload.raise_()
                pending.reverse()
                view._pending = pending
        return [view]

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
            yield base.fork()
        for tt_start, tt_end, seg, payload in records:
            self.reconstructions += 1
            self.read_metrics.deltas_replayed += 1
            self._apply(base, seg, payload, tt_start, tt_end)
            if seg == history_keys.SEGMENT_TOPOLOGY:
                continue
            if base.exists and cond.matches(base.tt_start, base.tt_end):
                yield base.fork()

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
            return base_view.fork(), False
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
        index = bisect.bisect_right(records, tt_start, key=_END)
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
    # lazily from the KV store on first access (ascending by ``tt_end``)
    # and dropped when an epoch commits a record of the object.

    def _records_for(
        self, segment: bytes, kind: bytes, gid: int
    ) -> list[tuple[int, int, dict]]:
        """The object's records in one segment, ascending by tt_end."""
        cache_key = (segment, kind, gid)
        records = self._object_cache.get(cache_key)
        if records is None:
            epoch = self._epoch
            index = self._gid_index
            if index is not None:
                per_gid = index.get((segment, kind))
                if not per_gid or gid not in per_gid:
                    # The index is authoritative about absence: skip
                    # the KV seek entirely for record-less objects.
                    return self._memo(epoch, self._object_cache, cache_key, [])
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
                    self._damaged.add(cache_key)
                records.append((decoded.tt_start, decoded.tt_end, payload))
            self._memo(epoch, self._object_cache, cache_key, records)
        return records

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
        segment = _SEGMENT[object_kind]
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
        epoch = self._epoch
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
                self._damaged.add((segment, kind, decoded.gid))
            rows[decoded.gid].append(
                (decoded.tt_start, decoded.tt_end, payload)
            )
        for gid, records in rows.items():
            self._memo(epoch, self._object_cache, (segment, kind, gid), records)
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
        index = bisect.bisect_right(anchors, t, key=_END)
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
            low = bisect.bisect_right(records, t1, key=_END)
            for tt_start, tt_end, payload in records[low:]:
                if tt_end > boundary:
                    break
                collected.append((tt_start, tt_end, seg, payload))
        collected.sort(key=_END, reverse=True)
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
        segment = _SEGMENT[object_kind]
        key = (segment, history_keys.KIND_DELTA)
        yield from self._sorted_gids(key, self._ensure_index().get(key, ()))

    def content_payloads(self, object_kind: str, gid: int) -> list[dict]:
        """Every content-record payload of one object (cached).

        Used by the scan's pruning check: the set of values a property
        ever took is exactly {current value} ∪ {values in backward
        diffs}, so equality filters can reject an object without
        reconstructing any version.
        """
        segment = _SEGMENT[object_kind]
        records = self._records_for(segment, history_keys.KIND_DELTA, gid)
        return [payload for _s, _e, payload in records]

    def vertex_mentions(self, gid: int) -> tuple[set, dict]:
        """Aggregated pruning data for one vertex's reclaimed history:
        every label its diffs mention and every value each property
        ever took in a diff.  O(1) per scan candidate once built."""
        mentions = self._mention_cache.get(gid)
        if mentions is None:
            epoch = self._epoch
            labels: set = set()
            values: dict = {}
            for payload in self.content_payloads("vertex", gid):
                if isinstance(payload, _CorruptPayload):
                    payload.raise_()
                _merge_mentions(payload, labels, values)
            mentions = self._memo(epoch, self._mention_cache, gid, (labels, values))
        return mentions

    def topology_refs(self, gid: int, t1: int) -> tuple[list, list]:
        """Every out/in edge stub ``(type, other gid, edge gid)``
        mentioned by topology records of ``gid`` ending after ``t1``
        (a stub may repeat).

        This is the ``VE`` lookup of Algorithm 3 (line 4): any edge
        alive at some instant ``>= t1`` but since detached appears in a
        topology record with ``tt_end > t1``, so the union of these
        stubs with the current adjacency over-approximates the
        candidate edge set; per-edge temporal checks then filter.
        """
        out_refs: list = []
        in_refs: list = []
        records = self._records_for(
            history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid
        )
        low = bisect.bisect_right(records, t1, key=_END)
        for _tt_start, _tt_end, payload in records[low:]:
            if isinstance(payload, _CorruptPayload):
                payload.raise_()
            for field in ("oa", "or"):
                out_refs.extend(payload.get(field, ()))
            for field in ("ia", "ir"):
                in_refs.extend(payload.get(field, ()))
        return out_refs, in_refs

    def has_history(self, object_kind: str, gid: int) -> bool:
        """Whether any reclaimed record exists for the object."""
        return gid in self._known[object_kind]

    def invalidate_caches(self) -> None:
        """Drop every derived read structure (rebuilt lazily from the
        KV store) and advance the invalidation epoch.

        Called after a failed migration epoch (its staged rows are
        dropped, so a retry of the same drafts cannot duplicate them)
        and by integrity repairs that rewrite records in place — both
        mean anything memoized about the record set may be wrong.
        """
        with self._cache_lock:
            self._staged = []
            self._object_cache.clear()
            self._damaged.clear()
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
