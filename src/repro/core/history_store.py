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
from contextlib import nullcontext
from dataclasses import asdict
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.common.timeutil import MAX_TIMESTAMP
from repro.core import keys as history_keys
from repro.errors import CorruptionError, IntegrityError, StorageError
from repro.faults import FAILPOINTS, MODE_CORRUPT, corrupt_bytes
from repro.core.deltas import (
    RecordDraft,
    decode_record_payload,
    encode_record_payload,
)
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
_OBJECT_KIND = {
    history_keys.SEGMENT_VERTEX: "vertex",
    history_keys.SEGMENT_TOPOLOGY: "vertex",
    history_keys.SEGMENT_EDGE: "edge",
}
#: the delta streams of one object's history, by its content segment
_STREAMS = {
    history_keys.SEGMENT_VERTEX: (
        history_keys.SEGMENT_VERTEX,
        history_keys.SEGMENT_TOPOLOGY,
    ),
    history_keys.SEGMENT_EDGE: (history_keys.SEGMENT_EDGE,),
}
#: every ``(segment, kind)`` stream of an object kind, deltas first
_KIND_STREAMS = {
    "vertex": (
        (history_keys.SEGMENT_VERTEX, history_keys.KIND_DELTA),
        (history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA),
        (history_keys.SEGMENT_VERTEX, history_keys.KIND_ANCHOR),
        (history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_ANCHOR),
    ),
    "edge": (
        (history_keys.SEGMENT_EDGE, history_keys.KIND_DELTA),
        (history_keys.SEGMENT_EDGE, history_keys.KIND_ANCHOR),
    ),
}
_VD, _TD, _VA, _TA = _KIND_STREAMS["vertex"]
_ED, _EA = _KIND_STREAMS["edge"]
#: sort / bisect key of record and version rows ``(tt_start, tt_end, ...)``
_END = itemgetter(1)


def _base_sig(base_view) -> Optional[tuple[int, int]]:
    """The reconstruction base's content interval (``None`` for a fully
    reclaimed object): what a cache entry was built from."""
    return None if base_view is None else (base_view.tt_start, base_view.tt_end)


def _topology_boundary(base_view) -> int:
    """The newest topology record a current-store or blank base still
    needs undone: every one, unless the base is an undo-chain walk's that
    undid structural changes itself (``VertexView.topology_end``)."""
    end = getattr(base_view, "topology_end", None)
    return MAX_TIMESTAMP if end is None else end - 1


def _count_below(content: list, topology: Sequence, t: int) -> tuple[int, int]:
    """How many content and topology records end at or before ``t``."""
    return (
        bisect.bisect_right(content, t, key=_END),
        bisect.bisect_right(topology, t, key=_END),
    )


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


class _Built(NamedTuple):
    """A version list and what it was built from: the base's content
    interval, the object's ``generation`` (the delta rows published to
    it), and how many content and topology records ended at or before
    the base's start (the splice's proof that nothing older arrived)."""

    base_sig: Optional[tuple[int, int]]
    #: ``[(tt_start, tt_end, frozen view or None)]`` ascending by tt_end;
    #: None where the chain failed to decode
    versions: Optional[list]
    #: records a full build replays: what a hit saves
    replays: int
    generation: int
    below_base: tuple[int, int]


class _Entry:
    """Everything the history cache holds about one object: its record
    lists by ``(segment, kind)``, each ``[(tt_start, tt_end, payload)]``
    ascending by tt_end (immutable: a list grows by replacement, and
    consumers must not mutate the decoded dicts); ``fresh``, per cached
    list, the newest ``(tt_end, tt_start)`` published after it was read
    (the next reader fetches only the rows after its tail); ``damaged``,
    set once any list was read with an undecodable payload; the scan's
    ``mentions``; ``generation``, advanced by every delta row published
    to the object; and ``built``, its stamped version list."""

    __slots__ = ("records", "fresh", "damaged", "mentions", "generation", "built")

    def __init__(self) -> None:
        self.records: dict[tuple[bytes, bytes], list] = {}
        self.fresh: dict[tuple[bytes, bytes], tuple[int, int]] = {}
        self.damaged = False
        self.mentions: Optional[tuple[set, dict]] = None
        self.generation = 0
        self.built: Optional[_Built] = None


class ReadMetrics:
    """Read-path performance counters (``metrics()["read_path"]``).

    ``deltas_replayed`` counts backward-record applications actually
    paid; ``reconstructions_avoided`` counts the applications a cache
    hit saved (the hit entry's build cost — what serving the same fetch
    cold would have replayed).  ``versions_extended`` counts the misses
    served by growing the object's stale version list by the records
    published since, instead of replaying its whole history.
    ``versions_served`` counts reclaimed
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
        "versions_extended",
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


class QuarantineSet:
    """Transaction-time ranges whose reconstructions are untrusted.

    Keyed by ``(object_kind, gid)``; each entry holds one or more
    ``(tt_start, tt_end)`` ranges.  ``fetch_many`` refuses (or
    degrades) any temporal read whose condition overlaps a quarantined
    range, because reconstruction replays *through* damaged records:
    a corrupt delta at ``(s, e)`` taints every version older than
    ``e``, so the blast radius of most findings is ``(0, e)``.
    """

    def __init__(self) -> None:
        self._ranges: dict[tuple[str, int], list[tuple[int, int]]] = {}
        self._lock = threading.Lock()

    def add(self, object_kind: str, gid: int, tt_start: int, tt_end: int) -> None:
        with self._lock:
            ranges = self._ranges.setdefault((object_kind, gid), [])
            if (tt_start, tt_end) not in ranges:
                ranges.append((tt_start, tt_end))

    def blocks(self, object_kind: str, gid: int, t1: int, t2: int) -> bool:
        """Whether a read over ``[t1, t2]`` touches a quarantined range.

        A version with interval inside a quarantined ``(qs, qe)`` can
        only be surfaced when the condition admits versions ending at
        or before ``qe`` — i.e. when ``t1 < qe`` — and beginning at or
        after ``qs`` — i.e. when ``t2 >= qs``.
        """
        # Unlocked fast path: a racing add() that has not landed yet is
        # indistinguishable from this read landing just before it.
        if not self._ranges:
            return False
        with self._lock:
            ranges = self._ranges.get((object_kind, gid))
            if not ranges:
                return False
            return any(t1 < qe and t2 >= qs for qs, qe in ranges)

    def ranges(self, object_kind: str, gid: int) -> list[tuple[int, int]]:
        with self._lock:
            return list(self._ranges.get((object_kind, gid), ()))

    def clear_object(self, object_kind: str, gid: int) -> None:
        with self._lock:
            self._ranges.pop((object_kind, gid), None)

    def clear(self) -> None:
        with self._lock:
            self._ranges.clear()

    def count(self) -> int:
        """Number of objects with at least one quarantined range."""
        with self._lock:
            return len(self._ranges)


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
        #: read-path performance counters (surfaced via engine metrics)
        self.read_metrics = ReadMetrics()
        #: maximum objects the history cache keeps; 0 keeps none
        self.reconstruction_cache_size = reconstruction_cache_size
        # Invalidation epoch for the derived read structures below.  It
        # advances whenever the stored record set can have changed — a
        # migration commit, write() (repairs, prune), invalidate_caches()
        # — so correctness never depends on a caller remembering to
        # flush a specific cache.
        self._epoch = 0
        # (object_kind, gid) -> _Entry: the history cache, one LRU of
        # at most reconstruction_cache_size objects (see _entries).
        self._cache: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        # Guards the history cache's LRU order, every fill of it and
        # the record counts.  The KV store is written only under it, by
        # commit_batch and write(), together with the counts and the
        # epoch bump; readers fill the cache epoch-checked.
        self._cache_lock = threading.Lock()
        #: the epoch in flight's records, published by commit_batch
        self._staged: list[tuple] = []
        # (segment, kind) -> {gid: records stored}: what the store
        # holds, counted by one key-only pass here, then grown by
        # commit_batch and recounted per touched object by write(); a
        # gid without records has no entry.  Serves absence checks, gid
        # enumeration and preload sizing without touching the KV store.
        self._counts: dict[tuple[bytes, bytes], dict[int, int]] = {
            stream: {} for streams in _KIND_STREAMS.values() for stream in streams
        }
        #: stored keys that do not decode, skipped by the count pass
        #: and by :meth:`prune` (the scrubber reports and drops them)
        self.undecodable_keys = 0
        for _key, decoded in self._decoded_keys():
            counts = self._counts[(decoded.segment, decoded.kind)]
            counts[decoded.gid] = counts.get(decoded.gid, 0) + 1
        # The counts' range side: ``(segment, kind)`` -> its ascending
        # gids, object_kind -> the ascending gids of all its streams.
        # Memoized by _sorted_gids() and dropped by every epoch bump, so
        # the gids in a range are two bisects away, never a pass over
        # a count map.
        self._sorted: dict[object, list[int]] = {}

    def _decoded_keys(
        self,
    ) -> Iterator[tuple[bytes, history_keys.HistoryKey]]:
        """Every stored key with its decoded form, in key order; a key
        that does not decode is counted in ``undecodable_keys`` and
        skipped, so one damaged key cannot make the store unloadable."""
        undecodable = 0
        for key, _value in self.kv.scan_all():
            try:
                decoded = history_keys.decode_key(key)
            except CorruptionError:
                undecodable += 1
                continue
            yield key, decoded
        self.undecodable_keys = undecodable

    def _decode(self, key: bytes, value: bytes, entry: _Entry):
        """The record's payload, or a :class:`_CorruptPayload` that flags
        ``entry`` damaged: keys stay sound, so reads that never replay
        through the record may proceed."""
        try:
            payload, checksummed = decode_record_payload(value)
        except IntegrityError as exc:
            entry.damaged = True
            return _CorruptPayload(key, exc)
        if checksummed:
            self.checksums_verified += 1
        else:
            self.legacy_records += 1
        return payload

    def _publish(self, segment, kind, gid, tt_start, tt_end) -> None:
        """(Under ``_cache_lock``.)  Count one committed record and tell
        the object's cache entry: a row newer than its cached list's
        tail is noted for the next reader to fetch; an older one (a
        record staged out of order) drops the list and the version
        list.  A delta row advances the entry's generation, which makes
        its version list stale, and a content row drops its mentions."""
        counts = self._counts[(segment, kind)]
        counts[gid] = counts.get(gid, 0) + 1
        object_kind = _OBJECT_KIND[segment]
        entry = self._cache.get((object_kind, gid))
        if entry is None:
            return
        stream = (segment, kind)
        records = entry.records.get(stream)
        if records is not None:
            newest = entry.fresh.get(stream)
            if newest is None and records:
                newest = (records[-1][1], records[-1][0])
            if newest is None or (tt_end, tt_start) > newest:
                entry.fresh[stream] = (tt_end, tt_start)
            else:
                del entry.records[stream]
                entry.fresh.pop(stream, None)
                entry.built = None
        if kind == history_keys.KIND_DELTA:
            entry.generation += 1
            if segment == history_keys.SEGMENT_VERTEX:
                entry.mentions = None

    def _sorted_gids(self, key) -> list[int]:
        """Memoized ascending gids of one ``(segment, kind)`` stream, or
        (``key`` an object kind) of every stream of that kind.  Treat
        the list as read-only."""
        cached = self._sorted.get(key)
        if cached is None:
            epoch = self._epoch
            if isinstance(key, str):
                cached = sorted(self.known_gids(key))
            else:
                cached = sorted(self._counts[key])
            with self._cache_lock:
                if epoch == self._epoch:  # else an epoch landed since
                    self._sorted[key] = cached
        return cached

    def _bump_epoch(self) -> None:
        """(Under ``_cache_lock``.)  Fills read before the bump are not
        kept; cached lists stay (publish told the entries it changed)."""
        self._epoch += 1
        self._sorted.clear()

    @property
    def epoch(self) -> int:
        """Current invalidation epoch of the derived read structures."""
        return self._epoch

    def known_gids(self, object_kind: str) -> set[int]:
        """Gids with at least one stored record (a new set)."""
        counts = self._counts
        return set().union(*(counts[stream] for stream in _KIND_STREAMS[object_kind]))

    def sorted_known_gids(self, object_kind: str) -> list[int]:
        """Memoized ascending list of :meth:`known_gids` (treat as
        read-only — scans iterate it on every unindexed query)."""
        return self._sorted_gids(object_kind)

    def has_history(self, object_kind: str, gid: int) -> bool:
        """Whether any reclaimed record exists for the object (unrolled:
        scans ask this of every candidate, mostly record-less ones)."""
        counts = self._counts
        if object_kind == "vertex":
            return (
                gid in counts[_VD]
                or gid in counts[_TD]
                or gid in counts[_VA]
                or gid in counts[_TA]
            )
        return gid in counts[_ED] or gid in counts[_EA]

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
        the write, and the read-cache epoch advances: fills read before
        it are not kept, memoized scan lists rebuild on next use, and
        the version lists of the objects the epoch wrote grow by its
        records on their next read.
        """
        staged, self._staged = self._staged, []
        if batch:
            # Locked write: a reader sees the rows and their counts together.
            with self._cache_lock:
                self.kv.write(batch)
                for row in staged:
                    self._publish(*row)
                self._bump_epoch()

    def write(self, batch: WriteBatch) -> None:
        """Install a batch outside a migration epoch (an integrity
        repair, a retention cut, the ``corrupt`` failpoint): the store's
        one other writer of its KV store.  Under the cache lock it
        writes the batch, recounts each stream the batch touched of
        each object it names, drops those objects' cache entries and
        bumps the epoch; every other object keeps what it cached."""
        if not batch:
            return
        touched = set()
        for key, _value in batch.items():
            stream = (key[:1], key[1:2])
            if stream in self._counts:
                touched.add((stream, int.from_bytes(key[2:10], "big")))
        with self._cache_lock:
            self.kv.write(batch)
            for (segment, kind), gid in touched:
                prefix = history_keys.object_prefix(segment, kind, gid)
                stored = sum(1 for _row in self.kv.scan_prefix(prefix))
                counts = self._counts[(segment, kind)]
                if stored:
                    counts[gid] = stored
                else:
                    counts.pop(gid, None)
                self._cache.pop((_OBJECT_KIND[segment], gid), None)
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
        record, one locked history-cache lookup and one locked fill, and
        one preload of the records the cache misses replay.  While the
        breaker is open the batch degrades per the ``degraded_reads``
        policy (raise :class:`~repro.errors.DegradedModeError`, or serve
        every object current-only).  Checked per object: the ``history.fetch``
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
        held, cached, uncached, epoch = self._cache_lookup(object_kind, requests)
        caching = self.reconstruction_cache_size > 0
        check = FAILPOINTS.check
        blocks = self.quarantine.blocks
        t1, t2, is_point = cond.t1, cond.t2, cond.is_point
        built: list[tuple[_Entry, _Built]] = []
        out: list[list] = []
        # Counted per object, added to the shared counters once.
        fetches = hits = misses = avoided = served = 0
        try:
            if len(uncached) > 1:
                self.preload_objects(object_kind, uncached, held=uncached)
            for (gid, base_view), stamped in zip(requests, cached):
                entry = held[gid]
                if check("history.fetch") == MODE_CORRUPT:
                    # At-rest bit rot: damage the stored value itself, so
                    # the failure surfaces where it would in production —
                    # the record's checksum verification at decode time.
                    self._corrupt_stored_record(object_kind, gid)
                    entry, stamped = _Entry(), None
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
                versions = None if stamped is None else stamped.versions
                if stamped is None and caching:
                    misses += 1
                    generation = entry.generation
                    try:
                        stamped = self._build_versions(
                            object_kind, gid, base_view, entry
                        )
                    except IntegrityError:
                        # Unbuildable until the object changes: the bounded
                        # per-query replay below may still avoid the
                        # damaged record.
                        stamped = _Built(
                            _base_sig(base_view), None, 0, generation, (0, 0)
                        )
                    versions = stamped.versions
                    built.append((entry, stamped))
                elif versions is not None:
                    hits += 1
                    avoided += stamped.replays
                if versions is None:
                    found = list(
                        self._fetch_versions_uncached(
                            object_kind, segment, gid, cond, base_view, entry
                        )
                    )
                elif is_point:
                    found = self._serve_cached_point(entry, segment, gid, versions, t1)
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
                with self._cache_lock:
                    # A migration installed mid-build has bumped the epoch:
                    # a list built from a record set it was changing must
                    # not be kept, nor replace one a reader built since.
                    if epoch == self._epoch:
                        for entry, stamped in built:
                            entry.built = stamped
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
            # drops the object's cached payloads, so the damaged bytes
            # are actually re-read and re-verified
            self.write(batch)
            return True
        return False

    # -- the history cache ---------------------------------------------
    #
    # One LRU of at most ``reconstruction_cache_size`` objects keeps
    # what ``FetchFromKV`` derives from each object's records: the
    # record lists (the RocksDB block cache's role), the scan's
    # mentions, and the *complete* version list, built once from the
    # topmost base down so any later condition is a bisect, not a
    # replay.  Publishing a record newer than a list's tail keeps the
    # list: the next reader reads and decodes only the rows after the
    # tail.  A version list is stale once its object's generation (the
    # delta rows published to it) or its base moves; the next reader
    # replays only the records newer than the old base and splices
    # their versions on (see _build_versions).  A reader holds its
    # entries, so a batch reads each object once even when the cache
    # cannot keep it (capacity 0 keeps nothing).

    def _entries(self, object_kind: str, gids: Iterable[int]) -> dict[int, _Entry]:
        """Each gid's entry under one lock, created if missing and moved
        to the most recent end; past capacity the least recently used
        objects are evicted (a caller keeps using the entries it holds)."""
        size = self.reconstruction_cache_size
        if size <= 0:
            return {gid: _Entry() for gid in gids}
        cache = self._cache
        held: dict[int, _Entry] = {}
        with self._cache_lock:
            for gid in gids:
                key = (object_kind, gid)
                entry = cache.get(key)
                if entry is None:
                    entry = cache[key] = _Entry()
                else:
                    cache.move_to_end(key)
                held[gid] = entry
            while len(cache) > size:
                cache.popitem(last=False)
                self.read_metrics.cache_evictions += 1
        return held

    def _cache_lookup(
        self, object_kind: str, requests: Sequence[tuple[int, object]]
    ) -> tuple[dict[int, _Entry], list, dict[int, _Entry], int]:
        """The requests' entries by gid; each request's stamped version
        list if one was built from the object's current records and its
        base, else ``None`` (a miss); the entries whose versions must be
        replayed (misses, and objects that failed to build); and the
        epoch, read first, so a fill straddling an epoch is dropped."""
        epoch = self._epoch
        held = self._entries(object_kind, [gid for gid, _ in requests])
        cached = []
        uncached: dict[int, _Entry] = {}
        for gid, base_view in requests:
            entry = held[gid]
            stamped = entry.built
            if stamped is not None and (
                stamped.generation != entry.generation
                or stamped.base_sig != _base_sig(base_view)
            ):
                stamped = None
            if stamped is None or stamped.versions is None:
                uncached[gid] = entry
            cached.append(stamped)
        return held, cached, uncached, epoch

    def _build_versions(
        self, object_kind: str, gid: int, base_view, entry: _Entry
    ) -> _Built:
        """The object's version list: every content state, frozen.  The
        list excludes the base itself (a current-store base is surfaced
        by the caller's chain walk) and keeps non-existence states as
        ``None`` placeholders so point lookups can distinguish "deleted
        at t" from "version at t".

        The entry's stale list, if built from an older current-store
        base, is extended rather than rebuilt when the records ending
        at or before that base are still exactly the ones it replayed:
        only the records newer than the old base are replayed, from the
        new base, and their versions are appended to a copy of it.  Its
        versions stay valid because GC moves an object's oldest undo
        deltas into the store in commit order, so the new base with the
        new records undone is the old base.  A blank base, a list that
        failed to build and a base that moved back rebuild from
        scratch."""
        generation = entry.generation
        prior = entry.built
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        with tracer.span("history.reconstruct") if traced else nullcontext():
            segment = _SEGMENT[object_kind]
            content, topology = self._delta_lists(segment, gid, entry)
            if base_view is not None:
                base = base_view.fork()
            else:
                base = self._blank_base(object_kind, gid, entry)
                if base is None:
                    return _Built(None, [], 0, generation, (0, 0))
            below = _count_below(content, topology, base.tt_start)
            sig = _base_sig(base_view)
            replays = below[0] + len(topology)
            older: list = []
            floor = -1
            if (
                prior is not None
                and prior.versions is not None
                and prior.base_sig is not None
                and base_view is not None
                and prior.base_sig[0] <= base.tt_start
                and _count_below(content, topology, prior.base_sig[0])
                == prior.below_base
            ):
                older, floor = prior.versions, prior.base_sig[0]
                self.read_metrics.versions_extended += 1
                if below[0] == prior.below_base[0]:
                    # No content record since: the prior versions are
                    # the whole list (topology resolves at serve time).
                    return _Built(sig, older, replays, generation, below)
            records = self._collect_records(
                segment, gid, floor, base.tt_start, _topology_boundary(base_view), entry
            )
            versions: list[tuple[int, int, Optional[object]]] = []
            for tt_start, tt_end, seg, payload in records:
                self.reconstructions += 1
                self.read_metrics.deltas_replayed += 1
                self._apply(base, seg, payload, tt_start, tt_end)
                if seg != history_keys.SEGMENT_TOPOLOGY:
                    versions.append(
                        (tt_start, tt_end, base.fork() if base.exists else None)
                    )
        versions.reverse()  # ascending by tt_end for bisect serving
        return _Built(sig, older + versions, replays, generation, below)

    def _delta_lists(
        self, segment: bytes, gid: int, entry: _Entry
    ) -> tuple[list, Sequence]:
        """The object's content delta records and (for a vertex) its
        topology ones."""
        content = self._records_for(segment, history_keys.KIND_DELTA, gid, entry)
        if segment != history_keys.SEGMENT_VERTEX:
            return content, ()
        return content, self._records_for(
            history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid, entry
        )

    def _serve_cached_point(
        self, entry: _Entry, segment: bytes, gid: int, versions: list, t: int
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
            topo = self._records_for(
                history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid, entry
            )
            low = bisect.bisect_right(topo, t, key=_END)
            high = bisect.bisect_right(topo, tt_end, lo=low, key=_END)
            if low < high:
                pending = topo[low:high]
                if entry.damaged:
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
        base_view,
        entry: _Entry,
    ) -> Iterator:
        base, include_base = self._reconstruction_base(
            segment, object_kind, gid, cond, base_view, entry
        )
        if base is None:
            return
        # A current-store or blank base holds the adjacency left by
        # every migrated structural change, whatever its content start,
        # and an anchor view carries that base's adjacency: undo each
        # one newer than t1 that the base has not undone itself.
        records = self._collect_records(
            segment, gid, cond.t1, base.tt_start, _topology_boundary(base_view), entry
        )
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
        if include_base:
            # The anchor's version has the adjacency of its end: undo
            # the structural changes after it (only topology records end
            # there) before surfacing it.
            content_tt = (base.tt_start, base.tt_end)
            # records run newest first: count those ending after it
            newer = bisect.bisect_left(records, -base.tt_end, key=lambda row: -row[1])
            for tt_start, tt_end, seg, payload in records[:newer]:
                self.reconstructions += 1
                self.read_metrics.deltas_replayed += 1
                self._apply(base, seg, payload, tt_start, tt_end)
            del records[:newer]
            base.tt_start, base.tt_end = content_tt
            if base.exists and cond.matches(base.tt_start, base.tt_end):
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
        self, segment: bytes, object_kind: str, gid: int, cond, base_view, entry
    ):
        """Pick anchor, current-store base, or blank placeholder.

        Returns ``(view, include_base)``; ``include_base`` marks an
        anchor whose own version may satisfy the condition (a
        current-store base was already surfaced by the caller's scan of
        unreclaimed versions, so it must not be yielded again).
        """
        anchor = self._seek_anchor(segment, gid, cond.t2, entry)
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
                    segment, gid, tt_start, tt_end, entry
                )
                if object_kind == "vertex":
                    view = vertex_view_from_anchor(gid, payload, tt_start, tt_end)
                    if base_view is not None:
                        # An anchor holds no adjacency: share the base's
                        # (a blank base has none), which the replay then
                        # undoes down to t.
                        source = base_view.fork()
                        view._out_edges = source._out_edges
                        view._in_edges = source._in_edges
                        view._pending = source._pending
                        view._owns_edges = False
                else:
                    view = edge_view_from_anchor(gid, payload, tt_start, tt_end)
                return view, True
        if base_view is not None:
            return base_view.fork(), False
        return self._blank_base(object_kind, gid, entry), False

    def _containing_version(
        self, segment: bytes, gid: int, tt_start: int, tt_end: int, entry: _Entry
    ) -> tuple[int, int]:
        """The content version interval containing ``[tt_start, tt_end)``.

        Anchors start where the previous content record ended, so the
        first content record ending after the anchor's start is the
        record of the version the anchor snapshots; fall back to the
        given interval when no such record covers it (e.g. a store
        whose seam was disturbed)."""
        records = self._records_for(segment, history_keys.KIND_DELTA, gid, entry)
        index = bisect.bisect_right(records, tt_start, key=_END)
        if index < len(records):
            rec_start, rec_end, _payload = records[index]
            if rec_start <= tt_start and rec_end >= tt_end:
                return rec_start, rec_end
        return tt_start, tt_end

    # -- record lists ----------------------------------------------------

    def _records_for(
        self, segment: bytes, kind: bytes, gid: int, entry: Optional[_Entry] = None
    ) -> list[tuple[int, int, dict]]:
        """The object's records in one stream, ascending by tt_end, from
        ``entry`` (default: the object's cache entry), read from the KV
        store on first use.  A cached list with rows published since is
        grown by one range read of the rows after its tail."""
        if entry is None:
            entry = self._entries(_OBJECT_KIND[segment], (gid,))[gid]
        stream = (segment, kind)
        records = entry.records.get(stream)
        if records is not None and stream not in entry.fresh:
            return records
        epoch = self._epoch
        prefix = history_keys.object_prefix(segment, kind, gid)
        if records is None:
            # The counts are authoritative about absence: skip the KV
            # seek entirely for record-less objects.
            rows = self.kv.scan_prefix(prefix) if gid in self._counts[stream] else ()
            records = []
        else:
            start = prefix
            if records:
                tail_start, tail_end, _payload = records[-1]
                start = history_keys.encode_key(
                    segment, kind, gid, tail_start, tail_end
                ) + b"\x00"
            rows = self.kv.scan_range(start, prefix + b"\xff" * 17)
            records = list(records)
        for key, value in rows:
            decoded = history_keys.decode_key(key)
            payload = self._decode(key, value, entry)
            records.append((decoded.tt_start, decoded.tt_end, payload))
        with self._cache_lock:
            if epoch == self._epoch:
                entry.records[stream] = records
                entry.fresh.pop(stream, None)
        return records

    def preload_objects(
        self,
        object_kind: str,
        gids: Iterable[int],
        held: Optional[dict[int, _Entry]] = None,
    ) -> int:
        """Bulk-fill many objects' record lists with one bounded range
        scan per segment (Expand's batched ``FetchFromKV``-VE path: a
        high-degree vertex preloads every candidate edge in one KV
        iteration instead of one seek each), into the entries a fetch
        batch ``held`` or else the cache's.

        Skips objects with no history or already-cached records.  When
        the record counts show the gid range is mostly other objects'
        records (sparse candidates over a dense keyspace), the range
        scan would read more than it saves, so the call backs off and
        leaves the per-object lazy loads to do the work.  Returns the
        number of objects actually preloaded.
        """
        if held is None and self.reconstruction_cache_size <= 0:
            return 0  # nothing would keep what the scan read
        segment = _SEGMENT[object_kind]
        has_history = self.has_history
        wanted = {gid for gid in gids if has_history(object_kind, gid)}
        if held is None:
            held = self._entries(object_kind, wanted)
        return max(
            self._preload_segment(seg, wanted, held) for seg in _STREAMS[segment]
        )

    def _preload_segment(
        self, segment: bytes, gids: set[int], held: dict[int, _Entry]
    ) -> int:
        kind = history_keys.KIND_DELTA
        stream = (segment, kind)
        epoch = self._epoch
        wanted = sorted(gid for gid in gids if stream not in held[gid].records)
        if len(wanted) < 2:
            return 0  # a single object's lazy prefix scan is already one seek
        counts = self._counts[stream]
        low_gid, high_gid = wanted[0], wanted[-1]
        goal = sum(counts.get(gid, 0) for gid in wanted)
        if self._span_exceeds(segment, kind, low_gid, high_gid, 4 * goal + 16):
            self.read_metrics.preload_backoffs += 1
            return 0
        start = history_keys.object_prefix(segment, kind, low_gid)
        stop = history_keys.object_prefix(segment, kind, high_gid) + b"\xff" * 17
        rows: dict[int, list] = {gid: [] for gid in wanted}
        for key, value in self.kv.scan_range(start, stop):
            decoded = history_keys.decode_key(key)
            records = rows.get(decoded.gid)
            if records is not None:
                payload = self._decode(key, value, held[decoded.gid])
                records.append((decoded.tt_start, decoded.tt_end, payload))
        with self._cache_lock:
            if epoch == self._epoch:
                for gid, records in rows.items():
                    held[gid].records[stream] = records
        self.read_metrics.preload_batches += 1
        self.read_metrics.preload_objects += len(wanted)
        return len(wanted)

    def _span_exceeds(
        self, segment: bytes, kind: bytes, low_gid: int, high_gid: int, limit: int
    ) -> bool:
        """Whether gids in ``[low_gid, high_gid]`` hold more than
        ``limit`` records of one stream.  Two bisects bound the gids in
        range; each holds at least one record, so more than ``limit``
        gids settle it unsummed — O(log N + limit) however large the
        store."""
        counts = self._counts[(segment, kind)]
        gids = self._sorted_gids((segment, kind))
        start = bisect.bisect_left(gids, low_gid)
        stop = bisect.bisect_right(gids, high_gid, lo=start)
        if stop - start > limit:
            return True
        return sum(counts.get(gid, 0) for gid in gids[start:stop]) > limit

    def _seek_anchor(self, segment: bytes, gid: int, t: int, entry: _Entry):
        """First anchor of ``gid`` with ``tt_end > t`` (nearest newer)."""
        self.read_metrics.anchor_seeks += 1
        anchors = self._records_for(segment, history_keys.KIND_ANCHOR, gid, entry)
        index = bisect.bisect_right(anchors, t, key=_END)
        if index < len(anchors):
            return anchors[index]
        return None

    def _collect_records(
        self,
        segment: bytes,
        gid: int,
        t1: int,
        boundary: int,
        topology_boundary: int,
        entry: _Entry,
    ) -> list[tuple[int, int, bytes, dict]]:
        """All delta records with ``t1 < tt_end``, newest first: content
        records up to ``boundary`` and (for vertices) topology records
        up to ``topology_boundary``."""
        collected: list[tuple[int, int, bytes, dict]] = []
        for seg in _STREAMS[segment]:
            records = self._records_for(seg, history_keys.KIND_DELTA, gid, entry)
            low = bisect.bisect_right(records, t1, key=_END)
            high = bisect.bisect_right(
                records,
                topology_boundary if seg == history_keys.SEGMENT_TOPOLOGY else boundary,
                lo=low,
                key=_END,
            )
            collected.extend(
                (tt_start, tt_end, seg, payload)
                for tt_start, tt_end, payload in records[low:high]
            )
        collected.sort(key=_END, reverse=True)
        return collected

    def _blank_base(self, object_kind: str, gid: int, entry: _Entry):
        """A non-existence placeholder ending at the object's newest
        delta record (across the content and topology segments for
        vertices), or ``None`` for an object with none.  Read from the
        record lists the reconstruction replays next."""
        ends = [
            records[-1][1]
            for records in self._delta_lists(_SEGMENT[object_kind], gid, entry)
            if records
        ]
        if not ends:
            return None
        blank = VertexView.blank if object_kind == "vertex" else EdgeView.blank
        return blank(gid, max(ends), MAX_TIMESTAMP)

    def vertex_mentions(self, gid: int) -> tuple[set, dict]:
        """Aggregated pruning data for one vertex's reclaimed history:
        every label its diffs mention and every value each property
        ever took in a diff.  O(1) per scan candidate once built.

        The set of values a property ever took is exactly {current
        value} ∪ {values in backward diffs}, so equality filters can
        reject an object without reconstructing any version."""
        entry = self._entries("vertex", (gid,))[gid]
        mentions = entry.mentions
        if mentions is None:
            epoch = self._epoch
            labels: set = set()
            values: dict = {}
            records = self._records_for(
                history_keys.SEGMENT_VERTEX, history_keys.KIND_DELTA, gid, entry
            )
            for _s, _e, payload in records:
                if isinstance(payload, _CorruptPayload):
                    payload.raise_()
                _merge_mentions(payload, labels, values)
            mentions = (labels, values)
            with self._cache_lock:
                if epoch == self._epoch:
                    entry.mentions = mentions
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

    def invalidate_caches(self) -> None:
        """Drop the history cache and the staged rows, and advance the
        invalidation epoch (the record counts stay: they describe what
        the store holds, not what was read from it).

        Called after a failed migration epoch: its staged rows are
        dropped, so a retry of the same drafts cannot duplicate them.
        """
        with self._cache_lock:
            self._staged = []
            self._cache.clear()
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
        batch = WriteBatch()
        for key, decoded in self._decoded_keys():
            if decoded.tt_end <= before_ts:
                batch.delete(key)
        if not batch:
            return 0
        # One recount under the lock; every pruned object's cache entry
        # goes with it, so not one stale version can be served.
        self.write(batch)
        self.kv.compact()
        return len(batch)

    # -- accounting --------------------------------------------------------------

    def read_path_metrics(self) -> dict[str, int]:
        """The ``read_path`` section: read counters, cache occupancy,
        the checksum tally and the quarantine size (monitoring)."""
        report = self.read_metrics.as_dict()
        report["epoch"] = self._epoch
        report["cache_entries"] = len(self._cache)
        report["cache_capacity"] = self.reconstruction_cache_size
        report["checksums_verified"] = self.checksums_verified
        report["legacy_records"] = self.legacy_records
        report["undecodable_keys"] = self.undecodable_keys
        report["quarantined_objects"] = self.quarantine.count()
        return report

    def kv_metrics(self) -> dict[str, int]:
        """The ``history_kv`` section: the KV store's operation counters
        and the history store's physical footprint."""
        return {**asdict(self.kv.stats), "bytes": self.storage_bytes()}

    def storage_bytes(self) -> int:
        """Physical footprint of the history store."""
        return self.kv.approximate_bytes()
