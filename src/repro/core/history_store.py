"""The historical data storage engine (paper section 4.2).

Wraps the key-value store with the AeonG record layout: merged backward
deltas under ``D`` keys, full-state anchors under ``A`` keys, topology
records in their own segment.  The central read operation,
:meth:`HistoricalStore.fetch_many`, is the paper's ``FetchFromKV`` over
a batch of objects, per object: seek the nearest anchor newer than the
queried time and replay its *segment* (the at most ``u`` delta records
back to the previous anchor; above the newest anchor, the records below
the current-store base), applying each backward diff younger to older.
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
    reclaimed object): what a head segment was built from."""
    return None if base_view is None else (base_view.tt_start, base_view.tt_end)


def _topology_boundary(base_view) -> int:
    """The newest topology record a current-store or blank base still
    needs undone: every one, unless the base is an undo-chain walk's that
    undid structural changes itself (``VertexView.topology_end``)."""
    end = getattr(base_view, "topology_end", None)
    return MAX_TIMESTAMP if end is None else end - 1


def _span(ends: list, t1: int, t2: int) -> range:
    """The segments holding the versions of ``t1`` to ``t2``, by the
    anchor segments' tops ``ends`` (the head is index ``len(ends)``)."""
    low = bisect.bisect_right(ends, t1)
    return range(low, (low if t2 == t1 else bisect.bisect_right(ends, t2, lo=low)) + 1)


def _cuts(segment: bytes, content: list, anchors: list) -> tuple[list, list]:
    """The anchor segments' tops, ascending: their ends, and each as a
    replay row ``(tt_start, tt_end, stream, anchor row)``.

    An anchor staged at a structural commit ends mid-way through the
    content version containing it; its top is that version, widened to
    the interval of the content record that ends it, so a version's
    reported identity never depends on the anchor it was replayed from."""
    stream = (segment, history_keys.KIND_ANCHOR)
    ends: list[int] = []
    tops: list[tuple] = []
    for row in anchors:
        tt_start, tt_end = row[0], row[1]
        index = bisect.bisect_right(content, tt_start, key=_END)
        if index < len(content):
            rec_start, rec_end, _value = content[index]
            if rec_start <= tt_start and rec_end >= tt_end:
                tt_start, tt_end = rec_start, rec_end
        if not ends or tt_end > ends[-1]:
            ends.append(tt_end)
            tops.append((tt_start, tt_end, stream, row))
    return ends, tops


def _count_below(content: list, topology: Sequence, t: int) -> tuple[int, int]:
    """How many content and topology records end at or before ``t``."""
    return (
        bisect.bisect_right(content, t, key=_END),
        bisect.bisect_right(topology, t, key=_END),
    )


def _from_anchor(view, payload: dict, tt_start: int, tt_end: int):
    """The anchor's version, keeping ``view``'s adjacency (an anchor
    holds content only; the replay so far has undone the structural
    changes newer than it)."""
    if isinstance(view, VertexView):
        anchored = vertex_view_from_anchor(view.gid, payload, tt_start, tt_end)
        anchored._out_edges, anchored._in_edges = view._out_edges, view._in_edges
        anchored._pending, anchored._owns_edges = view._pending, view._owns_edges
        return anchored
    return edge_view_from_anchor(view.gid, payload, tt_start, tt_end)


class _CorruptPayload:
    """What a record value that failed its checksum decodes to.  It
    surfaces only where a replay *needs* the payload: the record's key
    stays sound, so a read whose range stops above it succeeds, while
    one stepping through it raises the original
    :class:`~repro.errors.IntegrityError`."""

    __slots__ = ("key", "error")

    def __init__(self, key: bytes, error: IntegrityError) -> None:
        self.key = key
        self.error = error

    def raise_(self) -> None:
        raise IntegrityError(
            f"history record {self.key.hex()} is unreadable: {self.error}"
        )


class _Segment(NamedTuple):
    """One segment's versions, ``[(tt_start, tt_end, frozen view or
    None)]`` ascending by tt_end (None where the object did not exist).
    When a damaged record stopped its build, ``error`` is that record's
    and every version ending at or before ``stop`` is missing."""

    versions: list
    error: Optional[_CorruptPayload] = None
    stop: int = -1


class _Head(NamedTuple):
    """The head segment (the versions above the newest anchor its base
    can use, or None until a read needs them) and what it was built
    from: the base's content interval, the object's ``generation``, how
    many content and topology records ended at or before the base's
    start (the splice's proof that nothing older arrived), and the
    anchor segments' tops below it, ascending."""

    base_sig: Optional[tuple[int, int]]
    generation: int
    below_base: tuple[int, int]
    ends: list
    segment: Optional[_Segment]


class _Entry:
    """Everything the history cache holds about one object: its record
    lists by ``(segment, kind)``, each ``[[tt_start, tt_end, value]]``
    ascending by tt_end, ``value`` the stored bytes until decoded in
    place (a list grows by replacement); ``fresh``, per cached list, the
    newest ``(tt_end, tt_start)`` published after it was read (the next
    reader fetches only the rows after its tail); the scan's
    ``mentions``; ``generation``, advanced by every delta row published
    to the object; the built anchor ``segments`` by their top's tt_end;
    and the ``head``."""

    __slots__ = ("records", "fresh", "mentions", "generation", "segments", "head")

    def __init__(self) -> None:
        self.records: dict[tuple[bytes, bytes], list] = {}
        self.fresh: dict[tuple[bytes, bytes], tuple[int, int]] = {}
        self.mentions: Optional[tuple[set, dict]] = None
        self.generation = 0
        self.segments: dict[int, _Segment] = {}
        self.head: Optional[_Head] = None


class ReadMetrics:
    """Read-path performance counters (``metrics()["read_path"]``).

    ``deltas_replayed`` counts backward-record applications actually
    paid; ``reconstructions_avoided`` counts the versions cache hits
    served without a replay.  ``anchor_seeks`` counts the misses that
    bisected an object's anchors for a segment to build, and
    ``versions_extended`` those served by growing a stale head segment
    by the records published since.  ``versions_served`` counts reclaimed
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
        #: delta records and anchors installed by migration epochs
        #: (added by Migrate once its batch is committed)
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
        #: stored keys that do not decode, skipped by the count pass,
        #: prune() and reads (the scrubber reports and drops them)
        self._bad_keys: set[bytes] = set()
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
        bad: set[bytes] = set()
        for key, _value in self.kv.scan_all():
            try:
                decoded = history_keys.decode_key(key)
            except CorruptionError:
                bad.add(key)
                continue
            yield key, decoded
        self._bad_keys = bad

    @property
    def undecodable_keys(self) -> int:
        """Stored keys known not to decode."""
        return len(self._bad_keys)

    def _key_only(self, rows, object_kind: str, lists: dict[int, list]) -> None:
        """Append each stored row to its gid's list in ``lists`` as
        ``[tt_start, tt_end, stored value]``, decoding the key alone.  A
        key that does not decode is counted, and quarantines its object
        whole when it sits under the prefix of one in ``lists``: no
        reconstruction lacking its record can be trusted until the
        scrubber drops the key (``bad-key``) and clears it."""
        for key, value in rows:
            try:
                decoded = history_keys.decode_key(key)
            except CorruptionError:
                self._bad_keys.add(key)
                gid = int.from_bytes(key[2:10], "big")
                if len(key) >= 10 and gid in lists:
                    self.quarantine.add(object_kind, gid, 0, MAX_TIMESTAMP)
                continue
            records = lists.get(decoded.gid)
            if records is not None:
                records.append([decoded.tt_start, decoded.tt_end, value])

    def _payload(self, stream: tuple[bytes, bytes], gid: int, row: list) -> dict:
        """The row's payload, decoded on first use in place of its stored
        bytes; a damaged one is replaced by a :class:`_CorruptPayload`
        and raises its :class:`~repro.errors.IntegrityError`."""
        value = row[2]
        if value.__class__ is dict:
            return value
        if not isinstance(value, _CorruptPayload):
            # Unlocked: two readers decoding one row store equal payloads.
            try:
                payload, checksummed = decode_record_payload(value)
            except IntegrityError as exc:
                key = history_keys.encode_key(*stream, gid, row[0], row[1])
                value = row[2] = _CorruptPayload(key, exc)
            else:
                if checksummed:
                    self.checksums_verified += 1
                else:
                    self.legacy_records += 1
                row[2] = payload
                return payload
        value.raise_()

    def _publish(self, segment, kind, gid, tt_start, tt_end) -> None:
        """(Under ``_cache_lock``.)  Count one committed record and tell
        the object's cache entry: a row newer than its cached list's
        tail is noted for the next reader to fetch; an older one (a
        record staged out of order) drops the list and every built
        segment.  A delta row advances the entry's generation, which
        makes its head segment stale, and a content row drops its
        mentions."""
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
                entry.head, entry.segments = None, {}
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

    def delta_records(self, object_kind: str, gid: int) -> int:
        """The object's stored delta records, content and topology: the
        count the anchor cadence runs on."""
        counts = self._counts
        if object_kind == "vertex":
            return counts[_VD].get(gid, 0) + counts[_TD].get(gid, 0)
        return counts[_ED].get(gid, 0)

    def newest_content_end(self, object_kind: str, gid: int) -> Optional[int]:
        """The end of the object's newest stored content record (None:
        it has none), by one key-only read of its content stream that
        leaves the history cache untouched."""
        segment = _SEGMENT[object_kind]
        if gid not in self._counts[(segment, history_keys.KIND_DELTA)]:
            return None
        end = None
        prefix = history_keys.object_prefix(segment, history_keys.KIND_DELTA, gid)
        for key, _value in self.kv.scan_prefix(prefix):
            try:
                end = history_keys.decode_key(key).tt_end  # keys sort by end
            except CorruptionError:
                continue
        return end

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
        for key, value in batch.items():
            if value is None:
                self._bad_keys.discard(key)
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
        record, one locked entry lookup and one locked fill, and one
        preload of the records the cache misses replay.  While the
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
        epoch = self._epoch
        held = self._entries(object_kind, [gid for gid, _ in requests])
        t1, t2, is_point = cond.t1, cond.t2, cond.is_point
        check = FAILPOINTS.check
        blocks = self.quarantine.blocks
        bisect_right = bisect.bisect_right
        heads = []
        stale = []
        for gid, base_view in requests:
            entry = held[gid]
            head = entry.head
            if head is not None and (
                head.generation != entry.generation
                or head.base_sig != _base_sig(base_view)
            ):
                head = None
            if head is None:
                stale.append(gid)
            heads.append(head)
        fills: list = []
        out: list[list] = []
        # Counted per object, added to the shared counters once.
        fetches = hits = misses = avoided = served = 0
        try:
            if len(stale) > 1:
                self.preload_objects(object_kind, stale, held=held)
            for (gid, base_view), head in zip(requests, heads):
                entry = held[gid]
                if check("history.fetch") == MODE_CORRUPT:
                    # At-rest bit rot: damage the stored value itself, so
                    # the failure surfaces where it would in production —
                    # the record's checksum verification at decode time.
                    self._corrupt_stored_record(object_kind, gid)
                    entry, head = _Entry(), None
                if blocks(object_kind, gid, t1, t2):
                    out.append(self._refuse(object_kind, gid))
                    continue
                if head is not None and is_point:
                    # a hit is a bisect of the anchor tops
                    ends = head.ends
                    index = bisect_right(ends, t1)
                    built = head.segment if index == len(ends) else entry.segments.get(ends[index])
                    if built is not None:
                        fetches += 1
                        hits += 1
                        avoided += len(built.versions)
                        found = self._serve_point(entry, segment, gid, built, t1)
                        served += len(found)
                        out.append(found)
                        continue
                filled = len(fills)
                segments = self._segments(
                    object_kind, gid, base_view, entry, head, t1, t2, fills
                )
                if len(fills) > filled:
                    misses += 1
                    # (the key-only pass quarantines an object it finds
                    # an undecodable key under)
                    if blocks(object_kind, gid, t1, t2):
                        out.append(self._refuse(object_kind, gid))
                        continue
                else:
                    hits += 1
                    for built in segments:
                        avoided += len(built.versions)
                fetches += 1
                if is_point:
                    found = self._serve_point(
                        entry, segment, gid, segments[0] if segments else None, t1
                    )
                else:
                    for built in segments:
                        if built.error is not None and t1 < built.stop:
                            built.error.raise_()
                    found = [
                        frozen.fork()
                        for built in reversed(segments)
                        for tt_start, tt_end, frozen in reversed(built.versions)
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
            if fills:
                with self._cache_lock:
                    # A migration installed mid-build has bumped the epoch:
                    # a segment built from a record set it was changing
                    # must not be kept, nor replace one built since.
                    if epoch == self._epoch:
                        for entry, top, built in fills:
                            if top is None:
                                entry.head = built
                            else:
                                entry.segments[top] = built
        if ctrl is not None and fetches:
            ctrl.history_ok()
        return out

    def _refuse(self, object_kind: str, gid: int) -> list:
        """A read over a quarantined range: it raises, or under
        ``degraded_reads="current-only"`` serves no historical version of
        the object."""
        ctrl = self.resilience
        if ctrl is None or ctrl.quarantined_read_raises():
            raise IntegrityError(
                f"{object_kind} gid={gid}: temporal read over a "
                "quarantined transaction-time range (awaiting "
                "scrub repair)"
            )
        return []

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
    # record lists (the RocksDB block cache's role; a payload is decoded
    # in place when a replay first needs it), the scan's mentions, and
    # the built segments.  An anchor segment's versions depend on its
    # own records alone, so it serves until they are rewritten; the head
    # is stamped with its base and extended by a GC epoch's records (see
    # _head_segment).  A reader holds its entries, so a batch reads each
    # object once even when the cache cannot keep it (capacity 0 builds
    # each segment and drops it).

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

    def _segments(
        self,
        object_kind: str,
        gid: int,
        base_view,
        entry: _Entry,
        head: Optional[_Head],
        t1: int,
        t2: int,
        fills: list,
    ) -> list[_Segment]:
        """The segments a read over ``[t1, t2]`` needs, ascending, each
        build appended to ``fills`` as ``(entry, top tt_end or None for
        the head, segment)``.  The entry's current ``head`` holds the
        anchor segments' tops, so a hit is a bisect; a miss bisects the
        anchors' key-only list, up to the base's start (an anchor above
        it snapshots a version that the base or the caller's chain walk
        serves).

        Segments build top-down, each going on from the one above it
        when that one is at hand (see _anchor_segment), so a read
        decodes at most the anchor of its top segment and replays each
        record once."""
        if head is not None:
            ends, cached = head.ends, entry.segments
            found = []
            for index in _span(ends, t1, t2):
                built = head.segment if index == len(ends) else cached.get(ends[index])
                if built is None:
                    break
                found.append(built)
            else:
                return found
        segment = _SEGMENT[object_kind]
        content = self._records_for(segment, history_keys.KIND_DELTA, gid, entry)
        topology = () if segment != history_keys.SEGMENT_VERTEX else self._records_for(
            history_keys.SEGMENT_TOPOLOGY, history_keys.KIND_DELTA, gid, entry
        )
        anchors = self._records_for(segment, history_keys.KIND_ANCHOR, gid, entry)
        base = base_view
        if base is None:
            base = self._blank_base(object_kind, gid, content, topology)
            if base is None:
                return []
        ends, tops = _cuts(segment, content, anchors)
        del ends[bisect.bisect_right(ends, base.tt_start):]
        boundary = _topology_boundary(base_view)
        filled = len(fills)
        found = []
        span = _span(ends, t1, t2)
        above = None
        if span[-1] < len(ends):
            above = (
                entry.segments.get(ends[span[-1] + 1]) if span[-1] + 1 < len(ends)
                else None if head is None else head.segment
            )
        for index in reversed(span):
            if index == len(ends):
                built = None if head is None else head.segment
                if built is None:
                    built = self._head_segment(
                        object_kind, gid, base_view, base, entry,
                        (content, topology, ends, boundary), fills,
                    )
            else:
                built = entry.segments.get(ends[index])
                if built is None:
                    floor = ends[index - 1] if index else -1
                    built = self._anchor_segment(
                        segment, gid, entry, above, floor, tops[index], base, boundary
                    )
                    fills.append((entry, ends[index], built))
            found.append(built)
            above = built
        if len(fills) > filled:
            if anchors:
                self.read_metrics.anchor_seeks += 1
            if head is None and len(ends) not in span and entry.head is None:
                # the tops alone, for the next read's bisect, until one
                # needs the head
                below = _count_below(content, topology, base.tt_start)
                stub = _Head(_base_sig(base_view), entry.generation, below, ends, None)
                fills.append((entry, None, stub))
        found.reverse()
        return found

    def _anchor_segment(
        self, segment: bytes, gid: int, entry: _Entry, above: Optional[_Segment],
        floor: int, top: tuple, base, boundary: int,
    ) -> _Segment:
        """One anchor segment: the versions ending in ``(floor, top]``.

        With the segment ``above`` it at hand, the replay goes on from
        that one's oldest version through the deltas down to ``floor``,
        decoding no anchor.  Else it starts at the anchor: the anchor's
        version, on the base's adjacency with the topology records above
        it undone, then the content records below it.  A damaged anchor
        is replayed past as if absent, from the base."""
        if above is not None and above.error is None and above.versions:
            _tt_start, tt_end, view = above.versions[0]
            if view is not None:
                rows = self._collect_records(
                    segment, gid, floor, top[1], min(tt_end, boundary), entry
                )
                return self._replay(gid, view.fork(), rows)
        try:
            self._payload(top[2], gid, top[3])
        except IntegrityError:
            rows = self._collect_records(segment, gid, floor, base.tt_start, boundary, entry)
            built = self._replay(gid, base.fork(), rows)
            below = bisect.bisect_right(built.versions, top[1], key=_END)
            return _Segment(built.versions[:below], built.error, built.stop)
        rows = self._collect_records(segment, gid, floor, top[1] - 1, boundary, entry, top)
        return self._replay(gid, base.fork(), rows)

    def _head_segment(
        self, object_kind: str, gid: int, base_view, base, entry: _Entry,
        lists: tuple, fills: list,
    ) -> _Segment:
        """A head segment for ``base``, replayed from it down to the
        newest usable anchor's top.

        A stale head from an older current-store base is extended when
        the records ending at or before that base are still exactly the
        ones it replayed: only the newer records are replayed, from the
        new base, and their versions appended.  GC moves an object's
        oldest undo deltas into the store in commit order, so the new
        base with them undone is the old base.  A blank base, a damaged
        head and a base that moved back rebuild.  Anchors placed since
        split it at their tops, the parts below kept as their segments."""
        content, topology, ends, boundary = lists
        segment = _SEGMENT[object_kind]
        generation = entry.generation
        sig = _base_sig(base_view)
        below = _count_below(content, topology, base.tt_start)
        prior = entry.head
        if (
            prior is not None
            and prior.segment is not None
            and prior.segment.error is None
            and prior.base_sig is not None
            and sig is not None
            and prior.base_sig[0] <= base.tt_start
            and ends[: len(prior.ends)] == prior.ends
            and _count_below(content, topology, prior.base_sig[0]) == prior.below_base
        ):
            self.read_metrics.versions_extended += 1
            built = prior.segment
            # With no content record since, the prior versions are the
            # whole list (topology resolves at serve time).
            if below[0] != prior.below_base[0]:
                rows = self._collect_records(
                    segment, gid, prior.base_sig[0], base.tt_start, boundary, entry
                )
                newer = self._replay(gid, base.fork(), rows)
                if newer.error is None:
                    newer = _Segment(built.versions + newer.versions)
                built = newer
            floor = len(prior.ends)
        else:
            rows = self._collect_records(
                segment, gid, ends[-1] if ends else -1, base.tt_start, boundary, entry
            )
            built, floor = self._replay(gid, base.fork(), rows), len(ends)
        versions, error = built.versions, built.error
        for top in ends[floor:]:
            index = bisect.bisect_right(versions, top, key=_END)
            if error is None:
                fills.append((entry, top, _Segment(versions[:index])))
            elif built.stop <= top:
                error = None  # the damage lies below this top
            versions = versions[index:]
        built = _Segment(versions, error, built.stop)
        fills.append((entry, None, _Head(sig, generation, below, ends, built)))
        return built

    def _replay(self, gid: int, view, rows: list) -> _Segment:
        """Build one segment: apply ``rows`` (newest first) to ``view``,
        freezing a version after each content record or anchor.  Stops
        at the first damaged record, keeping the versions above it."""
        versions: list[tuple[int, int, Optional[object]]] = []
        replays = 0
        error, stop = None, -1
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        with tracer.span("history.reconstruct") if traced else nullcontext():
            for tt_start, tt_end, stream, row in rows:
                try:
                    payload = self._payload(stream, gid, row)
                except IntegrityError:
                    # content first at equal ends: a topology record's
                    # own end still has its version
                    error, stop = row[2], tt_end - (stream == _TD)
                    break
                if stream[1] == history_keys.KIND_ANCHOR:
                    view = _from_anchor(view, payload, tt_start, tt_end)
                else:
                    replays += 1
                    if stream == _TD:
                        apply_topology_record(view, payload, tt_start, tt_end)
                        continue
                    apply_content_record(view, payload, tt_start, tt_end)
                versions.append(
                    (tt_start, tt_end, view.fork() if view.exists else None)
                )
        self.reconstructions += replays
        self.read_metrics.deltas_replayed += replays
        versions.reverse()  # ascending by tt_end for bisect serving
        return _Segment(versions, error, stop)

    def _serve_point(
        self, entry: _Entry, segment: bytes, gid: int, built: Optional[_Segment], t: int
    ) -> list:
        """The version containing ``t`` in the segment holding it, as a
        fork of its frozen view (none if the object did not exist at
        ``t``); raises if a damaged record kept it out of the segment.

        The frozen view was captured just after its content record, i.e.
        with only the structural changes *newer* than the version
        undone; the fork also carries the topology records ending in
        ``(t, version end]``, newest first, applied only if its
        adjacency is read."""
        if built is None:
            return []
        if built.error is not None and t < built.stop:
            built.error.raise_()
        versions = built.versions
        index = bisect.bisect_right(versions, t, key=_END)
        if index == len(versions):
            return []
        tt_start, tt_end, frozen = versions[index]
        if frozen is None or tt_start > t:
            return []  # no object existed at t, or t predates every version
        view = frozen.fork()
        if segment == history_keys.SEGMENT_VERTEX:
            # rows published since the segment was built end after it
            topo = entry.records.get(_TD)
            if topo is None:
                topo = self._records_for(*_TD, gid, entry)
            low = bisect.bisect_right(topo, t, key=_END)
            high = bisect.bisect_right(topo, tt_end, lo=low, key=_END)
            if low < high:
                pending = topo[low:high]
                for row in pending:
                    if row[2].__class__ is not dict:
                        self._payload(_TD, gid, row)
                pending.reverse()
                view._pending = pending
        return [view]

    # -- record lists ----------------------------------------------------

    def _records_for(
        self, segment: bytes, kind: bytes, gid: int, entry: Optional[_Entry] = None
    ) -> list[list]:
        """The object's records in one stream, ``[[tt_start, tt_end,
        value]]`` ascending by tt_end, from ``entry`` (default: the
        object's cache entry), read key-only from the KV store on first
        use (see :meth:`_payload`).  A cached list with rows published
        since is grown by one range read of the rows after its tail."""
        object_kind = _OBJECT_KIND[segment]
        if entry is None:
            entry = self._entries(object_kind, (gid,))[gid]
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
                tail_start, tail_end, _value = records[-1]
                start = history_keys.encode_key(
                    segment, kind, gid, tail_start, tail_end
                ) + b"\x00"
            rows = self.kv.scan_range(start, prefix + b"\xff" * 17)
            records = list(records)
        self._key_only(rows, object_kind, {gid: records})
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
        scan per stream (Expand's batched ``FetchFromKV``-VE path: a
        high-degree vertex preloads every candidate edge in one KV
        iteration instead of one seek each), into the entries a fetch
        batch ``held`` or else the cache's: the delta streams, and the
        anchors of the objects that have some (a cold read bisects them).

        Skips objects with no history or already-cached records.  When
        the record counts show the gid range is mostly other objects'
        records (sparse candidates over a dense keyspace), the range
        scan would read more than it saves, so the call backs off and
        leaves the per-object lazy loads to do the work.  Returns the
        number of objects whose delta lists it preloaded.
        """
        if held is None and self.reconstruction_cache_size <= 0:
            return 0  # nothing would keep what the scan read
        segment = _SEGMENT[object_kind]
        has_history = self.has_history
        wanted = {gid for gid in gids if has_history(object_kind, gid)}
        if held is None:
            held = self._entries(object_kind, wanted)
        preloaded = max(
            self._preload_stream((seg, history_keys.KIND_DELTA), wanted, held)
            for seg in _STREAMS[segment]
        )
        # the anchor lists a cold read bisects, over the same range
        anchors = (segment, history_keys.KIND_ANCHOR)
        counts = self._counts[anchors]
        self._preload_stream(anchors, [gid for gid in wanted if gid in counts], held)
        return preloaded

    def _preload_stream(
        self, stream: tuple[bytes, bytes], gids: set[int], held: dict[int, _Entry]
    ) -> int:
        segment, kind = stream
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
        self._key_only(self.kv.scan_range(start, stop), _OBJECT_KIND[segment], rows)
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

    def _collect_records(
        self,
        segment: bytes,
        gid: int,
        floor: int,
        boundary: int,
        topology_boundary: int,
        entry: _Entry,
        top: Optional[tuple] = None,
    ) -> list[tuple]:
        """The replay rows ``(tt_start, tt_end, stream, row)`` above
        ``floor``, newest first: content records up to ``boundary`` and
        (for vertices) topology records up to ``topology_boundary``,
        under the segment's ``top`` anchor row if given.  At equal ends
        the anchor and content rows come first: a version's frozen
        adjacency has only the structural changes after it undone."""
        collected: list[tuple] = [] if top is None else [top]
        for seg in _STREAMS[segment]:
            stream = (seg, history_keys.KIND_DELTA)
            records = self._records_for(seg, history_keys.KIND_DELTA, gid, entry)
            low = bisect.bisect_right(records, floor, key=_END)
            high = bisect.bisect_right(
                records,
                topology_boundary if seg == history_keys.SEGMENT_TOPOLOGY else boundary,
                lo=low,
                key=_END,
            )
            collected.extend((row[0], row[1], stream, row) for row in records[low:high])
        collected.sort(key=_END, reverse=True)  # stable: ties keep that order
        return collected

    @staticmethod
    def _blank_base(object_kind: str, gid: int, content: list, topology: Sequence):
        """A non-existence placeholder ending at the object's newest
        delta record (across the content and topology segments for
        vertices), or ``None`` for an object with none."""
        ends = [records[-1][1] for records in (content, topology) if records]
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
            for row in records:
                payload = row[2]
                if payload.__class__ is not dict:
                    payload = self._payload(_VD, gid, row)
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
        for row in records[low:]:
            payload = row[2]
            if payload.__class__ is not dict:
                payload = self._payload(_TD, gid, row)
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
