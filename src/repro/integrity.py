"""Online integrity verification and self-healing for the hybrid store.

Documented in ``docs/API.md`` ("Integrity") — scrub scheduling,
quarantine semantics, the ``aeong verify`` subcommand, and the
``metrics()["integrity"]`` counters live there.

The history store is append-mostly and immutable by design, which makes
it verifiable: every record carries a payload checksum (see
:mod:`repro.core.deltas`), and the temporal layout obeys invariants
that follow from the paper's model (section 2.3) and ``Migrate()``
(Algorithm 1):

* one object's content deltas tile transaction time contiguously — no
  gaps, no overlaps, no degenerate intervals (per segment: content and
  topology are independent timelines, section 4.1);
* every anchor's ``tt_end`` equals some delta's ``tt_end`` (they are
  staged in the same epoch and pruned together), and its payload equals
  the state obtained by replaying the deltas above it from the next
  anchor (or from the current store's oldest unreclaimed version);
* consecutive anchors are at most ``u`` records apart (the anchor
  policy's cadence — a *warning* when violated, reconstruction still
  works, just slower);
* the newest reclaimed content version ends exactly where the current
  store's oldest version begins — an overlap would yield duplicate or
  contradictory versions for one instant.

:class:`Scrubber` checks all of this — incrementally with a budget per
pass (like the GC loop), or exhaustively via :meth:`Scrubber.scrub_full`
— and heals what it can: anchors are recomputed from delta replay (or
dropped; they are an optimization), corrupt deltas are rewritten from a
companion anchor's full state, and chains that cannot be rebuilt are
truncated below the damage, which is exactly the shape of a retention
prune and therefore leaves a consistent (if shorter) history.

Damage that has been found but not yet repaired is *quarantined*: the
affected transaction-time range of the object is registered in a
:class:`QuarantineSet` that ``fetch_versions`` consults, so a temporal
read can never silently return a version reconstructed through a bad
record.  Reads over a quarantined range raise
:class:`~repro.errors.IntegrityError` (feeding the history circuit
breaker) or degrade to current-only results, per the engine's
``degraded_reads`` policy.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.timeutil import MAX_TIMESTAMP
from repro.core import keys as history_keys
from repro.core.deltas import (
    OLDER_EXISTS,
    OLDER_MISSING,
    decode_record_payload,
    encode_record_payload,
)
from repro.core.reconstruct import (
    anchor_payload_from_view,
    apply_content_record,
    edge_view_from_anchor,
    vertex_view_from_anchor,
)
from repro.errors import CorruptionError, IntegrityError
from repro.graph.views import (
    EdgeView,
    VertexView,
    _copy_view,
    oldest_unreclaimed_view,
)
from repro.kvstore import WriteBatch

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

__all__ = [
    "Finding",
    "IntegrityReport",
    "QuarantineSet",
    "Scrubber",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "backward_content_diff",
]


@dataclass
class Finding:
    """One integrity violation discovered by the scrubber.

    ``code`` is machine-readable: ``checksum-mismatch``, ``bad-key``,
    ``tt-degenerate``, ``tt-overlap``, ``tt-gap``, ``anchor-orphaned``,
    ``anchor-replay-mismatch``, ``anchor-spacing`` (warning), or
    ``current-overlap``.  ``tt_start``/``tt_end`` bound the damaged
    region on the object's transaction-time axis; ``repair`` describes
    what the self-healing pass did about it (``None`` when unrepaired).
    """

    code: str
    severity: str
    object_kind: str
    gid: int
    segment: str
    kind: str
    tt_start: int
    tt_end: int
    detail: str = ""
    repair: Optional[str] = None
    key: Optional[bytes] = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "object_kind": self.object_kind,
            "gid": self.gid,
            "segment": self.segment,
            "kind": self.kind,
            "tt_start": self.tt_start,
            "tt_end": self.tt_end,
            "detail": self.detail,
            "repair": self.repair,
            "key": self.key.hex() if self.key is not None else None,
        }


@dataclass
class IntegrityReport:
    """Machine-readable outcome of one scrub pass (or offline fsck)."""

    findings: list[Finding] = field(default_factory=list)
    gids_checked: int = 0
    records_checked: int = 0
    checksums_verified: int = 0
    legacy_records: int = 0
    repairs_applied: int = 0
    repairs_failed: int = 0
    records_dropped: int = 0
    anchors_inserted: int = 0

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings do not fail a verify)."""
        return not self.errors()

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "gids_checked": self.gids_checked,
            "records_checked": self.records_checked,
            "checksums_verified": self.checksums_verified,
            "legacy_records": self.legacy_records,
            "repairs_applied": self.repairs_applied,
            "repairs_failed": self.repairs_failed,
            "records_dropped": self.records_dropped,
            "anchors_inserted": self.anchors_inserted,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "findings": [f.as_dict() for f in self.findings],
        }


class QuarantineSet:
    """Transaction-time ranges whose reconstructions are untrusted.

    Keyed by ``(object_kind, gid)``; each entry holds one or more
    ``(tt_start, tt_end)`` ranges.  ``fetch_versions`` refuses (or
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

    def as_dict(self) -> dict[str, list[tuple[int, int]]]:
        with self._lock:
            return {
                f"{kind}:{gid}": list(ranges)
                for (kind, gid), ranges in self._ranges.items()
            }


@dataclass
class _Rec:
    """One raw history record as seen by the scrubber.

    ``payload`` is ``None`` when the value failed verification — the
    *key* intervals stay trustworthy (keys live in the sstable's
    CRC-protected region), which is what lets the interval battery run
    around a corrupt record without false gap findings.
    """

    key: bytes
    s: int
    e: int
    payload: Optional[dict]


def backward_content_diff(newer, older) -> dict[str, Any]:
    """Rebuild a merged backward content record from two full states.

    Applying the returned payload to ``newer`` (per
    :func:`~repro.core.reconstruct.apply_content_record`) must
    reproduce ``older`` — the defining property of a history delta,
    used by the scrubber to rewrite a corrupt delta when both
    neighbouring states are recoverable (the older from a companion
    anchor, the newer by replaying from above).
    """
    payload: dict[str, Any] = {}
    diff: dict[str, Any] = {}
    for name in newer.properties:
        if name not in older.properties:
            diff[name] = None
    for name, value in older.properties.items():
        if newer.properties.get(name) != value:
            diff[name] = value
    if diff:
        payload["p"] = diff
    if isinstance(newer, VertexView):
        added = sorted(older.labels - newer.labels)
        removed = sorted(newer.labels - older.labels)
        if added:
            payload["la"] = added
        if removed:
            payload["lr"] = removed
    else:
        payload["et"] = older.edge_type
        payload["f"] = older.from_gid
        payload["t"] = older.to_gid
    if newer.exists and not older.exists:
        payload["x"] = OLDER_MISSING
    elif older.exists and not newer.exists:
        payload["x"] = OLDER_EXISTS
    return payload


class Scrubber:
    """Budgeted, resumable verifier and self-healer for the history store.

    One instance per engine.  ``scrub()`` checks up to ``budget``
    objects per call — dirty objects (freshly migrated, reported via
    :meth:`note_migrated`) first, then a round-robin cursor over every
    known object, resuming where the previous pass stopped.
    ``scrub_full()`` ignores the budget and checks everything (the
    offline ``aeong verify`` path).

    With ``auto_repair`` enabled (the default online), error findings
    are quarantined, repaired, and re-verified in one pass; quarantine
    is lifted only when the re-verification comes back clean.
    """

    def __init__(
        self,
        history,
        storage=None,
        anchor_interval: Optional[int] = None,
        resilience=None,
        auto_repair: bool = True,
        budget: int = 64,
    ) -> None:
        self.history = history
        self.storage = storage
        self.anchor_interval = anchor_interval
        self.resilience = resilience
        self.auto_repair = auto_repair
        self.budget = budget
        # lifetime totals (scrub passes accumulate into these)
        self.passes = 0
        self.full_passes = 0
        self.gids_checked = 0
        self.records_checked = 0
        self.findings_total = 0
        self.errors_total = 0
        self.warnings_total = 0
        self.checksum_failures = 0
        self.repairs_applied = 0
        self.repairs_failed = 0
        self.records_dropped = 0
        self.anchors_inserted = 0
        self.cycles = {"vertex": 0, "edge": 0}
        self._cursor: dict[str, int] = {"vertex": -1, "edge": -1}
        self._dirty: dict[tuple[str, int], None] = {}
        self._lock = threading.Lock()  # dirty set + cursor
        self._scrub_lock = threading.Lock()  # serializes passes

    @property
    def _kv(self):
        return self.history.kv

    # -- pass scheduling -------------------------------------------------

    def note_migrated(self, object_kind: str, gid: int) -> None:
        """Mark an object freshly touched by ``Migrate()`` for priority
        scrubbing (called from the migrator after each epoch installs)."""
        with self._lock:
            self._dirty[(object_kind, gid)] = None

    def _next_targets(self, budget: int) -> list[tuple[str, int]]:
        targets: list[tuple[str, int]] = []
        with self._lock:
            while self._dirty and len(targets) < budget:
                key = next(iter(self._dirty))
                del self._dirty[key]
                targets.append(key)
            for kind in ("vertex", "edge"):
                if len(targets) >= budget:
                    break
                known = self.history.sorted_known_gids(kind)
                if not known:
                    continue
                start = bisect.bisect_right(known, self._cursor[kind])
                take = known[start : start + budget - len(targets)]
                targets.extend((kind, g) for g in take)
                if take:
                    self._cursor[kind] = take[-1]
                if start + len(take) == len(known):
                    # the cursor wrapped: one full cycle over this kind
                    self._cursor[kind] = -1
                    self.cycles[kind] += 1
        return targets

    def scrub(self, budget: Optional[int] = None) -> IntegrityReport:
        """One incremental pass over at most ``budget`` objects."""
        with self._scrub_lock:
            report = IntegrityReport()
            for object_kind, gid in self._next_targets(budget or self.budget):
                self._scrub_object(object_kind, gid, report)
            self.passes += 1
            self._absorb(report)
            return report

    def scrub_full(self) -> IntegrityReport:
        """Exhaustive pass over every known object (offline fsck)."""
        with self._scrub_lock:
            report = IntegrityReport()
            with self._lock:
                self._dirty.clear()
            for kind in ("vertex", "edge"):
                for gid in self.history.sorted_known_gids(kind):
                    self._scrub_object(kind, gid, report)
            self.full_passes += 1
            self._absorb(report)
            return report

    def _absorb(self, report: IntegrityReport) -> None:
        self.gids_checked += report.gids_checked
        self.records_checked += report.records_checked
        self.findings_total += len(report.findings)
        self.errors_total += len(report.errors())
        self.warnings_total += len(report.warnings())
        self.checksum_failures += sum(
            1 for f in report.findings if f.code == "checksum-mismatch"
        )
        self.repairs_applied += report.repairs_applied
        self.repairs_failed += report.repairs_failed
        self.records_dropped += report.records_dropped
        self.anchors_inserted += report.anchors_inserted

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            dirty_pending = len(self._dirty)
        return {
            "passes": self.passes,
            "full_passes": self.full_passes,
            "gids_checked": self.gids_checked,
            "records_checked": self.records_checked,
            "findings": self.findings_total,
            "errors": self.errors_total,
            "warnings": self.warnings_total,
            "checksum_failures": self.checksum_failures,
            "repairs_applied": self.repairs_applied,
            "repairs_failed": self.repairs_failed,
            "records_dropped": self.records_dropped,
            "anchors_inserted": self.anchors_inserted,
            "quarantined_objects": self.history.quarantine.count(),
            "dirty_pending": dirty_pending,
            "checksums_verified": self.history.checksums_verified,
            "legacy_records": self.history.legacy_records,
            "cycles": dict(self.cycles),
        }

    # -- one object: verify, quarantine, repair, re-verify ----------------

    def _scrub_object(
        self, object_kind: str, gid: int, report: IntegrityReport
    ) -> None:
        report.gids_checked += 1
        findings = self._verify_object(object_kind, gid, report)
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        quarantine = self.history.quarantine
        repaired_clean = not errors
        if errors:
            for finding in errors:
                qs, qe = self._blast_radius(finding)
                quarantine.add(object_kind, gid, qs, qe)
            if self.auto_repair:
                self._repair_object(object_kind, gid, errors, report)
                recheck = self._verify_object(
                    object_kind, gid, IntegrityReport()
                )
                recheck_errors = [
                    f for f in recheck if f.severity == SEVERITY_ERROR
                ]
                if recheck_errors:
                    report.repairs_failed += 1
                    quarantine.clear_object(object_kind, gid)
                    for finding in recheck_errors:
                        qs, qe = self._blast_radius(finding)
                        quarantine.add(object_kind, gid, qs, qe)
                else:
                    quarantine.clear_object(object_kind, gid)
                    repaired_clean = True
        else:
            # a previously-quarantined object that now verifies clean
            # (e.g. repaired by an earlier pass) is released
            quarantine.clear_object(object_kind, gid)
        report.findings.extend(findings)
        spacing = [f for f in findings if f.code == "anchor-spacing"]
        if spacing and self.auto_repair and repaired_clean:
            inserted = self._insert_spacing_anchors(object_kind, gid)
            if inserted:
                report.anchors_inserted += inserted
                report.repairs_applied += 1
                for finding in spacing:
                    finding.repair = f"inserted {inserted} anchor(s)"

    @staticmethod
    def _blast_radius(finding: Finding) -> tuple[int, int]:
        """Quarantined TT range for one error finding.

        Reconstruction replays downward through every record, so damage
        at ``tt_end = e`` taints all versions older than ``e`` —
        quarantine ``(0, e)``.  A current-store overlap (or an
        undecodable key) undermines the whole chain: quarantine
        everything.
        """
        if finding.code in ("current-overlap", "bad-key"):
            return (0, MAX_TIMESTAMP)
        return (0, finding.tt_end)

    # -- verification ----------------------------------------------------

    @staticmethod
    def _content_segment(object_kind: str) -> bytes:
        return (
            history_keys.SEGMENT_VERTEX
            if object_kind == "vertex"
            else history_keys.SEGMENT_EDGE
        )

    def _current_record(self, object_kind: str, gid: int):
        if self.storage is None:
            return None
        if object_kind == "vertex":
            return self.storage.vertex_record(gid)
        return self.storage.edge_record(gid)

    def _load_stream(
        self,
        segment: bytes,
        kind: bytes,
        gid: int,
        object_kind: str,
        report: Optional[IntegrityReport] = None,
        findings: Optional[list[Finding]] = None,
    ) -> list[_Rec]:
        """Scan one object's records raw from the KV store.

        Bypasses the history store's caches on purpose: the scrubber
        must see what is actually stored, not what was decoded before
        the damage happened.  With ``report``/``findings`` given,
        checksum failures and undecodable keys become findings; without
        them this is the quiet loader the repair path uses.
        """
        records: list[_Rec] = []
        prefix = history_keys.object_prefix(segment, kind, gid)
        for key, value in self._kv.scan_prefix(prefix):
            try:
                decoded = history_keys.decode_key(key)
            except CorruptionError as exc:
                if findings is not None:
                    findings.append(
                        Finding(
                            "bad-key",
                            SEVERITY_ERROR,
                            object_kind,
                            gid,
                            segment.decode(),
                            kind.decode(),
                            0,
                            MAX_TIMESTAMP,
                            detail=str(exc),
                            key=key,
                        )
                    )
                continue
            if report is not None:
                report.records_checked += 1
            try:
                payload, checksummed = decode_record_payload(value)
            except IntegrityError as exc:
                if findings is not None:
                    findings.append(
                        Finding(
                            "checksum-mismatch",
                            SEVERITY_ERROR,
                            object_kind,
                            gid,
                            segment.decode(),
                            kind.decode(),
                            decoded.tt_start,
                            decoded.tt_end,
                            detail=str(exc),
                            key=key,
                        )
                    )
                records.append(_Rec(key, decoded.tt_start, decoded.tt_end, None))
                continue
            if report is not None:
                if checksummed:
                    report.checksums_verified += 1
                else:
                    report.legacy_records += 1
            records.append(_Rec(key, decoded.tt_start, decoded.tt_end, payload))
        return records

    def _verify_object(
        self, object_kind: str, gid: int, report: IntegrityReport
    ) -> list[Finding]:
        findings: list[Finding] = []
        segment = self._content_segment(object_kind)
        content = self._load_stream(
            segment, history_keys.KIND_DELTA, gid, object_kind, report, findings
        )
        anchors = self._load_stream(
            segment, history_keys.KIND_ANCHOR, gid, object_kind, report, findings
        )
        topology: list[_Rec] = []
        if object_kind == "vertex":
            topology = self._load_stream(
                history_keys.SEGMENT_TOPOLOGY,
                history_keys.KIND_DELTA,
                gid,
                object_kind,
                report,
                findings,
            )
        self._check_intervals(content, object_kind, gid, segment, findings)
        if topology:
            self._check_intervals(
                topology, object_kind, gid, history_keys.SEGMENT_TOPOLOGY, findings
            )
        # Anchors: their tt_end is always shared with a delta staged in
        # the same epoch (content-triggered anchors share the content
        # draft's end, topology-triggered ones the topology draft's),
        # and retention prunes both together — so an anchor end with no
        # matching delta end is an orphan from partial damage.
        delta_ends = {d.e for d in content} | {t.e for t in topology}
        clean_anchors: list[_Rec] = []
        for anchor in sorted(anchors, key=lambda r: (r.e, r.s)):
            if anchor.s >= anchor.e:
                findings.append(
                    Finding(
                        "tt-degenerate",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "A",
                        anchor.s,
                        anchor.e,
                        detail=f"anchor interval [{anchor.s},{anchor.e}) is empty",
                        key=anchor.key,
                    )
                )
                continue
            if anchor.e not in delta_ends:
                findings.append(
                    Finding(
                        "anchor-orphaned",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "A",
                        anchor.s,
                        anchor.e,
                        detail=(
                            f"anchor ends at {anchor.e} but no delta record "
                            "shares that end"
                        ),
                        key=anchor.key,
                    )
                )
                continue
            if anchor.payload is not None:
                clean_anchors.append(anchor)
        if self.anchor_interval:
            self._check_spacing(
                content, anchors, object_kind, gid, segment, findings
            )
        for a_old, a_new in zip(clean_anchors, clean_anchors[1:]):
            self._check_anchor_replay(
                object_kind, gid, a_old, a_new, content, segment, findings
            )
        record = self._current_record(object_kind, gid)
        if record is not None:
            base = oldest_unreclaimed_view(record)
            newest_end = max((d.e for d in content), default=None)
            if newest_end is not None and newest_end > base.tt_start:
                findings.append(
                    Finding(
                        "current-overlap",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "D",
                        base.tt_start,
                        newest_end,
                        detail=(
                            f"newest reclaimed content version ends at "
                            f"{newest_end}, after the current store's oldest "
                            f"version begins at {base.tt_start}"
                        ),
                    )
                )
            elif clean_anchors and base.exists:
                self._check_base_replay(
                    object_kind,
                    gid,
                    clean_anchors[-1],
                    base,
                    content,
                    segment,
                    findings,
                )
        return findings

    def _check_intervals(
        self,
        records: list[_Rec],
        object_kind: str,
        gid: int,
        segment: bytes,
        findings: list[Finding],
    ) -> None:
        """Delta-stream battery: per-record sanity plus pairwise tiling.

        Uses *key* intervals of every record, including ones whose
        payload failed its checksum — keys sit in checksummed sstable
        regions, so the tiling check stays meaningful around rot.
        """
        chain: list[_Rec] = []
        for rec in sorted(records, key=lambda r: (r.e, r.s)):
            if rec.s >= rec.e:
                findings.append(
                    Finding(
                        "tt-degenerate",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "D",
                        rec.s,
                        rec.e,
                        detail=f"record interval [{rec.s},{rec.e}) is empty",
                        key=rec.key,
                    )
                )
                continue
            chain.append(rec)
        for prev, rec in zip(chain, chain[1:]):
            if rec.s < prev.e:
                findings.append(
                    Finding(
                        "tt-overlap",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "D",
                        rec.s,
                        prev.e,
                        detail=(
                            f"record [{rec.s},{rec.e}) overlaps its "
                            f"predecessor [{prev.s},{prev.e})"
                        ),
                        key=rec.key,
                    )
                )
            elif rec.s > prev.e:
                findings.append(
                    Finding(
                        "tt-gap",
                        SEVERITY_ERROR,
                        object_kind,
                        gid,
                        segment.decode(),
                        "D",
                        prev.e,
                        rec.s,
                        detail=(
                            f"gap between [{prev.s},{prev.e}) and "
                            f"[{rec.s},{rec.e}): versions in between are "
                            "unreachable"
                        ),
                        key=rec.key,
                    )
                )

    def _check_spacing(
        self,
        content: list[_Rec],
        anchors: list[_Rec],
        object_kind: str,
        gid: int,
        segment: bytes,
        findings: list[Finding],
    ) -> None:
        """Anchor cadence (section 3.2): reconstruction cost is bounded
        by the number of deltas between a target version and the
        nearest anchor *above* it, which the policy keeps at ``u``.

        An anchor with start ``s`` serves every target at or above
        ``s`` via at most the deltas ending in ``(target, s]``, so the
        run of content deltas past the last anchor start must not
        exceed ``u``.  A violation is a warning — reads stay correct,
        only slower — and is healed by inserting synthetic anchors.
        """
        interval = self.anchor_interval
        marks = sorted({a.s for a in anchors if a.s < a.e})
        run = 0
        index = 0
        for delta in sorted(content, key=lambda r: (r.e, r.s)):
            while index < len(marks) and marks[index] < delta.e:
                run = 0
                index += 1
            run += 1
            if run > interval:
                findings.append(
                    Finding(
                        "anchor-spacing",
                        SEVERITY_WARNING,
                        object_kind,
                        gid,
                        segment.decode(),
                        "D",
                        delta.s,
                        delta.e,
                        detail=(
                            f"{run} content deltas since the last anchor "
                            f"(policy interval u={interval})"
                        ),
                        key=delta.key,
                    )
                )
                run = 0

    def _anchor_view(self, object_kind: str, gid: int, anchor: _Rec):
        if object_kind == "vertex":
            return vertex_view_from_anchor(gid, anchor.payload, anchor.s, anchor.e)
        return edge_view_from_anchor(gid, anchor.payload, anchor.s, anchor.e)

    def _replay_range(
        self, content: list[_Rec], target_start: int, boundary: int
    ) -> Optional[list[_Rec]]:
        """Intact content deltas tiling ``(target_start, boundary]``.

        Returns ``None`` when the range cannot be replayed: a corrupt
        payload inside it, a tiling break, or misaligned ends — those
        are (or will be) separate findings; replay-based checks and
        repairs simply stand down.
        """
        rng = [
            d
            for d in content
            if target_start < d.e <= boundary and d.s < d.e
        ]
        rng.sort(key=lambda r: (r.e, r.s))
        if any(d.payload is None for d in rng):
            return None
        if rng:
            if rng[0].s != target_start or rng[-1].e != boundary:
                return None
            for prev, rec in zip(rng, rng[1:]):
                if rec.s != prev.e:
                    return None
        elif boundary != target_start:
            return None
        return rng

    def _check_anchor_replay(
        self,
        object_kind: str,
        gid: int,
        a_old: _Rec,
        a_new: _Rec,
        content: list[_Rec],
        segment: bytes,
        findings: list[Finding],
    ) -> None:
        """Replaying the deltas between two anchors from the newer one
        must reproduce the older one's full state (Algorithm 1 wrote
        both from the same live chain, so any disagreement is damage —
        attributed to the older anchor, which replay can rebuild)."""
        rng = self._replay_range(content, a_old.s, a_new.s)
        if rng is None:
            return
        view = self._anchor_view(object_kind, gid, a_new)
        for delta in reversed(rng):
            apply_content_record(view, delta.payload, delta.s, delta.e)
        if view.exists and anchor_payload_from_view(view) == a_old.payload:
            return
        findings.append(
            Finding(
                "anchor-replay-mismatch",
                SEVERITY_ERROR,
                object_kind,
                gid,
                segment.decode(),
                "A",
                a_old.s,
                a_old.e,
                detail=(
                    f"replay from anchor [{a_new.s},{a_new.e}) does not "
                    f"reproduce anchor [{a_old.s},{a_old.e})"
                ),
                key=a_old.key,
            )
        )

    def _check_base_replay(
        self,
        object_kind: str,
        gid: int,
        anchor: _Rec,
        base,
        content: list[_Rec],
        segment: bytes,
        findings: list[Finding],
    ) -> None:
        """Same replay invariant at the store seam: stepping the current
        store's oldest unreclaimed version down through the reclaimed
        deltas must land exactly on the newest anchor."""
        rng = self._replay_range(content, anchor.s, base.tt_start)
        if rng is None:
            return
        view = _copy_view(base)
        for delta in reversed(rng):
            apply_content_record(view, delta.payload, delta.s, delta.e)
        if view.exists and anchor_payload_from_view(view) == anchor.payload:
            return
        findings.append(
            Finding(
                "anchor-replay-mismatch",
                SEVERITY_ERROR,
                object_kind,
                gid,
                segment.decode(),
                "A",
                anchor.s,
                anchor.e,
                detail=(
                    "replay from the current store's oldest version does "
                    f"not reproduce anchor [{anchor.s},{anchor.e})"
                ),
                key=anchor.key,
            )
        )

    # -- repair ----------------------------------------------------------

    def _replay_down(
        self,
        object_kind: str,
        gid: int,
        target_start: int,
        exclude_anchor_key: Optional[bytes] = None,
    ):
        """Recompute the full content state starting at ``target_start``.

        Base selection mirrors ``FetchFromKV``: the lowest intact
        anchor at or above the target (excluding the one being
        rebuilt), else the current store's oldest unreclaimed version,
        else the blank above-all-history placeholder.  Returns ``None``
        when no intact, contiguous replay path exists.
        """
        segment = self._content_segment(object_kind)
        anchors = [
            a
            for a in self._load_stream(
                segment, history_keys.KIND_ANCHOR, gid, object_kind
            )
            if a.payload is not None and a.s < a.e and a.key != exclude_anchor_key
        ]
        content = self._load_stream(
            segment, history_keys.KIND_DELTA, gid, object_kind
        )
        base_view = None
        boundary = None
        candidates = [a for a in anchors if a.s >= target_start]
        if candidates:
            nearest = min(candidates, key=lambda a: (a.s, a.e))
            base_view = self._anchor_view(object_kind, gid, nearest)
            boundary = nearest.s
        else:
            record = self._current_record(object_kind, gid)
            if record is not None:
                base = oldest_unreclaimed_view(record)
                if base.exists:
                    base_view = _copy_view(base)
                    boundary = base.tt_start
            if base_view is None:
                if not content:
                    return None
                boundary = max(d.e for d in content)
                base_view = (
                    VertexView.blank(gid, boundary, MAX_TIMESTAMP)
                    if object_kind == "vertex"
                    else EdgeView.blank(gid, boundary, MAX_TIMESTAMP)
                )
        if boundary < target_start:
            return None
        rng = self._replay_range(content, target_start, boundary)
        if rng is None:
            return None
        for delta in reversed(rng):
            apply_content_record(base_view, delta.payload, delta.s, delta.e)
        return base_view

    def _repair_object(
        self,
        object_kind: str,
        gid: int,
        errors: list[Finding],
        report: IntegrityReport,
    ) -> None:
        """Heal one object's error findings, cheapest-first.

        Anchors are redundant (full states derivable by replay), so a
        damaged anchor is recomputed or dropped.  A corrupt delta is
        rewritten when both neighbouring states are recoverable —
        otherwise the chain is truncated below the damage, which has
        the same shape as a retention prune and therefore leaves a
        consistent store.  Each action is installed immediately so
        later repairs (anchor recompute after a delta rewrite) see it.
        """
        segment = self._content_segment(object_kind)
        truncate_at: Optional[int] = None
        # keys removed by earlier repair actions in this pass: findings
        # anchored on them (e.g. a tt-gap against a record the
        # current-overlap repair dropped) are already resolved
        removed: set[bytes] = set()

        def order(finding: Finding) -> int:
            priority = {
                "bad-key": 0,
                "anchor-orphaned": 1,
                "checksum-mismatch": 2,
                "anchor-replay-mismatch": 3,
                "current-overlap": 4,
                "tt-degenerate": 5,
                "tt-overlap": 5,
                "tt-gap": 5,
            }
            return priority.get(finding.code, 6)

        for finding in sorted(errors, key=order):
            code = finding.code
            if finding.key is not None and finding.key in removed:
                finding.repair = "resolved by an earlier repair"
                continue
            if code == "bad-key":
                if finding.key is not None:
                    self._delete_keys([finding.key])
                    removed.add(finding.key)
                    report.records_dropped += 1
                    report.repairs_applied += 1
                    finding.repair = "dropped undecodable key"
            elif code == "anchor-orphaned" or (
                code == "checksum-mismatch" and finding.kind == "A"
            ):
                self._delete_keys([finding.key])
                removed.add(finding.key)
                report.records_dropped += 1
                report.repairs_applied += 1
                finding.repair = "dropped anchor (derivable by replay)"
            elif code == "checksum-mismatch":
                if finding.segment == history_keys.SEGMENT_TOPOLOGY.decode():
                    truncate_at = max(truncate_at or 0, finding.tt_end)
                    finding.repair = "truncated below damage"
                    continue
                rewritten = self._rewrite_delta(object_kind, gid, finding)
                if rewritten:
                    report.repairs_applied += 1
                    finding.repair = "rewritten from anchor + replay"
                else:
                    truncate_at = max(truncate_at or 0, finding.tt_end)
                    finding.repair = "truncated below damage"
            elif code == "anchor-replay-mismatch":
                state = self._replay_down(
                    object_kind, gid, finding.tt_start,
                    exclude_anchor_key=finding.key,
                )
                if state is not None and state.exists:
                    batch = WriteBatch()
                    batch.put(
                        finding.key,
                        encode_record_payload(anchor_payload_from_view(state)),
                    )
                    self._kv.write(batch)
                    report.repairs_applied += 1
                    finding.repair = "re-anchored from delta replay"
                else:
                    self._delete_keys([finding.key])
                    removed.add(finding.key)
                    report.records_dropped += 1
                    report.repairs_applied += 1
                    finding.repair = "dropped anchor (replay unavailable)"
            elif code in ("tt-degenerate", "tt-overlap", "tt-gap"):
                truncate_at = max(truncate_at or 0, finding.tt_end)
                finding.repair = "truncated below damage"
            elif code == "current-overlap":
                doomed = self._drop_current_overlap(object_kind, gid)
                if doomed:
                    removed.update(doomed)
                    report.records_dropped += len(doomed)
                    report.repairs_applied += 1
                    finding.repair = (
                        f"dropped {len(doomed)} record(s) overlapping the "
                        "current store"
                    )
        if truncate_at is not None:
            dropped = self._truncate_below(object_kind, gid, truncate_at)
            report.records_dropped += dropped
            if dropped:
                report.repairs_applied += 1
        self.history.invalidate_caches()
        self._refresh_known(object_kind, gid)

    def _rewrite_delta(
        self, object_kind: str, gid: int, finding: Finding
    ) -> bool:
        """Rebuild one corrupt content delta in place.

        Needs both neighbouring states: the older comes from a
        companion anchor sharing the delta's interval (the anchor *is*
        the state this delta produces), the newer by replaying down
        from the next intact base.  Returns False when either is
        unavailable (caller truncates instead).
        """
        segment = self._content_segment(object_kind)
        anchors = self._load_stream(
            segment, history_keys.KIND_ANCHOR, gid, object_kind
        )
        companion = next(
            (
                a
                for a in anchors
                if a.payload is not None
                and a.e == finding.tt_end
                and a.s == finding.tt_start
            ),
            None,
        )
        if companion is None:
            return False
        newer = self._replay_down(object_kind, gid, finding.tt_end)
        if newer is None:
            return False
        older = self._anchor_view(object_kind, gid, companion)
        payload = backward_content_diff(newer, older)
        batch = WriteBatch()
        batch.put(finding.key, encode_record_payload(payload))
        self._kv.write(batch)
        return True

    def _drop_current_overlap(self, object_kind: str, gid: int) -> list[bytes]:
        """Remove reclaimed content records that claim transaction time
        the current store still owns (keeps topology records — their
        timeline may legitimately extend past the content seam — and
        anchors whose own interval starts at or before the seam).
        Returns the dropped keys."""
        record = self._current_record(object_kind, gid)
        if record is None:
            return []
        cut = oldest_unreclaimed_view(record).tt_start
        segment = self._content_segment(object_kind)
        doomed: list[bytes] = []
        for key, _value in self._kv.scan_prefix(
            history_keys.object_prefix(segment, history_keys.KIND_DELTA, gid)
        ):
            if history_keys.decode_key(key).tt_end > cut:
                doomed.append(key)
        for key, _value in self._kv.scan_prefix(
            history_keys.object_prefix(segment, history_keys.KIND_ANCHOR, gid)
        ):
            if history_keys.decode_key(key).tt_start > cut:
                doomed.append(key)
        self._delete_keys(doomed)
        return doomed

    def _truncate_below(
        self, object_kind: str, gid: int, threshold: int
    ) -> int:
        """Drop every record of the object ending at or before
        ``threshold`` — across content, topology, deltas and anchors,
        the same cut a retention prune makes, so the survivors form a
        complete (if shorter) history."""
        segments = (
            [history_keys.SEGMENT_VERTEX, history_keys.SEGMENT_TOPOLOGY]
            if object_kind == "vertex"
            else [history_keys.SEGMENT_EDGE]
        )
        doomed: list[bytes] = []
        for segment in segments:
            for kind in (history_keys.KIND_ANCHOR, history_keys.KIND_DELTA):
                prefix = history_keys.object_prefix(segment, kind, gid)
                for key, _value in self._kv.scan_prefix(prefix):
                    if history_keys.decode_key(key).tt_end <= threshold:
                        doomed.append(key)
        self._delete_keys(doomed)
        return len(doomed)

    def _delete_keys(self, doomed: list[bytes]) -> None:
        if not doomed:
            return
        batch = WriteBatch()
        for key in doomed:
            batch.delete(key)
        self._kv.write(batch)

    def _refresh_known(self, object_kind: str, gid: int) -> None:
        """Drop the object from the known-gid set if repairs emptied it."""
        segments = (
            [history_keys.SEGMENT_VERTEX, history_keys.SEGMENT_TOPOLOGY]
            if object_kind == "vertex"
            else [history_keys.SEGMENT_EDGE]
        )
        for segment in segments:
            for kind in (history_keys.KIND_ANCHOR, history_keys.KIND_DELTA):
                prefix = history_keys.object_prefix(segment, kind, gid)
                for _key, _value in self._kv.scan_prefix(prefix):
                    return
        # Route through the store so its memoized scan list and cached
        # reconstructions for the object are dropped with the gid.
        self.history.discard_known(object_kind, gid)

    def _insert_spacing_anchors(self, object_kind: str, gid: int) -> int:
        """Heal anchor-spacing warnings by inserting synthetic anchors.

        Walks the content stream with the same cadence the policy
        enforces; wherever a run exceeds ``u``, the state at that
        delta's interval is recomputed by replay and written as a
        regular anchor — indistinguishable from one Algorithm 1 staged.
        """
        interval = self.anchor_interval
        if not interval:
            return 0
        segment = self._content_segment(object_kind)
        content = self._load_stream(
            segment, history_keys.KIND_DELTA, gid, object_kind
        )
        anchors = self._load_stream(
            segment, history_keys.KIND_ANCHOR, gid, object_kind
        )
        existing = {a.key for a in anchors}
        marks = sorted({a.s for a in anchors if a.s < a.e})
        batch = WriteBatch()
        inserted = 0
        run = 0
        index = 0
        for delta in sorted(content, key=lambda r: (r.e, r.s)):
            if delta.s >= delta.e:
                continue
            while index < len(marks) and marks[index] < delta.e:
                run = 0
                index += 1
            run += 1
            # Insert at run == u — the cadence Algorithm 1 itself keeps
            # (an anchor every u-th record), which is strictly tighter
            # than the check's run > u warning threshold.  Inserting
            # only where the warning fired would leave anchors u+1
            # apart and the next pass warning again.
            if run >= interval:
                run = 0
                state = self._replay_down(object_kind, gid, delta.s)
                if state is None or not state.exists:
                    continue
                key = history_keys.encode_key(
                    segment, history_keys.KIND_ANCHOR, gid, delta.s, delta.e
                )
                if key in existing:
                    continue
                batch.put(
                    key, encode_record_payload(anchor_payload_from_view(state))
                )
                existing.add(key)
                inserted += 1
        if inserted:
            self._kv.write(batch)
            self.history.invalidate_caches()
        return inserted
