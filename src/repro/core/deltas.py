"""Backward-diff record payloads and per-transaction delta merging.

``Migrate()`` converts the undo deltas of one committed transaction
into history-store records.  Deltas that touched the same object are
merged into a single key-value pair (paper section 4.2: "for the deltas
linked to a same object, we will merge those deltas in one key-value
pair"), with content changes and topology changes landing in separate
segments because they live on separate transaction-time timelines.

Payload schema (serialized with :mod:`repro.common.serde`):

Vertex/edge content record (segments ``V``/``E``)
    ``{"p": {name: older_value_or_None}, "la": [...], "lr": [...],
    "x": 0|1|2, "et"/"f"/"t": edge static info}``
    where applying the record to the *newer* state yields the older
    version: ``p`` restores properties (``None`` removes), ``la``/
    ``lr`` restore labels, ``x = 1`` marks "older version exists" (the
    transaction deleted the object), ``x = 2`` marks "older version
    does not exist" (the transaction created it).

Topology record (segment ``T``, keyed by the vertex gid)
    ``{"oa"/"ia": [[type, other, egid], ...], "or"/"ir": [...]}`` —
    out/in edge stubs to re-attach (``a``) or detach (``r``) when
    stepping backwards.

Checksum envelope
-----------------

Every record value staged by ``Migrate()`` is sealed in the checksum
envelope of :mod:`repro.common.framing`.  The sstable footer only
protects a table between encode and decode; the envelope protects the
*record* end to end — a payload bit-flipped after the table checksum
was computed (in the memtable, in a cache, by a buggy compaction)
fails verification at decode time with
:class:`~repro.errors.IntegrityError`.  The envelope's lead byte is
unambiguous because bare serde values always start with an ASCII tag
letter, so records written before the envelope existed still decode —
counted as *legacy* rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.framing import ENVELOPE_MAGIC, seal, unseal
from repro.common.serde import decode_value, encode_value
from repro.errors import CorruptionError, IntegrityError
from repro.core.keys import (
    SEGMENT_EDGE,
    SEGMENT_TOPOLOGY,
    SEGMENT_VERTEX,
)
from repro.errors import StorageError
from repro.mvcc.delta import Delta, DeltaAction

#: ``x`` payload values.
EXISTENCE_UNCHANGED = 0
OLDER_EXISTS = 1  # the transaction deleted the object
OLDER_MISSING = 2  # the transaction created the object


def encode_record_payload(payload: dict[str, Any]) -> bytes:
    """Serialize a record payload inside the checksum envelope."""
    return seal(encode_value(payload))


def decode_record_payload(data: bytes) -> tuple[dict[str, Any], bool]:
    """Decode (and verify) a record value; inverse of
    :func:`encode_record_payload`.

    Returns ``(payload, checksummed)`` — ``checksummed`` is False for
    legacy values written before the envelope existed, which still
    decode (databases saved by older versions keep opening; callers
    count them).  Raises :class:`~repro.errors.IntegrityError` on a
    checksum mismatch or an undecodable body.
    """
    if data[:1] != ENVELOPE_MAGIC:
        return _decode_body(data), False
    try:
        body = unseal(data)
    except CorruptionError as exc:
        raise IntegrityError(f"history record {exc}") from exc
    return _decode_body(body), True


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        payload = decode_value(body)
    except IntegrityError:
        raise
    except Exception as exc:
        raise IntegrityError(f"undecodable history record payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError("history record payload is not a mapping")
    return payload


@dataclass
class RecordDraft:
    """One history record before key/value encoding."""

    segment: bytes
    gid: int
    tt_start: int
    tt_end: int
    payload: dict[str, Any] = field(default_factory=dict)

    def encode_payload(self) -> bytes:
        return encode_record_payload(self.payload)


def decode_payload(data: bytes) -> dict[str, Any]:
    """Inverse of :meth:`RecordDraft.encode_payload` (envelope-aware)."""
    payload, _checksummed = decode_record_payload(data)
    return payload


def merge_transaction_deltas(
    deltas: list[Delta],
    edge_statics: Optional[dict[int, tuple[str, int, int]]] = None,
) -> list[RecordDraft]:
    """Merge one committed transaction's deltas into history records.

    ``deltas`` must come from a single transaction's undo buffer, in
    creation order.  ``edge_statics`` supplies ``(edge_type, from_gid,
    to_gid)`` per edge gid so edge records are self-describing even
    after the current-store record is reclaimed.

    Returns at most one content record per object plus one topology
    record per vertex.
    """
    content: dict[tuple[str, int], RecordDraft] = {}
    topology: dict[int, RecordDraft] = {}
    for delta in deltas:
        if delta.is_structural:
            draft = topology.get(delta.object_gid)
            if draft is None:
                draft = RecordDraft(
                    SEGMENT_TOPOLOGY,
                    delta.object_gid,
                    delta.tt_start,
                    delta.tt_end,
                )
                topology[delta.object_gid] = draft
            _merge_structural(draft.payload, delta)
        else:
            key = (delta.object_kind, delta.object_gid)
            draft = content.get(key)
            if draft is None:
                segment = (
                    SEGMENT_VERTEX
                    if delta.object_kind == "vertex"
                    else SEGMENT_EDGE
                )
                draft = RecordDraft(
                    segment, delta.object_gid, delta.tt_start, delta.tt_end
                )
                if segment == SEGMENT_EDGE and edge_statics:
                    static = edge_statics.get(delta.object_gid)
                    if static is not None:
                        draft.payload["et"] = static[0]
                        draft.payload["f"] = static[1]
                        draft.payload["t"] = static[2]
                content[key] = draft
            _merge_content(draft.payload, delta)
    return list(content.values()) + list(topology.values())


def _merge_content(payload: dict[str, Any], delta: Delta) -> None:
    action = delta.action
    if action == DeltaAction.SET_PROPERTY:
        name, old_value = delta.payload
        diff = payload.setdefault("p", {})
        # Creation order means the first delta for a property holds the
        # true pre-transaction value; keep it.
        if name not in diff:
            diff[name] = old_value
    elif action == DeltaAction.ADD_LABEL:
        _toggle(payload, "la", "lr", delta.payload)
    elif action == DeltaAction.REMOVE_LABEL:
        _toggle(payload, "lr", "la", delta.payload)
    elif action == DeltaAction.RECREATE_OBJECT:
        # Keep-first: the undo of the transaction's *earliest* operation
        # decides the pre-transaction existence (e.g. an object created
        # and deleted in one transaction never existed before it).
        payload.setdefault("x", OLDER_EXISTS)
    elif action == DeltaAction.DELETE_OBJECT:
        payload.setdefault("x", OLDER_MISSING)
    else:  # pragma: no cover - structural actions filtered by caller
        raise StorageError(f"{action} is not a content delta")


def _merge_structural(payload: dict[str, Any], delta: Delta) -> None:
    ref = list(delta.payload)  # (edge_type, other_gid, edge_gid)
    action = delta.action
    if action == DeltaAction.ADD_OUT_EDGE:
        _toggle_ref(payload, "oa", "or", ref)
    elif action == DeltaAction.REMOVE_OUT_EDGE:
        _toggle_ref(payload, "or", "oa", ref)
    elif action == DeltaAction.ADD_IN_EDGE:
        _toggle_ref(payload, "ia", "ir", ref)
    elif action == DeltaAction.REMOVE_IN_EDGE:
        _toggle_ref(payload, "ir", "ia", ref)
    else:  # pragma: no cover - content actions filtered by caller
        raise StorageError(f"{action} is not a structural delta")


def _toggle(payload: dict[str, Any], target: str, opposite: str, item) -> None:
    """Add ``item`` to ``target`` unless it cancels one in ``opposite``.

    Within one transaction an add followed by a remove of the same
    label (or edge stub) is a no-op for the merged backward diff.
    """
    other = payload.get(opposite)
    if other is not None and item in other:
        other.remove(item)
        return
    payload.setdefault(target, []).append(item)


def _toggle_ref(
    payload: dict[str, Any], target: str, opposite: str, ref: list
) -> None:
    other = payload.get(opposite)
    if other is not None and ref in other:
        other.remove(ref)
        return
    payload.setdefault(target, []).append(ref)
