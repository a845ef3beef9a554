"""The two checksummed byte formats, and the one torn-vs-corrupt rule.

**Frame** — the unit of every write-ahead log (and of backup segments)::

    u32 length (BE) | u32 crc32(payload) (BE) | payload

:func:`scan_frames` is the only reader.  A partial header, a payload
running past the end, or a checksum failure on the *final* frame is a
**torn tail** — crash residue: the scan cuts there.  A checksum failure
with bytes after it, or a checksum-valid payload that does not decode,
is **corruption** — no crash of an append-only writer produces it: the
scan flags it, or with ``strict=True`` raises
:class:`~repro.errors.CorruptionError`.  (Damage to an interior
*length* field reads as a torn tail — inherent to length prefixes.)

**Envelope** — one self-verifying value (history records, the
replication wire)::

    0x01 | u32 crc32(body) (BE) | body
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CorruptionError

_HEADER = struct.Struct(">II")

#: Lead byte of a sealed envelope.
ENVELOPE_MAGIC = b"\x01"
_ENVELOPE_CRC = struct.Struct(">I")
_ENVELOPE_OVERHEAD = len(ENVELOPE_MAGIC) + _ENVELOPE_CRC.size


def frame(payload: bytes) -> bytes:
    """``payload`` as one checksummed, length-prefixed frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class FrameScan:
    """What one pass of :func:`scan_frames` found.

    ``payloads`` and ``extents`` cover the intact prefix only: the
    decoded payload and the byte extent ``(start, end)`` of every frame
    before the cut.  ``valid_bytes`` is the offset of the cut, the
    length a repair truncates the log back to.
    """

    payloads: list = field(default_factory=list)
    extents: list = field(default_factory=list)
    bytes_scanned: int = 0
    valid_bytes: int = 0
    torn_tail: bool = False
    corruption: bool = False

    @property
    def bytes_discarded(self) -> int:
        return self.bytes_scanned - self.valid_bytes


def scan_frames(
    data: bytes, decode: Callable[[bytes], Any], strict: bool = False
) -> FrameScan:
    """Parse back-to-back frames, classifying where and why they stop.

    ``decode`` turns each checksum-valid payload into what lands in
    ``payloads``; it raises :class:`CorruptionError` for a payload that
    does not decode, which marks that frame as corruption.
    """
    scan = FrameScan(bytes_scanned=len(data))
    size = len(data)
    pos = 0
    while pos < size:
        start = pos + _HEADER.size
        if start > size:
            scan.torn_tail = True  # torn header: crash mid-write
            break
        length, crc = _HEADER.unpack_from(data, pos)
        end = start + length
        if end > size:
            scan.torn_tail = True  # torn payload
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            if end == size:
                # Garbage final frame: expected crash residue.
                scan.torn_tail = True
                break
            # Damaged frame with bytes *after* it: an append-only
            # crash cannot produce this.
            if strict:
                raise CorruptionError(
                    f"WAL frame at offset {pos} failed its checksum but "
                    f"{size - end} bytes follow: interior corruption, "
                    "not a torn tail"
                )
            scan.corruption = True
            break
        try:
            decoded = decode(payload)
        except CorruptionError as exc:
            # Checksum passed but the payload is malformed:
            # software-level damage, never a torn write.
            if strict:
                raise CorruptionError(
                    f"WAL frame at offset {pos} has a valid checksum but "
                    f"an undecodable payload: {exc}"
                ) from exc
            scan.corruption = True
            break
        scan.payloads.append(decoded)
        scan.extents.append((pos, end))
        pos = end
        scan.valid_bytes = pos
    return scan


def seal(body: bytes) -> bytes:
    """``body`` inside the checksum envelope."""
    return ENVELOPE_MAGIC + _ENVELOPE_CRC.pack(zlib.crc32(body)) + body


def unseal(blob: bytes) -> bytes:
    """Verify an envelope and return its body."""
    if len(blob) < _ENVELOPE_OVERHEAD:
        raise CorruptionError(f"envelope truncated ({len(blob)} bytes)")
    if blob[:1] != ENVELOPE_MAGIC:
        raise CorruptionError(f"unknown envelope version {blob[0]:#x}")
    (stored,) = _ENVELOPE_CRC.unpack_from(blob, 1)
    body = blob[_ENVELOPE_OVERHEAD:]
    computed = zlib.crc32(body)
    if computed != stored:
        raise CorruptionError(
            "envelope failed its checksum "
            f"(stored {stored:#010x}, computed {computed:#010x})"
        )
    return body
