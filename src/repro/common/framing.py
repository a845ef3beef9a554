"""The two checksummed byte formats, and the one torn-vs-corrupt rule.

**Frame** — the unit of every write-ahead log (and of backup segments)::

    u32 length (BE) | u32 crc32(payload) (BE) | payload

:func:`read_frames` is the only reader: a generator that yields one
decoded frame at a time and keeps none.  A partial header, a
payload running past the end, or a checksum failure on the *final*
frame is a **torn tail** — crash residue: the scan cuts there.  A
checksum failure with bytes after it, or a checksum-valid payload that
does not decode, is **corruption** — no crash of an append-only writer
produces it: the scan flags it, or with ``strict=True`` raises
:class:`~repro.errors.CorruptionError`.  (Damage to an interior
*length* field reads as a torn tail — inherent to length prefixes.)

**Envelope** — one self-verifying value (history records, the
replication wire)::

    0x01 | u32 crc32(body) (BE) | body
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterator, Optional

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
    """What a pass of :func:`read_frames` has found so far.

    ``valid_bytes`` is the end offset of the last intact frame read:
    once the pass is over, the offset of the cut, the length a repair
    truncates the log back to.
    """

    bytes_scanned: int = 0
    valid_bytes: int = 0
    torn_tail: bool = False
    corruption: bool = False

    @property
    def bytes_discarded(self) -> int:
        return self.bytes_scanned - self.valid_bytes


def read_frames(
    stream: BinaryIO,
    size: int,
    decode: Callable[[bytes], Any],
    strict: bool = False,
    scan: Optional[FrameScan] = None,
) -> Iterator[Any]:
    """Yield the decoded payload of each intact frame among the first
    ``size`` bytes of ``stream``, keeping none, and classify where and
    why the frames stop.

    ``decode`` turns each checksum-valid payload into what is yielded;
    it raises :class:`CorruptionError` for a payload that does not
    decode, which marks that frame as corruption.  ``scan`` (if given)
    is filled as the pass goes: ``valid_bytes`` covers the frame just
    yielded, and the flags are set once the pass ends.
    """
    if scan is None:
        scan = FrameScan()
    scan.bytes_scanned = size
    pos = 0
    while pos < size:
        start = pos + _HEADER.size
        if start > size:
            scan.torn_tail = True  # torn header: crash mid-write
            return
        length, crc = _HEADER.unpack(stream.read(_HEADER.size))
        end = start + length
        if end > size:
            scan.torn_tail = True  # torn payload
            return
        payload = stream.read(length)
        if zlib.crc32(payload) != crc:
            if end == size:
                # Garbage final frame: expected crash residue.
                scan.torn_tail = True
                return
            # Damaged frame with bytes *after* it: an append-only
            # crash cannot produce this.
            if strict:
                raise CorruptionError(
                    f"WAL frame at offset {pos} failed its checksum but "
                    f"{size - end} bytes follow: interior corruption, "
                    "not a torn tail"
                )
            scan.corruption = True
            return
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
            return
        pos = scan.valid_bytes = end
        yield decoded


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
