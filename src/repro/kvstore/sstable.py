"""The table codec: a sorted run as checksummed bytes.

``KVStore.save`` writes its run through :func:`encode_table` and
``KVStore.load`` reads it back through :func:`decode_table`; the engine
WAL's batch payload reuses the entry codec.

Encoding::

    [entry]*  filter-block  footer

    entry  := varint(klen) key varint(flag) [varint(vlen) value]
              flag 0 = value follows, flag 1 = tombstone
    footer := u32 entry_count | u32 payload_crc32 | u32 bloom_length
              | 8-byte magic

The writer leaves the filter block empty (``bloom_length`` 0); the
reader skips the per-table Bloom filter that older writers put there.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from repro.errors import CorruptionError
from repro.faults import FAILPOINTS, MODE_CORRUPT, corrupt_bytes

_MAGIC = b"REPROSST"
_FOOTER = struct.Struct(">III8s")  # entries, payload crc, bloom length, magic

FAILPOINTS.register("kv.sstable.encode", "kv.sstable.decode")

Entries = list[tuple[bytes, Optional[bytes]]]


def _write_varint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptionError("truncated varint in sstable")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_entries(entries, out: bytearray) -> None:
    """Append ``entry`` encodings (the layout above) to ``out``; the
    engine WAL's batch payload reuses it."""
    for key, value in entries:
        _write_varint(len(key), out)
        out += key
        if value is None:
            _write_varint(1, out)
        else:
            _write_varint(0, out)
            _write_varint(len(value), out)
            out += value


def _decode_entries(data: bytes, pos: int, count: int) -> tuple[Entries, int]:
    """Parse ``count`` entries starting at ``pos``; returns them and
    the offset just past the last one."""
    entries: Entries = []
    for _ in range(count):
        klen, pos = _read_varint(data, pos)
        key = data[pos:pos + klen]
        pos += klen
        flag, pos = _read_varint(data, pos)
        if flag == 1:
            entries.append((key, None))
        else:
            vlen, pos = _read_varint(data, pos)
            entries.append((key, data[pos:pos + vlen]))
            pos += vlen
    return entries, pos


def _strictly_sorted(entries: Entries) -> bool:
    return all(entries[i][0] < entries[i + 1][0] for i in range(len(entries) - 1))


def encode_table(entries: Entries) -> bytes:
    """Serialize strictly key-sorted ``(key, value-or-tombstone)``
    pairs (entries + checksummed footer)."""
    FAILPOINTS.check("kv.sstable.encode")
    if not _strictly_sorted(entries):
        raise ValueError("sstable entries must be strictly sorted by key")
    payload = bytearray()
    _encode_entries(entries, payload)
    footer = _FOOTER.pack(len(entries), zlib.crc32(payload), 0, _MAGIC)
    return bytes(payload) + footer


def decode_table(data: bytes) -> Entries:
    """Parse bytes produced by :func:`encode_table` (or by a writer
    that stored a filter block), verifying integrity."""
    mode = FAILPOINTS.check("kv.sstable.decode")
    if mode == MODE_CORRUPT and data:
        # Bit rot between encode and decode.  The first byte is the
        # checksummed payload's, or an empty table's entry count, so
        # the damage surfaces as a CorruptionError below — never
        # silently.
        data = corrupt_bytes(data[:1]) + data[1:]
    if len(data) < _FOOTER.size:
        raise CorruptionError("sstable shorter than footer")
    count, crc, bloom_len, magic = _FOOTER.unpack(data[-_FOOTER.size:])
    if magic != _MAGIC:
        raise CorruptionError("bad sstable magic")
    body = data[:-_FOOTER.size]
    if bloom_len > len(body):
        raise CorruptionError("sstable bloom length out of range")
    payload = body[: len(body) - bloom_len]
    if zlib.crc32(payload) != crc:
        raise CorruptionError("sstable payload checksum mismatch")
    entries, pos = _decode_entries(payload, 0, count)
    if pos != len(payload):
        raise CorruptionError("trailing bytes in sstable payload")
    if not _strictly_sorted(entries):
        raise CorruptionError("sstable entries not strictly sorted")
    return entries
