"""Immutable sorted runs (SSTables).

A flushed memtable becomes an :class:`SSTable`: a sorted array of
entries plus a sparse index for binary search.  Tables can be encoded
to bytes (with a checksummed footer) for on-disk persistence and
decoded back, so the store survives a save/load round trip.

Encoding::

    [entry]*  sparse-index  footer

    entry  := varint(klen) key varint(flag) [varint(vlen) value]
              flag 0 = value follows, flag 1 = tombstone
    footer := u32 entry_count | u32 payload_crc32 | u32 bloom_length
              | 8-byte magic
"""

from __future__ import annotations

import bisect
import struct
import zlib
from typing import Iterator, Optional

from repro.errors import CorruptionError
from repro.faults import FAILPOINTS, MODE_CORRUPT, corrupt_bytes
from repro.kvstore.bloom import BloomFilter

_MAGIC = b"REPROSST"
_FOOTER = struct.Struct(">III8s")  # entries, payload crc, bloom length, magic

FAILPOINTS.register("kv.sstable.encode", "kv.sstable.decode")


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
    KV WAL's batch payload reuses it."""
    for key, value in entries:
        _write_varint(len(key), out)
        out += key
        if value is None:
            _write_varint(1, out)
        else:
            _write_varint(0, out)
            _write_varint(len(value), out)
            out += value


def _decode_entries(
    data: bytes, pos: int, count: int
) -> tuple[list[tuple[bytes, Optional[bytes]]], int]:
    """Parse ``count`` entries starting at ``pos``; returns them and
    the offset just past the last one."""
    entries: list[tuple[bytes, Optional[bytes]]] = []
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


class SSTable:
    """An immutable, sorted sequence of key/value-or-tombstone entries."""

    def __init__(self, entries: list[tuple[bytes, Optional[bytes]]]) -> None:
        keys = [key for key, _ in entries]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("sstable entries must be strictly sorted by key")
        self._keys = keys
        self._values = [value for _, value in entries]
        self._bytes = sum(
            len(key) + (len(value) if value is not None else 0)
            for key, value in entries
        )
        self._bloom = BloomFilter(max(1, len(keys)))
        for key in keys:
            self._bloom.add(key)

    @classmethod
    def from_memtable(cls, memtable) -> "SSTable":
        """Freeze a memtable (tombstones included) into a sorted run."""
        return cls(list(memtable))

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    @property
    def smallest_key(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    @property
    def largest_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def get(self, key: bytes) -> tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; found tombstone is ``(True, None)``."""
        if not self._bloom.might_contain(key):
            return False, None  # definitely absent: skip the search
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return True, self._values[idx]
        return False, None

    def seek(self, key: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Yield entries with key >= ``key`` in ascending order."""
        idx = bisect.bisect_left(self._keys, key)
        for i in range(idx, len(self._keys)):
            yield self._keys[i], self._values[i]

    def seek_range(
        self, start: bytes, stop: bytes
    ) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Yield entries with ``start <= key < stop``, both bounds found
        by binary search (no per-entry comparison during iteration)."""
        lo = bisect.bisect_left(self._keys, start)
        hi = bisect.bisect_left(self._keys, stop, lo=lo)
        for i in range(lo, hi):
            yield self._keys[i], self._values[i]

    def __iter__(self) -> Iterator[tuple[bytes, Optional[bytes]]]:
        return iter(zip(self._keys, self._values))

    # -- persistence ----------------------------------------------------

    def encode(self) -> bytes:
        """Serialize the table (entries + checksummed footer)."""
        FAILPOINTS.check("kv.sstable.encode")
        payload = bytearray()
        _encode_entries(zip(self._keys, self._values), payload)
        bloom = self._bloom.encode()
        footer = _FOOTER.pack(
            len(self._keys), zlib.crc32(bytes(payload)), len(bloom), _MAGIC
        )
        return bytes(payload) + bloom + footer

    @classmethod
    def decode(cls, data: bytes) -> "SSTable":
        """Parse bytes produced by :meth:`encode`, verifying integrity."""
        mode = FAILPOINTS.check("kv.sstable.decode")
        if mode == MODE_CORRUPT and data:
            # Bit rot between encode and decode.  The first byte is
            # always in a verified region (entry payload, or the bloom
            # header for an empty table), so the damage is guaranteed
            # to surface as a CorruptionError below — never silently.
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
        bloom_bytes = body[len(body) - bloom_len:]
        if zlib.crc32(payload) != crc:
            raise CorruptionError("sstable payload checksum mismatch")
        entries, pos = _decode_entries(payload, 0, count)
        if pos != len(payload):
            raise CorruptionError("trailing bytes in sstable payload")
        table = cls(entries)
        # Reuse the persisted filter (identical contents, skips the
        # rebuild hashing for large tables).
        table._bloom = BloomFilter.decode(bloom_bytes)
        return table
