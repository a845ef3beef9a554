"""Public datatypes of the key-value store: write batches and stats.

Keys and values are ``bytes``.  A deletion is represented internally by
a *tombstone* (value ``None``); tombstones stay in the store's sorted
run, are dropped at the read surface and removed by compaction, exactly
like RocksDB's delete markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


class WriteBatch:
    """An ordered group of writes applied atomically by ``KVStore.write``.

    The batch preserves insertion order; a later operation on the same
    key within one batch overrides an earlier one, matching RocksDB
    semantics.  ``Migrate()`` (paper Algorithm 1, line 8
    ``putMultiples``) uses a batch so a crash can never expose half a
    garbage-collection epoch.
    """

    def __init__(self) -> None:
        self._ops: dict[bytes, Optional[bytes]] = {}

    def put(self, key: bytes, value: bytes) -> None:
        """Stage an insert/overwrite of ``key``."""
        _check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("value must be bytes")
        self._ops[bytes(key)] = bytes(value)

    def delete(self, key: bytes) -> None:
        """Stage a deletion of ``key``."""
        _check_key(key)
        self._ops[bytes(key)] = None

    def clear(self) -> None:
        """Drop all staged operations."""
        self._ops.clear()

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def items(self) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Yield staged ``(key, value-or-tombstone)`` pairs."""
        return iter(self._ops.items())


@dataclass
class StoreStats:
    """Counters exposed by the store for tests and benchmarks.

    ``flushes`` counts memtable folds into the run (one per write
    batch, or per read that found staged single-key writes);
    ``compactions`` counts compactions that dropped tombstones.
    """

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    seeks: int = 0
    range_scans: int = 0
    flushes: int = 0
    compactions: int = 0
    batch_writes: int = 0


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError("key must be bytes")
    if not key:
        raise ValueError("key must be non-empty")
