"""The key-value store: one sorted run in fixed-size chunks.

Provides the RocksDB operations AeonG's historical store depends on:

``put/get/delete``
    point operations;
``write``
    atomic batch install (used by ``Migrate()``);
``seek / scan_prefix / scan_range``
    ordered iteration from an arbitrary key, the workhorse behind
    anchor seeks and version-chain scans;
``approximate_bytes``
    byte-accurate size of everything held, for the storage benchmarks;
``flush / compact``
    fold the memtable into the run; drop tombstones;
``save / load``
    whole-store persistence to a directory (one table + manifest).

The run is a list of chunks: parallel key and value lists, plus each
chunk's last key, which a bisect uses to find the chunk holding a key.
Writes land in the memtable, a dict of the writes made since the last
flush; ``flush`` inserts them in key order into their chunks, which
costs O(log n + CHUNK) per key however large the store is, and splits a
chunk that reaches ``2 * CHUNK`` keys.  A delete leaves a tombstone
(value ``None``) in the run until :meth:`KVStore.compact`.

The store keeps no log of its own: it holds only migrated history,
which the engine's checkpoint plus the engine WAL
(:mod:`repro.core.durability`) rebuild after a crash.

Thread safety: all public methods take the store lock, which is enough
for the maintenance thread and query threads to interleave (the paper's
late-migration strategy writes from it while queries read).  A read
flushes first and copies the rows it returns under the lock, so
``get``, ``scan_prefix`` and ``scan_range`` see the store as of the
call; ``seek`` copies one chunk at a time and resumes by key.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import KVStoreError
from repro.faults import FAILPOINTS, StorageIO
from repro.kvstore.api import StoreStats, WriteBatch, _check_key
from repro.kvstore.sstable import decode_table, encode_table
from repro.observability import NULL_SPAN

#: keys per chunk of the run; a chunk splits when it reaches twice this
CHUNK = 512

FAILPOINTS.register(
    "kv.flush", "kv.compact", "kv.save.sst", "kv.save.manifest"
)


def _maybe_span(tracer, name: str):
    """A tracer span when one is attached, else the shared no-op."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name)


def _size(value: Optional[bytes]) -> int:
    return len(value) if value is not None else 0


def _prefix_stop(prefix: bytes) -> Optional[bytes]:
    """The smallest key above every key starting with ``prefix``
    (``None`` when there is none: the prefix is all ``0xff``)."""
    stem = prefix.rstrip(b"\xff")
    if not stem:
        return None
    return stem[:-1] + bytes([stem[-1] + 1])


class KVStore:
    """Ordered key-value store: a memtable dict over one sorted run."""

    def __init__(self) -> None:
        self._keys: list[list[bytes]] = []  # one sorted key list per chunk
        self._values: list[list[Optional[bytes]]] = []
        self._lasts: list[bytes] = []  # each chunk's last key
        self._memtable: dict[bytes, Optional[bytes]] = {}
        self._bytes = 0  # key + value bytes in the run
        self._tombstones = 0
        self._lock = threading.RLock()
        self.stats = StoreStats()
        #: the owning engine's Tracer (or None): brackets flush and
        #: compaction with ``kv.*`` spans (see repro.observability)
        self.tracer = None

    # -- write path -----------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one key."""
        _check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("value must be bytes")
        with self._lock:
            self._memtable[bytes(key)] = bytes(value)
            self.stats.puts += 1

    def delete(self, key: bytes) -> None:
        """Remove a key (writes a tombstone)."""
        _check_key(key)
        with self._lock:
            self._memtable[bytes(key)] = None
            self.stats.deletes += 1

    def write(self, batch: WriteBatch) -> None:
        """Apply a whole batch atomically: stage it, then one flush
        folds it into the run (a GC epoch's ``commit_batch`` costs one
        sort of the batch plus one insertion per key)."""
        with self._lock:
            for key, value in batch.items():
                self._memtable[key] = value
                if value is None:
                    self.stats.deletes += 1
                else:
                    self.stats.puts += 1
            self.stats.batch_writes += 1
            self.flush()

    # -- read path ------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None``."""
        _check_key(key)
        key = bytes(key)
        with self._lock:
            self.stats.gets += 1
            if self._memtable:
                self.flush()
            chunk = bisect_left(self._lasts, key)
            if chunk == len(self._lasts):
                return None
            keys = self._keys[chunk]
            index = bisect_left(keys, key)
            return self._values[chunk][index] if keys[index] == key else None

    def seek(self, key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries with key >= ``key`` in ascending order.

        Copies one chunk at a time under the lock and resumes after the
        last key it yielded, so a long scan never holds the lock or a
        copy of the whole store; writes arriving after the call may or
        may not be seen (RocksDB iterator semantics without an explicit
        snapshot pin).
        """
        key = bytes(key)
        with self._lock:
            self.stats.seeks += 1
        find = bisect_left
        while True:
            with self._lock:
                if self._memtable:
                    self.flush()
                chunk = find(self._lasts, key)
                if chunk == len(self._lasts):
                    return
                keys = self._keys[chunk]
                start = find(keys, key)
                rows = self._live(keys[start:], self._values[chunk][start:])
                key = keys[-1]
            yield from rows
            find = bisect_right

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries whose key starts with ``prefix``."""
        prefix = bytes(prefix)
        with self._lock:
            self.stats.seeks += 1
            return iter(self._copy(prefix, _prefix_stop(prefix)))

    def scan_range(
        self, start: bytes, stop: bytes
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries with ``start <= key < stop``.

        One seek serves the whole range: both bounds are found by
        bisection, so a batched reader (e.g. the history store
        preloading every candidate edge of an expand) pays one copy
        instead of one seek per object.
        """
        with self._lock:
            self.stats.seeks += 1
            self.stats.range_scans += 1
            return iter(self._copy(bytes(start), bytes(stop)))

    def scan_all(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate every live entry in key order."""
        return self.seek(b"\x00")

    def __len__(self) -> int:
        """Number of live keys (a full scan; test helper)."""
        return sum(1 for _ in self.scan_all())

    def _copy(
        self, start: bytes, stop: Optional[bytes]
    ) -> list[tuple[bytes, bytes]]:
        """Live rows with ``start <= key < stop`` (no upper bound when
        ``stop`` is None); the caller holds the lock."""
        if self._memtable:
            self.flush()
        rows: list[tuple[bytes, bytes]] = []
        for chunk in range(bisect_left(self._lasts, start), len(self._lasts)):
            keys = self._keys[chunk]
            low = bisect_left(keys, start)
            high = len(keys) if stop is None else bisect_left(keys, stop, low)
            rows += self._live(keys[low:high], self._values[chunk][low:high])
            if high < len(keys):
                break
        return rows

    def _live(self, keys: list, values: list) -> list[tuple[bytes, bytes]]:
        if self._tombstones:
            return [(k, v) for k, v in zip(keys, values) if v is not None]
        return list(zip(keys, values))

    # -- size accounting --------------------------------------------------

    def approximate_bytes(self) -> int:
        """Key + value bytes held; a tombstone's key counts until
        :meth:`compact` drops it."""
        with self._lock:
            if self._memtable:
                self.flush()
            return self._bytes

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Fold the memtable into the run, in key order."""
        with self._lock:
            if not self._memtable:
                return
            with _maybe_span(self.tracer, "kv.flush"):
                FAILPOINTS.check("kv.flush")
                memtable, self._memtable = self._memtable, {}
                for key in sorted(memtable):
                    self._insert(key, memtable[key])
                self.stats.flushes += 1

    def _insert(self, key: bytes, value: Optional[bytes]) -> None:
        lasts = self._lasts
        if not lasts:
            self._install([(key, value)])
            return
        chunk = min(bisect_left(lasts, key), len(lasts) - 1)
        keys, values = self._keys[chunk], self._values[chunk]
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            old = values[index]
            values[index] = value
            self._bytes += _size(value) - _size(old)
            self._tombstones += (value is None) - (old is None)
            return
        keys.insert(index, key)
        values.insert(index, value)
        self._bytes += len(key) + _size(value)
        self._tombstones += value is None
        if index == len(keys) - 1:
            lasts[chunk] = key
        if len(keys) >= 2 * CHUNK:
            self._keys[chunk:chunk + 1] = [keys[:CHUNK], keys[CHUNK:]]
            self._values[chunk:chunk + 1] = [values[:CHUNK], values[CHUNK:]]
            lasts[chunk:chunk + 1] = [keys[CHUNK - 1], keys[-1]]

    def _install(self, rows: list[tuple[bytes, Optional[bytes]]]) -> None:
        """Replace the run with ``rows`` (strictly sorted by key)."""
        keys = [key for key, _ in rows]
        values = [value for _, value in rows]
        self._keys = [keys[i:i + CHUNK] for i in range(0, len(keys), CHUNK)]
        self._values = [values[i:i + CHUNK] for i in range(0, len(keys), CHUNK)]
        self._lasts = [chunk[-1] for chunk in self._keys]
        self._bytes = sum(map(len, keys)) + sum(map(_size, values))
        self._tombstones = values.count(None)

    def _rows(self) -> list[tuple[bytes, Optional[bytes]]]:
        """Every run entry, tombstones included, in key order."""
        return [
            row
            for keys, values in zip(self._keys, self._values)
            for row in zip(keys, values)
        ]

    def compact(self) -> None:
        """Drop the run's tombstones (nothing to do when it has none)."""
        with self._lock:
            if self._memtable:
                self.flush()
            if not self._tombstones:
                return
            with _maybe_span(self.tracer, "kv.compact"):
                FAILPOINTS.check("kv.compact")
                self._install([row for row in self._rows() if row[1] is not None])
                self.stats.compactions += 1

    # -- persistence ------------------------------------------------------

    def save(
        self, directory: Path, storage_io: Optional[StorageIO] = None
    ) -> None:
        """Persist a compacted copy of the store to ``directory``.

        Every file is written atomically (temp + rename, fsync'd in
        ``fsync`` mode) and the manifest goes last, so a directory with
        a readable ``MANIFEST.json`` always names complete tables; a
        crash mid-save leaves no manifest and the directory is ignored.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        io = storage_io if storage_io is not None else StorageIO()
        with self._lock:
            self.compact()
            names = []
            if self._lasts:
                name = "run-000000.sst"
                io.write_file(
                    directory / name, encode_table(self._rows()), "kv.save.sst"
                )
                names.append(name)
            manifest = {"format": 1, "runs": names}
            io.write_file(
                directory / "MANIFEST.json",
                json.dumps(manifest).encode("utf-8"),
                "kv.save.manifest",
            )

    @classmethod
    def load(cls, directory: Path) -> "KVStore":
        """Open a store previously written by :meth:`save`."""
        directory = Path(directory)
        manifest_path = directory / "MANIFEST.json"
        if not manifest_path.exists():
            raise KVStoreError(f"no manifest in {directory}")
        runs = json.loads(manifest_path.read_text())["runs"]
        if len(runs) > 1:
            raise KVStoreError(f"{directory} names {len(runs)} runs, not one")
        store = cls()
        for name in runs:
            store._install(decode_table((directory / name).read_bytes()))
        return store
