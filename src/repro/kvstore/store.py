"""The key-value store facade: LSM memtable + immutable runs.

Provides the RocksDB operations AeonG's historical store depends on:

``put/get/delete``
    point operations;
``write``
    atomic batch install (used by ``Migrate()``);
``seek / scan_prefix``
    ordered iteration from an arbitrary key, the workhorse behind
    anchor seeks and version-chain scans;
``approximate_bytes``
    byte-accurate size of everything held, for the storage benchmarks;
``flush / compact``
    LSM maintenance;
``save / load``
    whole-store persistence to a directory (sstables + manifest).

The store keeps no log of its own: it holds only migrated history,
which the engine's checkpoint plus the engine WAL
(:mod:`repro.core.durability`) rebuild after a crash.

Thread safety: all public methods take the store lock, which is enough
for the maintenance thread and query threads to interleave (the paper's
late-migration strategy writes from it while queries read).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import KVStoreError
from repro.faults import FAILPOINTS, StorageIO
from repro.kvstore.api import StoreStats, WriteBatch, _check_key
from repro.kvstore.iterator import bounded, merge_runs
from repro.kvstore.memtable import MemTable
from repro.kvstore.sstable import SSTable
from repro.observability import NULL_SPAN

_DEFAULT_MEMTABLE_LIMIT = 4 * 1024 * 1024  # bytes, like a small RocksDB

FAILPOINTS.register(
    "kv.flush", "kv.compact", "kv.save.sst", "kv.save.manifest"
)


def _maybe_span(tracer, name: str):
    """A tracer span when one is attached, else the shared no-op."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name)


class KVStore:
    """Ordered key-value store with LSM internals.

    Parameters
    ----------
    memtable_limit_bytes:
        Flush threshold for the mutable memtable.
    max_runs:
        When the number of immutable runs exceeds this, a full
        compaction merges them into one.
    seed:
        Seed for the memtable skiplists (determinism in benchmarks).
    """

    def __init__(
        self,
        memtable_limit_bytes: int = _DEFAULT_MEMTABLE_LIMIT,
        max_runs: int = 8,
        seed: Optional[int] = 0,
    ) -> None:
        if memtable_limit_bytes <= 0:
            raise ValueError("memtable_limit_bytes must be positive")
        if max_runs < 1:
            raise ValueError("max_runs must be at least 1")
        self._memtable_limit = memtable_limit_bytes
        self._max_runs = max_runs
        self._seed = seed
        self._memtable = MemTable(seed=seed)
        self._runs: list[SSTable] = []  # newest first
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
            self._memtable.put(bytes(key), bytes(value))
            self.stats.puts += 1
            self._maybe_flush()

    def delete(self, key: bytes) -> None:
        """Remove a key (writes a tombstone)."""
        _check_key(key)
        with self._lock:
            self._memtable.put(bytes(key), None)
            self.stats.deletes += 1
            self._maybe_flush()

    def write(self, batch: WriteBatch) -> None:
        """Apply a whole batch atomically.

        One sorted insertion pass over the memtable (:meth:`MemTable.put_many`) instead of a
        full-height skiplist descent per key — the write-batching half
        of the group-commit work: a GC epoch's ``commit_batch`` costs
        one pass however many records it staged.
        """
        with self._lock:
            ops = list(batch.items())
            self._memtable.put_many(ops)
            for _key, value in ops:
                if value is None:
                    self.stats.deletes += 1
                else:
                    self.stats.puts += 1
            self.stats.batch_writes += 1
            self._maybe_flush()

    # -- read path ------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the newest value for ``key`` or ``None``."""
        _check_key(key)
        with self._lock:
            self.stats.gets += 1
            found, value = self._memtable.get(bytes(key))
            if found:
                return value
            for run in self._runs:
                found, value = run.get(bytes(key))
                if found:
                    return value
            return None

    def seek(self, key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries with key >= ``key`` in ascending order.

        The iterator works over a point-in-time view of the runs taken
        at call time (writes arriving later may or may not be seen,
        matching RocksDB iterator semantics without an explicit
        snapshot pin).
        """
        with self._lock:
            self.stats.seeks += 1
            single = not self._runs
            if single:
                source = self._memtable.seek(bytes(key))
            else:
                runs = [self._memtable.seek(bytes(key))] + [
                    run.seek(bytes(key)) for run in self._runs
                ]
        if single:
            # Fast path: everything lives in the memtable, no merge
            # needed — just drop tombstones.
            for pair_key, value in source:
                if value is not None:
                    yield pair_key, value
            return
        for pair_key, value in merge_runs(runs):
            yield pair_key, value  # value is not None: tombstones dropped

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries whose key starts with ``prefix``."""
        with self._lock:
            self.stats.seeks += 1
            runs = [self._memtable.seek(bytes(prefix))] + [
                run.seek(bytes(prefix)) for run in self._runs
            ]
        yield from bounded(merge_runs(runs), bytes(prefix))

    def scan_range(
        self, start: bytes, stop: bytes
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live entries with ``start <= key < stop``.

        One seek serves the whole range: SSTable runs position both
        bounds by binary search, so a batched reader (e.g. the history
        store preloading every candidate edge of an expand) pays one
        merge instead of one seek per object.
        """
        with self._lock:
            self.stats.seeks += 1
            self.stats.range_scans += 1
            runs = [self._memtable.seek(bytes(start))] + [
                run.seek_range(bytes(start), bytes(stop))
                for run in self._runs
            ]
        for key, value in merge_runs(runs):
            if key >= stop:
                return
            yield key, value

    def scan_all(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate every live entry in key order."""
        return self.seek(b"\x00")

    def __len__(self) -> int:
        """Number of live keys (requires a full merge; test helper)."""
        return sum(1 for _ in self.scan_all())

    # -- size accounting --------------------------------------------------

    def approximate_bytes(self) -> int:
        """Bytes held across the memtable and all runs.

        Runs that have not been compacted may double-count superseded
        versions, exactly as physical space in an LSM tree does; call
        :meth:`compact` first for a post-compaction figure.
        """
        with self._lock:
            total = self._memtable.approximate_bytes
            total += sum(run.approximate_bytes for run in self._runs)
            return total

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Freeze the memtable into an immutable run."""
        with self._lock:
            if len(self._memtable) == 0:
                return
            with _maybe_span(self.tracer, "kv.flush"):
                FAILPOINTS.check("kv.flush")
                self._runs.insert(0, SSTable.from_memtable(self._memtable))
                self._memtable = MemTable(seed=self._seed)
                self.stats.flushes += 1

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes >= self._memtable_limit:
            self.flush()
            if len(self._runs) > self._max_runs:
                # Bounded maintenance: fold the oldest half of the runs
                # instead of rewriting everything (full compaction is
                # still available explicitly via compact()).
                self.compact_tail(len(self._runs) // 2 + 1)

    def compact_tail(self, count: int) -> None:
        """Merge the ``count`` *oldest* runs into one.

        Keeps write amplification bounded: newer runs are untouched.
        Tombstones in the merged tail shadow nothing older (there is
        nothing below the tail), so they are dropped — the reclamation
        a full compaction would do, limited to the cold end.
        """
        with self._lock:
            count = min(count, len(self._runs))
            if count < 2:
                return
            tail = self._runs[-count:]
            merged = list(
                merge_runs([iter(run) for run in tail], keep_tombstones=False)
            )
            self._runs = self._runs[:-count] + (
                [SSTable(merged)] if merged else []
            )
            self.stats.compactions += 1

    def compact(self) -> None:
        """Merge every run (and the memtable) into one, dropping
        tombstones and superseded versions."""
        with self._lock:
            if len(self._memtable) == 0 and len(self._runs) <= 1:
                return
            with _maybe_span(self.tracer, "kv.compact"):
                FAILPOINTS.check("kv.compact")
                runs = [iter(self._memtable)] + [
                    iter(run) for run in self._runs
                ]
                merged = list(merge_runs(runs, keep_tombstones=False))
                self._memtable = MemTable(seed=self._seed)
                self._runs = [SSTable(merged)] if merged else []
                self.stats.compactions += 1

    # -- persistence ------------------------------------------------------

    def save(
        self, directory: Path, storage_io: Optional[StorageIO] = None
    ) -> None:
        """Persist a compacted copy of the store to ``directory``.

        Every file is written atomically (temp + rename, fsync'd in
        ``fsync`` mode) and the manifest goes last, so a directory with
        a readable ``MANIFEST.json`` always names complete sstables; a
        crash mid-save leaves no manifest and the directory is ignored.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        io = storage_io if storage_io is not None else StorageIO()
        with self._lock:
            self.compact()
            names = []
            for index, run in enumerate(self._runs):
                name = f"run-{index:06d}.sst"
                io.write_file(directory / name, run.encode(), "kv.save.sst")
                names.append(name)
            manifest = {"format": 1, "runs": names}
            io.write_file(
                directory / "MANIFEST.json",
                json.dumps(manifest).encode("utf-8"),
                "kv.save.manifest",
            )

    @classmethod
    def load(cls, directory: Path, **kwargs) -> "KVStore":
        """Open a store previously written by :meth:`save`."""
        directory = Path(directory)
        manifest_path = directory / "MANIFEST.json"
        if not manifest_path.exists():
            raise KVStoreError(f"no manifest in {directory}")
        manifest = json.loads(manifest_path.read_text())
        store = cls(**kwargs)
        for name in manifest["runs"]:
            data = (directory / name).read_bytes()
            store._runs.append(SSTable.decode(data))
        return store
