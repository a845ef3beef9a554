"""Write-ahead log for the key-value store.

Each record is an atomic batch of operations, written as one frame of
:mod:`repro.common.framing` (which owns the frame layout and the
torn-tail vs corruption rules); on recovery the log is replayed in
order and a torn final frame is discarded, like RocksDB's WAL.  This
module owns only the batch payload inside a frame::

    payload := varint(op_count) entry*    (entry: repro.kvstore.sstable)

Durability discipline: ``durability_mode="flush"`` stops at the OS
buffer (fast, survives process death but not power loss);
``"fsync"`` syncs every append to the device.  All physical I/O routes
through :class:`repro.faults.StorageIO`, so every boundary — append,
sync, truncate — is a registered failpoint site
(``<site_prefix>.append`` / ``.sync`` / ``.truncate``).
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Optional

from repro.common.framing import FrameScan, frame, scan_frames
from repro.errors import CorruptionError
from repro.faults import FAILPOINTS, SimulatedCrash, StorageIO, torn_prefix
from repro.kvstore.sstable import (
    _decode_entries,
    _encode_entries,
    _read_varint,
    _write_varint,
)

# The default site prefix; other prefixes (e.g. ``engine.wal``) are
# registered by their owners, per-instance prefixes at construction.
FAILPOINTS.register("kv.wal.append", "kv.wal.sync", "kv.wal.truncate")


def encode_batch(ops: list[tuple[bytes, Optional[bytes]]]) -> bytes:
    payload = bytearray()
    _write_varint(len(ops), payload)
    _encode_entries(ops, payload)
    return bytes(payload)


def decode_batch(payload: bytes) -> list[tuple[bytes, Optional[bytes]]]:
    count, pos = _read_varint(payload, 0)
    ops, pos = _decode_entries(payload, pos, count)
    if pos != len(payload):
        raise CorruptionError("trailing bytes in WAL record")
    return ops


class WriteAheadLog:
    """Append-only durability log.

    May be backed by a real file (``path``) or an in-memory buffer
    (``path=None``), the latter used by tests exercising recovery logic
    without touching the filesystem.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        durability_mode: str = "flush",
        site_prefix: str = "kv.wal",
        storage_io: Optional[StorageIO] = None,
    ) -> None:
        self._path = Path(path) if path is not None else None
        self._io = (
            storage_io
            if storage_io is not None
            else StorageIO(durability_mode)
        )
        self._site_append = f"{site_prefix}.append"
        self._site_sync = f"{site_prefix}.sync"
        self._site_truncate = f"{site_prefix}.truncate"
        FAILPOINTS.register(
            self._site_append, self._site_sync, self._site_truncate
        )
        self.last_scan: Optional[FrameScan] = None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # A stale .tmp is the residue of a crash mid-truncate; the
            # rename never happened, so the original file is authoritative.
            tmp = self._tmp_path()
            if tmp.exists():
                tmp.unlink()
            self._file: BinaryIO = open(self._path, "ab")
            self._synced = self._file.tell()
        else:
            self._file = io.BytesIO()
            self._synced = 0
        self._closed = False

    @property
    def durability_mode(self) -> str:
        return self._io.durability_mode

    @property
    def fsync_enabled(self) -> bool:
        return self._io.fsync_enabled

    def _tmp_path(self) -> Path:
        return self._path.with_name(self._path.name + ".tmp")

    def append(
        self, ops: list[tuple[bytes, Optional[bytes]]], sync: bool = True
    ) -> None:
        """Durably append one atomic batch.

        ``sync=False`` skips the per-append fsync so a group-commit
        caller can append once and sync once for a whole batch of
        logical records (the caller must invoke :meth:`sync` before
        acknowledging anything from the batch).
        """
        record = frame(encode_batch(ops))
        self._io.append(self._file, record, self._site_append)
        if sync and self._io.fsync_enabled:
            self._synced = self._io.sync(
                self._file, self._site_sync, self._synced
            )

    def sync(self) -> None:
        """Force everything appended so far to the device."""
        self._synced = self._io.sync(self._file, self._site_sync, self._synced)

    # -- failure-mode helpers (group-commit failpoint sites) -------------

    def append_torn(
        self, ops: list[tuple[bytes, Optional[bytes]]], site: str
    ) -> None:
        """A ``torn-write`` at batch granularity: half of the *whole
        batch frame* reaches the file, then the process "dies".

        Mirrors :meth:`repro.faults.StorageIO.append`'s torn-write
        behaviour but is triggered by a caller-level failpoint site
        (``wal.group.append``), so tests can tear exactly the combined
        group-commit frame rather than an individual append.
        """
        self._file.write(torn_prefix(frame(encode_batch(ops))))
        self._file.flush()
        raise SimulatedCrash(site)

    def simulate_partial_fsync(self, site: str) -> None:
        """A ``partial-fsync`` at batch granularity: the unsynced tail
        is half-lost (the "dropped OS buffer"), then the process
        "dies".  Triggered by a caller-level site (``wal.group.fsync``)
        against bytes appended with ``sync=False``."""
        self._file.flush()
        size = self._file.tell()
        keep = self._synced + (size - self._synced) // 2
        self._file.truncate(keep)
        raise SimulatedCrash(site)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._path is not None:
            self._file.close()

    def truncate(self) -> None:
        """Discard all records (called after a successful checkpoint)."""
        self.truncate_to(0)

    def truncate_to(self, keep_bytes: int) -> None:
        """Crash-safely cut the log back to its first ``keep_bytes``."""
        self._rewrite(0, keep_bytes)

    def drop_prefix(self, drop_bytes: int) -> None:
        """Crash-safely discard the log's first ``drop_bytes``.

        The complement of :meth:`truncate_to`: keeps the *suffix*.
        Used by checkpoint truncation under replication, where records
        past the slowest replica's acknowledged watermark must survive
        even though the checkpoint has absorbed everything.
        """
        if drop_bytes > 0:
            self._rewrite(drop_bytes, None)

    def _rewrite(self, start: int, stop: Optional[int]) -> None:
        """Replace the log with its own bytes ``[start:stop]``.

        Write-new + atomic rename: the kept bytes are written to a temp
        file and renamed over the log, so a crash at any instant leaves
        either the full old log or the exact new one — never a
        half-valid file (the failure mode of truncating the live file
        in place).  The rename is the ``<prefix>.truncate`` site.
        """
        # truncate() keeps nothing: skip reading the whole log.
        kept = self._snapshot_bytes()[start:stop] if stop != 0 else b""
        if self._path is None:
            self._io.registry.check(self._site_truncate)
            self._file = io.BytesIO()
            self._file.write(kept)
            self._synced = len(kept)
            return
        tmp = self._tmp_path()
        with open(tmp, "wb") as handle:
            handle.write(kept)
            handle.flush()
            if self._io.fsync_enabled:
                os.fsync(handle.fileno())
        # The dangerous window: new file durable, old still in place.
        # A crash here leaves the original log plus a stray .tmp that
        # the next open discards — recovery sees the full old log.
        self._io.rename(tmp, self._path, self._site_truncate)
        self._file.close()
        self._file = open(self._path, "ab")
        self._synced = self._file.tell()

    # -- recovery -------------------------------------------------------

    def scan(
        self,
        strict: bool = False,
        decode: Callable[[bytes], Any] = decode_batch,
    ) -> FrameScan:
        """Parse the whole log, classifying any damaged tail.

        ``payloads`` holds one ``decode``-d batch per intact frame (a
        log whose frames carry another payload, like the engine WAL,
        passes its own decoder).  With ``strict=True``, corruption
        raises :class:`CorruptionError` instead of being flagged —
        callers that would rather refuse to open than silently drop
        interior records.
        """
        self.last_scan = scan_frames(self._snapshot_bytes(), decode, strict)
        return self.last_scan

    def replay(
        self, strict: bool = False
    ) -> Iterator[list[tuple[bytes, Optional[bytes]]]]:
        """Yield batches in append order; stop at the first torn record."""
        yield from self.scan(strict=strict).payloads

    def repair(self) -> bool:
        """Crash-safely drop a damaged tail found by the last scan.

        Returns True when bytes were discarded.  Without this, appends
        after recovery would land *behind* unreadable garbage and be
        lost on the next replay.
        """
        scan = self.last_scan if self.last_scan is not None else self.scan()
        if scan.bytes_discarded == 0:
            return False
        self.truncate_to(scan.valid_bytes)
        return True

    def _snapshot_bytes(self) -> bytes:
        if self._path is not None:
            self._file.flush()
            return self._path.read_bytes()
        return self._file.getvalue()
