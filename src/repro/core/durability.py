"""Engine-level durability: a logical write-ahead log + checkpoints.

Memgraph persists with periodic snapshots plus a WAL of logical
operations; this module is the equivalent for the embedded engine.
When an :class:`~repro.core.engine.AeonG` is constructed with
``durability_dir``, every committed transaction appends one WAL record
containing its commit timestamp and its logical operations.  Recovery
(:meth:`AeonG.open`) loads the newest checkpoint (if any) and replays
the WAL — *forcing the original commit timestamps and gids*, so the
recovered engine's transaction-time history is bit-for-bit the
original, including versions that were migrated to the history store.
Replay streams the log one frame at a time and runs a GC epoch every
``gc_interval_transactions`` replayed commits, as live commits do, so
recovery holds one frame plus one GC interval of transactions.

:func:`install_checkpoint` snapshots the engine (see
:mod:`repro.core.persistence`) into ``checkpoint/``: ``checkpoint()``
installs one and truncates the WAL, bounding recovery time, and
``save(dir)`` installs one into a directory with no live WAL, so
:meth:`AeonG.open` reads every engine directory.

Crash-consistency contract
--------------------------

- A checkpoint is installed with write-temp → fsync → atomic-rename;
  the previous checkpoint is retired to ``checkpoint.old`` and only
  removed once the new one is durable.  Recovery falls back to
  ``checkpoint.old`` when the primary is missing or damaged.
- The checkpoint's ``next_timestamp`` is the replay fence: WAL records
  with ``commit_ts < next_timestamp`` are already inside the snapshot
  and are skipped, so the checkpoint-then-truncate pair needs no
  atomicity — a crash between the two double-logs but never
  double-applies.
- Replay classifies a torn *tail* (expected crash residue, silently
  discarded and repaired) separately from interior *corruption* (a
  damaged record followed by valid ones), which is surfaced in the
  :class:`RecoveryReport` and, with ``strict_recovery=True``, raised
  as :class:`~repro.errors.CorruptionError`.

Engine-WAL record
-----------------

This module owns the record; :mod:`repro.common.framing` owns the
frame around it.  A frame's payload is a batch (:func:`encode_batch`)::

    payload := varint(op_count) entry*    (entry: repro.kvstore.sstable)

holding one ``b"txn"`` op per committed transaction, whose value is the
serde record::

    {"ts": commit_ts, "ops": [[opcode, ...args], ...]}

opcodes: ``cv`` create vertex, ``ce`` create edge, ``svp``/``sep`` set
vertex/edge property, ``al``/``rl`` add/remove label, ``dv``/``de``
delete vertex/edge, ``vt`` set valid time.  Replication ships the same
record body, sealed.
"""

from __future__ import annotations

import io
import os
import shutil
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.common.framing import FrameScan, frame, read_frames
from repro.common.serde import decode_value, encode_value
from repro.errors import CorruptionError, StorageError
from repro.core.persistence import load_engine, save_engine
from repro.faults import FAILPOINTS, StorageIO
from repro.kvstore.sstable import (
    _decode_entries,
    _encode_entries,
    _read_varint,
    _write_varint,
)

WAL_FILENAME = "engine.wal"
CHECKPOINT_DIRNAME = "checkpoint"
CHECKPOINT_TMP_DIRNAME = "checkpoint.tmp"
CHECKPOINT_OLD_DIRNAME = "checkpoint.old"

FAILPOINTS.register(
    "engine.wal.append",
    "engine.wal.sync",
    "engine.wal.truncate",
    "checkpoint.retire",
    "checkpoint.install",
    "checkpoint.cleanup",
)

#: The batch key every engine-WAL record is stored under.
_TXN_KEY = b"txn"

Record = tuple[int, list[tuple]]


def encode_batch(ops: list[tuple[bytes, Optional[bytes]]]) -> bytes:
    """A frame payload: ``varint(op_count)`` then the ops as sstable
    entries (a ``None`` value is a tombstone)."""
    payload = bytearray()
    _write_varint(len(ops), payload)
    _encode_entries(ops, payload)
    return bytes(payload)


def decode_batch(payload: bytes) -> list[tuple[bytes, Optional[bytes]]]:
    """Inverse of :func:`encode_batch`."""
    count, pos = _read_varint(payload, 0)
    ops, pos = _decode_entries(payload, pos, count)
    if pos != len(payload):
        raise CorruptionError("trailing bytes in WAL record")
    return ops


def encode_txn(commit_ts: int, ops: list) -> bytes:
    """One committed transaction as an engine-WAL record body."""
    return encode_value({"ts": commit_ts, "ops": [list(op) for op in ops]})


def decode_txn(body: bytes) -> Record:
    """Inverse of :func:`encode_txn`: ``(commit_ts, ops)`` with each op
    a tuple.  Raises :class:`CorruptionError` when ``body`` does not
    decode to a record."""
    try:
        record = decode_value(body)
        return record["ts"], [tuple(op) for op in record["ops"]]
    except (CorruptionError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"undecodable engine-WAL record: {exc}") from exc


def batch_frame(records: list[Record]) -> bytes:
    """``[(commit_ts, ops), ...]`` as one frame — byte-for-byte what
    :meth:`EngineWal.append_batch` writes for them."""
    return frame(
        encode_batch(
            [(_TXN_KEY, encode_txn(ts, ops)) for ts, ops in records]
        )
    )


def txn_frame(commit_ts: int, ops: list) -> bytes:
    """One record as a standalone frame — byte-for-byte what
    :meth:`EngineWal.append` writes for it."""
    return batch_frame([(commit_ts, ops)])


def _decode_frame(payload: bytes) -> list[Record]:
    return [
        decode_txn(body)
        for _key, body in decode_batch(payload)
        if body is not None
    ]


def parse_wal(
    data: bytes, strict: bool = False
) -> tuple[list[Record], FrameScan]:
    """Every record of raw engine-WAL bytes, in log order, and the
    :class:`~repro.common.framing.FrameScan` of the pass.

    A frame whose checksum passes but whose records do not decode is
    corruption, exactly like interior checksum damage.
    """
    scan = FrameScan()
    frames = read_frames(io.BytesIO(data), len(data), _decode_frame, strict, scan)
    return [record for records in frames for record in records], scan


@dataclass
class RecoveryReport:
    """What :meth:`AeonG.open` found and did.

    Surfaced as ``engine.last_recovery`` and under ``metrics()``'s
    ``"recovery"`` key, so operators can tell a clean start from a
    post-crash one — and a routine torn tail from real damage.
    """

    checkpoint_loaded: bool = False
    #: True when the primary checkpoint was unusable and the retired
    #: ``checkpoint.old`` was recovered from instead.
    checkpoint_fallback: bool = False
    transactions_replayed: int = 0
    #: WAL records older than the checkpoint fence (already inside the
    #: snapshot; skipped to avoid double-apply).
    transactions_skipped: int = 0
    bytes_scanned: int = 0
    bytes_discarded: int = 0
    torn_tail: bool = False
    corruption_detected: bool = False
    #: True when a damaged tail was crash-safely truncated away.
    wal_repaired: bool = False

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class EngineWal:
    """Append-only log of committed transactions: the ``engine.wal``
    file under ``directory``.

    One physical WAL frame holds one *or more* logical transaction
    records: the commit path (:meth:`append_batch`, called by a
    group-commit leader) packs every commit pending at the time into
    one frame — one append, one fsync, shared by every commit in the
    batch; an uncontended commit gets a frame of its own.  Because a
    frame is the unit of the framing checksum, a crash mid-batch tears
    the *whole* frame, and none of its commits was acknowledged (acks
    wait for the shared fsync) — recovery discards the torn frame and
    lands exactly on the acked prefix.

    Every physical I/O goes through :class:`~repro.faults.StorageIO` at
    the ``engine.wal.append`` / ``engine.wal.sync`` /
    ``engine.wal.truncate`` failpoint sites.  ``durability_mode="flush"``
    stops at the OS buffer; ``"fsync"`` syncs every batch to the device.

    Thread-safe: group-commit leaders, checkpoint truncation, and
    catch-up scans serialize on an internal lock.
    """

    def __init__(
        self, directory: Path, durability_mode: str = "flush"
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._path = self.directory / WAL_FILENAME
        self._tmp = self.directory / (WAL_FILENAME + ".tmp")
        self._io = StorageIO(durability_mode)
        # A stale .tmp is the residue of a crash mid-truncate; the
        # rename never happened, so the log itself is authoritative.
        self._tmp.unlink(missing_ok=True)
        self._file = open(self._path, "ab")
        #: bytes known durable: where a partial fsync cuts back to
        self._synced = self._file.tell()
        self._lock = threading.RLock()
        self.records_appended = 0
        #: group-commit accounting: physical frames written / fsyncs
        #: issued (telemetry for the ``write_path`` metrics section)
        self.frames_appended = 0
        self.fsyncs = 0

    @property
    def durability_mode(self) -> str:
        return self._io.durability_mode

    def append(self, commit_ts: int, journal: list[tuple]) -> None:
        """Durably record one committed transaction."""
        self.append_batch([(commit_ts, journal)])

    def append_batch(self, records: list[tuple[int, list[tuple]]]) -> None:
        """Durably record a whole group-commit batch in one frame.

        ``records`` is ``[(commit_ts, ops), ...]`` in commit-timestamp
        order.  The batch is encoded into a single checksummed WAL
        frame, appended once at ``engine.wal.append``, and (in
        ``"fsync"`` mode) synced once at ``engine.wal.sync`` — the
        group-commit amortization.  Each site therefore fires once per
        batch: a torn write tears the whole batch frame, a partial
        fsync half-loses it.
        """
        if not records:
            return
        data = batch_frame(records)
        with self._lock:
            self._io.append(self._file, data, "engine.wal.append")
            self.frames_appended += 1
            if self._io.fsync_enabled:
                self._synced = self._io.sync(
                    self._file, "engine.wal.sync", self._synced
                )
                self.fsyncs += 1
            self.records_appended += len(records)

    def _scan_frames(
        self, strict: bool = False, scan: Optional[FrameScan] = None
    ) -> Iterator[list[Record]]:
        """Stream the live log through :func:`read_frames`: each intact
        frame's records, one frame at a time, classified as
        :func:`parse_wal` classifies them, with ``scan`` (if given)
        filled as the pass goes.

        The pass reads the bytes flushed when it starts, from its own
        handle, without the log's lock: appends after that are not
        seen, and a truncation renames a new file over the log, which
        leaves the open handle reading the old one.
        """
        with self._lock:
            self._file.flush()
            handle = open(self._path, "rb")
            size = os.fstat(handle.fileno()).st_size
        with handle:
            yield from read_frames(handle, size, _decode_frame, strict, scan)

    def scan(self, strict: bool = False) -> tuple[list[Record], FrameScan]:
        """The whole log as ``[(commit_ts, ops), ...]`` plus the
        :class:`~repro.common.framing.FrameScan` of the pass.

        ``strict=True`` raises :class:`CorruptionError` on corruption;
        otherwise the records stop there and the scan is flagged.
        """
        scan = FrameScan()
        frames = self._scan_frames(strict, scan)
        return [record for records in frames for record in records], scan

    def repair(self, scan: FrameScan) -> bool:
        """Crash-safely cut the log back to ``scan``'s intact prefix.

        Returns True when a damaged tail was discarded.  Without this,
        appends after recovery would land *behind* unreadable garbage
        and be lost on the next replay.
        """
        if scan.bytes_discarded == 0:
            return False
        with self._lock:
            self._rewrite(0, scan.valid_bytes)
        return True

    def records_from(
        self, from_ts: int, limit: Optional[int] = None
    ) -> list[Record]:
        """At most ``limit`` records with ``commit_ts >= from_ts``,
        oldest first — the replication stream's catch-up path for
        ranges that have left the primary's in-memory ring (e.g. after
        a primary restart).  Decoding stops at the ``limit``-th."""
        out: list[Record] = []
        for records in self._scan_frames():
            out.extend(record for record in records if record[0] >= from_ts)
            if limit is not None and len(out) >= limit:
                return out[:limit]
        return out

    def truncate(self) -> None:
        """Discard every record (called after a successful checkpoint)."""
        with self._lock:
            self._rewrite(0, 0)

    def truncate_keep_from(self, retain_ts: int) -> tuple[int, int]:
        """Drop every record with ``commit_ts < retain_ts``; keep the rest.

        The replication-fenced half of checkpoint truncation: a plain
        :meth:`truncate` would discard records a registered replica has
        not acknowledged yet.  Truncation is *frame-aligned*: a
        group-commit frame is dropped only when every record in it is
        below ``retain_ts`` (keeping an already-acknowledged record is
        harmless — replay and replication both dedupe below their
        fences; dropping an unacknowledged one would strand the
        replica).  Returns ``(records_dropped, highest_dropped_ts)`` —
        the latter is the new truncation fence.
        """
        with self._lock:
            scan = FrameScan()
            drop_bytes = 0
            dropped = 0
            fence = 0
            # Stops decoding at the first frame it keeps.
            for records in self._scan_frames(scan=scan):
                if any(ts >= retain_ts for ts, _ops in records):
                    break
                drop_bytes = scan.valid_bytes
                dropped += len(records)
                fence = max([fence] + [ts for ts, _ops in records])
            if drop_bytes:
                self._rewrite(drop_bytes, None)
            return dropped, fence

    def _rewrite(self, start: int, stop: Optional[int]) -> None:
        """Replace the log with its own bytes ``[start:stop]``.

        Write-new + atomic rename: the kept bytes are written to a temp
        file and renamed over the log, so a crash at any instant leaves
        either the full old log or the exact new one — never a
        half-valid file (the failure mode of truncating the live file
        in place).  The rename is the ``engine.wal.truncate`` site.
        """
        self._file.flush()
        # truncate() keeps nothing: skip reading the whole log.
        kept = self._path.read_bytes()[start:stop] if stop != 0 else b""
        with open(self._tmp, "wb") as handle:
            handle.write(kept)
            handle.flush()
            if self._io.fsync_enabled:
                os.fsync(handle.fileno())
        # The dangerous window: new file durable, old still in place.
        # A crash here leaves the original log plus a stray .tmp that
        # the next open discards — recovery sees the full old log.
        self._io.rename(self._tmp, self._path, "engine.wal.truncate")
        self._file.close()
        self._file = open(self._path, "ab")
        self._synced = self._file.tell()

    def close(self) -> None:
        with self._lock:
            self._file.close()


def replay_into(
    engine, wal: EngineWal, min_commit_ts: int = 0, strict: bool = False
) -> tuple[int, int, FrameScan, Optional[int]]:
    """Re-execute WAL transactions against ``engine``.

    Records with ``commit_ts < min_commit_ts`` are skipped: they are
    already materialised in the checkpoint the engine was loaded from
    (the crash window between checkpoint install and WAL truncation
    leaves them in the log).  Returns ``(replayed, skipped, scan,
    oldest)``: ``scan`` holds the pass's counters and cut, ``oldest``
    the first record's commit timestamp (None for an empty log).
    The engine must not journal during replay (the caller suspends
    logging), and replay forces the recorded gids and commit
    timestamps.

    The log streams: each frame is applied, then dropped.  Replayed
    commits tick the engine's GC cadence like live ones, but each due
    epoch runs here, inline — the engine is not shared yet, so a crash
    in one stays a crash of the replay.
    """
    replayed = 0
    skipped = 0
    oldest = None
    scan = FrameScan()
    for records in wal._scan_frames(strict, scan):
        for commit_ts, ops in records:
            if oldest is None:
                oldest = commit_ts
            if commit_ts < min_commit_ts:
                skipped += 1
                continue
            apply_record(engine, commit_ts, ops)
            replayed += 1
            engine._gc_tick(inline=True)
    return replayed, skipped, scan, oldest


def apply_record(engine, commit_ts: int, ops: list, journal: bool = False):
    """Re-execute one record's ops in a replay transaction and commit
    it at its recorded ``commit_ts``; returns the transaction.  With
    ``journal``, the transaction carries the ops as its journal (a
    replica logs what it applies).  A failing op aborts it."""
    # begin_replay, not begin(): a live begin consumes an oracle
    # timestamp, and concurrent committers pack WAL commit timestamps
    # one apart — replay's own begins would overrun the next record's
    # forced commit timestamp.
    txn = engine.manager.begin_replay()
    try:
        for op in ops:
            _apply_op(engine, txn, op)
    except BaseException:
        if txn.is_active:
            engine.manager.abort(txn)
        raise
    if journal:
        txn.journal = [tuple(op) for op in ops]
    engine.manager.commit(txn, commit_ts=commit_ts)
    return txn


def _apply_op(engine, txn, op: tuple) -> None:
    code = op[0]
    if code == "cv":
        _code, gid, labels, properties = op
        engine.storage.create_vertex(txn, labels, properties, gid=gid)
    elif code == "ce":
        _code, gid, src, dst, edge_type, properties = op
        engine.storage.create_edge(
            txn, src, dst, edge_type, properties, gid=gid
        )
    elif code == "svp":
        _code, gid, name, value = op
        engine.storage.set_vertex_property(txn, gid, name, value)
    elif code == "sep":
        _code, gid, name, value = op
        engine.storage.set_edge_property(txn, gid, name, value)
    elif code == "al":
        engine.storage.add_label(txn, op[1], op[2])
    elif code == "rl":
        engine.storage.remove_label(txn, op[1], op[2])
    elif code == "dv":
        engine.storage.delete_vertex(txn, op[1], detach=op[2])
    elif code == "de":
        engine.storage.delete_edge(txn, op[1])
    else:
        raise StorageError(f"unknown WAL opcode {code!r}")


def install_checkpoint(engine, directory, io: StorageIO) -> None:
    """Crash-safely install a snapshot of quiescent ``engine`` as
    ``directory/checkpoint``.

    1. the snapshot is written to ``checkpoint.tmp`` (each file
       atomically; ``meta.bin`` last);
    2. the current ``checkpoint`` is retired to ``checkpoint.old``;
    3. ``checkpoint.tmp`` is atomically renamed to ``checkpoint``;
    4. ``checkpoint.old`` is removed.

    A crash at any step leaves :func:`open_engine` exactly the old
    snapshot (``checkpoint``, or the ``checkpoint.old`` fallback) or
    exactly the new one.
    """
    directory = Path(directory)
    primary = directory / CHECKPOINT_DIRNAME
    tmp = directory / CHECKPOINT_TMP_DIRNAME
    old = directory / CHECKPOINT_OLD_DIRNAME
    if tmp.exists():
        shutil.rmtree(tmp)
    # Without a primary, checkpoint.old is the newest snapshot (a crash
    # between retire and install): it stays until step 3 replaces it.
    if old.exists() and primary.exists():
        shutil.rmtree(old)
    save_engine(engine, tmp, io)
    if primary.exists():
        io.rename(primary, old, "checkpoint.retire")
    io.rename(tmp, primary, "checkpoint.install")
    FAILPOINTS.check("checkpoint.cleanup")
    if old.exists():
        shutil.rmtree(old)


def _resolve_checkpoint(directory: Path, engine_kwargs: dict):
    """Load the newest usable checkpoint under ``directory``.

    Returns ``(engine_or_None, fence_ts, used_fallback)``.  Resolution
    order: ``checkpoint`` (primary), then ``checkpoint.old`` (retired
    mid-swap by a crashed :meth:`AeonG.checkpoint`).  A primary that
    exists but is damaged falls back; if the fallback is also unusable
    the damage is not survivable and :class:`CorruptionError`
    propagates — silently starting fresh would drop committed data.
    """
    primary = directory / CHECKPOINT_DIRNAME
    retired = directory / CHECKPOINT_OLD_DIRNAME
    primary_error: Optional[Exception] = None
    if (primary / "meta.bin").exists():
        try:
            engine = load_engine(primary, **engine_kwargs)
            return engine, engine.manager.oracle.peek(), False
        except (StorageError, CorruptionError) as exc:
            primary_error = exc
    if (retired / "meta.bin").exists():
        try:
            engine = load_engine(retired, **engine_kwargs)
            return engine, engine.manager.oracle.peek(), True
        except (StorageError, CorruptionError):
            pass
    if primary_error is not None:
        raise CorruptionError(
            f"checkpoint at {primary} is damaged and no usable fallback "
            f"exists: {primary_error}"
        ) from primary_error
    return None, 0, False


def open_engine(directory, strict_recovery: bool = False, **engine_kwargs):
    """Open (or create) a durable engine rooted at ``directory``.

    Loads the newest usable checkpoint (falling back to the retired one
    after a mid-swap crash), replays the WAL on top — skipping records
    the checkpoint already contains — repairs any torn tail, and
    returns an engine that continues journaling to the same log, with
    ``engine.last_recovery`` describing what recovery found.
    """
    from repro.core.engine import AeonG

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    durability_mode = engine_kwargs.pop("durability_mode", "flush")
    engine_kwargs.pop("durability_dir", None)  # attached below, post-replay
    # A stale checkpoint.tmp is an aborted save: never valid, remove.
    tmp = directory / CHECKPOINT_TMP_DIRNAME
    if tmp.exists():
        shutil.rmtree(tmp)
    engine, fence_ts, used_fallback = _resolve_checkpoint(
        directory, dict(engine_kwargs, durability_mode=durability_mode)
    )
    loaded = engine is not None
    if engine is None:
        engine = AeonG(durability_mode=durability_mode, **engine_kwargs)
    wal = EngineWal(directory, durability_mode=durability_mode)
    replayed, skipped, scan, oldest = replay_into(
        engine, wal, min_commit_ts=fence_ts, strict=strict_recovery
    )
    repaired = wal.repair(scan)
    engine.attach_wal(directory, wal)
    if loaded:
        # A checkpoint implies the WAL has been truncated at some
        # point; replicas fetching below the oldest surviving record
        # must resync.  (A replication-fenced checkpoint keeps records
        # below the checkpoint fence, so key off the log itself: the
        # repair kept exactly the replay scan's intact frames.)
        if oldest is None:
            oldest = fence_ts
        engine._wal_truncation_fence = max(
            engine._wal_truncation_fence, oldest - 1
        )
    engine.last_recovery = RecoveryReport(
        checkpoint_loaded=loaded,
        checkpoint_fallback=used_fallback,
        transactions_replayed=replayed,
        transactions_skipped=skipped,
        bytes_scanned=scan.bytes_scanned,
        bytes_discarded=scan.bytes_discarded,
        torn_tail=scan.torn_tail,
        corruption_detected=scan.corruption,
        wal_repaired=repaired,
    )
    return engine
