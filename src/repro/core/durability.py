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

``checkpoint()`` snapshots the engine (see
:mod:`repro.core.persistence`) and truncates the WAL, bounding
recovery time.

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
frame around it.  A frame's payload is a KV-WAL batch
(:func:`repro.kvstore.wal.encode_batch`) holding one ``b"txn"`` op per
committed transaction, whose value is the serde record::

    {"ts": commit_ts, "ops": [[opcode, ...args], ...]}

opcodes: ``cv`` create vertex, ``ce`` create edge, ``svp``/``sep`` set
vertex/edge property, ``al``/``rl`` add/remove label, ``dv``/``de``
delete vertex/edge, ``vt`` set valid time.  Replication ships the same
record body, sealed.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from repro.common.framing import FrameScan, frame, scan_frames
from repro.common.serde import decode_value, encode_value
from repro.errors import CorruptionError, StorageError
from repro.faults import FAILPOINTS, MODE_PARTIAL_FSYNC, MODE_TORN_WRITE
from repro.kvstore.wal import WriteAheadLog, decode_batch, encode_batch

WAL_FILENAME = "engine.wal"
CHECKPOINT_DIRNAME = "checkpoint"
CHECKPOINT_TMP_DIRNAME = "checkpoint.tmp"
CHECKPOINT_OLD_DIRNAME = "checkpoint.old"

#: Batch-level failpoint sites on the group-commit write path: one hit
#: per *batch* (vs ``engine.wal.append``/``engine.wal.sync``, which fire
#: per physical frame write / fsync).  A fault here kills a whole
#: group-commit epoch before any of its commits is acknowledged.
SITE_GROUP_APPEND = "wal.group.append"
SITE_GROUP_FSYNC = "wal.group.fsync"

# ``checkpoint.current.write`` / ``checkpoint.meta.write`` live in
# :mod:`repro.core.persistence`, which is imported lazily; registering
# them here too (idempotent) keeps the full site list discoverable the
# moment :mod:`repro` is imported.
FAILPOINTS.register(
    "engine.wal.append",
    "engine.wal.sync",
    "engine.wal.truncate",
    SITE_GROUP_APPEND,
    SITE_GROUP_FSYNC,
    "checkpoint.current.write",
    "checkpoint.meta.write",
    "checkpoint.retire",
    "checkpoint.install",
    "checkpoint.cleanup",
)

#: The KV-batch key every engine-WAL record is stored under.
_TXN_KEY = b"txn"

Record = tuple[int, list[tuple]]


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


def txn_frame(commit_ts: int, ops: list) -> bytes:
    """One record as a standalone frame — byte-for-byte what
    :meth:`EngineWal.append` writes for it."""
    return frame(encode_batch([(_TXN_KEY, encode_txn(commit_ts, ops))]))


def _decode_frame(payload: bytes) -> list[Record]:
    return [
        decode_txn(body)
        for _key, body in decode_batch(payload)
        if body is not None
    ]


def parse_wal(data: bytes, strict: bool = False) -> FrameScan:
    """Classify raw engine-WAL bytes with the shared frame scanner.

    ``payloads[i]`` is frame *i*'s ``[(commit_ts, ops), ...]`` (more
    than one record for a group-commit frame).  A frame whose checksum
    passes but whose records do not decode is corruption, exactly like
    interior checksum damage.
    """
    return scan_frames(data, _decode_frame, strict)


def flatten(scan: FrameScan) -> list[Record]:
    """Every record of a :func:`parse_wal` scan, in log order."""
    return [record for records in scan.payloads for record in records]


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
    """Append-only log of committed transactions.

    One physical WAL frame holds one *or more* logical transaction
    records: the single-commit path writes one record per frame, while
    the group-commit path (:meth:`append_batch`) packs a whole epoch of
    concurrent commits into one frame — one append, one fsync, shared
    by every commit in the batch.  Because a frame is the unit of the
    framing checksum, a crash mid-batch tears the *whole* frame, and
    none of its commits was acknowledged (acks wait for the shared
    fsync) — recovery discards the torn frame and lands exactly on the
    acked prefix.

    Thread-safe: the async group-commit writer, the replication apply
    path, checkpoint truncation, and catch-up scans serialize on an
    internal lock.
    """

    def __init__(
        self, directory: Path, durability_mode: str = "flush"
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._wal = WriteAheadLog(
            self.directory / WAL_FILENAME,
            durability_mode=durability_mode,
            site_prefix="engine.wal",
        )
        self._lock = threading.RLock()
        self.records_appended = 0
        #: group-commit accounting: physical frames written / fsyncs
        #: issued (telemetry for the ``write_path`` metrics section)
        self.frames_appended = 0
        self.fsyncs = 0

    @property
    def durability_mode(self) -> str:
        return self._wal.durability_mode

    def append(self, commit_ts: int, journal: list[tuple]) -> None:
        """Durably record one committed transaction."""
        self.append_batch([(commit_ts, journal)])

    def append_batch(self, records: list[tuple[int, list[tuple]]]) -> None:
        """Durably record a whole group-commit batch in one frame.

        ``records`` is ``[(commit_ts, ops), ...]`` in commit-timestamp
        order.  The batch is encoded into a single checksummed WAL
        frame, appended once, and (in ``"fsync"`` mode) synced once —
        the group-commit amortization.  Two batch-level failpoint
        sites, ``wal.group.append`` and ``wal.group.fsync``, fire once
        per batch on top of the physical ``engine.wal.append`` /
        ``engine.wal.sync`` sites, so tests can kill a whole epoch
        mid-write (torn batch frame) or mid-sync (half-lost OS buffer).
        """
        if not records:
            return
        ops = [(_TXN_KEY, encode_txn(ts, journal)) for ts, journal in records]
        with self._lock:
            mode = FAILPOINTS.check(SITE_GROUP_APPEND)
            if mode == MODE_TORN_WRITE:
                self._wal.append_torn(ops, SITE_GROUP_APPEND)
            self._wal.append(ops, sync=False)
            self.frames_appended += 1
            if self._wal.fsync_enabled:
                mode = FAILPOINTS.check(SITE_GROUP_FSYNC)
                if mode == MODE_PARTIAL_FSYNC:
                    self._wal.simulate_partial_fsync(SITE_GROUP_FSYNC)
                self._wal.sync()
                self.fsyncs += 1
            self.records_appended += len(records)

    def _scan_frames(self, strict: bool = False) -> FrameScan:
        """The live log through :func:`parse_wal`'s decoder.

        Frames are the unit of checksumming and truncation; the scan
        is also what :meth:`repair` cuts back to.
        """
        with self._lock:
            return self._wal.scan(strict, decode=_decode_frame)

    def scan(self, strict: bool = False) -> tuple[list[Record], FrameScan]:
        """Parse the log into ``[(commit_ts, ops), ...]`` plus the raw
        :class:`~repro.common.framing.FrameScan`.

        ``strict=True`` raises :class:`CorruptionError` on corruption;
        otherwise replay stops there and the scan is flagged.
        """
        scan = self._scan_frames(strict=strict)
        return flatten(scan), scan

    def replay(self, strict: bool = False):
        """Yield ``(commit_ts, ops)`` in commit order; stops at a torn
        or corrupted tail (crash semantics)."""
        records, _scan = self.scan(strict=strict)
        yield from records

    def repair(self) -> bool:
        """Crash-safely drop a damaged tail found by the last scan."""
        with self._lock:
            return self._wal.repair()

    def records_from(self, from_ts: int) -> list[Record]:
        """Records with ``commit_ts >= from_ts``, oldest first — the
        replication stream's catch-up path for ranges that have left
        the primary's in-memory ring (e.g. after a primary restart)."""
        return [(ts, ops) for ts, ops in self.scan()[0] if ts >= from_ts]

    def truncate(self) -> None:
        with self._lock:
            self._wal.truncate()

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
            scan = self._scan_frames()
            drop_bytes = 0
            dropped = 0
            fence = 0
            for records, (_start, end) in zip(scan.payloads, scan.extents):
                if any(ts >= retain_ts for ts, _ops in records):
                    break
                drop_bytes = end
                dropped += len(records)
                fence = max([fence] + [ts for ts, _ops in records])
            if drop_bytes:
                self._wal.drop_prefix(drop_bytes)
            return dropped, fence

    def close(self) -> None:
        with self._lock:
            self._wal.close()


def replay_into(engine, wal: EngineWal, min_commit_ts: int = 0,
                strict: bool = False) -> tuple[int, int, FrameScan]:
    """Re-execute WAL transactions against ``engine``.

    Records with ``commit_ts < min_commit_ts`` are skipped: they are
    already materialised in the checkpoint the engine was loaded from
    (the crash window between checkpoint install and WAL truncation
    leaves them in the log).  Returns ``(replayed, skipped, scan)``.
    The engine must not journal during replay (the caller suspends
    logging), and replay forces the recorded gids and commit
    timestamps.
    """
    replayed = 0
    skipped = 0
    records, scan = wal.scan(strict=strict)
    for commit_ts, ops in records:
        if commit_ts < min_commit_ts:
            skipped += 1
            continue
        # begin_replay, not begin(): a live begin consumes an oracle
        # timestamp, and concurrent committers pack WAL commit
        # timestamps one apart — replay's own begins would overrun
        # the next record's forced commit timestamp.
        txn = engine.manager.begin_replay()
        try:
            for op in ops:
                _apply_op(engine, txn, op)
        except BaseException:
            if txn.is_active:
                engine.abort(txn)
            raise
        engine.manager.commit(txn, commit_ts=commit_ts)
        replayed += 1
    return replayed, skipped, scan


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


def _resolve_checkpoint(directory: Path, engine_kwargs: dict):
    """Load the newest usable checkpoint under ``directory``.

    Returns ``(engine_or_None, fence_ts, used_fallback)``.  Resolution
    order: ``checkpoint`` (primary), then ``checkpoint.old`` (retired
    mid-swap by a crashed :meth:`AeonG.checkpoint`).  A primary that
    exists but is damaged falls back; if the fallback is also unusable
    the damage is not survivable and :class:`CorruptionError`
    propagates — silently starting fresh would drop committed data.
    """
    from repro.core.persistence import load_engine

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
    replayed, skipped, scan = replay_into(
        engine, wal, min_commit_ts=fence_ts, strict=strict_recovery
    )
    repaired = wal.repair()
    engine.attach_wal(directory, wal)
    if loaded:
        # A checkpoint implies the WAL has been truncated at some
        # point; replicas fetching below the oldest surviving record
        # must resync.  (A replication-fenced checkpoint keeps records
        # below the checkpoint fence, so key off the log itself.)
        remaining, _scan = wal.scan()
        oldest = remaining[0][0] if remaining else fence_ts
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
