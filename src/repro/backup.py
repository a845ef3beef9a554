"""Online backup, incremental WAL archiving, and point-in-time restore.

Documented in ``docs/OPERATIONS.md`` (the operator runbook: backup
schedule, restore-to-timestamp, replica resync, failover).

An archive is a directory with a CRC-self-verified ``MANIFEST`` as its
commit point::

    DEST/
      MANIFEST                  JSON; every file's size + crc32, the
                                archive watermark, a self-checksum
      checkpoint-<fence>/       verbatim copy of one engine checkpoint
      wal/segment-000001.wal    engine-WAL frames (format owned by
      wal/segment-000002.wal    repro.core.durability)

Backups are **online and fuzzy**: :func:`create_backup` copies the
source's checkpoint and WAL byte-for-byte while writers run, cutting
the WAL capture at a torn tail (a frame mid-append when the bytes were
read).  Interior WAL damage refuses the backup with
:class:`~repro.errors.CorruptionError` — the same classification
recovery applies (:mod:`repro.common.framing`), so an archive never
silently stops short of commits the source acknowledged.  The copy is
consistent without quiescing the engine because of the durability
layer's own invariant — every committed transaction is either inside
the current checkpoint (``commit_ts < fence``) or still in the WAL
file — so a checkpoint plus any WAL suffix captured *after* it is
gap-free.  A concurrent checkpoint *swap* (``checkpoint.install``
landing mid-walk) is detected by re-reading ``meta.bin`` after the
walk and retrying the attempt.  The whole archive is staged in
``DEST.tmp`` and atomically renamed into place, so a crashed backup
never leaves a torn ``DEST``.

``--incremental`` appends a new WAL segment holding only the records
past the previous watermark, each re-framed on its own
(:func:`~repro.core.durability.txn_frame`; frames are self-delimiting,
so segments concatenate) and, when the source has checkpointed since,
a new ``checkpoint-<fence>/`` copy.
Old segments and checkpoints are retained: every incremental *widens*
the range of timestamps :func:`restore_backup` can reproduce.

Restore picks the newest checkpoint whose fence covers ``as_of``, then
replays archived frames with ``commit_ts <= as_of`` — true
point-in-time recovery: the restored engine's temporal answers at
``as_of`` match the source's.

Failpoint sites (crash matrix: ``tests/test_fault_matrix.py``):
``backup.copy`` (every archive file write), ``backup.manifest`` (the
commit point), ``restore.replay`` (every restored WAL frame).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from repro.common.serde import decode_value
from repro.core.durability import (
    CHECKPOINT_DIRNAME,
    WAL_FILENAME,
    flatten,
    parse_wal,
    txn_frame,
)
from repro.errors import CorruptionError, StorageError
from repro.faults import DEFAULT_IO, FAILPOINTS, StorageIO

SITE_BACKUP_COPY = "backup.copy"
SITE_BACKUP_MANIFEST = "backup.manifest"
SITE_RESTORE_REPLAY = "restore.replay"
FAILPOINTS.register(SITE_BACKUP_COPY, SITE_BACKUP_MANIFEST,
                    SITE_RESTORE_REPLAY)

MANIFEST_FILENAME = "MANIFEST"
WAL_DIRNAME = "wal"
ARCHIVE_FORMAT_VERSION = 1

#: Attempts at a consistent fuzzy capture before giving up (each retry
#: means a concurrent checkpoint swapped mid-walk — rare by design).
CAPTURE_ATTEMPTS = 5


# -- metrics ----------------------------------------------------------------

_METRICS_LOCK = threading.Lock()
_BACKUP_COUNTERS: dict[str, Any] = {}
_RESTORE_COUNTERS: dict[str, Any] = {}


def reset_metrics() -> None:
    """Zero the module-level counters (test isolation)."""
    with _METRICS_LOCK:
        _BACKUP_COUNTERS.clear()
        _BACKUP_COUNTERS.update(
            backups_completed=0,
            full_backups=0,
            incremental_backups=0,
            capture_retries=0,
            files_copied=0,
            bytes_copied=0,
            wal_records_archived=0,
            verify_runs=0,
            verify_findings=0,
            last_backup_unix=0.0,
            last_backup_watermark=0,
        )
        _RESTORE_COUNTERS.clear()
        _RESTORE_COUNTERS.update(
            restores_completed=0,
            point_in_time_restores=0,
            records_replayed=0,
            records_beyond_as_of=0,
            records_in_checkpoint=0,
            bytes_restored=0,
        )


reset_metrics()


def _bump(counters: dict[str, Any], **deltas: Any) -> None:
    with _METRICS_LOCK:
        for key, delta in deltas.items():
            counters[key] += delta


def backup_metrics() -> dict[str, Any]:
    """The ``backup`` metrics section (registry / Prometheus /
    ``aeong metrics``), including the snapshot-age gauge."""
    with _METRICS_LOCK:
        out = dict(_BACKUP_COUNTERS)
    last = out["last_backup_unix"]
    out["snapshot_age_seconds"] = (
        max(0.0, time.time() - last) if last else None
    )
    return out


def restore_metrics() -> dict[str, Any]:
    """The ``restore`` metrics section."""
    with _METRICS_LOCK:
        return dict(_RESTORE_COUNTERS)


# -- manifest ---------------------------------------------------------------


def _manifest_crc(doc: dict[str, Any]) -> int:
    """crc32 over the canonical JSON of everything *except* the
    checksum field."""
    body = {k: v for k, v in doc.items() if k != "crc32"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _manifest_bytes(doc: dict[str, Any]) -> bytes:
    """Serialize a manifest with its self-checksum."""
    body = dict(doc, crc32=_manifest_crc(doc))
    return (json.dumps(body, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_manifest(
    directory, doc: dict[str, Any], storage_io: Optional[StorageIO] = None
) -> None:
    """Atomically install an archive's ``MANIFEST`` (the commit point;
    ``backup.manifest`` failpoint site)."""
    io = storage_io if storage_io is not None else DEFAULT_IO
    io.write_file(
        Path(directory) / MANIFEST_FILENAME,
        _manifest_bytes(doc),
        SITE_BACKUP_MANIFEST,
    )


def read_manifest(directory) -> dict[str, Any]:
    """Load and self-verify an archive's manifest.

    Raises :class:`~repro.errors.StorageError` when absent and
    :class:`~repro.errors.CorruptionError` on any damage — a backup
    whose manifest fails its own checksum must never be restored from.
    """
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        raise StorageError(f"no backup manifest at {path}")
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptionError(
            f"backup manifest at {path} is not valid JSON: {exc}"
        ) from exc
    if doc.get("crc32") != _manifest_crc(doc):
        raise CorruptionError(
            f"backup manifest at {path} failed its self-checksum"
        )
    if doc.get("format") != ARCHIVE_FORMAT_VERSION:
        raise StorageError(
            f"unsupported backup archive format {doc.get('format')!r}"
        )
    return doc


def _merge_coverage(
    intervals: list, new: list
) -> list[list[int]]:
    """Union of restorable as-of intervals, merged when overlapping or
    adjacent.  Backups taken less often than the source checkpoints
    leave *gaps* — timestamps whose commits were truncated out of the
    WAL before any backup archived them; restore refuses those."""
    merged: list[list[int]] = []
    for lo, hi in sorted([list(i) for i in intervals] + [list(new)]):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _coverage_for(manifest: dict[str, Any], as_of: int):
    """The coverage interval containing ``as_of``, or ``None``."""
    for lo, hi in manifest.get(
        "coverage", [[0, manifest["watermark"]]]
    ):
        if lo <= as_of <= hi:
            return (lo, hi)
    return None


# -- fuzzy source capture ---------------------------------------------------


def _capture_source(source: Path) -> tuple[list, int, bytes, list]:
    """One consistent fuzzy read of a live durability directory.

    Returns ``(checkpoint_files, fence, wal_bytes, wal_records)`` where
    ``checkpoint_files`` is ``[(relative_name, bytes)]``, ``fence`` is
    the checkpoint's ``next_timestamp`` (0 without a checkpoint),
    ``wal_bytes`` is the WAL cut at a torn tail, and ``wal_records`` is
    its ``[(commit_ts, ops)]``.  Interior WAL damage raises
    :class:`CorruptionError`.  Retries when a concurrent checkpoint
    install swapped the directory mid-walk (detected by comparing
    ``meta.bin`` before and after).
    """
    ckpt = source / CHECKPOINT_DIRNAME
    meta_path = ckpt / "meta.bin"
    for attempt in range(CAPTURE_ATTEMPTS):
        if attempt:
            _bump(_BACKUP_COUNTERS, capture_retries=1)
        try:
            files: list[tuple[str, bytes]] = []
            fence = 0
            meta_before = (
                meta_path.read_bytes() if meta_path.exists() else None
            )
            if meta_before is not None:
                for path in sorted(
                    p for p in ckpt.rglob("*") if p.is_file()
                ):
                    if path.suffix == ".tmp":
                        continue  # aborted atomic write; never valid
                    files.append(
                        (path.relative_to(ckpt).as_posix(),
                         path.read_bytes())
                    )
                fence = decode_value(meta_before)["next_timestamp"]
            wal_path = source / WAL_FILENAME
            wal_bytes = wal_path.read_bytes() if wal_path.exists() else b""
            # Checkpoint *after* WAL: if the checkpoint swapped while
            # we walked it, the copied files may mix two checkpoints —
            # retry the whole capture.  (A swap after the WAL read only
            # makes the WAL a longer suffix, which stays gap-free.)
            meta_after = (
                meta_path.read_bytes() if meta_path.exists() else None
            )
            if meta_before != meta_after:
                continue
        except FileNotFoundError:
            continue  # a file vanished mid-swap; retry
        try:
            scan = parse_wal(wal_bytes, strict=True)
        except CorruptionError as exc:
            raise CorruptionError(
                f"refusing to back up {wal_path}: {exc}"
            ) from exc
        return files, fence, wal_bytes[:scan.valid_bytes], flatten(scan)
    raise StorageError(
        f"source checkpoint at {ckpt} kept changing across "
        f"{CAPTURE_ATTEMPTS} capture attempts; is a checkpoint loop "
        "running faster than the backup can read?"
    )


# -- backup -----------------------------------------------------------------


@dataclass
class BackupReport:
    """What one :func:`create_backup` call captured."""

    destination: str
    incremental: bool
    watermark: int
    checkpoint_fence: int
    checkpoint_copied: bool
    files_copied: int
    bytes_copied: int
    wal_records_archived: int
    segments: int

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _file_entry(name: str, data: bytes) -> dict[str, Any]:
    return {"name": name, "size": len(data), "crc32": zlib.crc32(data)}


def _segment_entry(name: str, data: bytes, records: list) -> dict[str, Any]:
    return dict(
        _file_entry(name, data),
        first_ts=records[0][0],
        last_ts=records[-1][0],
        records=len(records),
    )


def _copy_into(
    io: StorageIO, root: Path, name: str, data: bytes
) -> None:
    """One archive file, atomically, through the ``backup.copy``
    failpoint.  The manifest records the checksum of the *source*
    bytes, so ``corrupt``-mode damage here is caught by verify."""
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    io.write_file(path, data, SITE_BACKUP_COPY)


def create_backup(
    source,
    dest,
    incremental: bool = False,
    storage_io: Optional[StorageIO] = None,
) -> BackupReport:
    """Capture a live durability directory into an archive at ``dest``.

    Full mode requires ``dest`` not to exist: the archive is staged in
    ``DEST.tmp`` and atomically renamed, so ``dest`` is either absent
    or manifest-complete — never torn.  Incremental mode extends an
    existing archive: new files land first and the manifest rewrite is
    the atomic commit point (a crash in between leaves the previous
    manifest, which ignores the orphaned files).
    """
    io = storage_io if storage_io is not None else DEFAULT_IO
    source = Path(source)
    dest = Path(dest)
    if not source.is_dir():
        raise StorageError(f"backup source {source} is not a directory")
    if incremental:
        return _incremental_backup(source, dest, io)
    if dest.exists():
        raise StorageError(
            f"backup destination {dest} already exists "
            "(use --incremental to extend an archive)"
        )
    staging = dest.with_name(dest.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)  # a previous backup crashed mid-stage
    try:
        report = _full_backup_into(source, dest, staging, io)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # SimulatedCrash (BaseException) deliberately skips the cleanup: a
    # real crash leaves the stale staging dir too, and the next run
    # removes it above.
    os.replace(staging, dest)
    io.fsync_dir(dest.parent)
    return report


def _full_backup_into(
    source: Path, dest: Path, staging: Path, io: StorageIO
) -> BackupReport:
    files_ckpt, fence, wal_bytes, records = _capture_source(source)
    staging.mkdir(parents=True)
    manifest_files: list[dict[str, Any]] = []
    checkpoints: list[dict[str, Any]] = []
    bytes_copied = 0
    if files_ckpt:
        ckpt_dir = f"checkpoint-{fence}"
        for rel, data in files_ckpt:
            name = f"{ckpt_dir}/{rel}"
            _copy_into(io, staging, name, data)
            manifest_files.append(_file_entry(name, data))
            bytes_copied += len(data)
        checkpoints.append({"dir": ckpt_dir, "fence": fence})
    segments: list[dict[str, Any]] = []
    if wal_bytes:
        name = f"{WAL_DIRNAME}/segment-000001.wal"
        _copy_into(io, staging, name, wal_bytes)
        segments.append(_segment_entry(name, wal_bytes, records))
        manifest_files.append(_file_entry(name, wal_bytes))
        bytes_copied += len(wal_bytes)
    watermark = max(
        fence - 1 if fence else 0, records[-1][0] if records else 0
    )
    doc = {
        "format": ARCHIVE_FORMAT_VERSION,
        "watermark": watermark,
        # Restorable as-of intervals.  One capture covers exactly
        # [fence - 1, watermark]: the checkpoint cannot be un-applied
        # below its fence, and the WAL holds every commit above it.
        "coverage": [[fence - 1 if fence else 0, watermark]],
        "checkpoints": checkpoints,
        "segments": segments,
        "files": manifest_files,
        "backups": 1,
        "created_unix": time.time(),
    }
    write_manifest(staging, doc, io)
    _bump(
        _BACKUP_COUNTERS,
        backups_completed=1,
        full_backups=1,
        files_copied=len(manifest_files),
        bytes_copied=bytes_copied,
        wal_records_archived=len(records),
    )
    with _METRICS_LOCK:
        _BACKUP_COUNTERS["last_backup_unix"] = time.time()
        _BACKUP_COUNTERS["last_backup_watermark"] = watermark
    return BackupReport(
        destination=str(dest),
        incremental=False,
        watermark=watermark,
        checkpoint_fence=fence,
        checkpoint_copied=bool(files_ckpt),
        files_copied=len(manifest_files),
        bytes_copied=bytes_copied,
        wal_records_archived=len(records),
        segments=len(segments),
    )


def _incremental_backup(
    source: Path, dest: Path, io: StorageIO
) -> BackupReport:
    manifest = read_manifest(dest)  # damaged archive: refuse to extend
    prev_watermark = manifest["watermark"]
    files_ckpt, fence, wal_bytes, records = _capture_source(source)
    new_records = [r for r in records if r[0] > prev_watermark]

    files = list(manifest["files"])
    checkpoints = list(manifest["checkpoints"])
    segments = list(manifest["segments"])
    known_fences = {entry["fence"] for entry in checkpoints}
    bytes_copied = 0
    files_copied = 0
    checkpoint_copied = False
    if files_ckpt and fence not in known_fences:
        ckpt_dir = f"checkpoint-{fence}"
        for rel, data in files_ckpt:
            name = f"{ckpt_dir}/{rel}"
            _copy_into(io, dest, name, data)
            files.append(_file_entry(name, data))
            bytes_copied += len(data)
            files_copied += 1
        checkpoints.append({"dir": ckpt_dir, "fence": fence})
        checkpoint_copied = True
    new_segments = 0
    if new_records:
        blob = b"".join(txn_frame(ts, ops) for ts, ops in new_records)
        name = f"{WAL_DIRNAME}/segment-{len(segments) + 1:06d}.wal"
        _copy_into(io, dest, name, blob)
        segments.append(_segment_entry(name, blob, new_records))
        files.append(_file_entry(name, blob))
        bytes_copied += len(blob)
        files_copied += 1
        new_segments = 1
    watermark = max(
        prev_watermark,
        fence - 1 if fence else 0,
        new_records[-1][0] if new_records else 0,
    )
    coverage = _merge_coverage(
        manifest.get("coverage", [[0, prev_watermark]]),
        [fence - 1 if fence else 0, watermark],
    )
    doc = {
        "format": ARCHIVE_FORMAT_VERSION,
        "watermark": watermark,
        "coverage": coverage,
        "checkpoints": checkpoints,
        "segments": segments,
        "files": files,
        "backups": manifest.get("backups", 1) + 1,
        "created_unix": time.time(),
    }
    write_manifest(dest, doc, io)  # the atomic commit point
    _bump(
        _BACKUP_COUNTERS,
        backups_completed=1,
        incremental_backups=1,
        files_copied=files_copied,
        bytes_copied=bytes_copied,
        wal_records_archived=len(new_records),
    )
    with _METRICS_LOCK:
        _BACKUP_COUNTERS["last_backup_unix"] = time.time()
        _BACKUP_COUNTERS["last_backup_watermark"] = watermark
    return BackupReport(
        destination=str(dest),
        incremental=True,
        watermark=watermark,
        checkpoint_fence=fence,
        checkpoint_copied=checkpoint_copied,
        files_copied=files_copied,
        bytes_copied=bytes_copied,
        wal_records_archived=len(new_records),
        segments=new_segments,
    )


# -- verify -----------------------------------------------------------------


def verify_backup(directory) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Fsck an archive without restoring it.

    Returns ``(manifest, findings)``; each finding is a dict with
    ``severity`` (``"error"``), ``code``, ``name``, ``detail``.  The
    manifest itself failing its checksum raises
    :class:`~repro.errors.CorruptionError` (there is nothing
    trustworthy to report against).
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    findings: list[dict[str, Any]] = []

    def _finding(code: str, name: str, detail: str) -> None:
        findings.append({
            "severity": "error", "code": code, "name": name,
            "detail": detail,
        })

    for entry in manifest["files"]:
        path = directory / entry["name"]
        if not path.exists():
            _finding("missing-file", entry["name"],
                     "listed in the manifest but absent")
            continue
        data = path.read_bytes()
        if len(data) != entry["size"]:
            _finding(
                "size-mismatch", entry["name"],
                f"manifest says {entry['size']} bytes, found {len(data)}",
            )
        elif zlib.crc32(data) != entry["crc32"]:
            _finding("checksum-mismatch", entry["name"],
                     "file bytes fail the manifest crc32")
    for seg in manifest["segments"]:
        path = directory / seg["name"]
        if not path.exists():
            continue
        scan = parse_wal(path.read_bytes())
        parsed = flatten(scan)
        # A torn tail is a short parse; only interior damage is
        # corruption — the classification recovery applies to the log.
        if scan.corruption:
            _finding(
                "segment-corruption", seg["name"],
                f"interior damage at byte {scan.valid_bytes}; "
                f"{len(parsed)} of {seg['records']} records readable",
            )
        elif len(parsed) != seg["records"]:
            _finding(
                "segment-structure", seg["name"],
                f"manifest says {seg['records']} records, "
                f"parsed {len(parsed)}",
            )
        elif parsed and (
            parsed[0][0] != seg["first_ts"]
            or parsed[-1][0] != seg["last_ts"]
        ):
            _finding(
                "segment-range", seg["name"],
                f"manifest range [{seg['first_ts']},{seg['last_ts']}] "
                f"but frames span [{parsed[0][0]},{parsed[-1][0]}]",
            )
    _bump(_BACKUP_COUNTERS, verify_runs=1, verify_findings=len(findings))
    return manifest, findings


# -- restore ----------------------------------------------------------------


@dataclass
class RestoreReport:
    """What one :func:`restore_backup` call rebuilt."""

    target: str
    as_of: int
    watermark: int
    checkpoint_dir: Optional[str]
    checkpoint_fence: int
    records_replayed: int
    records_beyond_as_of: int
    records_in_checkpoint: int
    bytes_restored: int

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def restore_backup(
    backup_dir,
    target,
    as_of: Optional[int] = None,
    storage_io: Optional[StorageIO] = None,
) -> RestoreReport:
    """Rebuild a durability directory at ``target`` from an archive.

    With ``as_of`` the restored state is exactly the source's at that
    commit timestamp: the newest archived checkpoint with
    ``fence <= as_of + 1`` seeds the directory and archived WAL frames
    with ``commit_ts <= as_of`` are replayed on top (frames below the
    chosen fence are already inside the checkpoint and are skipped;
    overlapping segments deduplicate by timestamp).  The target is
    staged in ``TARGET.tmp`` and atomically renamed, mirroring the
    backup side's never-torn discipline.  Open the result with
    :meth:`AeonG.open`.
    """
    io = storage_io if storage_io is not None else DEFAULT_IO
    backup_dir = Path(backup_dir)
    target = Path(target)
    manifest, findings = verify_backup(backup_dir)
    errors = [f for f in findings if f["severity"] == "error"]
    if errors:
        first = errors[0]
        raise CorruptionError(
            f"backup archive at {backup_dir} fails verification "
            f"({len(errors)} error(s); first: {first['code']} "
            f"{first['name']}: {first['detail']}); refusing to restore"
        )
    watermark = manifest["watermark"]
    if as_of is None:
        as_of = watermark
    if as_of > watermark:
        raise StorageError(
            f"--as-of {as_of} is beyond the archive watermark "
            f"{watermark}; take a newer backup first"
        )
    if _coverage_for(manifest, as_of) is None:
        ranges = ", ".join(
            f"[{lo}, {hi}]" for lo, hi in manifest.get("coverage", [])
        )
        raise StorageError(
            f"--as-of {as_of} is not restorable from this archive "
            f"(covered intervals: {ranges}); commits around it were "
            "checkpoint-truncated before any backup archived them"
        )
    chosen = None
    for entry in sorted(manifest["checkpoints"], key=lambda c: c["fence"]):
        if entry["fence"] <= as_of + 1:
            chosen = entry
    fence = chosen["fence"] if chosen else 0

    if target.exists():
        if any(target.iterdir()):
            raise StorageError(
                f"restore target {target} exists and is not empty"
            )
        target.rmdir()
    staging = target.with_name(target.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)  # a previous restore crashed mid-stage
    staging.mkdir(parents=True)
    bytes_restored = 0
    try:
        if chosen is not None:
            prefix = chosen["dir"] + "/"
            for entry in manifest["files"]:
                if not entry["name"].startswith(prefix):
                    continue
                rel = entry["name"][len(prefix):]
                data = (backup_dir / entry["name"]).read_bytes()
                out = staging / CHECKPOINT_DIRNAME / rel
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_bytes(data)
                bytes_restored += len(data)
        replayed = 0
        beyond = 0
        in_checkpoint = 0
        emitted = fence - 1  # dedup floor across overlapping segments
        with open(staging / WAL_FILENAME, "ab") as handle:
            for seg in manifest["segments"]:
                data = (backup_dir / seg["name"]).read_bytes()
                for ts, ops in flatten(parse_wal(data, strict=True)):
                    if ts > as_of:
                        beyond += 1
                        continue
                    if ts <= emitted:
                        if ts < fence:
                            in_checkpoint += 1
                        continue
                    # Record-granular re-framing: a group-commit frame
                    # holds several records, so a raw byte slice per
                    # record would replay the shared frame once per
                    # record, and an as-of cut could not land inside it.
                    frame = txn_frame(ts, ops)
                    io.append(handle, frame, SITE_RESTORE_REPLAY)
                    emitted = ts
                    replayed += 1
                    bytes_restored += len(frame)
            io.sync(handle, SITE_RESTORE_REPLAY)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # As in create_backup, SimulatedCrash bypasses the cleanup — the
    # stale TARGET.tmp models real crash residue and the next restore
    # removes it.
    os.replace(staging, target)
    io.fsync_dir(target.parent)
    _bump(
        _RESTORE_COUNTERS,
        restores_completed=1,
        point_in_time_restores=1 if as_of != watermark else 0,
        records_replayed=replayed,
        records_beyond_as_of=beyond,
        records_in_checkpoint=in_checkpoint,
        bytes_restored=bytes_restored,
    )
    return RestoreReport(
        target=str(target),
        as_of=as_of,
        watermark=watermark,
        checkpoint_dir=chosen["dir"] if chosen else None,
        checkpoint_fence=fence,
        records_replayed=replayed,
        records_beyond_as_of=beyond,
        records_in_checkpoint=in_checkpoint,
        bytes_restored=bytes_restored,
    )


__all__ = [
    "SITE_BACKUP_COPY",
    "SITE_BACKUP_MANIFEST",
    "SITE_RESTORE_REPLAY",
    "MANIFEST_FILENAME",
    "WAL_DIRNAME",
    "ARCHIVE_FORMAT_VERSION",
    "BackupReport",
    "RestoreReport",
    "create_backup",
    "restore_backup",
    "verify_backup",
    "read_manifest",
    "write_manifest",
    "backup_metrics",
    "restore_metrics",
    "reset_metrics",
]
