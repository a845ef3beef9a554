"""Byte formats and the torn-vs-corrupt classifier, pinned end to end.

Two guards for :mod:`repro.common.framing` and the engine-WAL record
codec in :mod:`repro.core.durability`:

- **Golden bytes.**  Fixed inputs must encode to exactly the hex below
  — a one-record engine-WAL frame, a two-record group-commit frame, a
  history-record envelope and a replication envelope — and backup's
  record-granular re-frame of a record must be byte-equal to what
  :meth:`EngineWal.append` writes for it.  A change to any of these
  bytes breaks every existing log, archive and history store.
- **One classifier across every consumer.**  For each damage shape of
  an engine WAL (torn header, torn payload, checksum failure on the
  final frame, checksum failure on an interior frame, a frame whose
  checksum is valid but whose payload does not decode), the live scan,
  recovery, online backup and archive verification must agree: a torn
  tail is cut, corruption is flagged or refused.
"""

from __future__ import annotations

import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro import AeonG
from repro.backup import create_backup, restore_backup, verify_backup
from repro.cli import main as cli_main
from repro.core.deltas import encode_record_payload
from repro.core.durability import EngineWal
from repro.errors import CorruptionError
from repro.replication import encode_record

pytestmark = pytest.mark.fault_matrix

OPS_A = [
    ("cv", 1, ["Person"], {"name": "ada", "age": 36}),
    ("svp", 1, "age", 37),
]
OPS_B = [("ce", 2, 1, 1, "KNOWS", {"since": 2020}), ("dv", 1, True)]

ONE_RECORD_FRAME = (
    "0000004c1bddec2d010374786e00456d0273027473690e73036f70736c026c04"
    "7302637669026c017306506572736f6e6d0273046e616d657303616461730361"
    "676569486c04730373767069027303616765694a"
)
GROUP_COMMIT_FRAME = (
    "000000891f543998020374786e00456d0273027473690e73036f70736c026c04"
    "7302637669026c017306506572736f6e6d0273046e616d657303616461730361"
    "676569486c04730373767069027303616765694a0374786e00376d0273027473"
    "691073036f70736c026c067302636569046902690273054b4e4f57536d017305"
    "73696e636569c81f6c0373026476690254"
)
HISTORY_ENVELOPE = (
    "0181c32f5a6d037301706d02730361676569487304676f6e654e73026c616c01"
    "7306506572736f6e7301786904"
)
REPLICATION_ENVELOPE = (
    "01a08fb0976d0273027473690e73036f70736c026c047302637669026c017306"
    "506572736f6e6d0273046e616d657303616461730361676569486c0473037376"
    "7069027303616765694a"
)


def _wal_bytes(directory: Path, write) -> bytes:
    wal = EngineWal(directory)
    write(wal)
    wal.close()
    return (directory / "engine.wal").read_bytes()


class TestGoldenBytes:
    def test_one_record_engine_wal_frame(self, tmp_path):
        data = _wal_bytes(tmp_path, lambda wal: wal.append(7, OPS_A))
        assert data.hex() == ONE_RECORD_FRAME

    def test_two_record_group_commit_frame(self, tmp_path):
        data = _wal_bytes(
            tmp_path, lambda wal: wal.append_batch([(7, OPS_A), (8, OPS_B)])
        )
        assert data.hex() == GROUP_COMMIT_FRAME

    def test_history_record_envelope(self):
        payload = {"p": {"age": 36, "gone": None}, "la": ["Person"], "x": 2}
        assert encode_record_payload(payload).hex() == HISTORY_ENVELOPE

    def test_replication_envelope(self):
        assert encode_record(7, OPS_A).hex() == REPLICATION_ENVELOPE

    def test_backup_reframe_matches_engine_wal_append(self, tmp_path):
        """Restore and incremental archiving re-frame every record on
        its own; each re-framed record must be exactly the frame
        ``EngineWal.append`` writes for it, even when the source packed
        two records into one group-commit frame."""
        source = tmp_path / "source"
        source.mkdir()
        _wal_bytes(
            source, lambda wal: wal.append_batch([(7, OPS_A), (8, OPS_B)])
        )
        archive = tmp_path / "archive"
        create_backup(source, archive)
        restore_backup(archive, tmp_path / "restored")
        expected = tmp_path / "expected"
        expected.mkdir()
        single = _wal_bytes(
            expected, lambda wal: (wal.append(7, OPS_A), wal.append(8, OPS_B))
        )
        assert (tmp_path / "restored" / "engine.wal").read_bytes() == single

        wal = EngineWal(source)
        wal.append_batch([(9, OPS_A), (10, OPS_B)])
        wal.close()
        create_backup(source, archive, incremental=True)
        segment = (archive / "wal" / "segment-000002.wal").read_bytes()
        (expected / "engine.wal").unlink()
        assert segment == _wal_bytes(
            expected, lambda wal: (wal.append(9, OPS_A), wal.append(10, OPS_B))
        )


# -- one classifier, every consumer -----------------------------------------

_HEADER = struct.Struct(">II")
INTACT_FRAMES = 6


def _split_frames(data: bytes) -> list[bytes]:
    frames, pos = [], 0
    while pos < len(data):
        length, _crc = _HEADER.unpack_from(data, pos)
        frames.append(data[pos:pos + _HEADER.size + length])
        pos += _HEADER.size + length
    return frames


def _flip_payload_byte(frame: bytes) -> bytes:
    damaged = bytearray(frame)
    damaged[-1] ^= 0x40
    return bytes(damaged)


def _undecodable_frame() -> bytes:
    # A well-formed one-op batch whose ``txn`` value is not a serde
    # record, under a checksum that matches it: no crash can write this.
    payload = b"\x01\x03txn\x00\x02\xff\xff"
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


#: shape -> (damage, kind, intact records the classifier must keep)
SHAPES = {
    "torn-header": (
        lambda f: f[:5] + [f[5][:5]], "torn", 5),
    "torn-payload": (
        lambda f: f[:5] + [f[5][:-3]], "torn", 5),
    "final-checksum": (
        lambda f: f[:5] + [_flip_payload_byte(f[5])], "torn", 5),
    "interior-checksum": (
        lambda f: f[:2] + [_flip_payload_byte(f[2])] + f[3:], "corrupt", 2),
    "undecodable": (
        lambda f: f[:2] + [_undecodable_frame()] + f[3:], "corrupt", 2),
}


@pytest.fixture
def clean_source(tmp_path) -> Path:
    """Six single-op transactions, one WAL frame each."""
    source = tmp_path / "clean"
    db = AeonG.open(source)
    for i in range(INTACT_FRAMES):
        db.execute(f"CREATE (:T {{i: {i}}})")
    db.close()
    frames = _split_frames((source / "engine.wal").read_bytes())
    assert len(frames) == INTACT_FRAMES
    return source


def _damage_file(path: Path, shape: str) -> None:
    damage, _kind, _intact = SHAPES[shape]
    path.write_bytes(b"".join(damage(_split_frames(path.read_bytes()))))


def _damaged_copy(source: Path, dest: Path, shape: str) -> Path:
    shutil.copytree(source, dest)
    _damage_file(dest / "engine.wal", shape)
    return dest


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestClassifierMatrix:
    def test_engine_wal_scan(self, clean_source, tmp_path, shape):
        _damage, kind, intact = SHAPES[shape]
        damaged = _damaged_copy(clean_source, tmp_path / "d", shape)
        wal = EngineWal(damaged)
        try:
            records, scan = wal.scan()
            assert len(records) == intact
            assert (scan.torn_tail, scan.corruption) == (
                kind == "torn", kind == "corrupt"
            )
            if kind == "corrupt":
                with pytest.raises(CorruptionError):
                    wal.scan(strict=True)
            else:
                assert len(wal.scan(strict=True)[0]) == intact
        finally:
            wal.close()

    def test_recovery(self, clean_source, tmp_path, shape):
        _damage, kind, intact = SHAPES[shape]
        damaged = _damaged_copy(clean_source, tmp_path / "d", shape)
        strict_copy = tmp_path / "strict"
        shutil.copytree(damaged, strict_copy)
        db = AeonG.open(damaged)
        report = db.last_recovery
        db.close()
        assert report.transactions_replayed == intact
        assert (report.torn_tail, report.corruption_detected) == (
            kind == "torn", kind == "corrupt"
        )
        assert report.wal_repaired
        if kind == "corrupt":
            with pytest.raises(CorruptionError):
                AeonG.open(strict_copy, strict_recovery=True)
        else:
            AeonG.open(strict_copy, strict_recovery=True).close()

    @pytest.mark.backup
    def test_create_backup(self, clean_source, tmp_path, shape):
        """A torn tail is the online fuzzy cut; interior damage refuses
        the backup and leaves nothing behind (the regression: backup
        used to archive the prefix before the damage and succeed)."""
        _damage, kind, intact = SHAPES[shape]
        damaged = _damaged_copy(clean_source, tmp_path / "d", shape)
        dest = tmp_path / "archive"
        staging = tmp_path / "archive.tmp"
        if kind == "corrupt":
            with pytest.raises(CorruptionError):
                create_backup(damaged, dest)
            assert not dest.exists() and not staging.exists()
            assert cli_main(["backup", str(damaged), str(dest)]) == 1
            assert not dest.exists() and not staging.exists()
        else:
            report = create_backup(damaged, dest)
            assert report.wal_records_archived == intact
            assert verify_backup(dest)[1] == []
            shutil.rmtree(dest)
            assert cli_main(["backup", str(damaged), str(dest)]) == 0

    def test_verify_backup(self, clean_source, tmp_path, shape):
        """The same damage inside an archived segment: every shape is a
        finding, and only corruption is reported as corruption."""
        _damage, kind, intact = SHAPES[shape]
        dest = tmp_path / "archive"
        create_backup(clean_source, dest)
        _damage_file(dest / "wal" / "segment-000001.wal", shape)
        _manifest, findings = verify_backup(dest)
        codes = {f["code"] for f in findings}
        assert codes & {"size-mismatch", "checksum-mismatch"}
        if kind == "corrupt":
            assert "segment-corruption" in codes
        else:
            assert "segment-corruption" not in codes
            (structure,) = [
                f for f in findings if f["code"] == "segment-structure"
            ]
            assert structure["detail"].endswith(f"parsed {intact}")
