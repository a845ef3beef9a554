"""Deterministic fault injection for the storage stack.

Documented in ``docs/API.md`` ("Fault injection") — the failpoint
catalog, failure modes, and the crash-matrix workflow live there.

Crash safety cannot be asserted, only demonstrated: every I/O boundary
in the storage stack (WAL appends, fsyncs, truncations, checkpoint file
writes, renames) is a *failpoint site* registered here, and tests arm a
site with a failure mode to simulate a fault at exactly that point.
The crash-matrix harness (``tests/test_fault_matrix.py``) iterates every
registered site, crashes there, reopens the engine, and asserts the
committed prefix survived — RocksDB's FaultInjectionTestFS and SQLite's
test VFS play the same role in those systems.

Failure modes
-------------

``error``
    The operation fails cleanly with :class:`~repro.errors.FaultInjected`
    (a ``StorageError``): simulates ``EIO``/``ENOSPC``.  Callers may
    handle or propagate it; engine state must stay consistent.
``crash``
    :class:`SimulatedCrash` is raised *before* the operation takes any
    durable effect.  ``SimulatedCrash`` derives from ``BaseException``
    so no ordinary ``except Exception`` handler can accidentally
    swallow the simulated death of the process.
``torn-write``
    Half of the payload reaches the file, then :class:`SimulatedCrash`
    is raised — a write torn mid-sector.
``partial-fsync``
    Bytes written since the last successful fsync are dropped (the
    "lost OS buffer"), then :class:`SimulatedCrash` is raised.  Only
    meaningful at sync sites.
``corrupt``
    Silent bit rot: the payload is deterministically damaged
    (:func:`corrupt_bytes` flips one bit, or substitutes a byte for
    empty payloads) and the operation *succeeds* — no exception, no
    crash.  On write sites the damaged bytes land on disk; on read
    sites (``kv.sstable.decode``, ``history.fetch``) the data read is
    damaged before decoding.  This is the failure checksums exist to
    catch: the caller learns nothing until an integrity check fires.

Socket-level modes (the serving layer's network chaos; interpreted by
the framing helpers in :mod:`repro.server.protocol` at the
``server.conn.read`` / ``server.conn.write`` sites):

``delay``
    The I/O completes, but only after :data:`FAULT_DELAY_SECONDS` of
    injected latency — a congested or GC-pausing peer.  Also honoured
    by :meth:`StorageIO.append` / :meth:`StorageIO.sync`, where it
    models a slow device (used to prove durability I/O stays outside
    the engine's commit critical section).
``disconnect``
    The connection is torn down abruptly before the I/O happens
    (``ConnectionResetError``) — a peer crash or middlebox reset.
``short-read``
    On a read site: the frame header arrives, half the body arrives,
    then the connection dies — the receiver sees a truncated frame.
``torn-write``
    On a socket write site: half the encoded frame reaches the wire,
    then the connection dies — the peer sees torn bytes.  (The same
    mode name keeps its half-payload meaning at storage sites.)

Activation
----------

Programmatic::

    from repro.faults import FAILPOINTS
    with FAILPOINTS.active("engine.wal.append", "crash", nth=3):
        ...  # the 3rd append dies

or via the environment (picked up at import time)::

    REPRO_FAILPOINTS="engine.wal.append=crash:3;engine.wal.sync=error"

:class:`StorageIO` is the injectable file abstraction the disk-touching
modules route through; it owns the fsync-vs-flush durability discipline
(``durability_mode``) and implements write-temp → fsync → atomic-rename
for whole files.
"""

from __future__ import annotations

import io as io_module
import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Optional

from repro.errors import FaultInjected

MODE_ERROR = "error"
MODE_CRASH = "crash"
MODE_TORN_WRITE = "torn-write"
MODE_PARTIAL_FSYNC = "partial-fsync"
MODE_CORRUPT = "corrupt"
MODE_DELAY = "delay"
MODE_DISCONNECT = "disconnect"
MODE_SHORT_READ = "short-read"

MODES = (
    MODE_ERROR,
    MODE_CRASH,
    MODE_TORN_WRITE,
    MODE_PARTIAL_FSYNC,
    MODE_CORRUPT,
    MODE_DELAY,
    MODE_DISCONNECT,
    MODE_SHORT_READ,
)

#: Injected latency applied by the ``delay`` mode (socket sites).
#: Module-level so chaos tests can tune it.
FAULT_DELAY_SECONDS = 0.05

_ENV_VAR = "REPRO_FAILPOINTS"


class SimulatedCrash(BaseException):
    """The process "died" at a failpoint.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    recovery-path ``except Exception`` blocks cannot swallow it — a
    real crash is not handleable either.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated crash at failpoint {site!r}")
        self.site = site


@dataclass
class _Armed:
    """One armed failpoint: fires on hits ``nth .. nth+times-1``."""

    mode: str
    nth: int = 1
    times: Optional[int] = 1  # None = fire forever once reached
    hits: int = 0
    fired: int = 0

    def evaluate(self) -> Optional[str]:
        self.hits += 1
        if self.hits < self.nth:
            return None
        if self.times is not None and self.fired >= self.times:
            return None
        self.fired += 1
        return self.mode


@dataclass
class SiteStats:
    """Observability for one registered site."""

    hits: int = 0
    fired: int = 0


class FailpointRegistry:
    """Process-wide named failpoint sites.

    Modules *register* their sites at import time (so the crash matrix
    can enumerate every I/O boundary even when nothing is armed), and
    tests *activate* a site with a failure mode.  Thread-safe: the GC
    thread and query threads hit sites concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sites: dict[str, SiteStats] = {}
        self._armed: dict[str, _Armed] = {}

    # -- site registration ---------------------------------------------

    def register(self, *names: str) -> None:
        """Declare failpoint sites (idempotent)."""
        with self._lock:
            for name in names:
                self._sites.setdefault(name, SiteStats())

    def sites(self) -> tuple[str, ...]:
        """Every registered site name, sorted."""
        with self._lock:
            return tuple(sorted(self._sites))

    def stats(self, site: str) -> SiteStats:
        with self._lock:
            return self._sites.get(site, SiteStats())

    # -- arming --------------------------------------------------------

    def activate(
        self,
        site: str,
        mode: str,
        nth: int = 1,
        times: Optional[int] = 1,
    ) -> None:
        """Arm ``site``: fire ``mode`` on the ``nth`` hit (and the next
        ``times - 1`` hits after that; ``times=None`` fires forever)."""
        if mode not in MODES:
            raise ValueError(f"unknown failpoint mode {mode!r}")
        if nth < 1:
            raise ValueError("nth must be >= 1")
        with self._lock:
            self._sites.setdefault(site, SiteStats())
            self._armed[site] = _Armed(mode=mode, nth=nth, times=times)

    def deactivate(self, site: str) -> None:
        with self._lock:
            self._armed.pop(site, None)

    def clear(self) -> None:
        """Disarm every site (registrations are kept)."""
        with self._lock:
            self._armed.clear()

    def armed(self) -> dict[str, str]:
        """``{site: mode}`` for every armed site."""
        with self._lock:
            return {site: arm.mode for site, arm in self._armed.items()}

    @contextmanager
    def active(
        self,
        site: str,
        mode: str,
        nth: int = 1,
        times: Optional[int] = 1,
    ):
        """Scoped activation: arm on entry, disarm on exit."""
        self.activate(site, mode, nth=nth, times=times)
        try:
            yield self
        finally:
            self.deactivate(site)

    # -- the hot path --------------------------------------------------

    def hit(self, site: str) -> Optional[str]:
        """Evaluate one pass through ``site``.

        Returns the armed mode when the failpoint fires, else ``None``.
        Callers with no mode-specific partial behaviour should use
        :meth:`check` instead, which raises for them.
        """
        with self._lock:
            stats = self._sites.get(site)
            if stats is None:
                stats = self._sites[site] = SiteStats()
            stats.hits += 1
            arm = self._armed.get(site)
            if arm is None:
                return None
            mode = arm.evaluate()
            if mode is not None:
                stats.fired += 1
            return mode

    def check(self, site: str) -> Optional[str]:
        """Hit ``site`` and raise for the simple modes.

        ``error`` raises :class:`~repro.errors.FaultInjected`; ``crash``
        raises :class:`SimulatedCrash`.  ``torn-write``,
        ``partial-fsync`` and ``corrupt`` are returned for the caller
        to apply their partial or silent effect.
        """
        mode = self.hit(site)
        if mode == MODE_ERROR:
            raise FaultInjected(f"injected I/O error at failpoint {site!r}")
        if mode == MODE_CRASH:
            raise SimulatedCrash(site)
        return mode

    # -- environment activation ----------------------------------------

    def load_env(self, env=None) -> int:
        """Arm failpoints from ``REPRO_FAILPOINTS``.

        Format: ``site=mode[:nth[:times]]`` entries separated by ``;``
        or ``,`` — e.g. ``engine.wal.append=crash:3``.  Returns the
        number of failpoints armed; malformed entries raise
        ``ValueError`` (silently ignoring a typo'd fault spec would
        defeat the point of deterministic injection).
        """
        spec = (env if env is not None else os.environ).get(_ENV_VAR, "")
        count = 0
        for entry in spec.replace(",", ";").split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ValueError(f"malformed {_ENV_VAR} entry {entry!r}")
            site, _, rest = entry.partition("=")
            parts = rest.split(":")
            mode = parts[0]
            nth = int(parts[1]) if len(parts) > 1 else 1
            times = int(parts[2]) if len(parts) > 2 else 1
            self.activate(site.strip(), mode, nth=nth, times=times)
            count += 1
        return count


#: The process-wide registry every storage module registers with.
FAILPOINTS = FailpointRegistry()
FAILPOINTS.load_env()


def torn_prefix(data: bytes) -> bytes:
    """The half-written payload a ``torn-write`` leaves behind."""
    return data[: len(data) // 2]


def corrupt_bytes(data: bytes, seed: int = 0) -> bytes:
    """Deterministically damage ``data`` (the ``corrupt`` mode's rot).

    Flips one bit at a position derived from the payload's own CRC (so
    the same input is always damaged the same way — reruns of a failing
    test reproduce it exactly), choosing a bit that is guaranteed to
    change the byte.  Empty input becomes a single junk byte, modelling
    a truncated-then-scribbled sector.  ``seed`` varies the position
    for tests that need several distinct corruptions of one payload.
    """
    if not data:
        return b"\xff"
    fingerprint = zlib.crc32(data) ^ (seed * 0x9E3779B1 & 0xFFFFFFFF)
    position = fingerprint % len(data)
    bit = (fingerprint >> 8) % 8
    damaged = bytearray(data)
    damaged[position] ^= 1 << bit
    return bytes(damaged)


class StorageIO:
    """The file abstraction all disk-touching code routes through.

    Centralises two things: the configured durability discipline
    (``durability_mode="fsync"`` syncs every write to the device;
    ``"flush"`` stops at the OS buffer, the fast default matching the
    seed behaviour) and failpoint evaluation, so every physical I/O is
    injectable.
    """

    def __init__(
        self,
        durability_mode: str = "flush",
        registry: Optional[FailpointRegistry] = None,
    ) -> None:
        if durability_mode not in ("fsync", "flush"):
            raise ValueError(
                f"durability_mode must be 'fsync' or 'flush', "
                f"got {durability_mode!r}"
            )
        self.durability_mode = durability_mode
        self.registry = registry if registry is not None else FAILPOINTS

    @property
    def fsync_enabled(self) -> bool:
        return self.durability_mode == "fsync"

    # -- streaming appends ---------------------------------------------

    def append(self, handle: BinaryIO, data: bytes, site: str) -> None:
        """Append ``data`` to an open file; injectable.

        ``crash`` fires before any byte is written; ``torn-write``
        flushes half the payload and then crashes.
        """
        mode = self.registry.check(site)
        if mode == MODE_TORN_WRITE:
            handle.write(torn_prefix(data))
            handle.flush()
            raise SimulatedCrash(site)
        if mode == MODE_CORRUPT:
            data = corrupt_bytes(data)  # silent bit rot: no exception
        if mode == MODE_DELAY:
            time.sleep(FAULT_DELAY_SECONDS)  # a slow device / stalled I/O
        handle.write(data)
        handle.flush()

    def sync(self, handle: BinaryIO, site: str, synced_size: int = 0) -> int:
        """fsync an open file (no-op in ``flush`` mode); injectable.

        Returns the new durable size.  ``partial-fsync`` simulates the
        loss of the OS write buffer: the file is cut back halfway
        between the last durable size and the current end, then the
        crash is raised.
        """
        handle.flush()
        size = handle.tell()
        mode = self.registry.check(site)
        if mode == MODE_PARTIAL_FSYNC:
            keep = synced_size + (size - synced_size) // 2
            handle.truncate(keep)
            raise SimulatedCrash(site)
        if mode == MODE_DELAY:
            time.sleep(FAULT_DELAY_SECONDS)  # a slow fsync
        if self.fsync_enabled:
            try:
                os.fsync(handle.fileno())
            except (OSError, ValueError, io_module.UnsupportedOperation):
                pass  # in-memory buffers have no file descriptor
        return size

    # -- whole files ---------------------------------------------------

    def write_file(self, path, data: bytes, site: str) -> None:
        """Atomically replace ``path`` with ``data``.

        Write-temp → flush/fsync → rename, so a crash at any instant
        leaves either the old complete file or the new complete file —
        never a torn one.  The failpoint covers the temp write (a crash
        there leaves only a stray ``.tmp``, which readers ignore).
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        mode = self.registry.check(site)
        if mode == MODE_TORN_WRITE:
            tmp.write_bytes(torn_prefix(data))
            raise SimulatedCrash(site)
        if mode == MODE_CORRUPT:
            data = corrupt_bytes(data)  # silent bit rot: no exception
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync_enabled:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.fsync_dir(path.parent)

    def rename(self, src, dst, site: str) -> None:
        """Atomic rename; ``crash``/``error`` injectable before the
        rename happens."""
        self.registry.check(site)
        os.replace(src, dst)
        self.fsync_dir(Path(dst).parent)

    def fsync_dir(self, directory) -> None:
        """Make a rename/creation durable (fsync the directory entry)."""
        if not self.fsync_enabled:
            return
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


#: Default I/O used by components not owned by an engine.
DEFAULT_IO = StorageIO()

__all__ = [
    "FAILPOINTS",
    "DEFAULT_IO",
    "FailpointRegistry",
    "StorageIO",
    "SimulatedCrash",
    "SiteStats",
    "MODE_ERROR",
    "MODE_CRASH",
    "MODE_TORN_WRITE",
    "MODE_PARTIAL_FSYNC",
    "MODE_CORRUPT",
    "MODE_DELAY",
    "MODE_DISCONNECT",
    "MODE_SHORT_READ",
    "MODES",
    "FAULT_DELAY_SECONDS",
    "torn_prefix",
    "corrupt_bytes",
]
