"""Primary → replica WAL-shipping replication with lease-based failover.

Documented in ``docs/REPLICATION.md`` (topology, lease and fencing
rules, the failover walkthrough).

Topology is single-primary, N replicas, pull-based: each replica runs a
:class:`ReplicaRunner` thread that long-polls the primary's serving
layer (``repl_fetch`` over the existing length-prefixed protocol) for
engine-WAL records past its applied watermark, verifies each record's
checksum envelope, and applies it through the timestamp-safe replay
path (:meth:`AeonG.apply_replicated`, built on
``TransactionManager.begin_replay``).  Every fetch doubles as a
heartbeat and a cumulative acknowledgement, so:

* the primary knows each replica's **applied watermark** — the
  replication *fence* that stops checkpoints from truncating WAL
  records a registered replica still needs, and the condition
  synchronous commits (``sync_commit=True``) wait on;
* the replica knows the primary is alive — when no fetch succeeds for
  ``lease_timeout`` seconds the lease is expired and the replica
  **promotes itself**: it bumps the cluster epoch, seals history at
  its fencing token (= last applied commit timestamp), and starts
  accepting writes.

Fencing: every replication message carries the sender's epoch.  A
zombie primary — one that kept serving after its lease expired — ships
records under the old epoch; receivers reject them with
:class:`~repro.errors.ReplicationFencedError` instead of forking
history.  A replica whose watermark runs *ahead* of its primary's is
diverged (:class:`~repro.errors.ReplicationDivergedError`) and must be
resynced from a fresh copy.

Snapshot bootstrap: resync is no longer terminal.  A replica that hits
``REPL_RESYNC`` (it fell behind a WAL truncation) or ``REPL_DIVERGED``
issues ``repl_snapshot``: the primary prepares an online backup of its
durability directory (:mod:`repro.backup`) under ``repl-snapshot/``,
serves its ``MANIFEST`` plus checksummed chunks, and the replica
streams the archive (resumable at the failed offset after a
disconnect), restores it, adopts the restored state in place
(:meth:`AeonG.adopt_snapshot_state`), and rejoins the WAL stream at
the snapshot watermark.  Only a primary with no durability directory
still surfaces the old terminal condition.

Each shipped record is an engine-WAL record body
(:func:`repro.core.durability.encode_txn`) sealed in the checksum
envelope of :mod:`repro.common.framing`.

The stream's failpoint sites are ``repl.stream.write`` (evaluated on
the primary while building a fetch response; ``torn-write`` damages
the final envelope so the replica's checksum catches it) and
``repl.stream.read`` (evaluated by the runner before decoding;
``short-read`` truncates the batch mid-envelope).  Both are covered by
the crash matrix in ``tests/test_fault_matrix.py``.
"""

from __future__ import annotations

import base64
import os
import shutil
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.common.framing import seal, unseal
from repro.core.durability import decode_txn, encode_txn
from repro.errors import (
    CorruptionError,
    FaultInjected,
    ProtocolError,
    ReplicationDivergedError,
    ReplicationFencedError,
    ReplicationResyncRequired,
    ReproError,
    ServerError,
    StorageError,
)
from repro import faults
from repro.faults import (
    FAILPOINTS,
    MODE_CORRUPT,
    MODE_CRASH,
    MODE_DELAY,
    MODE_DISCONNECT,
    MODE_ERROR,
    MODE_SHORT_READ,
    MODE_TORN_WRITE,
    SimulatedCrash,
    corrupt_bytes,
    torn_prefix,
)
from repro.resilience import RetryPolicy

#: The replication stream's failpoint sites (armable like any storage
#: site; exercised by the fault matrix).
SITE_STREAM_READ = "repl.stream.read"
SITE_STREAM_WRITE = "repl.stream.write"
#: The snapshot-bootstrap stream's sites: ``repl.snapshot.write`` fires
#: on the primary per served chunk, ``repl.snapshot.read`` on the
#: replica per fetched chunk (``torn-write``/``corrupt``/``short-read``
#: damage a chunk so its checksum forces a re-fetch; ``disconnect``
#: tears the connection and the fetch resumes at the same offset).
SITE_SNAPSHOT_READ = "repl.snapshot.read"
SITE_SNAPSHOT_WRITE = "repl.snapshot.write"
FAILPOINTS.register(
    SITE_STREAM_READ, SITE_STREAM_WRITE,
    SITE_SNAPSHOT_READ, SITE_SNAPSHOT_WRITE,
)

#: Directory (under the primary's durability dir) holding the snapshot
#: archive served to resyncing replicas.
SNAPSHOT_DIRNAME = "repl-snapshot"
#: Raw bytes per snapshot chunk.  Base64 inflates 4/3x on the wire, so
#: this stays far inside the protocol's 4 MiB frame limit.
SNAPSHOT_CHUNK_BYTES = 1 << 20
#: Consecutive failures fetching one chunk before the whole resync
#: attempt is abandoned (it retries from scratch on the next loop).
SNAPSHOT_CHUNK_RETRIES = 8

#: Retry schedule for a runner's reconnect attempts between lease checks.
RUNNER_POLICY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.2)


# -- record envelope --------------------------------------------------------


def encode_record(commit_ts: int, ops: list[tuple]) -> bytes:
    """One WAL record in its checksummed wire envelope."""
    return seal(encode_txn(commit_ts, ops))


def decode_record(blob: bytes) -> tuple[int, list[tuple]]:
    """Verify and unwrap one envelope; raises
    :class:`~repro.errors.CorruptionError` on any damage — a torn or
    bit-flipped record must never be applied."""
    return decode_txn(unseal(blob))


def pack_records(records: list[tuple[int, list[tuple]]]) -> list[str]:
    """Envelope + base64 a batch for the JSON wire protocol."""
    return [
        base64.b64encode(encode_record(ts, ops)).decode("ascii")
        for ts, ops in records
    ]


def unpack_record(blob_b64: str) -> tuple[int, list[tuple]]:
    """Decode one wire-form record (base64 → envelope → payload)."""
    try:
        blob = base64.b64decode(blob_b64.encode("ascii"), validate=True)
    except Exception as exc:
        raise CorruptionError(
            f"replication record is not valid base64: {exc}"
        ) from exc
    return decode_record(blob)


# -- configuration ----------------------------------------------------------


@dataclass
class ReplicationConfig:
    """Tunables for one node's replication behaviour."""

    #: ``"primary"`` (standalone nodes are primaries with no replicas)
    #: or ``"replica"``.
    role: str = "primary"
    #: Stable identity this node registers under when it is a replica.
    replica_id: str = "replica-1"
    #: ``(host, port)`` of the primary (replicas only).
    primary_host: Optional[str] = None
    primary_port: Optional[int] = None
    #: Long-poll window the replica asks the primary to hold a fetch
    #: open for when no records are pending.
    poll_interval: float = 0.2
    #: Seconds without a successful fetch before the primary's lease is
    #: considered expired and the replica may promote itself.
    lease_timeout: float = 2.0
    #: Whether lease expiry triggers self-promotion (False = the
    #: replica keeps retrying until an operator sends ``promote``).
    auto_promote: bool = True
    #: Primary: acknowledge a commit only after a replica has applied
    #: it (zero acknowledged-write loss across failover).
    sync_commit: bool = False
    #: How long a synchronous commit waits for a replica ack before
    #: raising :class:`~repro.errors.ReplicationTimeout`.
    sync_timeout: float = 5.0
    #: Records per fetch response.
    fetch_batch: int = 512
    #: Recent records kept in memory on the primary so steady-state
    #: fetches never re-scan the WAL file.
    ring_size: int = 4096

    def __post_init__(self) -> None:
        if self.role not in ("primary", "replica"):
            raise ValueError(f"role must be primary|replica, got {self.role!r}")
        if self.role == "replica" and (
            self.primary_host is None or self.primary_port is None
        ):
            raise ValueError("replica role requires primary_host/primary_port")
        if self.lease_timeout <= 0 or self.poll_interval < 0:
            raise ValueError("lease_timeout must be > 0, poll_interval >= 0")
        if self.fetch_batch < 1 or self.ring_size < 1:
            raise ValueError("fetch_batch and ring_size must be >= 1")


@dataclass
class ReplicaInfo:
    """The primary's view of one registered replica."""

    replica_id: str
    watermark: int = 0
    epoch: int = 1
    last_seen: float = 0.0
    fetches: int = 0


# -- shared node state ------------------------------------------------------


class ReplicationState:
    """One node's replication role, epoch, fence, and peer bookkeeping.

    Attached to every engine as ``engine.replication`` (standalone
    engines are primaries with no registered replicas, so all of this
    is dormant until a replica attaches or the node is configured as a
    replica).  Thread-safe: the commit path, the serving layer's
    executor threads, and the replica runner all touch it.
    """

    def __init__(
        self,
        config: Optional[ReplicationConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else ReplicationConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.role = self.config.role
        #: Cluster epoch; bumped by every promotion.  Replication
        #: messages from an older epoch are fenced.
        self.epoch = 1
        #: Fencing token: commits at or below this timestamp are sealed
        #: history (set to the applied watermark at promotion).
        self.fence_ts = 0
        #: Primary: registered replicas by id.
        self.replicas: dict[str, ReplicaInfo] = {}
        #: Recent committed records ``(commit_ts, ops)`` — the fast
        #: path for fetches; older ranges fall back to the WAL file.
        self._ring: deque[tuple[int, list[tuple]]] = deque(
            maxlen=self.config.ring_size
        )
        #: Replica: the primary's watermark as of the last fetch.
        self.primary_watermark = 0
        #: Engine back-reference (set by the engine) for WAL fallback
        #: scans and watermark reads.
        self.engine = None
        self.counters = {
            "records_shipped": 0,
            "batches_shipped": 0,
            "ring_batches": 0,
            "records_applied": 0,
            "batches_applied": 0,
            "apply_skipped": 0,
            "checksum_failures": 0,
            "stream_faults": 0,
            "fenced_rejections": 0,
            "divergence_detected": 0,
            "resyncs_required": 0,
            "promotions": 0,
            "sync_commit_waits": 0,
            "sync_commit_timeouts": 0,
            "lease_expiries": 0,
            # snapshot-bootstrap (resync) counters; the primary side
            # counts served/shipped, the replica side fetched/resumed.
            "resyncs_started": 0,
            "resyncs_completed": 0,
            "resync_failures": 0,
            "snapshots_served": 0,
            "snapshot_chunks_served": 0,
            "snapshot_bytes_shipped": 0,
            "snapshot_chunks_fetched": 0,
            "snapshot_chunks_resumed": 0,
            "snapshot_bytes_fetched": 0,
        }
        #: Serializes snapshot preparation on the primary (concurrent
        #: ``repl_snapshot`` manifest requests share one archive).
        self.snapshot_lock = threading.Lock()

    # -- role ----------------------------------------------------------

    @property
    def is_replica(self) -> bool:
        return self.role == "replica"

    def watermark(self) -> int:
        """This node's applied watermark: the newest commit timestamp
        visible to readers (``oracle.peek() - 1``)."""
        if self.engine is None:
            return 0
        return self.engine.manager.oracle.peek() - 1

    def promote(self) -> dict[str, Any]:
        """Replica → primary: bump the epoch and seal history at the
        fencing token (the applied watermark).  Idempotent-ish: calling
        it on a primary only reports the current state."""
        with self._cond:
            if self.role != "primary":
                self.role = "primary"
                self.epoch += 1
                self.fence_ts = self.watermark()
                self.counters["promotions"] += 1
                self._cond.notify_all()
            return {
                "role": self.role,
                "epoch": self.epoch,
                "fence_ts": self.fence_ts,
                "watermark": self.watermark(),
            }

    def adopt_epoch(self, epoch: int) -> None:
        """A fetch response revealed a newer cluster epoch (our primary
        was itself promoted); follow it."""
        with self._cond:
            if epoch > self.epoch:
                self.epoch = epoch

    # -- primary: commit log + replica bookkeeping ---------------------

    def note_commit(self, commit_ts: int, ops: list[tuple]) -> None:
        """Record one committed transaction for shipping (called by the
        engine's commit path, after the WAL append)."""
        self.note_commit_batch([(commit_ts, ops)])

    def note_commit_batch(
        self, records: list[tuple[int, list[tuple]]]
    ) -> None:
        """Record a whole durable group-commit batch for shipping.

        ``records`` must already be in commit-timestamp order (the
        group-commit writer's queue order) — the ring is the shipping
        stream's source of truth and fetchers assume monotonic
        timestamps.  One ``notify_all`` covers the whole batch, so
        semi-sync committers and long-poll fetchers wake once per
        *batch*, not once per record.
        """
        if not records:
            return
        with self._cond:
            self._ring.extend(records)
            self.counters["ring_batches"] = (
                self.counters.get("ring_batches", 0) + 1
            )
            self._cond.notify_all()

    def note_applied(self) -> None:
        """A replicated record was applied locally (replica side);
        wakes snapshot readers waiting on the watermark."""
        with self._cond:
            self._cond.notify_all()

    def register_replica(self, replica_id: str, watermark: int,
                         epoch: int) -> ReplicaInfo:
        with self._cond:
            info = self.replicas.get(replica_id)
            if info is None:
                info = ReplicaInfo(replica_id=replica_id)
                self.replicas[replica_id] = info
            info.watermark = max(info.watermark, watermark)
            info.epoch = epoch
            info.last_seen = self.clock()
            return info

    def ack(self, replica_id: str, watermark: int, epoch: int) -> None:
        """A fetch arrived: heartbeat + cumulative apply ack."""
        with self._cond:
            info = self.replicas.get(replica_id)
            if info is None:
                info = ReplicaInfo(replica_id=replica_id)
                self.replicas[replica_id] = info
            info.watermark = max(info.watermark, watermark)
            info.epoch = epoch
            info.last_seen = self.clock()
            info.fetches += 1
            self._cond.notify_all()

    def wal_retain_ts(self) -> Optional[int]:
        """The replication fence against checkpoint truncation.

        ``None`` when no replica is registered (checkpoints may
        truncate freely); otherwise the first commit timestamp that
        must survive truncation — one past the slowest registered
        replica's acknowledged watermark.
        """
        with self._lock:
            if not self.replicas:
                return None
            return min(i.watermark for i in self.replicas.values()) + 1

    def wait_replicated(self, commit_ts: int, timeout: float) -> bool:
        """Synchronous-commit wait: block until some replica's applied
        watermark reaches ``commit_ts`` (semi-sync, any-one-replica).
        Returns False on timeout."""
        deadline = self.clock() + timeout
        with self._cond:
            self.counters["sync_commit_waits"] += 1
            while True:
                if any(
                    i.watermark >= commit_ts for i in self.replicas.values()
                ):
                    return True
                remaining = deadline - self.clock()
                if remaining <= 0:
                    self.counters["sync_commit_timeouts"] += 1
                    return False
                self._cond.wait(min(remaining, 0.05))

    def records_from(
        self, from_ts: int, limit: int, wait: float = 0.0
    ) -> list[tuple[int, list[tuple]]]:
        """Committed records with ``commit_ts >= from_ts``, oldest
        first, at most ``limit``.

        Served from the in-memory ring when it covers the range,
        falling back to a WAL-file scan for older ranges (e.g. a
        replica resuming after a primary restart).  With ``wait`` > 0
        and nothing pending, blocks up to that long for a new commit —
        the long-poll half of the replica's heartbeat.  Raises
        :class:`~repro.errors.ReplicationResyncRequired` when the WAL
        has been truncated past ``from_ts``.
        """
        if from_ts <= self._truncation_fence():
            # Never serve records past a truncated gap: a fetch below
            # the fence would silently skip the dropped range.
            self.counters["resyncs_required"] += 1
            raise ReplicationResyncRequired(
                f"records from commit timestamp {from_ts} are no longer "
                f"available (truncation fence {self._truncation_fence()});"
                " bootstrap this replica from a copy of the primary's "
                "data directory"
            )
        deadline = self.clock() + wait
        while True:
            with self._cond:
                ring = list(self._ring)
            if ring and ring[0][0] <= from_ts:
                out = [(ts, ops) for ts, ops in ring if ts >= from_ts]
                if out:
                    return out[:limit]
            else:
                # The ring does not cover the requested range (replica
                # far behind, or primary freshly restarted with an
                # empty ring): fall back to a WAL-file scan.
                wal_records = (
                    self.engine.wal_records_from(from_ts)
                    if self.engine is not None
                    else None
                )
                if wal_records:
                    return wal_records[:limit]
                out = [(ts, ops) for ts, ops in ring if ts >= from_ts]
                if out:
                    return out[:limit]
            remaining = deadline - self.clock()
            if remaining <= 0:
                return []
            with self._cond:
                self._cond.wait(min(remaining, 0.05))

    def _truncation_fence(self) -> int:
        if self.engine is None:
            return 0
        return self.engine.wal_truncation_fence()

    def reset_after_bootstrap(self) -> None:
        """Drop state tied to the pre-bootstrap timeline (called after
        :meth:`AeonG.adopt_snapshot_state`): the in-memory ring may
        hold records from the discarded history, and serving them to a
        downstream peer would fork it again."""
        with self._cond:
            self._ring.clear()
            self._cond.notify_all()

    # -- metrics -------------------------------------------------------

    def resync_metrics(self, registry=None) -> dict[str, Any]:
        """The ``resync`` metrics section: snapshot-bootstrap counters
        plus the resync duration histogram from ``registry``."""
        with self._lock:
            out = {
                key: value
                for key, value in self.counters.items()
                if key.startswith(("resync", "snapshot"))
            }
        if registry is not None:
            out["duration_seconds"] = registry.histogram(
                "resync.seconds"
            ).summary()
        return out

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            watermark = self.watermark()
            replicas = {
                rid: {
                    "watermark": info.watermark,
                    "epoch": info.epoch,
                    "lag": max(0, watermark - info.watermark),
                    "fetches": info.fetches,
                    "seconds_since_seen": (
                        self.clock() - info.last_seen
                        if info.last_seen
                        else None
                    ),
                }
                for rid, info in self.replicas.items()
            }
            lag = (
                max(0, self.primary_watermark - watermark)
                if self.role == "replica"
                else (
                    max(r["lag"] for r in replicas.values())
                    if replicas
                    else 0
                )
            )
            return {
                "role": self.role,
                "epoch": self.epoch,
                "fence_ts": self.fence_ts,
                "watermark": watermark,
                "lag": lag,
                "replicas": replicas,
                **self.counters,
            }


# -- the replica's pull loop ------------------------------------------------


class ReplicaRunner:
    """The replica-side replication thread.

    Long-polls the primary for WAL records, verifies and applies them,
    and watches the lease: when no fetch has succeeded for
    ``lease_timeout`` seconds, the primary is presumed dead and (with
    ``auto_promote``) the replica promotes itself.  The runner then
    exits; the serving layer consults ``engine.replication.role`` per
    request, so the promoted node starts accepting writes immediately.
    """

    def __init__(
        self,
        engine,
        config: ReplicationConfig,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if config.role != "replica":
            raise ValueError("ReplicaRunner requires a replica-role config")
        self.engine = engine
        self.config = config
        self.state: ReplicationState = engine.replication
        self.policy = policy or RUNNER_POLICY
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._client = None
        #: Why the loop ended: ``None`` (still running / clean stop),
        #: ``"promoted"``, ``"fenced"``, ``"diverged"``, ``"resync"``.
        #: The latter two are now reached only when the primary cannot
        #: serve bootstrap snapshots (no durability dir) — otherwise
        #: the runner self-heals via ``repl_snapshot`` and keeps going.
        self.stopped_reason: Optional[str] = None
        self.last_error: Optional[str] = None
        #: Clock reading of the last verified snapshot chunk — resync
        #: progress counts as proof of primary liveness for the lease.
        self._resync_progress = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="aeong-replica", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
        self._close_client()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _close_client(self) -> None:
        client = self._client
        self._client = None
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    # -- the loop ------------------------------------------------------

    def _connect(self):
        from repro.server.client import Client

        client = Client(
            self.config.primary_host,
            self.config.primary_port,
            policy=self.policy,
            connect_timeout=max(0.2, self.config.lease_timeout / 2),
            request_timeout=max(1.0, self.config.poll_interval * 4 + 2.0),
        )
        client.connect()
        client.request(
            {
                "op": "repl_register",
                "replica_id": self.config.replica_id,
                "watermark": self.state.watermark(),
                "epoch": self.state.epoch,
            }
        )
        return client

    def _run(self) -> None:
        last_ok = self.state.clock()
        attempt = 0
        while not self._stop.is_set():
            if self.state.role != "replica":
                self.stopped_reason = self.stopped_reason or "promoted"
                return
            try:
                if self._client is None:
                    self._client = self._connect()
                response = self._client.request(
                    {
                        "op": "repl_fetch",
                        "replica_id": self.config.replica_id,
                        "from_ts": self.state.watermark() + 1,
                        "ack": self.state.watermark(),
                        "epoch": self.state.epoch,
                        "wait": self.config.poll_interval,
                        "limit": self.config.fetch_batch,
                    }
                )
            except ServerError as exc:
                if exc.code == "REPL_FENCED":
                    self.state.counters["fenced_rejections"] += 1
                    self.stopped_reason = "fenced"
                    return
                if exc.code in ("REPL_DIVERGED", "REPL_RESYNC"):
                    if exc.code == "REPL_DIVERGED":
                        self.state.counters["divergence_detected"] += 1
                    else:
                        self.state.counters["resyncs_required"] += 1
                    outcome = self._try_resync()
                    if outcome == "healed":
                        attempt = 0
                        last_ok = self.state.clock()
                        continue
                    if outcome == "unsupported":
                        self.stopped_reason = (
                            "diverged" if exc.code == "REPL_DIVERGED"
                            else "resync"
                        )
                        return
                    # Transient resync failure (primary down mid-stream,
                    # injected chunk faults): chunk progress proves the
                    # primary was alive, so credit it against the lease.
                    last_ok = max(last_ok, self._resync_progress)
                    last_ok, attempt = self._transient(exc, last_ok, attempt)
                    continue
                last_ok, attempt = self._transient(exc, last_ok, attempt)
                continue
            except (ConnectionError, OSError, ProtocolError) as exc:
                last_ok, attempt = self._transient(exc, last_ok, attempt)
                continue
            attempt = 0
            last_ok = self.state.clock()
            try:
                self._ingest(response)
            except CorruptionError as exc:
                # A torn or damaged batch: nothing was applied past the
                # damage; the next fetch re-requests from the watermark.
                self.state.counters["checksum_failures"] += 1
                self.last_error = repr(exc)
            except FaultInjected as exc:
                self.state.counters["stream_faults"] += 1
                self.last_error = repr(exc)
            except ReplicationDivergedError as exc:
                outcome = self._try_resync()
                if outcome == "healed":
                    attempt = 0
                    last_ok = self.state.clock()
                    continue
                if outcome == "unsupported":
                    self.stopped_reason = "diverged"
                    return
                last_ok = max(last_ok, self._resync_progress)
                last_ok, attempt = self._transient(exc, last_ok, attempt)
        self.stopped_reason = self.stopped_reason or "stopped"

    def _transient(self, exc: BaseException, last_ok: float,
                   attempt: int) -> tuple[float, int]:
        """A fetch failed for a retryable reason: reconnect later, and
        check the lease on the way."""
        self.last_error = repr(exc)
        self._close_client()
        now = self.state.clock()
        if now - last_ok >= self.config.lease_timeout:
            self.state.counters["lease_expiries"] += 1
            if self.config.auto_promote:
                self.state.promote()
                self.stopped_reason = "promoted"
                # Runner exits via the role check at the top of _run.
                return last_ok, attempt
            last_ok = now  # re-arm the lease so the counter is per-expiry
        attempt += 1
        delay = self.policy.delay(min(attempt, self.policy.max_attempts))
        self._stop.wait(delay)
        return last_ok, attempt

    # -- snapshot bootstrap (replica side) -----------------------------

    def _try_resync(self) -> str:
        """Bootstrap this replica from a primary snapshot.

        Returns ``"healed"`` (state adopted, rejoin the stream at the
        snapshot watermark), ``"unsupported"`` (the primary cannot
        serve snapshots — the caller surfaces the pre-snapshot terminal
        ``resync``/``diverged`` condition), or ``"failed"`` (transient:
        the caller backs off and the loop retries, so a primary killed
        mid-resync is survived once it comes back).
        """
        state = self.state
        state.counters["resyncs_started"] += 1
        started = state.clock()
        try:
            if not self._resync():
                return "unsupported"
        except Exception as exc:
            state.counters["resync_failures"] += 1
            self.last_error = repr(exc)
            self._close_client()
            return "failed"
        state.counters["resyncs_completed"] += 1
        self.engine.observability.registry.histogram(
            "resync.seconds"
        ).observe(state.clock() - started)
        return "healed"

    def _resync(self) -> bool:
        """Fetch → restore → adopt.  ``False`` means the primary has no
        snapshot to offer (terminal); exceptions are transient."""
        import tempfile

        from repro.backup import restore_backup

        engine = self.engine
        durable = engine._durability_dir
        scratch: Optional[Path] = None
        if durable is not None:
            archive = Path(durable) / "resync.archive.tmp"
            restore_dir = Path(durable) / "resync.restore.tmp"
        else:
            scratch = Path(tempfile.mkdtemp(prefix="aeong-resync-"))
            archive = scratch / "archive"
            restore_dir = scratch / "restore"
        try:
            try:
                self._fetch_snapshot(archive)
            except ServerError as exc:
                if exc.code in ("REPL_RESYNC", "REPL_DIVERGED"):
                    # The primary itself says it cannot serve a
                    # snapshot (no durability dir): the old dead end.
                    return False
                raise
            for stale in (restore_dir,
                          restore_dir.with_name(restore_dir.name + ".tmp")):
                if stale.exists():
                    shutil.rmtree(stale)
            restore_backup(
                archive, restore_dir, storage_io=engine._storage_io
            )
            self._bootstrap(restore_dir)
            return True
        finally:
            shutil.rmtree(archive, ignore_errors=True)
            shutil.rmtree(restore_dir, ignore_errors=True)
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)

    def _fetch_snapshot(self, archive: Path) -> dict[str, Any]:
        """Stream the primary's snapshot archive into ``archive``,
        chunk by chunk, verifying every chunk's crc32 and resuming at
        the failed offset after a disconnect.  The local ``MANIFEST``
        is written last — its presence marks the copy complete, the
        same commit-point discipline as :func:`repro.backup.create_backup`."""
        from repro.backup import write_manifest

        if self._client is None:
            self._client = self._connect()
        response = self._client.request(
            {
                "op": "repl_snapshot",
                "replica_id": self.config.replica_id,
                "epoch": self.state.epoch,
            }
        )
        epoch = response.get("epoch", self.state.epoch)
        if epoch > self.state.epoch:
            self.state.adopt_epoch(epoch)
        manifest = response["manifest"]
        snapshot_id = response["snapshot_id"]
        chunk_bytes = int(response.get("chunk_bytes", SNAPSHOT_CHUNK_BYTES))
        if archive.exists():
            shutil.rmtree(archive)
        archive.mkdir(parents=True)
        root = archive.resolve()
        for entry in manifest["files"]:
            target = (archive / entry["name"]).resolve()
            if not str(target).startswith(str(root) + os.sep):
                raise ProtocolError(
                    f"snapshot file name {entry['name']!r} escapes the "
                    "archive directory"
                )
            self._fetch_file(archive, snapshot_id, entry, chunk_bytes)
        write_manifest(archive, manifest)
        return manifest

    def _fetch_file(
        self,
        archive: Path,
        snapshot_id: str,
        entry: dict[str, Any],
        chunk_bytes: int,
    ) -> None:
        """Fetch one archived file.  Each chunk survives up to
        :data:`SNAPSHOT_CHUNK_RETRIES` consecutive failures (connection
        drops resume at the same offset; checksum mismatches re-request
        the chunk) before the whole resync attempt is abandoned."""
        name = entry["name"]
        size = int(entry["size"])
        path = archive / name
        path.parent.mkdir(parents=True, exist_ok=True)
        buffer = bytearray()
        failures = 0

        def _retryable(exc: BaseException) -> None:
            nonlocal failures
            failures += 1
            self.last_error = repr(exc)
            if failures > SNAPSHOT_CHUNK_RETRIES:
                raise exc
            self._stop.wait(
                self.policy.delay(min(failures, self.policy.max_attempts))
            )

        while True:
            if self._stop.is_set():
                raise StorageError("resync interrupted by runner stop")
            try:
                if self._client is None:
                    self._client = self._connect()
                response = self._client.request(
                    {
                        "op": "repl_snapshot",
                        "snapshot_id": snapshot_id,
                        "file": name,
                        "offset": len(buffer),
                        "length": chunk_bytes,
                    }
                )
            except ServerError as exc:
                if exc.code == "IO_ERROR":
                    # Injected repl.snapshot.write error: chunk retry.
                    self.state.counters["stream_faults"] += 1
                    _retryable(exc)
                    continue
                raise
            except (ConnectionError, OSError, ProtocolError) as exc:
                self._close_client()
                self.state.counters["snapshot_chunks_resumed"] += 1
                _retryable(exc)
                continue
            data = base64.b64decode(
                (response.get("data") or "").encode("ascii")
            )
            mode = FAILPOINTS.hit(SITE_SNAPSHOT_READ)
            if mode == MODE_CRASH:
                raise SimulatedCrash(SITE_SNAPSHOT_READ)
            if mode == MODE_ERROR:
                self.state.counters["stream_faults"] += 1
                _retryable(
                    FaultInjected(
                        f"injected I/O error at {SITE_SNAPSHOT_READ}"
                    )
                )
                continue
            if mode == MODE_DELAY:
                time.sleep(faults.FAULT_DELAY_SECONDS)
            elif mode == MODE_DISCONNECT:
                self._close_client()
                self.state.counters["snapshot_chunks_resumed"] += 1
                _retryable(
                    ConnectionResetError(
                        f"injected disconnect at {SITE_SNAPSHOT_READ}"
                    )
                )
                continue
            elif mode in (MODE_SHORT_READ, MODE_TORN_WRITE):
                data = torn_prefix(data)
            elif mode == MODE_CORRUPT:
                data = corrupt_bytes(data)
            if size == 0:
                break
            if not data or zlib.crc32(data) != response.get("crc32"):
                self.state.counters["checksum_failures"] += 1
                _retryable(
                    CorruptionError(
                        f"snapshot chunk for {name!r} at offset "
                        f"{len(buffer)} failed its checksum"
                    )
                )
                continue
            buffer += data
            failures = 0
            self.state.counters["snapshot_chunks_fetched"] += 1
            self.state.counters["snapshot_bytes_fetched"] += len(data)
            self._resync_progress = self.state.clock()
            if len(buffer) >= size:
                break
        if len(buffer) != size or zlib.crc32(bytes(buffer)) != entry["crc32"]:
            raise CorruptionError(
                f"fetched snapshot file {name!r} does not match its "
                "manifest checksum"
            )
        path.write_bytes(bytes(buffer))

    def _bootstrap(self, restore_dir: Path) -> None:
        """Replace this replica's state with the restored snapshot.

        Durable replicas swap their durability directory's WAL and
        checkpoint for the restored ones *before* reopening: a crash
        mid-swap leaves a directory that recovers to a prefix of the
        snapshot (or empty) and simply resyncs again on the next run —
        never a fork.  In-memory replicas adopt the restored engine's
        state and drop the scratch directory.
        """
        from repro.core.durability import (
            CHECKPOINT_DIRNAME,
            CHECKPOINT_OLD_DIRNAME,
            CHECKPOINT_TMP_DIRNAME,
            WAL_FILENAME,
        )

        engine = self.engine
        durable = engine._durability_dir
        kwargs = dict(
            temporal=engine.temporal,
            model=engine.model,
            anchor_interval=engine.anchor_policy.interval,
            gc_interval_transactions=engine._gc_interval,
            enforce_vt_constraints=engine.enforce_vt_constraints,
            durability_mode=engine.durability_mode,
        )
        from repro.core.engine import AeonG

        if durable is not None:
            durable = Path(durable)
            engine.detach_wal()
            for stale_name in (
                WAL_FILENAME,
                CHECKPOINT_DIRNAME,
                CHECKPOINT_TMP_DIRNAME,
                CHECKPOINT_OLD_DIRNAME,
                SNAPSHOT_DIRNAME,
            ):
                stale = durable / stale_name
                if stale.is_dir():
                    shutil.rmtree(stale)
                elif stale.exists():
                    stale.unlink()
            for item in list(restore_dir.iterdir()):
                os.replace(item, durable / item.name)
            donor = AeonG.open(durable, **kwargs)
            engine.adopt_snapshot_state(donor)
        else:
            donor = AeonG.open(restore_dir, **kwargs)
            engine.adopt_snapshot_state(donor)
            # The scratch directory is deleted by the caller: stop
            # journaling into it and stay an in-memory engine.
            engine.detach_wal()
            engine._durability_dir = None

    def _ingest(self, response: dict[str, Any]) -> None:
        """Verify and apply one fetch response."""
        mode = FAILPOINTS.check(SITE_STREAM_READ)
        if mode == MODE_DELAY:
            time.sleep(faults.FAULT_DELAY_SECONDS)
        elif mode == MODE_DISCONNECT:
            self._close_client()
            raise FaultInjected(
                f"injected disconnect at {SITE_STREAM_READ}"
            )
        records = response.get("records") or []
        if mode in (MODE_SHORT_READ, MODE_TORN_WRITE) and records:
            # The "connection died mid-batch" shape: the tail envelope
            # arrives truncated and must fail its checksum.
            damaged = base64.b64encode(
                torn_prefix(base64.b64decode(records[-1]))
            ).decode("ascii")
            records = records[:-1] + [damaged]
        epoch = response.get("epoch", self.state.epoch)
        if epoch > self.state.epoch:
            self.state.adopt_epoch(epoch)
        watermark = self.state.watermark()
        primary_watermark = int(response.get("watermark", 0))
        if primary_watermark < watermark:
            self.state.counters["divergence_detected"] += 1
            raise ReplicationDivergedError(
                f"replica watermark {watermark} is ahead of the "
                f"primary's {primary_watermark}; resync required"
            )
        self.state.primary_watermark = primary_watermark
        applied = 0
        for blob in records:
            commit_ts, ops = unpack_record(blob)  # CorruptionError stops here
            if self.engine.apply_replicated(commit_ts, ops):
                applied += 1
            else:
                self.state.counters["apply_skipped"] += 1
        if records:
            self.state.counters["batches_applied"] += 1
            self.state.counters["records_applied"] += applied


# -- the primary's fetch handler (shared by the serving layer) --------------


def build_fetch_response(
    engine,
    replica_id: str,
    from_ts: int,
    ack: int,
    epoch: int,
    wait: float,
    limit: int,
) -> dict[str, Any]:
    """Serve one ``repl_fetch``: fence, divergence-check, ack, collect.

    Runs on the serving layer's executor (it may block in the
    long-poll).  The ``repl.stream.write`` failpoint is evaluated here:
    ``error`` raises :class:`~repro.errors.FaultInjected`, ``delay``
    stalls the ship, ``disconnect`` tears the connection, and
    ``torn-write`` truncates the final envelope so the replica's
    checksum verification catches the damage and re-fetches.
    """
    state = engine.replication
    mode = FAILPOINTS.check(SITE_STREAM_WRITE)
    if mode == MODE_DELAY:
        time.sleep(faults.FAULT_DELAY_SECONDS)
    elif mode == MODE_DISCONNECT:
        state.counters["stream_faults"] += 1
        raise ConnectionResetError(
            f"injected disconnect at {SITE_STREAM_WRITE}"
        )
    if epoch > state.epoch:
        # The requester has seen a newer epoch than ours: we are the
        # stale node (a zombie primary being fetched from).  Refuse.
        state.counters["fenced_rejections"] += 1
        raise ReplicationFencedError(
            f"node is at epoch {state.epoch} but replica {replica_id!r} "
            f"reports epoch {epoch}; this primary has been superseded"
        )
    watermark = state.watermark()
    if ack > watermark:
        state.counters["divergence_detected"] += 1
        raise ReplicationDivergedError(
            f"replica {replica_id!r} acknowledges watermark {ack} but the "
            f"primary's is {watermark}; the replica holds unshipped "
            "history and must be resynced"
        )
    state.ack(replica_id, ack, epoch)
    records = state.records_from(from_ts, limit, wait=wait)
    envelopes = pack_records(records)
    if mode == MODE_TORN_WRITE and envelopes:
        state.counters["stream_faults"] += 1
        envelopes[-1] = base64.b64encode(
            torn_prefix(base64.b64decode(envelopes[-1]))
        ).decode("ascii")
    state.counters["batches_shipped"] += 1
    state.counters["records_shipped"] += len(records)
    return {
        "records": envelopes,
        "watermark": state.watermark(),
        "epoch": state.epoch,
        "fence_ts": state.fence_ts,
    }


# -- snapshot bootstrap (primary side) --------------------------------------


def _ensure_snapshot(engine) -> tuple[Any, dict[str, Any]]:
    """Prepare (or reuse) the snapshot archive served to resyncing
    replicas, under ``durability_dir/repl-snapshot``.

    Reused while its watermark still meets the WAL truncation fence —
    a replica bootstrapped from it can rejoin the stream at
    ``watermark + 1``.  A later checkpoint that truncated past it
    forces a rebuild.  Raises
    :class:`~repro.errors.ReplicationResyncRequired` on a primary with
    no durability directory: such a node has nothing to snapshot, and
    the replica's runner surfaces the old terminal condition.
    """
    from repro.backup import create_backup, read_manifest

    state = engine.replication
    directory = engine._durability_dir
    if directory is None or engine._wal is None:
        raise ReplicationResyncRequired(
            "this primary has no durability directory and cannot serve "
            "bootstrap snapshots; reseed the replica from a copy of "
            "the primary's data"
        )
    snapshot = directory / SNAPSHOT_DIRNAME
    with state.snapshot_lock:
        manifest: Optional[dict[str, Any]] = None
        try:
            manifest = read_manifest(snapshot)
        except ReproError:
            manifest = None
        fence = engine.wal_truncation_fence()
        if manifest is None or manifest["watermark"] < fence:
            if snapshot.exists():
                shutil.rmtree(snapshot)
            create_backup(
                directory, snapshot, storage_io=engine._storage_io
            )
            manifest = read_manifest(snapshot)
        return snapshot, manifest


def serve_snapshot_request(engine, request: dict) -> dict[str, Any]:
    """Serve one ``repl_snapshot``: a manifest request (no ``file``
    key) prepares/reuses the archive and describes it; a chunk request
    returns up to :data:`SNAPSHOT_CHUNK_BYTES` of one archived file
    with a per-chunk crc32, so the replica verifies every chunk and
    resumes at the failed offset after a disconnect.

    The ``repl.snapshot.write`` failpoint fires here per request:
    ``error`` raises :class:`~repro.errors.FaultInjected` (the replica
    retries the chunk), ``disconnect`` tears the connection (the
    replica reconnects and resumes), and ``torn-write``/``corrupt``
    damage the chunk *after* its checksum is computed, so the
    replica's verification catches it.
    """
    state = engine.replication
    mode = FAILPOINTS.check(SITE_SNAPSHOT_WRITE)
    if mode == MODE_DELAY:
        time.sleep(faults.FAULT_DELAY_SECONDS)
    elif mode == MODE_DISCONNECT:
        state.counters["stream_faults"] += 1
        raise ConnectionResetError(
            f"injected disconnect at {SITE_SNAPSHOT_WRITE}"
        )
    name = request.get("file")
    if name is None:
        _snapshot, manifest = _ensure_snapshot(engine)
        state.counters["snapshots_served"] += 1
        return {
            "snapshot_id": f"snap-{manifest['watermark']}",
            "manifest": manifest,
            "watermark": state.watermark(),
            "epoch": state.epoch,
            "chunk_bytes": SNAPSHOT_CHUNK_BYTES,
        }
    from repro.backup import read_manifest

    if engine._durability_dir is None:
        raise ReplicationResyncRequired(
            "this primary has no durability directory and cannot serve "
            "bootstrap snapshots"
        )
    snapshot = engine._durability_dir / SNAPSHOT_DIRNAME
    try:
        manifest = read_manifest(snapshot)
    except ReproError as exc:
        raise StorageError(
            f"snapshot archive unavailable: {exc}; restart the bootstrap"
        ) from exc
    snapshot_id = request.get("snapshot_id")
    if snapshot_id != f"snap-{manifest['watermark']}":
        # A newer snapshot replaced the one this replica was streaming:
        # a non-retryable storage error makes the replica abandon the
        # attempt and restart with a fresh manifest.
        raise StorageError(
            f"snapshot {snapshot_id!r} is no longer available (current "
            f"is snap-{manifest['watermark']}); restart the bootstrap"
        )
    if not isinstance(name, str) or name not in {
        entry["name"] for entry in manifest["files"]
    }:
        # Also the path-traversal guard: only manifest-listed names
        # are ever opened.
        raise ProtocolError(f"unknown snapshot file {name!r}")
    offset = int(request.get("offset", 0))
    length = int(request.get("length", SNAPSHOT_CHUNK_BYTES))
    if offset < 0 or length < 1:
        raise ProtocolError("snapshot chunk offset/length out of range")
    length = min(length, SNAPSHOT_CHUNK_BYTES)
    data = (snapshot / name).read_bytes()
    chunk = data[offset:offset + length]
    crc = zlib.crc32(chunk)
    eof = offset + len(chunk) >= len(data)
    if chunk and mode == MODE_TORN_WRITE:
        state.counters["stream_faults"] += 1
        chunk = torn_prefix(chunk)
    elif chunk and mode == MODE_CORRUPT:
        chunk = corrupt_bytes(chunk)
    state.counters["snapshot_chunks_served"] += 1
    state.counters["snapshot_bytes_shipped"] += len(chunk)
    return {
        "file": name,
        "offset": offset,
        "data": base64.b64encode(chunk).decode("ascii"),
        "crc32": crc,
        "size": len(data),
        "eof": eof,
    }


def apply_pushed_records(
    engine, epoch: int, records: list[str]
) -> dict[str, Any]:
    """Serve one ``repl_apply`` (push-style ingestion).

    The fencing chokepoint: records pushed under a stale epoch — a
    zombie primary's late commits — are rejected with
    :class:`~repro.errors.ReplicationFencedError`, and records at or
    below the fencing token are sealed history and refused even under
    the current epoch.
    """
    state = engine.replication
    if epoch < state.epoch:
        state.counters["fenced_rejections"] += 1
        raise ReplicationFencedError(
            f"records from epoch {epoch} rejected: cluster is at epoch "
            f"{state.epoch} (fencing token {state.fence_ts})"
        )
    if state.role == "primary" and state.epoch == epoch:
        state.counters["fenced_rejections"] += 1
        raise ReplicationFencedError(
            f"this node is the primary at epoch {state.epoch}; it does "
            "not accept pushed records"
        )
    applied = 0
    skipped = 0
    for blob in records:
        commit_ts, ops = unpack_record(blob)
        if commit_ts <= state.fence_ts:
            state.counters["fenced_rejections"] += 1
            raise ReplicationFencedError(
                f"commit timestamp {commit_ts} is at or below the fencing "
                f"token {state.fence_ts}; sealed history is immutable"
            )
        if engine.apply_replicated(commit_ts, ops):
            applied += 1
        else:
            skipped += 1
    state.counters["records_applied"] += applied
    state.counters["apply_skipped"] += skipped
    return {
        "applied": applied,
        "skipped": skipped,
        "watermark": state.watermark(),
        "epoch": state.epoch,
    }


__all__ = [
    "SITE_STREAM_READ",
    "SITE_STREAM_WRITE",
    "SITE_SNAPSHOT_READ",
    "SITE_SNAPSHOT_WRITE",
    "SNAPSHOT_DIRNAME",
    "SNAPSHOT_CHUNK_BYTES",
    "ReplicationConfig",
    "ReplicationState",
    "ReplicaInfo",
    "ReplicaRunner",
    "encode_record",
    "decode_record",
    "pack_records",
    "unpack_record",
    "build_fetch_response",
    "serve_snapshot_request",
    "apply_pushed_records",
]
