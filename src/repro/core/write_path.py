"""Group commit: the engine's batching WAL write path, led by committers.

The seed path appended and fsynced each commit inside the engine's
close lock, so N concurrent committers paid N serialized device syncs.
This module is leader-based group commit, the shape of RocksDB's write
group (no WAL thread):

* Committers **enqueue** their journal record under the close lock (so
  queue order is commit-timestamp order), then call
  :meth:`CommitTicket.wait` outside it.
* The first committer to find no leader active **leads**: it takes the
  whole pending list, writes it as **one WAL frame** with one fsync,
  publishes it to replication in commit-ts order, completes every
  ticket and promotes the first live ticket queued meanwhile.  The
  others sleep until a leader completes their ticket.
* A leader writes one batch, so its latency stays bounded; at most one
  leader is active, so the replication ring stays monotonic.  A commit
  is **acknowledged only after the shared fsync**.
* The batch write is work for the whole group, so it runs in a fresh
  :mod:`contextvars` context, not in that of the caller that leads.
* A follower interrupted while asleep (``KeyboardInterrupt``) is marked
  abandoned and never promoted; if it already was, it leads before
  re-raising.  A leader finding only abandoned tickets writes them too.

Backpressure: :meth:`GroupCommitWriter.submit` blocks while the queue
holds ``wal_queue_limit`` records.  The blocked committer still holds
the close lock and its :class:`~repro.resilience.AdmissionGate` slot,
so sustained WAL pressure fills the gate and *new* transactions are
shed with ``OverloadError`` — bounded memory, no silent unbounded
queueing.  The leader never takes the close lock, so it always drains.

Failure semantics: any exception a leader hits while persisting a
batch (including injected :class:`~repro.faults.SimulatedCrash` /
:class:`~repro.faults.FaultInjected` at the ``engine.wal.*`` sites) is
delivered to **every ticket in that batch** — none of those commits is
acknowledged, and recovery lands on the acked prefix.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Optional

__all__ = ["CommitTicket", "GroupCommitWriter", "metrics"]

#: The writer's counters in the ``write_path`` metrics section.
_COUNTERS = (
    "commits_submitted", "batches_written", "records_written", "max_batch",
    "queue_depth", "queue_limit", "backpressure_waits", "batch_errors",
)


def metrics(writer: Optional["GroupCommitWriter"], durability_mode: str) -> dict:
    """The ``write_path`` and ``wal`` metrics sections of an engine whose
    commits go through ``writer``; with none (no WAL) every count is 0."""
    wal = getattr(writer, "wal", None)
    section = {"enabled": writer is not None}
    section.update((name, getattr(writer, name, 0)) for name in _COUNTERS)
    batches, records = section["batches_written"], section["records_written"]
    appended, fsyncs = (getattr(wal, n, 0) for n in ("records_appended", "fsyncs"))
    section.update(
        avg_batch=round(records / batches, 3) if batches else 0.0,
        frames_appended=getattr(wal, "frames_appended", 0),
        fsyncs=fsyncs,
        fsyncs_per_commit=round(fsyncs / appended, 4) if appended else 0.0,
    )
    return {
        "wal": {
            "enabled": wal is not None,
            "records": appended,
            "durability_mode": durability_mode,
        },
        "write_path": section,
    }


class CommitTicket:
    """One committer's claim on a group-commit batch.

    A follower's ``_wake`` lock is held from submission; releasing it
    wakes the owner to lead (``_done`` still False) or because its batch
    is persisted.  A ticket that leads on submission has none.
    :meth:`wait` re-raises whatever the batch hit, ``BaseException``
    subclasses such as :class:`~repro.faults.SimulatedCrash` included.
    """

    __slots__ = (
        "commit_ts", "journal", "error", "_writer", "_wake", "_done",
        "_abandoned",
    )

    def __init__(self, writer: "GroupCommitWriter", commit_ts: int,
                 journal: list) -> None:
        self.commit_ts = commit_ts
        self.journal = journal
        self.error: Optional[BaseException] = None
        self._writer = writer
        self._wake: Optional[threading.Lock] = None
        self._done = False
        #: The owner stopped waiting; the ticket may not be promoted.
        self._abandoned = False

    def complete(self, error: Optional[BaseException] = None) -> None:
        self.error = error
        self._done = True
        if self._wake is not None:
            self._wake.release()

    def wait(self) -> None:
        """Block until this commit is durable, writing the batch that
        holds it if this ticket is (or is promoted to) the leader.

        Time spent asleep — behind another leader's write — is the
        ``engine.commit.durable_wait`` span; a leader's own write is
        ``wal.group_commit``."""
        wake = self._wake
        if wake is not None and not wake.acquire(blocking=False):
            with self._writer.tracer.span("engine.commit.durable_wait"):
                try:
                    wake.acquire()
                except BaseException:
                    self._writer._abandon(self)
                    raise
        if not self._done:
            self._writer._lead()
        if self.error is not None:
            raise self.error


class GroupCommitWriter:
    """The commit path's WAL writer: one frame and one fsync per batch
    of concurrent commits, written by whichever committer leads.

    Parameters
    ----------
    wal:
        An :class:`~repro.core.durability.EngineWal`; each batch goes
        through its :meth:`append_batch`.
    replication:
        A :class:`~repro.replication.ReplicationState`; durable batches
        are published via ``note_commit_batch`` *after* the fsync and
        in commit-ts order, so replicas only ever see acked records.
    tracer:
        The engine's span tracer; each physical batch write is timed
        under the ``wal.group_commit`` span (visible in PROFILE and
        ``metrics_text()`` histograms).
    queue_limit:
        ``ResilienceConfig.wal_queue_limit`` — submissions block while
        this many records are pending.
    """

    def __init__(self, wal, replication, tracer, queue_limit: int = 1024) -> None:
        self.wal = wal
        self.replication = replication
        self.tracer = tracer
        self.queue_limit = max(1, queue_limit)
        # Plain ``with self._lock`` on the commit path; the condition
        # (same lock) only for the rare waits: a full queue, flush().
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: list[CommitTicket] = []
        #: True from the moment a ticket is made leader until the last
        #: leader finds nothing pending — at most one leader at a time.
        self._leading = False
        self._stopping = False
        #: Set to the fatal exception once a batch dies on a
        #: ``BaseException`` that is not an ``Exception`` (e.g. an
        #: injected :class:`~repro.faults.SimulatedCrash`): the
        #: "process" is dead, and nothing may be appended past the
        #: crash point — later submissions fail with the same crash
        #: instead of writing after a torn frame.
        self._dead: Optional[BaseException] = None
        # -- telemetry (metrics()["write_path"]) --
        self.commits_submitted = 0
        self.batches_written = 0
        self.records_written = 0
        self.max_batch = 0
        self.backpressure_waits = 0
        self.batch_errors = 0

    def submit(self, commit_ts: int, journal: list) -> CommitTicket:
        """Enqueue one committed transaction's journal for the next
        batch; returns the ticket to :meth:`~CommitTicket.wait` on.

        Called with the engine's close lock held, which is what makes
        queue order identical to commit-timestamp order.  Blocks (still
        holding that lock — deliberate backpressure, see module
        docstring) while the queue is at ``queue_limit``.  The ticket
        leads when no other leader is active.
        """
        ticket = CommitTicket(self, commit_ts, journal)
        with self._lock:
            self._check_open()
            while len(self._pending) >= self.queue_limit:
                self.backpressure_waits += 1
                self._cond.wait()
                self._check_open()
            self._pending.append(ticket)
            self.commits_submitted += 1
            if self._leading:
                ticket._wake = threading.Lock()
                ticket._wake.acquire()
            else:
                self._leading = True
        return ticket

    def _check_open(self) -> None:
        if self._dead is not None:
            raise self._dead
        if self._stopping:
            raise RuntimeError("group-commit writer is stopped")

    def flush(self) -> None:
        """Barrier: block until nothing is pending and no leader is
        active, i.e. everything submitted so far has been persisted (or
        failed).  Used by checkpoint to quiesce the write path before
        touching the WAL underneath it."""
        with self._lock:
            while self._pending or self._leading:
                self._cond.wait()

    def stop(self) -> None:
        """Refuse new submissions, then :meth:`flush` (idempotent).

        Everything already submitted is still persisted — a committer
        waiting on its ticket gets a normal acknowledgement.
        """
        with self._lock:
            self._stopping = True
        self.flush()

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    # -- the leader --------------------------------------------------------

    def _lead(self) -> None:
        """Write one batch — everything pending — then hand leadership
        to the first live ticket queued meanwhile, if any."""
        while True:
            with self._lock:
                batch = self._pending
                self._pending = []
                self._cond.notify_all()  # a full queue has room again
            self._write(batch)
            with self._lock:
                for ticket in self._pending:
                    if not ticket._abandoned:
                        ticket._wake.release()
                        return
                if not self._pending:
                    self._leading = False
                    self._cond.notify_all()
                    return

    def _abandon(self, ticket: CommitTicket) -> None:
        """``ticket``'s owner was interrupted while asleep.  Mark it so
        no leader promotes it; if one already has, lead in its place."""
        with self._lock:
            ticket._abandoned = True
            promoted = ticket._wake.acquire(blocking=False) and not ticket._done
        if promoted:
            self._lead()

    def _write(self, batch: list[CommitTicket]) -> None:
        """Persist ``batch`` and complete every ticket in it."""
        error: Optional[BaseException] = self._dead
        if error is None:
            try:
                contextvars.Context().run(self._persist, batch)
            except BaseException as exc:  # noqa: BLE001 — delivered per ticket
                error = exc
                if not isinstance(exc, Exception):
                    # A simulated crash killed the "process": never
                    # append past the crash point (a later write would
                    # turn the torn tail into interior corruption,
                    # which recovery rightly refuses to repair
                    # silently).
                    self._dead = exc
        if error is not None:
            self.batch_errors += 1
        for ticket in batch:
            ticket.complete(error)

    def _persist(self, batch: list[CommitTicket]) -> None:
        records = [(t.commit_ts, t.journal) for t in batch]
        with self.tracer.span("wal.group_commit"):
            self.wal.append_batch(records)
        self.batches_written += 1
        self.records_written += len(records)
        self.max_batch = max(self.max_batch, len(records))
        # Only after the shared fsync: replicas must never apply a
        # record the primary could still lose.
        self.replication.note_commit_batch(records)
