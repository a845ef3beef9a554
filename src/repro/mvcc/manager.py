"""Transaction lifecycle: begin, commit, abort, and the GC watermark.

Commit is where AeonG's transaction-time guarantee lives: the manager
draws the commit timestamp from the shared oracle and stamps it into

- the transaction's :class:`~repro.mvcc.transaction.CommitInfo` (making
  the changes visible to later snapshots), and
- every undo delta's ``tt_end`` / the touched object's ``tt_start``
  (closing the old version's TT interval and opening the new one).

That is precisely the paper's argument against application-level
timestamps: only the engine knows the true commit point.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.errors import TransactionStateError
from repro.mvcc.delta import Delta
from repro.mvcc.timestamps import TimestampOracle
from repro.mvcc.transaction import CommitStatus, Transaction

#: Applies one undo delta to its record, in place (supplied by the
#: graph layer, which knows the record structure).
UndoApplier = Callable[[Any, Delta], None]


class TransactionManager:
    """Creates transactions and tracks the active/committed sets."""

    def __init__(
        self,
        oracle: Optional[TimestampOracle] = None,
        undo_applier: Optional[UndoApplier] = None,
    ) -> None:
        self.oracle = oracle if oracle is not None else TimestampOracle()
        self._undo_applier = undo_applier
        self._lock = threading.RLock()
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        #: committed transactions whose undo buffers have not been
        #: garbage-collected yet (ordered by commit timestamp)
        self.committed_pending_gc: list[Transaction] = []

    def set_undo_applier(self, applier: UndoApplier) -> None:
        """Late-bind the rollback routine (called by the graph layer)."""
        self._undo_applier = applier

    # -- lifecycle ----------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction with a fresh snapshot timestamp."""
        with self._lock:
            txn = Transaction(self._next_txn_id, self.oracle.next())
            self._next_txn_id += 1
            self._active[txn.id] = txn
            return txn

    def begin_replay(self) -> Transaction:
        """Start a WAL-replay transaction without consuming a timestamp.

        Concurrent live committers can pack WAL commit timestamps one
        apart (begin A, begin B, commit A at ``n``, commit B at
        ``n + 1``).  A replay that drew its snapshot from
        :meth:`TimestampOracle.next` would burn one timestamp per
        record and overrun the next record's forced commit timestamp.
        Replay is serial, so its snapshot is simply "everything
        committed so far": ``oracle.peek() - 1``.
        """
        with self._lock:
            txn = Transaction(self._next_txn_id, self.oracle.peek() - 1)
            self._next_txn_id += 1
            self._active[txn.id] = txn
            return txn

    def begin_readonly(self) -> Transaction:
        """Start a read-only transaction without consuming a timestamp.

        Replica snapshot reads use this: a replica's oracle is advanced
        only by replicated commit timestamps, so a read that consumed
        :meth:`TimestampOracle.next` would make the next record's
        forced commit timestamp "in the past" (the same overrun
        :meth:`begin_replay` exists to avoid).  The snapshot is the
        applied watermark — everything replicated so far — and
        :meth:`~repro.mvcc.transaction.Transaction.record_delta`
        rejects writes.
        """
        with self._lock:
            txn = Transaction(self._next_txn_id, self.oracle.peek() - 1)
            txn.read_only = True
            self._next_txn_id += 1
            self._active[txn.id] = txn
            return txn

    def commit(self, txn: Transaction, commit_ts: Optional[int] = None) -> int:
        """Commit ``txn``; returns its commit timestamp.

        Stamps transaction time onto every delta and touched record
        before publishing the commit, so a concurrent temporal reader
        either sees the whole new version (with its interval) or none
        of it.

        ``commit_ts`` forces a specific timestamp — used exclusively by
        write-ahead-log replay, which must reproduce the original
        transaction-time assignment exactly.  Forced timestamps must
        arrive in increasing order (WAL order guarantees this).
        """
        txn.check_active()
        with self._lock:
            if commit_ts is None and txn.read_only:
                # Read-only commits must not consume a timestamp: on a
                # replica the oracle tracks the primary's commits only.
                commit_ts = self.oracle.peek() - 1
                txn.commit_info.mark_committed(commit_ts)
                del self._active[txn.id]
            else:
                if commit_ts is None:
                    commit_ts = self.oracle.next()
                else:
                    if commit_ts < self.oracle.peek():
                        raise TransactionStateError(
                            f"replayed commit timestamp {commit_ts} is in the past"
                        )
                    self.oracle.advance_to(commit_ts + 1)
                for record, delta in txn.undo_buffer:
                    delta.tt_end = commit_ts
                    if delta.is_structural:
                        record.tt_structure_start = commit_ts
                    else:
                        record.tt_start = commit_ts
                txn.commit_info.mark_committed(commit_ts)
                del self._active[txn.id]
                if txn.undo_buffer:
                    self.committed_pending_gc.append(txn)
        # Hooks run outside the manager lock: they belong to the caller
        # (admission-gate release, engine callbacks) and must not extend
        # the MVCC critical section — a hook that blocks (e.g. on WAL
        # backpressure) would otherwise stall every begin/commit/abort.
        txn.run_commit_hooks(commit_ts)
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        """Roll back ``txn``'s in-place changes and unlink its deltas."""
        txn.check_active()
        if self._undo_applier is None and txn.undo_buffer:
            raise TransactionStateError(
                "cannot abort: no undo applier registered"
            )
        with self._lock:
            # Undo in reverse creation order; each transaction's deltas
            # sit contiguously at their object's chain head because the
            # first-updater-wins check blocks interleaved writers.
            for record, delta in reversed(txn.undo_buffer):
                self._undo_applier(record, delta)
                if record.delta_head is delta:
                    record.delta_head = delta.next
                else:  # pragma: no cover - defensive; see invariant above
                    raise TransactionStateError(
                        "abort found a foreign delta at the chain head"
                    )
            txn.commit_info.mark_aborted()
            txn.undo_buffer.clear()
            del self._active[txn.id]
        # Outside the lock, same reasoning as in commit().
        txn.run_abort_hooks()

    # -- watermarks -----------------------------------------------------------

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def metrics(self) -> dict[str, int]:
        """The ``transactions`` metrics section."""
        return {
            "active": self.active_count,
            "pending_gc": len(self.committed_pending_gc),
            "next_timestamp": self.oracle.peek(),
        }

    def active_transactions(self) -> list[Transaction]:
        """A snapshot of the currently active transactions."""
        with self._lock:
            return list(self._active.values())

    def expired_transactions(self, now: float) -> list[Transaction]:
        """Active transactions whose deadline has passed at ``now``.

        The watchdog's selection step: every returned transaction is
        still pinning the GC watermark at :meth:`oldest_active_start_ts`
        and is a candidate for a background abort.
        """
        with self._lock:
            return [
                txn
                for txn in self._active.values()
                if txn.deadline is not None and txn.deadline <= now
            ]

    def oldest_active_start_ts(self) -> int:
        """Snapshot watermark: versions older than this are reclaimable.

        With no active transactions this is the next timestamp the
        oracle would hand out, i.e. everything committed is reclaimable.
        """
        with self._lock:
            if not self._active:
                return self.oracle.peek()
            return min(t.start_ts for t in self._active.values())

    def take_reclaimable(self) -> tuple[list[Transaction], int]:
        """Pop committed transactions no longer visible to any snapshot,
        with the watermark that decided it.

        These are the ``CT`` of the paper's Algorithm 1: committed and
        no longer active (no live snapshot predates their commit).  Chains
        are truncated at this watermark, not a later one: a transaction
        committed meanwhile was not taken and must stay reachable.
        """
        with self._lock:
            watermark = self.oldest_active_start_ts()
            reclaimable, pending = [], []
            for t in self.committed_pending_gc:
                taken = t.commit_ts is not None and t.commit_ts < watermark
                (reclaimable if taken else pending).append(t)
            self.committed_pending_gc = pending
            return reclaimable, watermark
