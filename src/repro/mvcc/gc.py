"""Garbage collection with the late-migration hook (paper Algorithm 1).

Vanilla Memgraph's ``CollectGarbage()`` periodically frees undo buffers
of committed transactions that no active snapshot can still need.
AeonG keeps that trigger but inserts ``Migrate()`` *before* the free:
the expiring deltas — which are exactly the historical versions — are
encoded into the key-value history store, in batch, asynchronously to
user transactions.  This module implements the collection mechanics;
the encoding itself lives in :mod:`repro.core.migration` and is plugged
in as ``migrate_hook``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.errors import DegradedModeError
from repro.mvcc.manager import TransactionManager
from repro.mvcc.transaction import Transaction

#: Receives the reclaimable transactions before their deltas are freed.
MigrateHook = Callable[[list[Transaction]], None]

#: Called for records whose delete became invisible to every snapshot,
#: letting the graph layer drop them from its maps entirely.
ReclaimObjectHook = Callable[[Any], None]


class GarbageCollector:
    """Reclaims expired undo buffers, migrating them first.

    Parameters
    ----------
    manager:
        The transaction manager whose committed set is collected.
    migrate_hook:
        AeonG's ``Migrate(CT)``; ``None`` reproduces vanilla Memgraph
        (history is discarded — the TGDB-noT configuration of the
        throughput experiment, Figure 6b).
    reclaim_object_hook:
        Invoked for current-store records that are deleted and fully
        reclaimed so the graph layer can free them.
    """

    def __init__(
        self,
        manager: TransactionManager,
        migrate_hook: Optional[MigrateHook] = None,
        reclaim_object_hook: Optional[ReclaimObjectHook] = None,
    ) -> None:
        self._manager = manager
        self._migrate_hook = migrate_hook
        self._reclaim_object_hook = reclaim_object_hook
        self._lock = threading.Lock()
        self.runs = 0
        self.deltas_reclaimed = 0
        #: epochs skipped because the history store was degraded (the
        #: migrate hook raised ``DegradedModeError``); their
        #: transactions stay requeued until the breaker half-opens.
        self.epochs_paused = 0

    def collect(self) -> int:
        """Run one garbage-collection epoch; returns #deltas reclaimed.

        Steps (mirroring the paper's modified ``CollectGarbage()``):

        1. take committed transactions invisible to every snapshot;
        2. ``Migrate()`` their undo buffers to the history store;
        3. unlink the reclaimed deltas from the per-object chains;
        4. drop current-store records whose deletion is now permanent.
        """
        with self._lock:
            reclaimable, watermark = self._manager.take_reclaimable()
            if reclaimable and self._migrate_hook is not None:
                try:
                    self._migrate_hook(reclaimable)
                except BaseException as exc:
                    # take_reclaimable() popped these transactions, but
                    # their deltas have NOT reached the history store:
                    # requeue them so the next epoch retries instead of
                    # silently losing history.
                    self._manager.committed_pending_gc[:0] = reclaimable
                    if not isinstance(exc, DegradedModeError):
                        raise  # I/O error, injected fault
                    # The history store is circuit-broken: migration is
                    # *paused*, not failed — report a clean zero-work
                    # epoch so the commit trigger and manual collect
                    # keep succeeding while the store is down.
                    self.epochs_paused += 1
                    reclaimable = []
            reclaimed = self._unlink(reclaimable, watermark)
            self.runs += 1
            self.deltas_reclaimed += reclaimed
            return reclaimed

    def carry_counts(self, *previous: "GarbageCollector") -> None:
        """Add the lifetime counters of the collectors this one replaces
        (a replica resync builds a new one), so the ``gc`` section never
        goes backwards."""
        for gc in previous:
            self.runs += gc.runs
            self.deltas_reclaimed += gc.deltas_reclaimed
            self.epochs_paused += gc.epochs_paused

    def metrics(self) -> dict[str, int]:
        """The collector's half of the ``gc`` metrics section."""
        return {
            "runs": self.runs,
            "deltas_reclaimed": self.deltas_reclaimed,
            "epochs_paused": self.epochs_paused,
        }

    def _unlink(self, transactions: list[Transaction], watermark: int) -> int:
        reclaimed = 0
        touched: dict[int, Any] = {}
        for txn in transactions:
            for record, _delta in txn.undo_buffer:
                touched[id(record)] = record
            reclaimed += len(txn.undo_buffer)
            txn.undo_buffer.clear()
        for record in touched.values():
            self._truncate_chain(record, watermark)
            if record.deleted and record.delta_head is None:
                if self._reclaim_object_hook is not None:
                    self._reclaim_object_hook(record)
        return reclaimed

    @staticmethod
    def _truncate_chain(record: Any, watermark: int) -> None:
        """Cut the delta chain at the first reclaimable delta.

        Chains are newest-to-oldest with strictly decreasing commit
        timestamps, so once one delta falls below the watermark every
        older one does too.
        """
        head = record.delta_head
        if head is None:
            return
        info = head.commit_info
        if info.commit_ts is not None and info.commit_ts < watermark:
            record.delta_head = None
            return
        node = head
        while node.next is not None:
            info = node.next.commit_info
            if info.commit_ts is not None and info.commit_ts < watermark:
                node.next = None
                return
            node = node.next
