"""``Migrate(CT)`` — paper Algorithm 1.

Called from the garbage collector with the committed transactions that
are no longer visible to any snapshot.  Each transaction's undo buffer
is merged into history records (``encode2KV``), anchors are interleaved
every ``u`` delta records of an object, and the whole epoch is
installed with one atomic batch write (``putMultiples``).  Epochs run
on the maintenance thread (:mod:`repro.core.maintenance`), off the
committing transactions.

Where anchors go is read from the history store, not remembered: the
cadence from its per-object record counts, an anchor's interval start
from the newest content record staged earlier in the epoch or, failing
that, stored.  An epoch keeps its bookkeeping in locals, so a failed
install leaves nothing to roll back, and a reopened or resynced engine
places anchors where one that never stopped would.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.core.anchors import historical_state
from repro.core.deltas import RecordDraft, merge_transaction_deltas
from repro.core.history_store import HistoricalStore
from repro.core.keys import SEGMENT_EDGE, SEGMENT_TOPOLOGY, SEGMENT_VERTEX
from repro.core.reconstruct import anchor_payload_from_view
from repro import faults
from repro.faults import FAILPOINTS, MODE_DELAY
from repro.graph.storage import GraphStorage
from repro.kvstore import WriteBatch
from repro.mvcc.transaction import Transaction

FAILPOINTS.register("migration.commit_batch")

#: an object whose newest stored content end has not been read yet
_UNREAD = object()


class Migrator:
    """Encodes expiring undo deltas into the historical store."""

    def __init__(
        self,
        storage: GraphStorage,
        history: HistoricalStore,
        anchor_interval: int = 10,
    ) -> None:
        self.storage = storage
        self.history = history
        #: the paper's ``u`` (0: no anchors)
        self.anchor_interval = anchor_interval
        self.migrations = 0
        self.transactions_migrated = 0
        #: epochs whose atomic install failed (the transactions were
        #: requeued by the GC; nothing was lost)
        self.failed_epochs = 0
        #: callback ``(object_kind, gid)`` invoked once per object
        #: touched by a successfully installed epoch; None unless a
        #: satellite hooks it (an attached scrubber does, to check
        #: freshly written records first)
        self.on_migrated = None

    def migrate(self, transactions: list[Transaction]) -> int:
        """Migrate the undo buffers of ``transactions``; returns the
        number of history records staged.

        Transactions are processed in commit order, so each object's
        drafts are counted, and its content records end, in order.
        """
        batch = WriteBatch()
        staged = anchors = migrated = 0
        ordered = sorted(
            transactions, key=lambda t: t.commit_ts if t.commit_ts else 0
        )
        interval = self.anchor_interval
        # Per object: its delta records, stored plus staged so far (an
        # anchor is due when that reaches a multiple of ``u``), and the
        # newest content end staged by an earlier transaction of this
        # epoch, else stored (where an anchor's interval starts: an
        # anchor's interval is its content validity; topology records
        # track a separate timeline, and anchor adjacency newer than
        # the interval claims is safe because Expand re-checks every
        # candidate edge's own transaction time).
        position: dict[tuple[str, int], int] = {}
        content_end: dict[tuple[str, int], Optional[int]] = {}
        history = self.history
        try:
            for txn, drafts in self._encode_epoch(ordered):
                if not drafts:
                    continue
                anchored: set[tuple[str, int]] = set()
                for draft in drafts:
                    key = (self._object_kind(draft), draft.gid)
                    count = position.get(key)
                    if count is None:
                        count = history.delta_records(*key)
                    position[key] = count = count + 1
                    history.stage_record(batch, draft)
                    staged += 1
                    # one anchor per object per transaction
                    if interval and count % interval == 0 and key not in anchored:
                        valid_from = content_end.get(key, _UNREAD)
                        if valid_from is _UNREAD:
                            valid_from = content_end[key] = (
                                history.newest_content_end(*key)
                            )
                        if self._stage_anchor(batch, key, draft, valid_from):
                            anchored.add(key)
                            anchors += 1
                for draft in drafts:
                    if draft.segment != SEGMENT_TOPOLOGY:
                        content_end[(self._object_kind(draft), draft.gid)] = draft.tt_end
                migrated += 1
            # The epoch's atomic install (``putMultiples``).
            if FAILPOINTS.check("migration.commit_batch") == MODE_DELAY:
                time.sleep(faults.FAULT_DELAY_SECONDS)  # a slow store
            history.commit_batch(batch)
        except BaseException:
            # Drops the staged rows, so a retry cannot duplicate them.
            history.invalidate_caches()
            self.failed_epochs += 1
            raise
        self.migrations += 1
        self.transactions_migrated += migrated
        history.records_written += staged
        history.anchors_written += anchors
        if self.on_migrated is not None:
            for object_kind, gid in sorted(position):
                self.on_migrated(object_kind, gid)
        return staged

    def carry_counts(self, previous: "Migrator") -> None:
        """Add the lifetime counters of the migrator this one replaces
        (a replica resync adopts a donor's), so the ``migration``
        section never goes backwards."""
        self.migrations += previous.migrations
        self.failed_epochs += previous.failed_epochs
        self.transactions_migrated += previous.transactions_migrated
        self.history.records_written += previous.history.records_written
        self.history.anchors_written += previous.history.anchors_written

    def metrics(self) -> dict[str, int]:
        """The ``migration`` metrics section."""
        return {
            "epochs": self.migrations,
            "failed_epochs": self.failed_epochs,
            "transactions_migrated": self.transactions_migrated,
            "records_written": self.history.records_written,
            "anchors_written": self.history.anchors_written,
        }

    def _encode_epoch(
        self, ordered: list[Transaction]
    ) -> Iterator[tuple[Transaction, list[RecordDraft]]]:
        """Each transaction with an undo buffer and its merged drafts,
        in commit order, encoded lazily as staging reaches it."""
        return (
            (txn, merge_transaction_deltas(
                [delta for _record, delta in txn.undo_buffer],
                self._edge_statics(txn),
            ))
            for txn in ordered
            if txn.undo_buffer
        )

    @staticmethod
    def _object_kind(draft: RecordDraft) -> str:
        return "edge" if draft.segment == SEGMENT_EDGE else "vertex"

    def _edge_statics(self, txn: Transaction) -> dict[int, tuple[str, int, int]]:
        """Static (type, from, to) info for every edge the txn touched."""
        statics: dict[int, tuple[str, int, int]] = {}
        for record, delta in txn.undo_buffer:
            if delta.object_kind == "edge" and delta.object_gid not in statics:
                statics[delta.object_gid] = (
                    record.edge_type,
                    record.from_gid,
                    record.to_gid,
                )
        return statics

    def _stage_anchor(
        self, batch: WriteBatch, key: tuple[str, int], draft: RecordDraft,
        valid_from: Optional[int],
    ) -> bool:
        """Stage the anchor of the version ``draft`` ends, valid from
        ``valid_from``; False when it is skipped."""
        object_kind, gid = key
        if valid_from is None or valid_from >= draft.tt_end:
            # No content record migrated yet (nothing older exists in
            # the store, so a full-state copy adds nothing), or a
            # degenerate interval: skip.
            return False
        record = (
            self.storage.vertex_record(gid)
            if object_kind == "vertex"
            else self.storage.edge_record(gid)
        )
        if record is None:
            return False  # object already reclaimed; skip the anchor
        state = historical_state(record, draft.tt_end)
        if state is None:
            return False  # the version did not exist (pre-creation)
        self.history.stage_anchor(
            batch,
            SEGMENT_EDGE if object_kind == "edge" else SEGMENT_VERTEX,
            gid,
            valid_from,
            draft.tt_end,
            anchor_payload_from_view(state),
        )
        return True
