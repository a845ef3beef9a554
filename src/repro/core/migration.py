"""``Migrate(CT)`` — paper Algorithm 1.

Called from the garbage collector with the committed transactions that
are no longer visible to any snapshot.  Each transaction's undo buffer
is merged into history records (``encode2KV``), anchors are interleaved
per the anchor policy, and the whole epoch is installed with one atomic
batch write (``putMultiples``).  Epochs run on the maintenance thread
(:mod:`repro.core.maintenance`), off the committing transactions.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.core.anchors import AnchorPolicy, historical_state, restore_entries
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


class Migrator:
    """Encodes expiring undo deltas into the historical store."""

    def __init__(
        self,
        storage: GraphStorage,
        history: HistoricalStore,
        anchor_policy: Optional[AnchorPolicy] = None,
    ) -> None:
        self.storage = storage
        self.history = history
        self.anchor_policy = (
            anchor_policy if anchor_policy is not None else AnchorPolicy()
        )
        self.migrations = 0
        self.transactions_migrated = 0
        #: epochs whose atomic install failed and was rolled back (the
        #: transactions were requeued by the GC; nothing was lost)
        self.failed_epochs = 0
        #: callback ``(object_kind, gid)`` invoked once per object
        #: touched by a successfully installed epoch; None unless a
        #: satellite hooks it (an attached scrubber does, to check
        #: freshly written records first)
        self.on_migrated = None
        #: newest migrated *content* version-end per object.  An
        #: anchor's interval is its content validity: it starts where
        #: the previous content record ended.  (Topology records track
        #: a separate timeline; anchor adjacency may be newer than the
        #: interval claims, which is safe because Expand re-checks
        #: every candidate edge's own transaction time.)
        self._last_content_end: dict[tuple[str, int], int] = {}

    def migrate(self, transactions: list[Transaction]) -> int:
        """Migrate the undo buffers of ``transactions``; returns the
        number of history records staged.

        Transactions are processed in commit order so per-object anchor
        counters and validity frontiers advance monotonically.
        """
        batch = WriteBatch()
        staged = 0
        ordered = sorted(
            transactions, key=lambda t: t.commit_ts if t.commit_ts else 0
        )
        # Staging mutates bookkeeping (counters, anchor cadence,
        # validity frontiers) before the epoch's single atomic install.
        # Snapshot each object's entries on first touch, so a failed
        # install — I/O error, injected fault — rolls everything back
        # and the retried epoch makes byte-identical decisions.
        counters_before = (
            self.transactions_migrated,
            self.history.records_written,
            self.history.anchors_written,
        )
        content_end_before: dict = {}
        anchor_state_before: dict = {}
        try:
            for txn, drafts in self._encode_epoch(ordered):
                if not drafts:
                    continue
                anchored: set[tuple[str, int]] = set()
                for draft in drafts:
                    key = (self._object_kind(draft), draft.gid)
                    if key not in content_end_before:
                        content_end_before[key] = self._last_content_end.get(key)
                        anchor_state_before[key] = self.anchor_policy.count(key)
                    self.history.stage_record(batch, draft)
                    staged += 1
                    self._maybe_stage_anchor(batch, draft, anchored)
                for draft in drafts:
                    if draft.segment != SEGMENT_TOPOLOGY:
                        key = (self._object_kind(draft), draft.gid)
                        self._last_content_end[key] = draft.tt_end
                self.transactions_migrated += 1
            # The epoch's atomic install (``putMultiples``).
            if FAILPOINTS.check("migration.commit_batch") == MODE_DELAY:
                time.sleep(faults.FAULT_DELAY_SECONDS)  # a slow store
            self.history.commit_batch(batch)
        except BaseException:
            (
                self.transactions_migrated,
                self.history.records_written,
                self.history.anchors_written,
            ) = counters_before
            restore_entries(self._last_content_end, content_end_before)
            self.anchor_policy.restore(anchor_state_before)
            # Drops the staged rows, so a retry cannot duplicate them.
            self.history.invalidate_caches()
            self.failed_epochs += 1
            raise
        self.migrations += 1
        if self.on_migrated is not None:
            for object_kind, gid in sorted(content_end_before):
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

    def forget_object(self, object_kind: str, gid: int) -> None:
        """Drop per-object migration state (after final reclamation)."""
        self._last_content_end.pop((object_kind, gid), None)
        self.anchor_policy.forget(object_kind, gid)

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

    def _maybe_stage_anchor(
        self, batch: WriteBatch, draft: RecordDraft, anchored: set
    ) -> None:
        object_kind = self._object_kind(draft)
        anchor_segment = (
            SEGMENT_EDGE if object_kind == "edge" else SEGMENT_VERTEX
        )
        if not self.anchor_policy.should_anchor(object_kind, draft.gid):
            return
        if (object_kind, draft.gid) in anchored:
            return  # one anchor per object per transaction
        valid_from = self._last_content_end.get((object_kind, draft.gid))
        if valid_from is None or valid_from >= draft.tt_end:
            # No content record migrated yet (nothing older exists in
            # the store, so a full-state copy adds nothing), or a
            # degenerate interval: skip.
            return
        record = (
            self.storage.vertex_record(draft.gid)
            if object_kind == "vertex"
            else self.storage.edge_record(draft.gid)
        )
        if record is None:
            return  # object already reclaimed; skip the anchor
        state = historical_state(record, draft.tt_end)
        if state is None:
            return  # the version did not exist (pre-creation)
        self.history.stage_anchor(
            batch,
            anchor_segment,
            draft.gid,
            valid_from,
            draft.tt_end,
            anchor_payload_from_view(state),
        )
        anchored.add((object_kind, draft.gid))
