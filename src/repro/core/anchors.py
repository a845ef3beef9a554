"""Anchor placement (paper section 4.2, "Anchor data").

Storing only backward diffs makes deep-history retrieval expensive:
reconstructing an old version means replaying every younger diff.  To
bound the replay chain the migrator inserts an **anchor** — a complete
materialized copy of the object's state — after every ``u`` migrated
delta records of that object.  Figure 6(a)'s experiment sweeps ``u``:
small values trade storage for shorter recovery chains.

The cadence is read from the stored history, never kept beside it: an
anchor is due at the draft that makes the object's delta records
(content and topology) a multiple of ``u``, counting the records the
history store holds plus those staged earlier in the same epoch (see
:meth:`~repro.core.migration.Migrator.migrate`).  So it continues
unchanged across a reopen and a replica resync; a retention prune
restarts it from the records left.

The anchor for the version a delta record reconstructs is computed at
migration time by walking the in-place record's (still intact) delta
chain from the current state back past every change committed at or
after the version's end timestamp — including uncommitted changes of
live transactions, which are by definition newer.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.views import EdgeView, VertexView
from repro.mvcc.delta import DeltaAction

_STRUCTURAL = {DeltaAction.ADD_OUT_EDGE, DeltaAction.ADD_IN_EDGE,
               DeltaAction.REMOVE_OUT_EDGE, DeltaAction.REMOVE_IN_EDGE}


def historical_state(record, version_tt_end: int) -> Optional[object]:
    """Materialize the *content* (labels, properties, existence) of
    ``record``'s version ending at ``version_tt_end`` by replaying its
    in-place delta chain.

    Returns a :class:`VertexView`/:class:`EdgeView`, or ``None`` when
    the version did not exist (anchors are only placed on existing
    versions).  Called during migration, before the garbage collector
    truncates the chain, so every younger delta is still reachable.
    Structural deltas are skipped: anchors hold no adjacency, and each
    undo costs O(degree) on a chain that grows while an epoch runs.
    """
    from repro.graph.vertex import VertexRecord

    view = (
        VertexView(record)
        if isinstance(record, VertexRecord)
        else EdgeView(record)
    )
    delta = record.delta_head
    while delta is not None:
        commit_ts = delta.commit_info.commit_ts
        # Uncommitted deltas (commit_ts None) are newer than any
        # committed version; changes committed at or after the target
        # version's end must all be undone.
        if commit_ts is not None and commit_ts < version_tt_end:
            break
        if delta.action not in _STRUCTURAL:
            view.step_back(delta)
        delta = delta.next
    return view if view.exists else None
