"""Anchor placement (paper section 4.2, "Anchor data").

Storing only backward diffs makes deep-history retrieval expensive:
reconstructing an old version means replaying every younger diff.  To
bound the replay chain the migrator inserts an **anchor** — a complete
materialized copy of the object's state — after every ``u`` migrated
delta records of that object.  Figure 6(a)'s experiment sweeps ``u``:
small values trade storage for shorter recovery chains.

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


class AnchorPolicy:
    """Decides which migrated records get a companion anchor."""

    def __init__(self, interval: int = 10) -> None:
        if interval < 0:
            raise ValueError("anchor interval must be >= 0 (0 disables)")
        self.interval = interval
        self._counters: dict[tuple[str, int], int] = {}

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def should_anchor(self, object_kind: str, gid: int) -> bool:
        """Count one migrated record; True when an anchor is due."""
        if not self.enabled:
            return False
        key = (object_kind, gid)
        count = self._counters.get(key, 0) + 1
        if count >= self.interval:
            self._counters[key] = 0
            return True
        self._counters[key] = count
        return False

    def forget(self, object_kind: str, gid: int) -> None:
        """Drop counter state for a reclaimed object."""
        self._counters.pop((object_kind, gid), None)

    def count(self, key: tuple[str, int]) -> Optional[int]:
        """One object's counter (None: unset), as :meth:`restore` takes it."""
        return self._counters.get(key)

    def restore(self, state: dict) -> None:
        """Roll ``{key: count}`` back after a failed epoch, so the retry
        makes identical anchor-placement decisions."""
        restore_entries(self._counters, state)


def restore_entries(table: dict, before: dict) -> None:
    """Put ``before``'s values back into ``table`` (None: absent)."""
    for key, value in before.items():
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value


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
