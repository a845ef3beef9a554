"""Label and label+property indexes over the current store.

Memgraph-style semantics: an index holds *candidate* gids inserted at
write time, without versioning; a reader must re-verify each candidate
against its own snapshot (label still present, value still equal,
object visible).  Deleted objects leave stale entries that are swept
when the record itself is reclaimed.  This keeps the write path cheap —
important for the Figure 6(b) throughput experiment — at the cost of
a visibility check per candidate, exactly the trade Memgraph makes.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterator, Optional

from repro.errors import GraphError


class _LabelIndex:
    def __init__(self, label: str) -> None:
        self.label = label
        self.gids: set[int] = set()


class _LabelPropertyIndex:
    def __init__(self, label: str, prop: str) -> None:
        self.label = label
        self.prop = prop
        self.by_value: dict[Any, set[int]] = {}
        self._sorted_values: list = []

    def add(self, value: Any, gid: int) -> None:
        try:
            bucket = self.by_value.get(value)
        except TypeError:
            return  # unhashable value: not indexable
        if bucket is None:
            self.by_value[value] = {gid}
            try:
                bisect.insort(self._sorted_values, value)
            except TypeError:
                # mixed-type values: keep equality lookups, drop ordering
                self._sorted_values = []
        else:
            bucket.add(gid)

    def forget(self, gid: int) -> None:
        for bucket in self.by_value.values():
            bucket.discard(gid)

    def lookup(self, value: Any) -> set[int]:
        return set(self.by_value.get(value, ()))

    def lookup_range(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> set[int]:
        result: set[int] = set()
        if self._sorted_values:
            lo = (
                bisect.bisect_left(self._sorted_values, low)
                if include_low
                else bisect.bisect_right(self._sorted_values, low)
            )
            hi = (
                bisect.bisect_right(self._sorted_values, high)
                if include_high
                else bisect.bisect_left(self._sorted_values, high)
            )
            for value in self._sorted_values[lo:hi]:
                result |= self.by_value.get(value, set())
            return result
        for value, bucket in self.by_value.items():  # ordering lost; scan
            try:
                above = value > low or (include_low and value == low)
                below = value < high or (include_high and value == high)
            except TypeError:
                continue
            if above and below:
                result |= bucket
        return result


class IndexRegistry:
    """All indexes of one graph storage."""

    def __init__(self) -> None:
        self._labels: dict[str, _LabelIndex] = {}
        self._label_props: dict[tuple[str, str], _LabelPropertyIndex] = {}
        self._lock = threading.RLock()
        #: bumped whenever the index set changes; cached query plans
        #: are keyed by it (an index changes which scan a plan picks)
        self.epoch = 0

    # -- creation ---------------------------------------------------------

    def create_label_index(self, label: str, records: Iterator) -> None:
        """Create (and backfill) an index on ``label``."""
        with self._lock:
            if label in self._labels:
                raise GraphError(f"label index on :{label} already exists")
            index = _LabelIndex(label)
            for record in records:
                if not record.deleted and label in record.labels:
                    index.gids.add(record.gid)
            self._labels[label] = index
            self.epoch += 1

    def create_label_property_index(
        self, label: str, prop: str, records: Iterator
    ) -> None:
        """Create (and backfill) an index on ``(:label {prop})``."""
        with self._lock:
            key = (label, prop)
            if key in self._label_props:
                raise GraphError(f"index on :{label}({prop}) already exists")
            index = _LabelPropertyIndex(label, prop)
            for record in records:
                if (
                    not record.deleted
                    and label in record.labels
                    and prop in record.properties
                ):
                    index.add(record.properties[prop], record.gid)
            self._label_props[key] = index
            self.epoch += 1

    def has_label_index(self, label: str) -> bool:
        return label in self._labels

    def has_label_property_index(self, label: str, prop: str) -> bool:
        return (label, prop) in self._label_props

    # -- maintenance --------------------------------------------------------

    def notify_vertex_write(self, record, txn) -> None:
        """Register a (possibly uncommitted) record state as candidate."""
        with self._lock:
            for label, index in self._labels.items():
                if label in record.labels:
                    index.gids.add(record.gid)
            for (label, prop), index in self._label_props.items():
                if label in record.labels and prop in record.properties:
                    index.add(record.properties[prop], record.gid)

    def forget_vertex(self, gid: int) -> None:
        """Drop a reclaimed vertex from every index."""
        with self._lock:
            for index in self._labels.values():
                index.gids.discard(gid)
            for index in self._label_props.values():
                index.forget(gid)

    # -- lookups -----------------------------------------------------------

    def candidates_by_label(self, label: str) -> Optional[set[int]]:
        """Candidate gids for ``:label``, or None when unindexed."""
        with self._lock:
            index = self._labels.get(label)
            return set(index.gids) if index is not None else None

    def candidates_by_value(
        self, label: str, prop: str, value: Any
    ) -> Optional[set[int]]:
        """Candidate gids for ``:label {prop: value}``, or None."""
        with self._lock:
            index = self._label_props.get((label, prop))
            return index.lookup(value) if index is not None else None

    def candidates_by_range(
        self,
        label: str,
        prop: str,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Optional[set[int]]:
        """Candidate gids for a value range, or None when unindexed."""
        with self._lock:
            index = self._label_props.get((label, prop))
            if index is None:
                return None
            return index.lookup_range(low, high, include_low, include_high)
