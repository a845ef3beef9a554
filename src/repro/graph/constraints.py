"""Unique constraints on (label, property) pairs.

The standard graph-database guarantee (Memgraph/Neo4j ``CREATE
CONSTRAINT ... IS UNIQUE``): at most one vertex with a given label may
carry a given value of the property.  Enforcement is claim-based and
transactional:

- a write that would give a constrained (label, value) pair to a
  vertex *claims* the value; a conflicting live claim raises
  :class:`~repro.errors.ConstraintViolation` immediately (first-writer
  wins, like the write-write conflict rule);
- claims made by a transaction are released again if it aborts
  (registered as abort hooks);
- removals (property unset, label removed, vertex deleted) release the
  claim — re-claimable by the *same* transaction or, after commit, by
  anyone.

Claims deliberately cover uncommitted writers: two concurrent inserts
of the same value must not both commit, and under first-writer-wins
the second simply fails fast.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import ConstraintViolation, GraphError


class _Unique:
    def __init__(self, label: str, prop: str) -> None:
        self.label = label
        self.prop = prop
        self.claims: dict[Any, int] = {}  # value -> owning gid


class ConstraintRegistry:
    """All unique constraints of one graph storage."""

    def __init__(self) -> None:
        self._unique: dict[tuple[str, str], _Unique] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._unique)

    def create_unique(self, label: str, prop: str, records) -> None:
        """Install a constraint, validating existing committed data."""
        with self._lock:
            key = (label, prop)
            if key in self._unique:
                raise GraphError(
                    f"unique constraint on (:{label}, {prop}) already exists"
                )
            constraint = _Unique(label, prop)
            for record in records:
                if record.deleted or label not in record.labels:
                    continue
                value = record.properties.get(prop)
                if value is None:
                    continue
                hashable = _hashable(value, label, prop)
                existing = constraint.claims.get(hashable)
                if existing is not None and existing != record.gid:
                    raise ConstraintViolation(
                        f"cannot create unique constraint on (:{label}, "
                        f"{prop}): value {value!r} held by vertices "
                        f"{existing} and {record.gid}"
                    )
                constraint.claims[hashable] = record.gid
            self._unique[key] = constraint

    def drop_unique(self, label: str, prop: str) -> None:
        with self._lock:
            if (label, prop) not in self._unique:
                raise GraphError(f"no unique constraint on (:{label}, {prop})")
            del self._unique[(label, prop)]

    # -- write-path enforcement -------------------------------------------

    def claim(self, txn, label: str, prop: str, value: Any, gid: int) -> None:
        """Reserve ``value`` for ``gid``; rolls back on transaction abort."""
        constraint = self._unique.get((label, prop))
        if constraint is None or value is None:
            return
        hashable = _hashable(value, label, prop)
        with self._lock:
            owner = constraint.claims.get(hashable)
            if owner is not None and owner != gid:
                raise ConstraintViolation(
                    f"unique constraint (:{label}, {prop}): value {value!r} "
                    f"already used by vertex {owner}"
                )
            if owner == gid:
                return
            constraint.claims[hashable] = gid
        txn.on_abort(lambda: self._release(constraint, hashable, gid))

    def release(self, txn, label: str, prop: str, value: Any, gid: int) -> None:
        """Give a value back; restored if the transaction aborts."""
        constraint = self._unique.get((label, prop))
        if constraint is None or value is None:
            return
        hashable = _hashable(value, label, prop)
        with self._lock:
            if constraint.claims.get(hashable) != gid:
                return
            del constraint.claims[hashable]
        txn.on_abort(lambda: self._reclaim(constraint, hashable, gid))

    def _release(self, constraint: _Unique, hashable, gid: int) -> None:
        with self._lock:
            if constraint.claims.get(hashable) == gid:
                del constraint.claims[hashable]

    def _reclaim(self, constraint: _Unique, hashable, gid: int) -> None:
        with self._lock:
            constraint.claims.setdefault(hashable, gid)

    # -- helpers the storage write paths call --------------------------------

    def check_vertex_write(
        self,
        txn,
        record,
        new_labels: set[str],
        new_properties: dict[str, Any],
    ) -> None:
        """Claim/release around one vertex mutation.

        Called *before* the in-place change with the record still in
        its old state; ``new_labels``/``new_properties`` describe the
        post-write state.
        """
        if not self._unique:
            return
        for (label, prop), _constraint in list(self._unique.items()):
            old_applies = label in record.labels
            new_applies = label in new_labels
            old_value = record.properties.get(prop) if old_applies else None
            new_value = new_properties.get(prop) if new_applies else None
            if old_value == new_value and old_applies == new_applies:
                continue
            if old_applies and old_value is not None:
                self.release(txn, label, prop, old_value, record.gid)
            if new_applies and new_value is not None:
                self.claim(txn, label, prop, new_value, record.gid)

    def check_new_vertex(
        self, txn, gid: int, labels: set[str], properties: dict[str, Any]
    ) -> None:
        if not self._unique:
            return
        for (label, prop), _constraint in list(self._unique.items()):
            if label in labels and properties.get(prop) is not None:
                self.claim(txn, label, prop, properties[prop], gid)


def _hashable(value: Any, label: str, prop: str):
    try:
        hash(value)
        return value
    except TypeError:
        raise ConstraintViolation(
            f"unique constraint (:{label}, {prop}) cannot index "
            f"unhashable value {value!r}"
        ) from None
