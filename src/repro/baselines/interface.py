"""The backend protocol shared by AeonG and both baselines.

Workloads speak in *external* string identifiers (``"person:42"``) and
*event* timestamps; each backend maps those onto its internal
representation.  The protocol covers exactly what the paper's
experiments exercise: applying a timestamped graph-operation stream,
point/slice vertex retrieval (the E-commerce Q1), one-hop temporal
expansion (Q2 / the IS building block), and storage accounting.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import Any, Optional

# Operation kinds.
ADD_VERTEX = "add_vertex"
UPDATE_VERTEX = "update_vertex"
DELETE_VERTEX = "delete_vertex"
ADD_EDGE = "add_edge"
UPDATE_EDGE = "update_edge"
DELETE_EDGE = "delete_edge"

OP_KINDS = (
    ADD_VERTEX,
    UPDATE_VERTEX,
    DELETE_VERTEX,
    ADD_EDGE,
    UPDATE_EDGE,
    DELETE_EDGE,
)


@dataclass(frozen=True)
class GraphOp:
    """One timestamped graph operation (the unit of Bi-LDBC & co.).

    ``ts`` is the *event* time from the workload; transaction-time
    backends (AeonG) assign their own commit timestamps and keep an
    event-to-commit mapping, while application-level backends (T-GQL,
    Clock-G) store ``ts`` directly — reproducing the paper's point that
    only the engine knows true commit time.
    """

    kind: str
    ts: int
    ext_id: str
    label: str = ""
    src: str = ""
    dst: str = ""
    properties: Optional[dict[str, Any]] = None
    prop: str = ""
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


@dataclass
class NeighborHit:
    """One result of a temporal expansion."""

    edge_type: str
    edge_properties: dict[str, Any]
    neighbor_ext_id: str
    neighbor_properties: dict[str, Any]


class TemporalBackend(abc.ABC):
    """What every compared system must provide."""

    name: str = "backend"

    # -- loading & updates -------------------------------------------------

    @abc.abstractmethod
    def apply(self, op: GraphOp) -> None:
        """Apply one timestamped operation."""

    # -- time ---------------------------------------------------------------

    @abc.abstractmethod
    def to_query_time(self, event_ts: int) -> int:
        """Map a workload event time onto this backend's query clock."""

    # -- temporal reads ----------------------------------------------------------

    @abc.abstractmethod
    def vertex_at(self, ext_id: str, t: int) -> Optional[dict[str, Any]]:
        """The vertex's properties as of query-time ``t`` (or None)."""

    @abc.abstractmethod
    def vertex_between(self, ext_id: str, t1: int, t2: int) -> list[dict[str, Any]]:
        """Every property-state of the vertex readable in ``[t1, t2]``."""

    @abc.abstractmethod
    def neighbors_at(
        self,
        ext_id: str,
        t: int,
        direction: str = "out",
        edge_type: Optional[str] = None,
    ) -> list[NeighborHit]:
        """One-hop expansion as of ``t``."""

    @abc.abstractmethod
    def neighbors_between(
        self,
        ext_id: str,
        t1: int,
        t2: int,
        direction: str = "out",
        edge_type: Optional[str] = None,
    ) -> list[NeighborHit]:
        """One-hop expansion over the slice ``[t1, t2]``."""

    # -- maintenance / accounting ------------------------------------------------

    def flush(self) -> None:
        """Finish any deferred work (GC + migration, snapshotting...)."""

    def create_index(self) -> None:
        """Build the backend's external-id lookup index (Figure 5(f))."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes the backend holds (current + historical)."""


class EventClock:
    """Monotone mapping between event time and commit timestamps.

    AeonG assigns commit timestamps internally; workload queries are
    phrased in event time.  The clock records ``(event_ts, commit_ts)``
    pairs at apply time and answers "which commit timestamp corresponds
    to event time t" with binary search — the translation the paper's
    harness needs to pick uniformly distributed query instants.
    """

    def __init__(self) -> None:
        self._events: list[int] = []
        self._commits: list[int] = []

    def record(self, event_ts: int, commit_ts: int) -> None:
        if self._events and event_ts < self._events[-1]:
            raise ValueError("event timestamps must be non-decreasing")
        self._events.append(event_ts)
        self._commits.append(commit_ts)

    def commit_for_event(self, event_ts: int) -> int:
        """Commit timestamp of the last operation at or before
        ``event_ts`` (0 when nothing happened yet)."""
        index = bisect.bisect_right(self._events, event_ts)
        if index == 0:
            return 0
        return self._commits[index - 1]

    def __len__(self) -> int:
        return len(self._events)
