"""Applying history records backwards: version reconstruction.

Reconstruction starts from a *base* — the oldest unreclaimed version in
the current store, an anchor from the history store, or a blank
placeholder for fully reclaimed objects — and repeatedly applies
backward records (newest first), yielding progressively older versions.
Each application narrows the view's transaction-time interval to the
one stored in the record's key (Example 4 of the paper: "restore by
assembling the 4th anchor with the 5th and 6th delta data").
"""

from __future__ import annotations

from typing import Any

from repro.graph.vertex import EdgeRef
from repro.graph.views import EdgeView, VertexView
from repro.core.deltas import OLDER_EXISTS, OLDER_MISSING
from repro.errors import StorageError


def apply_content_record(view, payload: dict[str, Any], tt_start: int, tt_end: int) -> None:
    """Step ``view`` back through one merged content record."""
    view._own_content()  # the base may share them with its record or a fork
    diff = payload.get("p")
    if diff:
        for name, older_value in diff.items():
            if older_value is None:
                view.properties.pop(name, None)
            else:
                view.properties[name] = older_value
    if isinstance(view, VertexView):
        for label in payload.get("la", ()):
            view.labels.add(label)
        for label in payload.get("lr", ()):
            view.labels.discard(label)
    else:
        # Edge records are self-describing: pick up static info if the
        # blank base did not have it yet.
        if not view.edge_type and "et" in payload:
            view.edge_type = payload["et"]
            view.from_gid = payload["f"]
            view.to_gid = payload["t"]
    existence = payload.get("x", 0)
    if existence == OLDER_EXISTS:
        view.exists = True
    elif existence == OLDER_MISSING:
        view.exists = False
    view.tt_start = tt_start
    view.tt_end = tt_end


def apply_topology_record(
    view: VertexView, payload: dict[str, Any], tt_start: int, tt_end: int
) -> None:
    """Step a vertex view back through one merged topology record."""
    view._own_edges()  # the base may share them with its record or a fork
    view._out_edges, view._in_edges = undo_topology_payload(
        view._out_edges, view._in_edges, payload
    )
    view.tt_start = tt_start
    view.tt_end = tt_end


def undo_topology_payload(
    out_edges: list, in_edges: list, payload: dict[str, Any]
) -> tuple[list, list]:
    """Undo one topology record on two adjacency lists the caller owns
    (they may be appended to); returns the resulting lists.  A served
    version's pending records resolve through here."""
    for ref in payload.get("oa", ()):
        out_edges.append(EdgeRef(ref[0], ref[1], ref[2]))
    removed = {ref[2] for ref in payload.get("or", ())}
    if removed:
        out_edges = [r for r in out_edges if r.edge_gid not in removed]
    for ref in payload.get("ia", ()):
        in_edges.append(EdgeRef(ref[0], ref[1], ref[2]))
    removed = {ref[2] for ref in payload.get("ir", ())}
    if removed:
        in_edges = [r for r in in_edges if r.edge_gid not in removed]
    return out_edges, in_edges


def vertex_view_from_anchor(
    gid: int, payload: dict[str, Any], tt_start: int, tt_end: int
) -> VertexView:
    """Materialize a vertex version from an anchor's content payload.

    Anchors carry labels and properties only — topology lives in the
    ``VE`` segment and Expand re-derives candidate edges from it, so
    duplicating (possibly huge) adjacency into every anchor would make
    anchors O(degree) for hub vertices without buying anything.
    """
    view = VertexView.blank(gid, tt_start, tt_end)
    view.exists = True
    view.labels = set(payload.get("l", ()))
    view.properties = dict(payload.get("p", {}))
    return view


def edge_view_from_anchor(
    gid: int, payload: dict[str, Any], tt_start: int, tt_end: int
) -> EdgeView:
    """Materialize an edge version from an anchor's full-state payload."""
    view = EdgeView.blank(gid, tt_start, tt_end)
    view.exists = True
    view.edge_type = payload.get("et", "")
    view.from_gid = payload.get("f", -1)
    view.to_gid = payload.get("t", -1)
    view.properties = dict(payload.get("p", {}))
    return view


def anchor_payload_from_view(view) -> dict[str, Any]:
    """Content payload for an anchor record (inverse of the above).
    Properties go in key order: the view's map order depends on what
    happened since the version, so the bytes would depend on when the
    epoch ran."""
    if isinstance(view, VertexView):
        return {
            "l": sorted(view.labels),
            "p": dict(sorted(view.properties.items())),
        }
    if isinstance(view, EdgeView):
        return {
            "et": view.edge_type,
            "f": view.from_gid,
            "t": view.to_gid,
            "p": dict(sorted(view.properties.items())),
        }
    raise StorageError(f"cannot build an anchor from {type(view)!r}")
