"""Whole-engine snapshot format: the files inside a checkpoint.

Memgraph persists via periodic snapshots + WAL; RocksDB persists its
sorted tables.  This module owns the snapshot half for the embedded
engine: :func:`save_engine` writes

- ``current.bin`` — every committed vertex/edge record of the current
  store (labels, properties, adjacency, transaction-time fields);
- ``history/`` — the history store's key-value data (one compacted
  sorted table + manifest, via :meth:`repro.kvstore.KVStore.save`);
- ``meta.bin`` — the timestamp oracle position and gid allocator
  frontier, so recovered engines continue the same timelines.

:func:`load_engine` rebuilds an engine whose current state, history,
and *future* commit timestamps are consistent with the saved one.
Neither is an entry point: ``save()`` and ``checkpoint()`` write
through :func:`repro.core.durability.install_checkpoint`, and
:meth:`AeonG.open` is the one reader.  Saving requires quiescence (no
active transactions); pending undo chains are flushed through one
final garbage-collection epoch first, so every historical version
lands in the (persisted) history store.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.common.serde import decode_value, encode_value
from repro.errors import CorruptionError, StorageError
from repro.faults import FAILPOINTS, StorageIO
from repro.graph.edge import EdgeRecord
from repro.graph.vertex import EdgeRef, VertexRecord

_FORMAT_VERSION = 1

FAILPOINTS.register("checkpoint.current.write", "checkpoint.meta.write")


def save_engine(engine, directory: Path, io: StorageIO) -> None:
    """Persist a quiescent engine to ``directory``.

    Write order is the crash-safety contract: history and the current
    store first, ``meta.bin`` last — each atomically (temp + rename).
    ``meta.bin`` is the snapshot's commit point; a directory without a
    readable one is an aborted save and is never loaded.
    """
    if engine.manager.active_count > 0:
        raise StorageError(
            "cannot save with active transactions "
            f"({engine.manager.active_count} running)"
        )
    directory.mkdir(parents=True, exist_ok=True)
    # Flush every reclaimable undo chain into the history store so the
    # persisted KV data is the complete historical record.
    engine.collect_garbage()
    current = {
        "version": _FORMAT_VERSION,
        "vertices": [
            _encode_vertex(record)
            for record in engine.storage.iter_vertex_records()
        ],
        "edges": [
            _encode_edge(record) for record in engine.storage.iter_edge_records()
        ],
    }
    engine.history.kv.save(directory / "history", storage_io=io)
    io.write_file(
        directory / "current.bin",
        encode_value(current),
        "checkpoint.current.write",
    )
    meta = {
        "version": _FORMAT_VERSION,
        "next_timestamp": engine.manager.oracle.peek(),
        "next_gid": engine.storage._gids.last_allocated + 1,
        "temporal": engine.temporal,
        "anchor_interval": engine.anchor_interval,
        "model": engine.model.value,
    }
    io.write_file(
        directory / "meta.bin", encode_value(meta), "checkpoint.meta.write"
    )


def load_engine(directory: Path, **engine_kwargs):
    """Rebuild an engine from a checkpoint written by :func:`save_engine`.

    The caller has checked that ``meta.bin`` exists.  Raises
    :class:`CorruptionError` when the snapshot fails integrity checks
    (truncated ``meta.bin``, an unreadable history table, …).
    """
    from repro.core.engine import AeonG
    from repro.core.temporal import GraphModel
    from repro.kvstore import KVStore

    meta_path = directory / "meta.bin"
    meta = _decode_or_corrupt(meta_path.read_bytes(), meta_path)
    if meta.get("version") != _FORMAT_VERSION:
        raise StorageError(f"unsupported snapshot version {meta.get('version')}")
    kv = KVStore.load(directory / "history")
    engine_kwargs.setdefault("temporal", meta["temporal"])
    engine_kwargs.setdefault("anchor_interval", meta["anchor_interval"])
    engine_kwargs.setdefault("model", GraphModel(meta["model"]))
    engine = AeonG(kv=kv, **engine_kwargs)
    current_path = directory / "current.bin"
    current = _decode_or_corrupt(current_path.read_bytes(), current_path)
    storage = engine.storage
    for raw in current["vertices"]:
        record = _decode_vertex(raw)
        storage._vertices[record.gid] = record
    for raw in current["edges"]:
        record = _decode_edge(raw)
        storage._edges[record.gid] = record
    storage._gids.allocate_up_to(meta["next_gid"])
    engine.manager.oracle.advance_to(meta["next_timestamp"])
    return engine


def _decode_or_corrupt(data: bytes, path: Path):
    """Decode a snapshot file, mapping any parse failure to
    :class:`CorruptionError` (truncated or damaged on disk)."""
    try:
        return decode_value(data)
    except CorruptionError:
        raise
    except Exception as exc:
        raise CorruptionError(f"damaged snapshot file {path}: {exc}") from exc


def _encode_vertex(record: VertexRecord) -> dict[str, Any]:
    return {
        "g": record.gid,
        "l": sorted(record.labels),
        "p": dict(record.properties),
        "o": [list(ref) for ref in record.out_edges],
        "i": [list(ref) for ref in record.in_edges],
        "d": record.deleted,
        "ts": record.tt_start,
        "ss": record.tt_structure_start,
    }


def _decode_vertex(raw: dict[str, Any]) -> VertexRecord:
    record = VertexRecord(raw["g"])
    record.labels = set(raw["l"])
    record.properties = dict(raw["p"])
    record.out_edges = [EdgeRef(r[0], r[1], r[2]) for r in raw["o"]]
    record.in_edges = [EdgeRef(r[0], r[1], r[2]) for r in raw["i"]]
    record.deleted = raw["d"]
    record.tt_start = raw["ts"]
    record.tt_structure_start = raw["ss"]
    return record


def _encode_edge(record: EdgeRecord) -> dict[str, Any]:
    return {
        "g": record.gid,
        "t": record.edge_type,
        "f": record.from_gid,
        "o": record.to_gid,
        "p": dict(record.properties),
        "d": record.deleted,
        "ts": record.tt_start,
    }


def _decode_edge(raw: dict[str, Any]) -> EdgeRecord:
    record = EdgeRecord(raw["g"], raw["t"], raw["f"], raw["o"])
    record.properties = dict(raw["p"])
    record.deleted = raw["d"]
    record.tt_start = raw["ts"]
    return record
