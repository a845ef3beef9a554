"""The core is the paper; satellites depend on it, never the reverse.

Walks the import statements of every module under the core packages
and fails on an import of a satellite.  The few edges still allowed
are listed with the reason each one stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ("core", "mvcc", "graph", "kvstore", "common")
SATELLITES = ("integrity", "backup", "server", "cli", "io", "analysis")
#: (core module, satellite) -> why the core still imports it
ALLOWED = {
    ("repro.core.engine", "replication"): "the commit path publishes each "
    "batch to replication; the edge goes when the log path moves out",
    ("repro.core.engine", "query"): "AeonG.execute is the statement API "
    "the benchmark drives",
    ("repro.core.engine", "resilience"): "the transaction-lifecycle policy "
    "(retry, deadlines, admission, breaker), placed with replication",
}
WATCHED = set(SATELLITES) | {satellite for _module, satellite in ALLOWED}
MODULES = sorted(
    path.relative_to(SRC).with_suffix("").parts
    for package in CORE
    for path in (SRC / "repro" / package).rglob("*.py")
)


def _imported(tree: ast.AST, package: str):
    """Every dotted name an import in ``tree`` may bind, resolved."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}".rstrip(".")
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("parts", MODULES, ids=".".join)
def test_core_module_imports_no_satellite(parts):
    module = ".".join(p for p in parts if p != "__init__")
    tree = ast.parse((SRC.joinpath(*parts).with_suffix(".py")).read_text())
    for name in _imported(tree, ".".join(parts[:-1])):
        top = name.split(".")
        if top[0] == "repro" and len(top) > 1 and top[1] in WATCHED:
            assert (module, top[1]) in ALLOWED, f"{module} imports {name}"


#: the history KV store's writers: the history store and the KV store
#: itself
KV_OWNERS = (("repro", "core", "history_store"), ("repro", "kvstore"))
#: module -> why it may still write a ``kv`` attribute
KV_ALLOWED = {
    "repro.baselines.clockg": "the Clock-G baseline writes its own KVStore, "
    "not the history store's",
}
ALL_MODULES = sorted(
    path.relative_to(SRC).with_suffix("").parts
    for path in (SRC / "repro").rglob("*.py")
)


@pytest.mark.parametrize("parts", ALL_MODULES, ids=".".join)
def test_only_the_history_store_writes_its_kv_store(parts):
    """Every write to the history KV store goes through
    ``HistoricalStore``, which keeps its record counts and cache in step
    with what it writes."""
    if any(parts[: len(owner)] == owner for owner in KV_OWNERS):
        return
    module = ".".join(p for p in parts if p != "__init__")
    tree = ast.parse((SRC.joinpath(*parts).with_suffix(".py")).read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write", "put", "delete")
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("kv", "_kv")
        ):
            assert module in KV_ALLOWED, (
                f"{module}:{node.lineno} calls .{node.func.value.attr}."
                f"{node.func.attr}() outside the history store"
            )
