"""EXPLAIN / PROFILE: render plans, attribute cost per operator.

``EXPLAIN <query>`` renders the planner's operator tree without
executing anything.  ``PROFILE <query>`` executes the statement with
every physical operator wrapped in a
:class:`~repro.query.operators.ProfiledOperator`, which times each
pull and brackets it with a storage-counter snapshot — current-store
vs reclaimed-version hits, KV seeks and range scans, reconstruction
cache hits/misses, deltas replayed.  Because the plan is a linear
chain (each operator pulls exactly its predecessor), a wrapped
operator's accumulated time and counters are cumulative over its
subtree; subtracting the adjacent child's cumulative yields exact
*self* attribution with no double counting, and the profile totals
reconcile with the ``metrics()`` deltas for the same statement by
construction (both read the same counters).

Output format, worked examples, and the mapping from operator rows to
the paper's Algorithms 2–3 are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.query import ast
from repro.query.executor import _item_name, run_plan
from repro.query.operators import ProfiledOperator
from repro.query.planner import Plan

#: the storage counters PROFILE snapshots around every operator pull,
#: and the ``metrics()`` field each one mirrors (section.field)
PROFILE_COUNTERS = (
    ("current_hits", "operators.current_hits"),
    ("reclaimed_hits", "read_path.versions_served"),
    ("history_fetches", "read_path.fetches"),
    ("cache_hits", "read_path.cache_hits"),
    ("cache_misses", "read_path.cache_misses"),
    ("anchor_seeks", "read_path.anchor_seeks"),
    ("deltas_replayed", "read_path.deltas_replayed"),
    ("kv_seeks", "history_kv.seeks"),
    ("kv_range_scans", "history_kv.range_scans"),
    ("kv_gets", "history_kv.gets"),
)

COUNTER_LABELS = tuple(label for label, _ in PROFILE_COUNTERS)


def _counter_getters(engine) -> list[Callable[[], int]]:
    """Zero-argument readers for each counter, in PROFILE_COUNTERS order."""
    op_stats = engine.operators.stats
    read = engine.history.read_metrics
    kv = engine.history.kv.stats
    return [
        lambda: op_stats.current_hits,
        lambda: read.versions_served,
        lambda: read.fetches,
        lambda: read.cache_hits,
        lambda: read.cache_misses,
        lambda: read.anchor_seeks,
        lambda: read.deltas_replayed,
        lambda: kv.seeks,
        lambda: kv.range_scans,
        lambda: kv.gets,
    ]


# -- plan rendering (EXPLAIN) -------------------------------------------------


def _root_describe(plan: Plan) -> str:
    """The plan tree's root: the projection, or EmptyResult for writes."""
    returns = plan.returns
    if returns is None:
        return "EmptyResult"
    names = ", ".join(
        _item_name(item, pos) for pos, item in enumerate(returns.items)
    )
    modifiers = []
    if returns.distinct:
        modifiers.append("DISTINCT")
    if returns.order_by:
        modifiers.append("ORDER BY")
    if returns.skip is not None:
        modifiers.append("SKIP")
    if returns.limit is not None:
        modifiers.append("LIMIT")
    suffix = f" [{', '.join(modifiers)}]" if modifiers else ""
    return f"Produce({names}){suffix}"


def _temporal_describe(tt: ast.TTClause) -> str:
    kind = "SNAPSHOT" if tt.kind == "snapshot" else "BETWEEN"
    return f"Temporal(TT {kind})"


def plan_nodes(plan: Plan) -> list[str]:
    """Tree nodes root-first: projection, optional temporal qualifier,
    then the operator chain from its last operator down to ``Once``."""
    nodes = [_root_describe(plan)]
    if plan.tt is not None:
        nodes.append(_temporal_describe(plan.tt))
    nodes.extend(op.describe() for op in reversed(plan.ops))
    return nodes


def _nest(nodes: list[str]) -> list[str]:
    """Render a root-first node list as an indented tree."""
    lines = [nodes[0]]
    for depth, description in enumerate(nodes[1:]):
        lines.append("   " * depth + "└─ " + description)
    return lines


def explain_tree(engine, text: str) -> list[str]:
    """The operator tree for one statement, without executing it.

    Plans against the current schema (indexes change scan choices) —
    the side-effect-free half of the profiler.
    """
    return _nest(plan_nodes(engine.compile(text)))


# -- profiled execution (PROFILE) ---------------------------------------------


class OperatorProfile:
    """One operator's *self-attributed* share of a profiled run."""

    __slots__ = ("name", "rows", "time", "counters")

    def __init__(self, name: str, rows: int, time: float, counters: dict):
        self.name = name
        self.rows = rows
        self.time = time
        self.counters = counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<op {self.name} rows={self.rows} {self.time * 1e3:.3f}ms>"


class ProfileResult:
    """Everything ``PROFILE`` measured for one statement.

    ``operators`` is root-first (projection down to ``Once``), each
    carrying self-attributed rows/time/counters; ``totals`` are the
    statement-wide counter deltas and equal the per-operator sums (and
    the ``metrics()`` deltas) exactly.  ``rows`` is the statement's
    ordinary result.
    """

    def __init__(self, statement, plan, rows, operators, duration, totals):
        self.statement = statement
        self.plan = plan
        self.rows = rows
        self.operators = operators
        self.duration = duration
        self.totals = totals

    def table(self) -> list[dict[str, Any]]:
        """Rows for tabular display (CLI, ``PROFILE`` statement result):
        one per operator root-first, then a Total row."""
        rows = []
        for profile in self.operators:
            rows.append(
                {
                    "operator": profile.name,
                    "rows": profile.rows,
                    "time_ms": round(profile.time * 1e3, 3),
                    **profile.counters,
                }
            )
        rows.append(
            {
                "operator": "Total",
                "rows": len(self.rows),
                "time_ms": round(self.duration * 1e3, 3),
                **self.totals,
            }
        )
        return rows

    def tree(self) -> list[str]:
        """The EXPLAIN tree annotated with per-operator measurements."""
        profiles = iter(self.operators)
        annotated = []
        for node in plan_nodes(self.plan):
            if node.startswith("Temporal("):
                annotated.append(node)
                continue
            profile = next(profiles)
            c = profile.counters
            annotated.append(
                f"{node} {{rows={profile.rows}, "
                f"{profile.time * 1e3:.3f}ms, "
                f"cur={c['current_hits']}, recl={c['reclaimed_hits']}, "
                f"seeks={c['kv_seeks']}, replays={c['deltas_replayed']}, "
                f"cache={c['cache_hits']}/{c['cache_misses']}}}"
            )
        return _nest(annotated)


def execute_profiled(
    engine,
    txn,
    text: str,
    parameters: Optional[dict[str, Any]] = None,
) -> ProfileResult:
    """Run one statement inside ``txn`` with every operator profiled.

    Mirrors ``execute_query`` (same cached plan, same projection, same
    degraded-flag scoping) — only the operator chain differs, each link
    wrapped in a fresh :class:`ProfiledOperator`, so the shared plan is
    never touched.
    """
    controller = getattr(engine, "resilience", None)
    if controller is not None:
        controller.clear_degraded_flag()
    plan = engine.compile(text)
    getters = _counter_getters(engine)

    def snapshot() -> tuple:
        return tuple(fn() for fn in getters)

    clock = engine.observability.clock
    wrapped = [ProfiledOperator(op, clock, snapshot) for op in plan.ops]
    started = clock()
    base = snapshot()
    rows = run_plan(engine, txn, plan, parameters, wrapped)
    duration = clock() - started
    totals = tuple(now - was for now, was in zip(snapshot(), base))

    zeros = tuple(0 for _ in COUNTER_LABELS)
    operators: list[OperatorProfile] = []
    cumulative_time = 0.0
    cumulative = zeros
    for op in wrapped:  # pipeline order: Once first
        counters = op.counters if op.counters is not None else zeros
        self_counters = tuple(
            now - was for now, was in zip(counters, cumulative)
        )
        operators.append(
            OperatorProfile(
                op.describe(),
                op.rows,
                max(op.time - cumulative_time, 0.0),
                dict(zip(COUNTER_LABELS, self_counters)),
            )
        )
        cumulative_time = op.time
        cumulative = counters
    # The projection (or write drain) is the root pseudo-operator; it
    # absorbs whatever the chain's cumulative did not account for, so
    # the per-operator self values always sum to the statement totals.
    operators.append(
        OperatorProfile(
            _root_describe(plan),
            len(rows),
            max(duration - cumulative_time, 0.0),
            dict(
                zip(
                    COUNTER_LABELS,
                    (t - c for t, c in zip(totals, cumulative)),
                )
            ),
        )
    )
    operators.reverse()  # root-first, matching the EXPLAIN tree
    return ProfileResult(
        text, plan, rows, operators, duration, dict(zip(COUNTER_LABELS, totals))
    )
