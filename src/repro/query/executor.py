"""Statement execution: compile, stream frames, project results.

The executor returns plain Python rows (``list[dict]``); vertex and
edge versions are rendered into dictionaries carrying their gid,
labels/type, properties, and transaction-time interval, so callers
never hold live storage objects.

Every statement reaches its plan through one path, the engine's
:class:`~repro.query.cache.PlanCache` (``engine.compile``): a statement
seen before is neither re-parsed nor re-planned.  A cache miss calls
this module's ``parse`` and ``plan_query``.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.temporal import TemporalCondition
from repro.errors import ExecutionError, PlanningError
from repro.graph.views import EdgeView, VertexView
from repro.query import ast
from repro.query.cache import PROFILE_PREFIX
from repro.query.operators import ExecutionContext, Frame, evaluate
# PlanCache parses and plans a missed statement through these two names
# (tracers patch them here).
from repro.query.parser import parse  # noqa: F401
from repro.query.planner import Plan, plan_query  # noqa: F401

_AGGREGATES = {"count", "sum", "min", "max", "avg", "collect"}


def statement_prefix(text: str) -> Optional[str]:
    """``"EXPLAIN"`` / ``"PROFILE"`` if ``text`` carries that prefix."""
    match = PROFILE_PREFIX.match(text or "")
    return match.group(1).upper() if match else None


def execute_query(
    engine,
    txn,
    text: str,
    parameters: Optional[dict[str, Any]] = None,
) -> list[dict[str, Any]]:
    """Compile (through the engine's plan cache) and run one statement
    inside ``txn``.

    ``EXPLAIN <stmt>`` returns the operator tree as ``{"plan": line}``
    rows without executing anything; ``PROFILE <stmt>`` executes with
    per-operator instrumentation and returns the profile table (see
    ``repro.query.profiler``).

    Statement boundaries scope the engine's degraded-read flag: the
    flag is cleared here, and set again only if this statement's
    temporal reads fall back to current-only results while the
    history-store breaker is open — so ``engine.last_read_degraded``
    answers the question for the statement that just ran.  They also
    bound the slow-query log and the ``statement.seconds`` histogram
    (see ``repro.observability``).
    """
    prefixed = PROFILE_PREFIX.match(text)
    if prefixed is not None:
        from repro.query.profiler import execute_profiled, explain_tree

        statement = text[prefixed.end():]
        if not statement.strip():
            raise ExecutionError(
                f"{prefixed.group(1).upper()} requires a statement"
            )
        if prefixed.group(1).upper() == "EXPLAIN":
            return [{"plan": line} for line in explain_tree(engine, statement)]
        profile = execute_profiled(engine, txn, statement, parameters)
        engine.observability.record_statement(
            text, profile.duration, len(profile.rows)
        )
        return profile.table()
    controller = getattr(engine, "resilience", None)
    if controller is not None:
        controller.clear_degraded_flag()
    obs = engine.observability
    started = obs.clock() if obs.enabled else 0.0
    with obs.tracer.span("query.statement"):
        rows = run_plan(engine, txn, engine.compile(text), parameters)
    if obs.enabled:
        obs.record_statement(text, obs.clock() - started, len(rows))
    return rows


def run_plan(
    engine,
    txn,
    plan: Plan,
    parameters: Optional[dict[str, Any]] = None,
    ops=None,
) -> list[dict[str, Any]]:
    """Run a compiled plan inside ``txn`` and project its rows.

    ``ops`` replaces ``plan.ops`` with an equivalent chain (PROFILE
    passes them wrapped in instrumentation).
    """
    cond = _temporal_condition(engine, plan, parameters)
    ctx = ExecutionContext(engine, txn, parameters, cond)
    frames: Iterator[Frame] = iter([{}])
    for op in plan.ops if ops is None else ops:
        frames = op.execute(ctx, frames)
    if plan.returns is None:
        for _ in frames:  # drain so writes actually run
            pass
        return []
    return _project(ctx, plan.returns, frames)


def _temporal_condition(engine, plan: Plan, parameters) -> Optional[TemporalCondition]:
    if plan.tt is None:
        return None
    if not engine.temporal:
        raise ExecutionError(
            "temporal qualifiers require an engine with temporal=True"
        )
    ctx = ExecutionContext(engine, None, parameters, None)
    t1 = evaluate(plan.tt.t1, ctx, {})
    if not isinstance(t1, int):
        raise ExecutionError("TT bounds must evaluate to integer timestamps")
    if plan.tt.kind == "snapshot":
        return TemporalCondition.as_of(t1)
    t2 = evaluate(plan.tt.t2, ctx, {})
    if not isinstance(t2, int):
        raise ExecutionError("TT bounds must evaluate to integer timestamps")
    return TemporalCondition.between(t1, t2)


# -- projection ----------------------------------------------------------------


def _project(ctx, returns: ast.ReturnClause, frames) -> list[dict[str, Any]]:
    names = [_item_name(item, pos) for pos, item in enumerate(returns.items)]
    if len(set(names)) != len(names):
        raise PlanningError("duplicate column names in RETURN")
    if any(_has_aggregate(item.expression) for item in returns.items):
        rows = _aggregate_rows(ctx, returns, names, frames)
    else:
        rows = [
            {
                name: _render(evaluate(item.expression, ctx, frame))
                for name, item in zip(names, returns.items)
            }
            for frame in frames
        ]
    if returns.distinct:
        rows = _distinct(rows)
    if returns.order_by:
        rows = _order(ctx, returns.order_by, names, rows)
    if returns.skip is not None:
        rows = rows[_non_negative(ctx, returns.skip, "SKIP"):]
    if returns.limit is not None:
        rows = rows[: _non_negative(ctx, returns.limit, "LIMIT")]
    return rows


def _item_name(item: ast.ReturnItem, position: int) -> str:
    if item.alias is not None:
        return item.alias
    expr = item.expression
    if isinstance(expr, ast.Variable):
        return expr.name
    if isinstance(expr, ast.PropertyAccess):
        return f"{expr.variable}.{expr.name}"
    if isinstance(expr, ast.FunctionCall):
        inner = "*" if expr.star else ", ".join(
            _item_name(ast.ReturnItem(arg), 0) for arg in expr.args
        )
        return f"{expr.name}({inner})"
    return f"column{position}"


def _has_aggregate(expr: ast.Expression) -> bool:
    return isinstance(expr, ast.FunctionCall) and expr.name in _AGGREGATES


def _aggregate_rows(ctx, returns, names, frames) -> list[dict[str, Any]]:
    """Implicit grouping: non-aggregate items are the group key."""
    group_items = [
        (name, item)
        for name, item in zip(names, returns.items)
        if not _has_aggregate(item.expression)
    ]
    agg_items = [
        (name, item)
        for name, item in zip(names, returns.items)
        if _has_aggregate(item.expression)
    ]
    groups: dict[tuple, dict[str, Any]] = {}
    members: dict[tuple, list[Frame]] = {}
    for frame in frames:
        key_values = {
            name: _render(evaluate(item.expression, ctx, frame))
            for name, item in group_items
        }
        key = tuple(_hashable(key_values[name]) for name, _ in group_items)
        if key not in groups:
            groups[key] = key_values
            members[key] = []
        members[key].append(frame)
    rows = []
    for key, key_values in groups.items():
        row = dict(key_values)
        for name, item in agg_items:
            row[name] = _compute_aggregate(ctx, item.expression, members[key])
        rows.append(row)
    if not rows and not group_items:
        # Aggregates over an empty stream still produce one row.
        empty = {
            name: _compute_aggregate(ctx, item.expression, [])
            for name, item in agg_items
        }
        rows.append(empty)
    return rows


def _compute_aggregate(ctx, expr: ast.FunctionCall, frames: list[Frame]) -> Any:
    if expr.name == "count" and expr.star:
        return len(frames)
    if not expr.args:
        raise ExecutionError(f"{expr.name}() needs an argument")
    values = [
        value
        for frame in frames
        if (value := evaluate(expr.args[0], ctx, frame)) is not None
    ]
    if expr.name == "count":
        return len(values)
    if expr.name == "collect":
        return [_render(v) for v in values]
    if not values:
        return None
    if expr.name == "sum":
        return sum(values)
    if expr.name == "min":
        return min(values)
    if expr.name == "max":
        return max(values)
    if expr.name == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {expr.name}()")


def _distinct(rows: list[dict]) -> list[dict]:
    seen = set()
    result = []
    for row in rows:
        key = tuple(_hashable(row[name]) for name in row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _order(ctx, order_by, names, rows) -> list[dict]:
    # Stable multi-pass sort: apply items right-to-left; None sorts
    # last within each pass, like Cypher.
    result = list(rows)
    for item in reversed(order_by):
        result.sort(
            key=lambda row: (
                _order_value(ctx, item.expression, names, row) is None,
                _comparable(_order_value(ctx, item.expression, names, row)),
            ),
            reverse=item.descending,
        )
    return result


def _order_value(ctx, expr, names, row):
    if isinstance(expr, ast.Variable) and expr.name in names:
        return row[expr.name]
    if isinstance(expr, ast.PropertyAccess):
        column = f"{expr.variable}.{expr.name}"
        if column in names:
            return row[column]
        entity = row.get(expr.variable)
        if isinstance(entity, dict):
            return entity.get("properties", {}).get(expr.name)
    raise ExecutionError(
        "ORDER BY must reference a returned column or its alias"
    )


def _comparable(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    return value


def _non_negative(ctx, expr, what: str) -> int:
    value = evaluate(expr, ctx, {})
    if not isinstance(value, int) or value < 0:
        raise ExecutionError(f"{what} must be a non-negative integer")
    return value


# -- rendering -------------------------------------------------------------------


def _render(value: Any) -> Any:
    if isinstance(value, VertexView):
        return {
            "id": value.gid,
            "labels": sorted(value.labels),
            "properties": dict(value.properties),
            "tt": [value.tt_start, value.tt_end],
        }
    if isinstance(value, EdgeView):
        return {
            "id": value.gid,
            "type": value.edge_type,
            "from": value.from_gid,
            "to": value.to_gid,
            "properties": dict(value.properties),
            "tt": [value.tt_start, value.tt_end],
        }
    if isinstance(value, list):
        return [_render(item) for item in value]
    return value


def _hashable(value: Any):
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    return value
