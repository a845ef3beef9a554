"""Statement execution: compile, run the plan, render ``RETURN`` rows.

The executor pulls the statement's rows from the plan's final
``RETURN`` projection (``Plan.returns``, a
:class:`~repro.query.operators.Project` like every ``WITH``) and
returns them as plain Python rows (``list[dict]``).  Its one job past
running the operator chain is rendering: vertex and edge versions
become dictionaries carrying their gid, labels/type, properties, and
transaction-time interval, so callers never hold live storage objects.
Grouping, DISTINCT and ORDER BY happen in the projection, on raw
values.

Every statement reaches its plan through one path, the engine's
:class:`~repro.query.cache.PlanCache` (``engine.compile``): a statement
seen before is neither re-parsed nor re-planned.  A cache miss calls
this module's ``parse`` and ``plan_query``.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.temporal import TemporalCondition
from repro.errors import ExecutionError
from repro.graph.views import EdgeView, VertexView
from repro.query.cache import PROFILE_PREFIX
from repro.query.operators import ExecutionContext, Frame, evaluate
# PlanCache parses and plans a missed statement through these two names
# (tracers patch them here).
from repro.query.parser import parse  # noqa: F401
from repro.query.planner import Plan, plan_query  # noqa: F401


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
    """Run a compiled plan inside ``txn`` and render its ``RETURN`` rows.

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
    rows = []
    for row in plan.returns.execute(ctx, frames):
        for name, value in row.items():
            if isinstance(value, _RENDERED):
                row[name] = _render(value)
        rows.append(row)
    return rows


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


# -- rendering -------------------------------------------------------------------

#: the value types ``_render`` changes; every other value is returned as is
_RENDERED = (VertexView, EdgeView, list)


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
