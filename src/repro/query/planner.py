"""Logical-to-physical lowering.

Each MATCH pattern becomes a left-to-right chain of ``NodeScan`` and
``Expand`` operators.  The planner picks the cheaper end of the chain
to start from (bound variable > indexed label+property > label >
inline properties > bare scan) and reverses the pattern when the right
end anchors better — the vertex-centric strategy the paper describes
("first scans the relevant vertices, then expands").

A stage's ``WHERE`` stays one ``Filter`` after the stage's patterns,
but its top-level ``AND`` conjuncts of the form ``v.p = <literal |
$param>`` (either side) are also recorded on the ``NodeScan`` that
binds ``v`` — when that scan is labelled, not optional, and binds
``v`` for the first time in the stage.  The scan uses them to skip
versions that cannot satisfy the equality before reconstructing them
(see ``NodeScan._probe``); the ``Filter`` still decides every row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import PlanningError
from repro.query import ast
from repro.query.operators import (
    CreateEdgeOp,
    CreateNodeOp,
    DeleteOp,
    Expand,
    Filter,
    NodeScan,
    Once,
    OptionalMatch,
    PhysicalOperator,
    Project,
    RelFilter,
    SetOp,
    Unwind,
    VarExpand,
)
from repro.query.translate import translate_query

_FLIP = {"out": "in", "in": "out", "both": "both"}


@dataclass(frozen=True)
class Plan:
    """A lowered statement, ready for the executor.

    Read-only once built: operators keep no per-run state, so one plan
    serves every execution of its statement (the engine caches plans
    by statement text, see ``repro.query.cache.PlanCache``).

    ``ops`` is the operator chain, ``WITH`` projections included;
    ``returns`` is the final ``RETURN`` projection (``None`` for a
    statement without one), the same :class:`Project` operator kept
    outside the chain: the executor pulls result rows from it, and
    EXPLAIN and PROFILE render it as the tree's ``Produce`` root.

    ``describe()`` lists the operator chain in pipeline order (source
    first) — the flat ``engine.explain`` format; the profiler's
    ``EXPLAIN`` tree renders the same chain root-first (see
    ``repro.query.profiler``).
    """

    ops: tuple[PhysicalOperator, ...]
    returns: Optional[Project]
    tt: Optional[ast.TTClause]
    is_write: bool


def plan_query(query: ast.Query, engine) -> Plan:
    """Lower a parsed statement against ``engine``'s schema (indexes)."""
    query = translate_query(query)
    if query.is_write and query.tt is not None:
        raise PlanningError(
            "historical graph objects are immutable: a write statement "
            "cannot carry a TT qualifier (section 2.3)"
        )
    ops: list[PhysicalOperator] = [Once()]
    bound: set[str] = set()
    names = itertools.count()
    for stage in query.stages:
        _plan_stage(stage, engine, ops, bound, names)
    returns = None if query.returns is None else Project(query.returns)
    return Plan(tuple(ops), returns, query.tt, query.is_write)


def _plan_stage(
    stage: ast.Stage,
    engine,
    ops: list[PhysicalOperator],
    bound: set[str],
    names,
) -> None:
    # variable -> the labelled, non-optional NodeScan that first binds
    # it in this stage: where WHERE equalities may be pushed
    scans: dict[str, NodeScan] = {}
    for clause in stage.reading:
        if isinstance(clause, ast.UnwindClause):
            ops.append(Unwind(clause.expression, clause.alias))
            bound.add(clause.alias)
            scans.pop(clause.alias, None)
        elif clause.optional:
            sub_ops: list[PhysicalOperator] = []
            optional_bound = set(bound)
            for pattern in clause.patterns:
                _plan_pattern(pattern, engine, sub_ops, optional_bound, names)
            new_vars = sorted(optional_bound - bound)
            ops.append(OptionalMatch(sub_ops, new_vars))
            bound |= optional_bound
        else:
            for pattern in clause.patterns:
                _plan_pattern(pattern, engine, ops, bound, names, scans)
    if stage.where is not None:
        _push_equalities(stage.where.predicate, scans)
        ops.append(Filter(stage.where.predicate))
    for create in stage.creates:
        for item in create.items:
            if isinstance(item, ast.CreateNode):
                ops.append(CreateNodeOp(item))
                if item.pattern.variable is not None:
                    bound.add(item.pattern.variable)
            elif isinstance(item, ast.CreateEdge):
                if item.from_var not in bound or item.to_var not in bound:
                    raise PlanningError(
                        "CREATE edge endpoints must be bound by MATCH or a "
                        "preceding CREATE"
                    )
                ops.append(CreateEdgeOp(item))
                if item.rel.variable is not None:
                    bound.add(item.rel.variable)
            else:  # pragma: no cover - parser produces only these
                raise PlanningError(f"unknown CREATE item {item!r}")
    for set_clause in stage.sets:
        for item in set_clause.items:
            if item.target.variable not in bound:
                raise PlanningError(
                    f"SET references unbound variable {item.target.variable}"
                )
        ops.append(SetOp(set_clause))
    for delete in stage.deletes:
        for variable in delete.variables:
            if variable not in bound:
                raise PlanningError(
                    f"DELETE references unbound variable {variable}"
                )
        ops.append(DeleteOp(delete))
    if stage.with_clause is not None:
        project = Project(stage.with_clause)
        ops.append(project)
        # Downstream stages see only the projected names.
        bound.clear()
        bound.update(project.names)


def _push_equalities(predicate: ast.Expression, scans: dict) -> None:
    """Record each top-level ``v.p = <literal | $param>`` conjunct of
    ``predicate`` on the scan that binds ``v`` (if ``scans`` has one)."""
    if isinstance(predicate, ast.BooleanOp) and predicate.op == "AND":
        _push_equalities(predicate.left, scans)
        _push_equalities(predicate.right, scans)
        return
    if not isinstance(predicate, ast.Comparison) or predicate.op != "=":
        return
    for access, value in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if (
            isinstance(access, ast.PropertyAccess)
            and isinstance(value, (ast.Literal, ast.Parameter))
            and access.variable in scans
        ):
            scans[access.variable].pushed += ((access.name, value),)
            return


def _plan_pattern(
    pattern: ast.PathPattern,
    engine,
    ops: list[PhysicalOperator],
    bound: set[str],
    names,
    scans: Optional[dict] = None,
) -> None:
    pattern = _ensure_variables(pattern, names)
    if _anchor_score(pattern.nodes[-1], engine, bound) > _anchor_score(
        pattern.nodes[0], engine, bound
    ):
        pattern = _reverse(pattern)
    first = pattern.nodes[0]
    scan = NodeScan(first.variable, first.labels, first.properties)
    ops.append(scan)
    if scans is not None and first.labels and first.variable not in bound:
        scans[first.variable] = scan
    bound.add(first.variable)
    for hop, (rel, node) in enumerate(zip(pattern.rels, pattern.nodes[1:])):
        if rel.is_variable_length:
            ops.append(
                VarExpand(
                    src=pattern.nodes[hop].variable,
                    rel_var=rel.variable,
                    dst=node.variable,
                    types=rel.types,
                    direction=rel.direction,
                    min_hops=rel.min_hops,
                    max_hops=rel.max_hops,
                    prop_filters=rel.properties,
                )
            )
        else:
            ops.append(
                Expand(
                    src=pattern.nodes[hop].variable,
                    rel_var=rel.variable,
                    dst=node.variable,
                    types=rel.types,
                    direction=rel.direction,
                )
            )
            if rel.variable is not None and rel.properties:
                ops.append(RelFilter(rel.variable, rel.properties))
        if node.labels or node.properties:
            ops.append(NodeScan(node.variable, node.labels, node.properties))
        bound.add(node.variable)
        if rel.variable is not None:
            bound.add(rel.variable)


def _ensure_variables(pattern: ast.PathPattern, names) -> ast.PathPattern:
    """Give anonymous nodes/rels internal names so Expand can bind them."""
    nodes = tuple(
        node
        if node.variable is not None
        else ast.NodePattern(f"_anon{next(names)}", node.labels, node.properties)
        for node in pattern.nodes
    )
    rels = tuple(
        rel
        if rel.variable is not None or not rel.properties
        else ast.RelPattern(
            f"_anon{next(names)}",
            rel.types,
            rel.properties,
            rel.direction,
            rel.min_hops,
            rel.max_hops,
        )
        for rel in pattern.rels
    )
    return ast.PathPattern(nodes, rels)


def _anchor_score(node: ast.NodePattern, engine, bound: set[str]) -> float:
    """How selectively a chain can start at this node."""
    if node.variable is not None and node.variable in bound:
        return 4.0
    score = 0.0
    if node.labels:
        label = node.labels[0]
        indexes = engine.storage.indexes
        for name, _expr in node.properties:
            if indexes.has_label_property_index(label, name):
                return 3.0
        score = 2.0 if node.properties else 1.0
        if indexes.has_label_index(label):
            score += 0.5
    elif node.properties:
        score = 0.5
    return score


def _reverse(pattern: ast.PathPattern) -> ast.PathPattern:
    nodes = tuple(reversed(pattern.nodes))
    rels = tuple(
        ast.RelPattern(
            rel.variable,
            rel.types,
            rel.properties,
            _FLIP[rel.direction],
            rel.min_hops,
            rel.max_hops,
        )
        for rel in reversed(pattern.rels)
    )
    return ast.PathPattern(nodes, rels)
