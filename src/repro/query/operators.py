"""Physical query operators and the expression evaluator.

Operators are pull-based: each consumes an iterator of *frames*
(variable bindings) and yields transformed frames.  The temporal
variants of ``NodeScan`` and ``Expand`` delegate to the engine's
built-in temporal operators (Algorithms 2 and 3); the non-temporal
variants use ordinary MVCC-visible reads — mirroring how the paper
extends Memgraph's Scan and Expand only when a transaction-time
qualifier is present.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.common.timeutil import MAX_TIMESTAMP
from repro.core.temporal import (
    TemporalCondition,
    VT_END_PROPERTY,
    VT_START_PROPERTY,
)
from repro.errors import ExecutionError, PlanningError
from repro.graph.views import EdgeView, VertexView
from repro.query import ast

Frame = dict

_MISSING = object()


class ExecutionContext:
    """Everything an operator needs: engine, transaction, parameters,
    and the query's temporal condition (None for current-state reads)."""

    def __init__(self, engine, txn, parameters: Optional[dict], cond):
        self.engine = engine
        self.txn = txn
        self.parameters = parameters or {}
        self.cond: Optional[TemporalCondition] = cond


# -- expression evaluation ----------------------------------------------------


def evaluate(expr: ast.Expression, ctx: ExecutionContext, frame: Frame) -> Any:
    """Evaluate an expression against one frame.

    Missing properties and null operands propagate as ``None``;
    comparisons involving ``None`` are false (ternary-logic collapsed
    to two values, sufficient for this subset).
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter):
        if expr.name not in ctx.parameters:
            raise ExecutionError(f"missing parameter ${expr.name}")
        return ctx.parameters[expr.name]
    if isinstance(expr, ast.Variable):
        if expr.name not in frame:
            raise ExecutionError(f"unbound variable {expr.name}")
        return frame[expr.name]
    if isinstance(expr, ast.PropertyAccess):
        entity = frame.get(expr.variable, _MISSING)
        if entity is _MISSING:
            raise ExecutionError(f"unbound variable {expr.variable}")
        if entity is None:
            return None
        return entity.properties.get(expr.name)
    if isinstance(expr, ast.Comparison):
        return _compare(
            expr.op,
            evaluate(expr.left, ctx, frame),
            evaluate(expr.right, ctx, frame),
        )
    if isinstance(expr, ast.Arithmetic):
        return _arithmetic(
            expr.op,
            evaluate(expr.left, ctx, frame),
            evaluate(expr.right, ctx, frame),
        )
    if isinstance(expr, ast.BooleanOp):
        left = bool(evaluate(expr.left, ctx, frame))
        if expr.op == "AND":
            return left and bool(evaluate(expr.right, ctx, frame))
        return left or bool(evaluate(expr.right, ctx, frame))
    if isinstance(expr, ast.Not):
        return not bool(evaluate(expr.operand, ctx, frame))
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, ctx, frame)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.InList):
        needle = evaluate(expr.needle, ctx, frame)
        return any(
            needle == evaluate(item, ctx, frame) for item in expr.haystack
        )
    if isinstance(expr, ast.FunctionCall):
        return _call_function(expr, ctx, frame)
    if isinstance(expr, ast.PeriodLiteral):
        return (
            evaluate(expr.start, ctx, frame),
            evaluate(expr.end, ctx, frame),
        )
    if isinstance(expr, ast.VTPredicate):  # pragma: no cover - translated away
        raise ExecutionError("untranslated VT predicate reached execution")
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise ExecutionError(f"unknown comparison {op!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right if isinstance(left, float) or isinstance(right, float) else left // right
        if op == "%":
            return left % right
    except TypeError as exc:
        raise ExecutionError(f"bad arithmetic operands: {exc}") from exc
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _call_function(expr: ast.FunctionCall, ctx: ExecutionContext, frame: Frame) -> Any:
    name = expr.name
    if name == "list":
        return [evaluate(arg, ctx, frame) for arg in expr.args]
    if name == "coalesce":
        for arg in expr.args:
            value = evaluate(arg, ctx, frame)
            if value is not None:
                return value
        return None
    if name == "abs":
        value = evaluate(expr.args[0], ctx, frame)
        return None if value is None else abs(value)
    if name == "size":
        value = evaluate(expr.args[0], ctx, frame)
        return None if value is None else len(value)
    if name in _STRING_FUNCTIONS:
        return _call_string_function(name, expr, ctx, frame)
    if name == "to_string":
        value = evaluate(expr.args[0], ctx, frame)
        if value is None:
            return None
        if value is True:
            return "true"
        if value is False:
            return "false"
        return str(value)
    if name == "to_integer":
        value = evaluate(expr.args[0], ctx, frame)
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            return None
    if name == "range":
        low = evaluate(expr.args[0], ctx, frame)
        high = evaluate(expr.args[1], ctx, frame)
        step = evaluate(expr.args[2], ctx, frame) if len(expr.args) > 2 else 1
        if low is None or high is None or not step:
            return None
        return list(range(low, high + (1 if step > 0 else -1), step))
    if name in ("count", "sum", "min", "max", "avg", "collect"):
        raise ExecutionError(
            f"aggregate {name}() outside RETURN is not supported"
        )
    entity = evaluate(expr.args[0], ctx, frame) if expr.args else None
    if name == "id":
        return None if entity is None else entity.gid
    if name == "labels":
        if entity is None:
            return None
        if not isinstance(entity, VertexView):
            raise ExecutionError("labels() expects a vertex")
        return sorted(entity.labels)
    if name == "type":
        if entity is None:
            return None
        if not isinstance(entity, EdgeView):
            raise ExecutionError("type() expects an edge")
        return entity.edge_type
    if name == "properties":
        return None if entity is None else dict(entity.properties)
    if name == "vt_start":
        return None if entity is None else entity.properties.get(VT_START_PROPERTY)
    if name == "vt_end":
        if entity is None:
            return None
        return entity.properties.get(VT_END_PROPERTY, MAX_TIMESTAMP)
    if name == "tt_start":
        return None if entity is None else entity.tt_start
    if name == "tt_end":
        return None if entity is None else entity.tt_end
    raise ExecutionError(f"unknown function {expr.name}()")


_STRING_FUNCTIONS = {
    "upper",
    "lower",
    "trim",
    "starts_with",
    "ends_with",
    "contains_string",
    "substring",
    "split",
    "replace",
}


def _call_string_function(name, expr, ctx, frame):
    """String helpers; null propagates, wrong types raise."""
    args = [evaluate(arg, ctx, frame) for arg in expr.args]
    if any(arg is None for arg in args):
        return None
    first = args[0]
    if not isinstance(first, str):
        raise ExecutionError(f"{name}() expects a string")
    if name == "upper":
        return first.upper()
    if name == "lower":
        return first.lower()
    if name == "trim":
        return first.strip()
    if name == "starts_with":
        return first.startswith(args[1])
    if name == "ends_with":
        return first.endswith(args[1])
    if name == "contains_string":
        return args[1] in first
    if name == "substring":
        start = args[1]
        length = args[2] if len(args) > 2 else None
        return first[start:] if length is None else first[start:start + length]
    if name == "split":
        return first.split(args[1])
    if name == "replace":
        return first.replace(args[1], args[2])
    raise ExecutionError(f"unknown string function {name}()")


# -- physical operators -----------------------------------------------------------


class PhysicalOperator:
    """Base class: transform a stream of frames."""

    def execute(self, ctx: ExecutionContext, frames: Iterator[Frame]) -> Iterator[Frame]:
        raise NotImplementedError

    def describe(self) -> str:
        """One line for EXPLAIN output."""
        return type(self).__name__


class Once(PhysicalOperator):
    """Source operator: a single empty frame."""

    def execute(self, ctx, frames):
        yield {}


class ProfiledOperator(PhysicalOperator):
    """PROFILE instrumentation: wrap an operator, measure every pull.

    Each ``next()`` on the wrapped operator is timed and bracketed by a
    storage-counter snapshot (``snapshot()`` returns a tuple of counter
    values — KV seeks, cache hits, current/reclaimed version hits...).
    Because pulling this operator transitively pulls everything beneath
    it, the accumulated :attr:`time` and :attr:`counters` are
    *cumulative over the subtree*; the profiler derives per-operator
    self values by subtracting the adjacent wrapped child's cumulative
    (the plan is a linear chain).  See ``repro.query.profiler``.
    """

    def __init__(self, op: PhysicalOperator, clock, snapshot):
        self.op = op
        self.clock = clock
        self.snapshot = snapshot
        self.rows = 0
        self.time = 0.0
        self.counters: Optional[tuple] = None

    def describe(self) -> str:
        return self.op.describe()

    def execute(self, ctx, frames):
        inner = self.op.execute(ctx, frames)
        if self.counters is None:
            self.counters = tuple(0 for _ in self.snapshot())
        while True:
            started = self.clock()
            before = self.snapshot()
            try:
                frame = next(inner)
            except StopIteration:
                return
            finally:
                self.time += self.clock() - started
                after = self.snapshot()
                self.counters = tuple(
                    total + (now - was)
                    for total, now, was in zip(self.counters, after, before)
                )
            self.rows += 1
            yield frame


class NodeScan(PhysicalOperator):
    """Bind ``variable`` to vertices matching label/property filters.

    With a temporal condition, every satisfying *version* is a binding
    (Algorithm 2); otherwise the MVCC-visible state is used.  A variable
    already bound upstream is re-checked instead of re-scanned (pattern
    join).

    ``pushed`` holds the ``WHERE`` equalities ``variable.p = <literal |
    $param>`` the planner found for this scan (see
    ``repro.query.planner``).  They only narrow the scan; the ``Filter``
    that owns them still runs, so a pushed equality can drop nothing
    the ``Filter`` would keep.  Null equals nothing, here and in the
    inline map alike.
    """

    def __init__(self, variable, labels, prop_filters):
        self.variable = variable
        self.labels = tuple(labels)
        self.prop_filters = tuple(prop_filters)  # (name, expression)
        self.pushed: tuple = ()  # (name, Literal | Parameter)

    def execute(self, ctx, frames):
        for frame in frames:
            if self.variable is not None and frame.get(self.variable) is not None:
                view = frame[self.variable]
                if not isinstance(view, VertexView):
                    raise ExecutionError(
                        f"{self.variable} is not a vertex (node pattern "
                        "re-used a non-node binding)"
                    )
                if self._matches(ctx, frame, view):
                    yield frame
                continue
            for view in self._scan(ctx, frame):
                if self._matches(ctx, frame, view):
                    new_frame = dict(frame)
                    if self.variable is not None:
                        new_frame[self.variable] = view
                    yield new_frame

    def describe(self) -> str:
        parts = [self.variable or "_"]
        if self.labels:
            parts.append(":" + ":".join(self.labels))
        if self.prop_filters:
            parts.append("{" + ", ".join(n for n, _ in self.prop_filters) + "}")
        if self.pushed:
            parts.append(" WHERE " + ", ".join(n for n, _ in self.pushed))
        return f"NodeScan({''.join(parts)})"

    def _scan(self, ctx, frame):
        label = self.labels[0] if self.labels else None
        prop, value = self._probe(ctx, frame, label)
        if prop is not None and value is None:
            return ()  # an equality with null: no vertex can match
        if ctx.cond is not None:
            return ctx.engine.operators.scan_vertices(
                ctx.txn, ctx.cond, label, prop, value
            )
        return self._snapshot_scan(ctx, label, prop, value)

    def _probe(self, ctx, frame, label):
        """The ``(property, value)`` equality the scan narrows on.

        An inline filter backed by a label+property index comes first:
        the index picks the candidates.  Otherwise the first pushed
        ``WHERE`` equality on an unindexed property prunes candidates
        one by one (``TemporalOperators._may_match``) but never moves
        the scan onto an index, so the scan starts from the same
        candidates as the ``Filter``-only plan.  A ``None`` value means
        an equality with null.
        """
        if label is None:
            return None, None
        indexes = ctx.engine.storage.indexes
        for name, expr in self.prop_filters:
            if indexes.has_label_property_index(label, name):
                return name, evaluate(expr, ctx, frame)
        if not self.pushed:
            return None, None
        try:
            values = [
                (name, evaluate(expr, ctx, frame)) for name, expr in self.pushed
            ]
        except ExecutionError:
            return None, None  # a missing parameter: the Filter reports it
        picked = None
        for name, value in values:
            if value is None:
                picked = name, None
                break
            if picked is None and not indexes.has_label_property_index(
                label, name
            ):
                picked = name, value
        if picked is None:
            return None, None
        ctx.engine.plans.count_pushed_scan()
        return picked

    def _snapshot_scan(self, ctx, label, prop, value):
        storage = ctx.engine.storage
        candidates = None
        if label is not None and prop is not None:
            candidates = storage.indexes.candidates_by_value(label, prop, value)
        if candidates is None and label is not None:
            candidates = storage.indexes.candidates_by_label(label)
        if candidates is not None:
            views = (
                storage.get_vertex(ctx.txn, gid) for gid in sorted(candidates)
            )
        else:
            views = storage.iter_vertices(ctx.txn)
        for view in views:
            if view is not None and (
                prop is None or view.properties.get(prop) == value
            ):
                yield view

    def _matches(self, ctx, frame, view) -> bool:
        if view is None:
            return False
        for label in self.labels:
            if label not in view.labels:
                return False
        return _properties_match(view, self.prop_filters, ctx, frame)


def _properties_match(entity, prop_filters, ctx, frame) -> bool:
    """Whether an inline ``{name: expr}`` map holds for ``entity``.

    Null equals nothing, exactly as ``=`` in ``WHERE``: a null value
    matches no object, whether or not it has the property.
    """
    for name, expr in prop_filters:
        value = evaluate(expr, ctx, frame)
        if value is None or entity.properties.get(name) != value:
            return False
    return True


class Expand(PhysicalOperator):
    """Traverse one hop from ``src`` binding ``rel`` and ``dst``.

    Temporal mode follows Algorithm 3 (candidate-edge union + Equation
    2 intersection checks); snapshot mode walks the visible adjacency.
    A bound ``dst`` turns the operation into an edge-existence join.
    """

    def __init__(self, src, rel_var, dst, types, direction):
        self.src = src
        self.rel_var = rel_var
        self.dst = dst
        self.types = set(types) if types else None
        self.direction = direction

    def execute(self, ctx, frames):
        for frame in frames:
            source = frame.get(self.src)
            if source is None:
                continue
            bound_dst = frame.get(self.dst) if self.dst is not None else None
            for edge, neighbour in self._expansions(ctx, source):
                if bound_dst is not None and neighbour.gid != bound_dst.gid:
                    continue
                new_frame = dict(frame)
                if self.rel_var is not None:
                    new_frame[self.rel_var] = edge
                if self.dst is not None and bound_dst is None:
                    new_frame[self.dst] = neighbour
                yield new_frame

    def describe(self) -> str:
        arrow = {"out": "->", "in": "<-", "both": "--"}[self.direction]
        types = ":" + "|".join(sorted(self.types)) if self.types else ""
        return f"Expand({self.src}){arrow}[{self.rel_var or '_'}{types}]({self.dst})"

    def _expansions(self, ctx, source):
        if ctx.cond is not None:
            yield from ctx.engine.operators.expand(
                ctx.txn, source, ctx.cond, self.direction, self.types
            )
            return
        storage = ctx.engine.storage
        refs = []
        if self.direction in ("out", "both"):
            refs.extend((r, "out") for r in source.out_edges)
        if self.direction in ("in", "both"):
            refs.extend((r, "in") for r in source.in_edges)
        for ref, _side in refs:
            if self.types is not None and ref.edge_type not in self.types:
                continue
            edge = storage.get_edge(ctx.txn, ref.edge_gid)
            if edge is None:
                continue
            neighbour = storage.get_vertex(ctx.txn, ref.other_gid)
            if neighbour is not None:
                yield edge, neighbour


class Unwind(PhysicalOperator):
    """``UNWIND expr AS name`` — one output frame per list element.

    ``null`` unwinds to nothing (Cypher semantics); a non-list value
    unwinds to itself (single frame).
    """

    def __init__(self, expression: ast.Expression, alias: str):
        self.expression = expression
        self.alias = alias

    def describe(self) -> str:
        return f"Unwind(... AS {self.alias})"

    def execute(self, ctx, frames):
        for frame in frames:
            value = evaluate(self.expression, ctx, frame)
            if value is None:
                continue
            items = value if isinstance(value, (list, tuple)) else [value]
            for item in items:
                new_frame = dict(frame)
                new_frame[self.alias] = item
                yield new_frame


class VarExpand(PhysicalOperator):
    """Variable-length traversal: ``-[r:TYPE*min..max]->``.

    Depth-first search from the source binding; relationship
    uniqueness per path (Cypher semantics: an edge may appear once in
    a match).  ``rel_var`` binds the *list* of traversed edges.  A
    bound ``dst`` restricts results to paths ending there.  Inline
    relationship properties must hold on every traversed edge.
    """

    def __init__(
        self, src, rel_var, dst, types, direction, min_hops, max_hops,
        prop_filters=(),
    ):
        self.src = src
        self.rel_var = rel_var
        self.dst = dst
        self.types = set(types) if types else None
        self.direction = direction
        self.min_hops = min_hops
        self.max_hops = max_hops
        self.prop_filters = tuple(prop_filters)

    def describe(self) -> str:
        arrow = {"out": "->", "in": "<-", "both": "--"}[self.direction]
        types = ":" + "|".join(sorted(self.types)) if self.types else ""
        return (
            f"VarExpand({self.src}){arrow}[{self.rel_var or '_'}{types}"
            f"*{self.min_hops}..{self.max_hops}]({self.dst})"
        )

    def execute(self, ctx, frames):
        for frame in frames:
            source = frame.get(self.src)
            if source is None:
                continue
            bound_dst = frame.get(self.dst) if self.dst is not None else None
            seen_results: set = set()
            for path, endpoint in self._paths(ctx, frame, source):
                if bound_dst is not None and endpoint.gid != bound_dst.gid:
                    continue
                key = (tuple(edge.gid for edge in path), endpoint.gid)
                if key in seen_results:
                    continue
                seen_results.add(key)
                new_frame = dict(frame)
                if self.rel_var is not None:
                    new_frame[self.rel_var] = list(path)
                if self.dst is not None and bound_dst is None:
                    new_frame[self.dst] = endpoint
                yield new_frame

    def _paths(self, ctx, frame, source):
        """DFS yielding ``(edge list, endpoint view)`` per valid path."""
        if self.min_hops == 0:
            yield [], source
        stack = [(source, [], frozenset())]
        while stack:
            vertex, path, used = stack.pop()
            if len(path) >= self.max_hops:
                continue
            for edge, neighbour in self._expansions(ctx, vertex):
                if edge.gid in used:
                    continue
                if not self._edge_matches(ctx, frame, edge):
                    continue
                new_path = path + [edge]
                if len(new_path) >= self.min_hops:
                    yield new_path, neighbour
                stack.append((neighbour, new_path, used | {edge.gid}))

    def _expansions(self, ctx, vertex):
        if ctx.cond is not None:
            yield from ctx.engine.operators.expand(
                ctx.txn, vertex, ctx.cond, self.direction, self.types
            )
            return
        storage = ctx.engine.storage
        refs = []
        if self.direction in ("out", "both"):
            refs.extend(vertex.out_edges)
        if self.direction in ("in", "both"):
            refs.extend(vertex.in_edges)
        for ref in refs:
            if self.types is not None and ref.edge_type not in self.types:
                continue
            edge = storage.get_edge(ctx.txn, ref.edge_gid)
            if edge is None:
                continue
            neighbour = storage.get_vertex(ctx.txn, ref.other_gid)
            if neighbour is not None:
                yield edge, neighbour

    def _edge_matches(self, ctx, frame, edge) -> bool:
        return _properties_match(edge, self.prop_filters, ctx, frame)


class RelFilter(PhysicalOperator):
    """Apply a relationship pattern's inline property map."""

    def __init__(self, rel_var, prop_filters):
        self.rel_var = rel_var
        self.prop_filters = tuple(prop_filters)

    def describe(self) -> str:
        names = ", ".join(n for n, _ in self.prop_filters)
        return f"RelFilter({self.rel_var} {{{names}}})"

    def execute(self, ctx, frames):
        for frame in frames:
            edge = frame.get(self.rel_var)
            if edge is None:
                continue
            if _properties_match(edge, self.prop_filters, ctx, frame):
                yield frame


class Filter(PhysicalOperator):
    """WHERE predicate."""

    def __init__(self, predicate: ast.Expression):
        self.predicate = predicate

    def describe(self) -> str:
        return "Filter(WHERE ...)"

    def execute(self, ctx, frames):
        for frame in frames:
            if bool(evaluate(self.predicate, ctx, frame)):
                yield frame


class OptionalMatch(PhysicalOperator):
    """Run a sub-plan per frame; emit null bindings when it is empty."""

    def __init__(self, sub_ops: list[PhysicalOperator], new_vars: list[str]):
        self.sub_ops = sub_ops
        self.new_vars = new_vars

    def describe(self) -> str:
        inner = "; ".join(op.describe() for op in self.sub_ops)
        return f"OptionalMatch[{inner}]"

    def execute(self, ctx, frames):
        for frame in frames:
            produced = False
            sub_frames: Iterator[Frame] = iter([frame])
            for op in self.sub_ops:
                sub_frames = op.execute(ctx, sub_frames)
            for result in sub_frames:
                produced = True
                yield result
            if not produced:
                empty = dict(frame)
                for var in self.new_vars:
                    empty.setdefault(var, None)
                yield empty


_AGGREGATE_NAMES = {"count", "sum", "min", "max", "avg", "collect"}


def has_aggregate(expr: ast.Expression) -> bool:
    """Whether the expression is an aggregate call (top level)."""
    return isinstance(expr, ast.FunctionCall) and expr.name in _AGGREGATE_NAMES


def hashable_key(value: Any):
    """A hashable stand-in for any frame value (grouping/dedup keys)."""
    if isinstance(value, (VertexView, EdgeView)):
        return ("#entity", value.gid, value.tt_start, value.tt_end)
    if isinstance(value, dict):
        return tuple(sorted((k, hashable_key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(hashable_key(item) for item in value)
    return value


def compute_aggregate(ctx, expr: ast.FunctionCall, frames: list[Frame]) -> Any:
    """Evaluate one aggregate over a group of frames (raw values)."""
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
        return values
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


class WithOp(PhysicalOperator):
    """``WITH`` — project the pipeline onto new bindings.

    Implicit grouping applies when any item aggregates (like RETURN);
    ``WHERE`` filters the projected frames; ``ORDER BY``/``SKIP``/
    ``LIMIT`` apply to the projected stream.  Downstream operators see
    only the projected names.
    """

    def describe(self) -> str:
        return "With(" + ", ".join(self.names) + ")"

    def __init__(self, clause: ast.WithClause):
        self.clause = clause
        self.names = []
        for item in clause.items:
            if item.alias is not None:
                self.names.append(item.alias)
            elif isinstance(item.expression, ast.Variable):
                self.names.append(item.expression.name)
            else:  # pragma: no cover - parser enforces aliasing
                raise PlanningError("WITH expressions require an AS alias")
        if len(set(self.names)) != len(self.names):
            raise PlanningError("duplicate names in WITH")

    def execute(self, ctx, frames):
        clause = self.clause
        if any(has_aggregate(item.expression) for item in clause.items):
            projected = self._aggregate(ctx, frames)
        else:
            projected = (
                {
                    name: evaluate(item.expression, ctx, frame)
                    for name, item in zip(self.names, clause.items)
                }
                for frame in frames
            )
        if clause.where is not None:
            projected = (
                frame
                for frame in projected
                if bool(evaluate(clause.where, ctx, frame))
            )
        if clause.distinct:
            projected = self._distinct(projected)
        needs_list = clause.order_by or clause.skip or clause.limit
        if not needs_list:
            yield from projected
            return
        rows = list(projected)
        for item in reversed(clause.order_by):
            rows.sort(
                key=lambda frame: _order_key(evaluate(item.expression, ctx, frame)),
                reverse=item.descending,
            )
        if clause.skip is not None:
            rows = rows[_require_count(ctx, clause.skip, "SKIP"):]
        if clause.limit is not None:
            rows = rows[: _require_count(ctx, clause.limit, "LIMIT")]
        yield from rows

    def _aggregate(self, ctx, frames):
        group_items = [
            (name, item)
            for name, item in zip(self.names, self.clause.items)
            if not has_aggregate(item.expression)
        ]
        agg_items = [
            (name, item)
            for name, item in zip(self.names, self.clause.items)
            if has_aggregate(item.expression)
        ]
        groups: dict[tuple, dict] = {}
        members: dict[tuple, list[Frame]] = {}
        for frame in frames:
            values = {
                name: evaluate(item.expression, ctx, frame)
                for name, item in group_items
            }
            key = tuple(hashable_key(values[name]) for name, _ in group_items)
            if key not in groups:
                groups[key] = values
                members[key] = []
            members[key].append(frame)
        if not groups and not group_items:
            groups[()] = {}
            members[()] = []
        for key, values in groups.items():
            row = dict(values)
            for name, item in agg_items:
                row[name] = compute_aggregate(ctx, item.expression, members[key])
            yield row

    @staticmethod
    def _distinct(frames):
        seen = set()
        for frame in frames:
            key = tuple(sorted((k, hashable_key(v)) for k, v in frame.items()))
            if key not in seen:
                seen.add(key)
                yield frame


def _order_key(value):
    """Total order over mixed-type values: None last, numbers before
    strings before everything else (by repr)."""
    if value is None:
        return (3, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, repr(value))


def _require_count(ctx, expr, what: str) -> int:
    value = evaluate(expr, ctx, {})
    if not isinstance(value, int) or value < 0:
        raise ExecutionError(f"{what} must be a non-negative integer")
    return value


class CreateNodeOp(PhysicalOperator):
    """CREATE (v:Label {props}) [VALID PERIOD(a, b)]."""

    def __init__(self, item: ast.CreateNode):
        self.item = item

    def describe(self) -> str:
        pattern = self.item.pattern
        labels = ":" + ":".join(pattern.labels) if pattern.labels else ""
        return f"CreateNode({pattern.variable or '_'}{labels})"

    def execute(self, ctx, frames):
        pattern = self.item.pattern
        for frame in frames:
            properties = {
                name: evaluate(expr, ctx, frame)
                for name, expr in pattern.properties
            }
            valid = None
            if self.item.valid_time is not None:
                valid = (
                    evaluate(self.item.valid_time.start, ctx, frame),
                    evaluate(self.item.valid_time.end, ctx, frame),
                )
            gid = ctx.engine.create_vertex(
                ctx.txn, pattern.labels, properties, valid_time=valid
            )
            new_frame = dict(frame)
            if pattern.variable is not None:
                new_frame[pattern.variable] = ctx.engine.get_vertex(ctx.txn, gid)
            yield new_frame


class CreateEdgeOp(PhysicalOperator):
    """CREATE (a)-[:TYPE {props}]->(b) with bound endpoints."""

    def __init__(self, item: ast.CreateEdge):
        self.item = item
        if len(item.rel.types) != 1:
            raise PlanningError("CREATE requires exactly one relationship type")

    def execute(self, ctx, frames):
        item = self.item
        for frame in frames:
            source = frame.get(item.from_var)
            target = frame.get(item.to_var)
            if source is None or target is None:
                raise ExecutionError(
                    "CREATE edge endpoints must be bound to vertices"
                )
            properties = {
                name: evaluate(expr, ctx, frame)
                for name, expr in item.rel.properties
            }
            valid = None
            if item.valid_time is not None:
                valid = (
                    evaluate(item.valid_time.start, ctx, frame),
                    evaluate(item.valid_time.end, ctx, frame),
                )
            gid = ctx.engine.create_edge(
                ctx.txn,
                source.gid,
                target.gid,
                item.rel.types[0],
                properties,
                valid_time=valid,
            )
            new_frame = dict(frame)
            if item.rel.variable is not None:
                new_frame[item.rel.variable] = ctx.engine.get_edge(ctx.txn, gid)
            yield new_frame


class SetOp(PhysicalOperator):
    """SET x.prop = expr, ..."""

    def __init__(self, clause: ast.SetClause):
        self.clause = clause

    def execute(self, ctx, frames):
        for frame in frames:
            for item in self.clause.items:
                entity = frame.get(item.target.variable)
                if entity is None:
                    raise ExecutionError(
                        f"SET on unbound variable {item.target.variable}"
                    )
                value = evaluate(item.value, ctx, frame)
                if isinstance(entity, VertexView):
                    ctx.engine.set_vertex_property(
                        ctx.txn, entity.gid, item.target.name, value
                    )
                elif isinstance(entity, EdgeView):
                    ctx.engine.set_edge_property(
                        ctx.txn, entity.gid, item.target.name, value
                    )
                else:
                    raise ExecutionError("SET target is not a graph object")
            yield frame


class DeleteOp(PhysicalOperator):
    """[DETACH] DELETE x, ..."""

    def __init__(self, clause: ast.DeleteClause):
        self.clause = clause

    def execute(self, ctx, frames):
        deleted: set[tuple[str, int]] = set()
        for frame in frames:
            for variable in self.clause.variables:
                entity = frame.get(variable)
                if entity is None:
                    continue
                key = (
                    "vertex" if isinstance(entity, VertexView) else "edge",
                    entity.gid,
                )
                if key in deleted:
                    continue
                deleted.add(key)
                if isinstance(entity, VertexView):
                    ctx.engine.delete_vertex(
                        ctx.txn, entity.gid, detach=self.clause.detach
                    )
                elif isinstance(entity, EdgeView):
                    ctx.engine.delete_edge(ctx.txn, entity.gid)
                else:
                    raise ExecutionError("DELETE target is not a graph object")
            yield frame
