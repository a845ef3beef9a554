"""Abstract syntax tree of the query language.

Plain dataclasses; the parser builds them, the translator rewrites
valid-time predicates, the planner lowers them to physical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


# -- expressions -------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    name: str


@dataclass(frozen=True)
class Variable(Expression):
    name: str


@dataclass(frozen=True)
class PropertyAccess(Expression):
    variable: str
    name: str


@dataclass(frozen=True)
class Comparison(Expression):
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Arithmetic(Expression):
    op: str  # '+', '-', '*', '/', '%'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class BooleanOp(Expression):
    op: str  # 'AND', 'OR'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    needle: Expression
    haystack: tuple[Expression, ...]


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # lower-cased
    args: tuple[Expression, ...]
    star: bool = False  # count(*)


@dataclass(frozen=True)
class PeriodLiteral(Expression):
    """``PERIOD(start, end)`` — a valid-time interval expression."""

    start: Expression
    end: Expression


@dataclass(frozen=True)
class VTPredicate(Expression):
    """``<var>.VT <ALLEN-OP> <point-or-period>`` before translation."""

    variable: str
    op: str  # 'CONTAINS', 'OVERLAPS', 'BEFORE', ... (upper-case)
    argument: Expression  # a point expression or PeriodLiteral


# -- patterns -------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    variable: Optional[str]
    labels: tuple[str, ...] = ()
    properties: tuple[tuple[str, Expression], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    variable: Optional[str]
    types: tuple[str, ...] = ()
    properties: tuple[tuple[str, Expression], ...] = ()
    direction: str = "out"  # 'out', 'in', 'both'
    #: variable-length bounds; (None, None) = plain single hop
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None

    @property
    def is_variable_length(self) -> bool:
        return self.min_hops is not None


@dataclass(frozen=True)
class PathPattern:
    """Alternating nodes and relationships: n0 r0 n1 r1 n2 ..."""

    nodes: tuple[NodePattern, ...]
    rels: tuple[RelPattern, ...]


# -- clauses -------------------------------------------------------------------


@dataclass(frozen=True)
class MatchClause:
    patterns: tuple[PathPattern, ...]
    optional: bool = False


@dataclass(frozen=True)
class WhereClause:
    predicate: Expression


@dataclass(frozen=True)
class TTClause:
    """``TT SNAPSHOT e`` or ``TT BETWEEN e1 AND e2``."""

    kind: str  # 'snapshot' | 'between'
    t1: Expression
    t2: Optional[Expression] = None


@dataclass(frozen=True)
class CreateNode:
    pattern: NodePattern
    valid_time: Optional[PeriodLiteral] = None


@dataclass(frozen=True)
class CreateEdge:
    from_var: str
    to_var: str
    rel: RelPattern
    valid_time: Optional[PeriodLiteral] = None


@dataclass(frozen=True)
class CreateClause:
    items: tuple[Any, ...]  # CreateNode | CreateEdge


@dataclass(frozen=True)
class SetItem:
    target: PropertyAccess
    value: Expression


@dataclass(frozen=True)
class SetClause:
    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class DeleteClause:
    variables: tuple[str, ...]
    detach: bool = False


@dataclass(frozen=True)
class ReturnItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Projection:
    """``RETURN`` or ``WITH``: items, then DISTINCT, ORDER BY, SKIP, LIMIT.

    ``WITH`` is a pipeline stage boundary: the following stage continues
    with only the projected names bound.  Only ``WITH`` sets ``where``,
    which filters the projected frames.
    """

    items: tuple[ReturnItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    where: Optional[Expression] = None


@dataclass(frozen=True)
class UnwindClause:
    """``UNWIND expr AS name`` — one frame per list element."""

    expression: Expression
    alias: str


@dataclass(frozen=True)
class Stage:
    """One pipeline segment: reads, writes, and an optional WITH.

    ``reading`` holds the MATCH/UNWIND clauses in source order (their
    interleaving matters: ``MATCH … UNWIND n.xs AS x`` needs ``n``
    bound first); ``matches`` is the filtered convenience view.
    """

    reading: tuple[Any, ...] = ()  # MatchClause | UnwindClause, ordered
    where: Optional[WhereClause] = None
    creates: tuple[CreateClause, ...] = ()
    sets: tuple[SetClause, ...] = ()
    deletes: tuple[DeleteClause, ...] = ()
    with_clause: Optional[Projection] = None

    @property
    def matches(self) -> tuple["MatchClause", ...]:
        return tuple(c for c in self.reading if isinstance(c, MatchClause))

    @property
    def unwinds(self) -> tuple["UnwindClause", ...]:
        return tuple(c for c in self.reading if isinstance(c, UnwindClause))

    @property
    def is_write(self) -> bool:
        return bool(self.creates or self.sets or self.deletes)


@dataclass(frozen=True)
class Query:
    """One full statement: WITH-separated stages plus a final RETURN."""

    stages: tuple[Stage, ...] = ()
    tt: Optional[TTClause] = None
    returns: Optional[Projection] = None

    @property
    def is_write(self) -> bool:
        return any(stage.is_write for stage in self.stages)

    # Convenience accessors for the single-stage common case (used by
    # tests and the translator).
    @property
    def matches(self) -> tuple[MatchClause, ...]:
        return self.stages[0].matches if self.stages else ()

    @property
    def where(self) -> Optional[WhereClause]:
        return self.stages[0].where if self.stages else None

    @property
    def creates(self) -> tuple[CreateClause, ...]:
        return self.stages[0].creates if self.stages else ()

    @property
    def sets(self) -> tuple[SetClause, ...]:
        return self.stages[0].sets if self.stages else ()

    @property
    def deletes(self) -> tuple[DeleteClause, ...]:
        return self.stages[0].deletes if self.stages else ()
