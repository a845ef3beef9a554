"""Recursive-descent parser for the temporal query language.

Grammar sketch (clauses appear in this order, each optional unless a
statement would otherwise be empty)::

    query  := stage (WITH projection [WHERE expr] stage)* (RETURN projection)?
    stage  := (match | unwind)* where? tt? (create | set | delete)*
    match  := [OPTIONAL] MATCH pattern (',' pattern)*
    pattern:= node (rel node)*
    node   := '(' var? (':' label)* map? ')'
    rel    := '-[' var? (':' type ('|' type)*)? map? ']->'
            | '<-[' ... ']-'   |   '-[' ... ']-'
    tt     := [FOR] TT SNAPSHOT expr
            | [FOR] TT BETWEEN expr AND expr
    create := CREATE item (',' item)*        -- node, or (a)-[:T]->(b)
              item may end with VALID PERIOD(e1, e2)
    set    := SET var.prop '=' expr (',' ...)*
    delete := [DETACH] DELETE var (',' var)*
    unwind := UNWIND expr AS var
    projection := [DISTINCT] item (',' item)*
              [ORDER BY expr [ASC|DESC] (',' ...)*] [SKIP expr] [LIMIT expr]

Valid-time predicates are parsed as ``<var>.VT <ALLEN-OP> <expr>``
inside ``WHERE`` and later rewritten by :mod:`repro.query.translate`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.query import ast
from repro.query.lexer import Token, TokenType, tokenize

_ALLEN_OPS = {
    "CONTAINS",
    "OVERLAPS",
    "BEFORE",
    "AFTER",
    "MEETS",
    "MET_BY",
    "OVERLAPPED_BY",
    "STARTS",
    "STARTED_BY",
    "DURING",
    "FINISHES",
    "FINISHED_BY",
    "EQUALS",
}

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}


class _VTAccess:
    """Transient marker for ``var.VT`` awaiting its Allen operator."""

    def __init__(self, variable: str) -> None:
        self.variable = variable


def parse(text: str) -> ast.Query:
    """Parse one statement; raises :class:`~repro.errors.ParseError`."""
    return _Parser(tokenize(text)).parse_query()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _check_keyword(self, word: str) -> bool:
        return self._current.is_keyword(word)

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise ParseError(
                f"expected {word}, found {self._current.value!r} at "
                f"offset {self._current.position}"
            )

    def _check_punct(self, punct: str) -> bool:
        token = self._current
        return token.type == TokenType.PUNCT and token.value == punct

    def _accept_punct(self, punct: str) -> bool:
        if self._check_punct(punct):
            self._advance()
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        if not self._accept_punct(punct):
            raise ParseError(
                f"expected {punct!r}, found {self._current.value!r} at "
                f"offset {self._current.position}"
            )

    def _expect_ident(self) -> str:
        token = self._current
        if token.type != TokenType.IDENT:
            raise ParseError(
                f"expected identifier, found {token.value!r} at offset "
                f"{token.position}"
            )
        self._advance()
        return token.value

    def _name(self) -> str:
        """An identifier, allowing (non-clause) keywords as names."""
        token = self._current
        if token.type == TokenType.IDENT:
            self._advance()
            return token.value
        if token.type == TokenType.KEYWORD:
            self._advance()
            return token.value
        raise ParseError(
            f"expected name, found {token.value!r} at offset {token.position}"
        )

    # -- query ------------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        stages: list[ast.Stage] = []
        tt: Optional[ast.TTClause] = None
        returns: Optional[ast.Projection] = None

        while True:
            stage, stage_tt, has_with = self._parse_stage(first=not stages)
            if stage_tt is not None:
                tt = stage_tt
            stages.append(stage)
            if not has_with:
                break

        if self._accept_keyword("RETURN"):
            returns = self._parse_projection(with_=False)

        if self._current.type != TokenType.END:
            raise ParseError(
                f"unexpected trailing input at offset {self._current.position}: "
                f"{self._current.value!r}"
            )
        empty = all(
            not (s.reading or s.creates or s.sets or s.deletes) for s in stages
        )
        if empty and returns is None:
            raise ParseError("empty query")
        return ast.Query(stages=tuple(stages), tt=tt, returns=returns)

    def _parse_stage(
        self, first: bool
    ) -> tuple[ast.Stage, Optional[ast.TTClause], bool]:
        reading: list = []
        where: Optional[ast.WhereClause] = None
        tt: Optional[ast.TTClause] = None
        creates: list[ast.CreateClause] = []
        sets: list[ast.SetClause] = []
        deletes: list[ast.DeleteClause] = []

        while True:
            optional = False
            if self._check_keyword("OPTIONAL"):
                self._advance()
                self._expect_keyword("MATCH")
                optional = True
                reading.append(self._parse_match(optional))
                continue
            if self._accept_keyword("MATCH"):
                reading.append(self._parse_match(optional))
                continue
            if self._accept_keyword("UNWIND"):
                expression = self._parse_expression()
                self._expect_keyword("AS")
                reading.append(ast.UnwindClause(expression, self._name()))
                continue
            break

        if self._accept_keyword("WHERE"):
            where = ast.WhereClause(self._parse_expression())

        if self._check_keyword("FOR") or self._check_keyword("TT"):
            if not first:
                raise ParseError(
                    "the TT qualifier belongs to the first pipeline stage"
                )
            tt = self._parse_tt_clause()

        while True:
            if self._accept_keyword("CREATE"):
                creates.append(self._parse_create())
                continue
            if self._accept_keyword("SET"):
                sets.append(self._parse_set())
                continue
            if self._check_keyword("DETACH") or self._check_keyword("DELETE"):
                deletes.append(self._parse_delete())
                continue
            break

        with_clause = None
        if self._accept_keyword("WITH"):
            with_clause = self._parse_projection(with_=True)
        return (
            ast.Stage(
                reading=tuple(reading),
                where=where,
                creates=tuple(creates),
                sets=tuple(sets),
                deletes=tuple(deletes),
                with_clause=with_clause,
            ),
            tt,
            with_clause is not None,
        )

    # -- MATCH --------------------------------------------------------------------

    def _parse_match(self, optional: bool) -> ast.MatchClause:
        patterns = [self._parse_pattern()]
        while self._accept_punct(","):
            patterns.append(self._parse_pattern())
        return ast.MatchClause(tuple(patterns), optional=optional)

    def _parse_pattern(self) -> ast.PathPattern:
        nodes = [self._parse_node_pattern()]
        rels: list[ast.RelPattern] = []
        while self._check_punct("-") or self._check_punct("<-"):
            rels.append(self._parse_rel_pattern())
            nodes.append(self._parse_node_pattern())
        return ast.PathPattern(tuple(nodes), tuple(rels))

    def _parse_node_pattern(self) -> ast.NodePattern:
        self._expect_punct("(")
        variable = None
        if self._current.type == TokenType.IDENT:
            variable = self._advance().value
        labels: list[str] = []
        while self._accept_punct(":"):
            labels.append(self._name())
        properties = self._parse_property_map() if self._check_punct("{") else ()
        self._expect_punct(")")
        return ast.NodePattern(variable, tuple(labels), tuple(properties))

    def _parse_rel_pattern(self) -> ast.RelPattern:
        if self._accept_punct("<-"):
            direction = "in"
            rel = self._parse_rel_detail()
            self._expect_punct("-")
            if self._check_punct(">"):
                raise ParseError("bidirectional arrows '<-...->' not supported")
        else:
            self._expect_punct("-")
            rel = self._parse_rel_detail()
            if self._accept_punct("->"):
                direction = "out"
            else:
                self._expect_punct("-")
                direction = "both"
        return ast.RelPattern(
            rel.variable,
            rel.types,
            rel.properties,
            direction,
            rel.min_hops,
            rel.max_hops,
        )

    #: Safety cap for unbounded variable-length patterns (``*`` / ``*2..``).
    MAX_VAR_LENGTH = 15

    def _parse_rel_detail(self) -> ast.RelPattern:
        if not self._accept_punct("["):
            return ast.RelPattern(None)
        variable = None
        if self._current.type == TokenType.IDENT:
            variable = self._advance().value
        types: list[str] = []
        if self._accept_punct(":"):
            types.append(self._name())
            while self._accept_punct("|"):
                self._accept_punct(":")  # allow :A|:B and :A|B
                types.append(self._name())
        min_hops = max_hops = None
        if self._accept_punct("*"):
            min_hops, max_hops = self._parse_hop_bounds()
        properties = self._parse_property_map() if self._check_punct("{") else ()
        self._expect_punct("]")
        return ast.RelPattern(
            variable, tuple(types), tuple(properties), "out", min_hops, max_hops
        )

    def _parse_hop_bounds(self) -> tuple[int, int]:
        """The Cypher forms ``*``, ``*n``, ``*n..m``, ``*..m``, ``*n..``."""
        low: Optional[int] = None
        high: Optional[int] = None
        if self._current.type == TokenType.INTEGER:
            low = self._advance().value
        if self._accept_punct("."):
            self._expect_punct(".")
            if self._current.type == TokenType.INTEGER:
                high = self._advance().value
        elif low is not None:
            high = low  # exact form *n
        min_hops = low if low is not None else 1
        max_hops = high if high is not None else self.MAX_VAR_LENGTH
        if min_hops < 0 or max_hops < min_hops:
            raise ParseError(
                f"bad variable-length bounds *{min_hops}..{max_hops}"
            )
        if max_hops > self.MAX_VAR_LENGTH:
            raise ParseError(
                f"variable-length bound {max_hops} exceeds the cap of "
                f"{self.MAX_VAR_LENGTH}"
            )
        return min_hops, max_hops

    def _parse_property_map(self) -> tuple[tuple[str, ast.Expression], ...]:
        self._expect_punct("{")
        items: list[tuple[str, ast.Expression]] = []
        if not self._check_punct("}"):
            while True:
                name = self._name()
                self._expect_punct(":")
                items.append((name, self._parse_expression()))
                if not self._accept_punct(","):
                    break
        self._expect_punct("}")
        return tuple(items)

    # -- temporal clause --------------------------------------------------------------

    def _parse_tt_clause(self) -> ast.TTClause:
        self._accept_keyword("FOR")
        self._expect_keyword("TT")
        if self._accept_keyword("SNAPSHOT"):
            return ast.TTClause("snapshot", self._parse_additive())
        self._expect_keyword("BETWEEN")
        # Bounds parse below the boolean level so the separating AND is
        # not swallowed as a conjunction.
        t1 = self._parse_additive()
        self._expect_keyword("AND")
        t2 = self._parse_additive()
        return ast.TTClause("between", t1, t2)

    # -- CREATE / SET / DELETE ------------------------------------------------------------

    def _parse_create(self) -> ast.CreateClause:
        items: list = [self._parse_create_item()]
        while self._accept_punct(","):
            items.append(self._parse_create_item())
        return ast.CreateClause(tuple(items))

    def _parse_create_item(self):
        first = self._parse_node_pattern()
        if self._check_punct("-") or self._check_punct("<-"):
            rel = self._parse_rel_pattern()
            second = self._parse_node_pattern()
            if first.variable is None or second.variable is None:
                raise ParseError(
                    "CREATE edge endpoints must be bound variables"
                )
            if rel.direction == "both":
                raise ParseError("CREATE requires a directed relationship")
            from_var, to_var = (
                (first.variable, second.variable)
                if rel.direction == "out"
                else (second.variable, first.variable)
            )
            rel = ast.RelPattern(rel.variable, rel.types, rel.properties, "out")
            valid = self._parse_valid_suffix()
            return ast.CreateEdge(from_var, to_var, rel, valid)
        valid = self._parse_valid_suffix()
        return ast.CreateNode(first, valid)

    def _parse_valid_suffix(self) -> Optional[ast.PeriodLiteral]:
        if not self._accept_keyword("VALID"):
            return None
        self._expect_keyword("PERIOD")
        self._expect_punct("(")
        start = self._parse_expression()
        self._expect_punct(",")
        end = self._parse_expression()
        self._expect_punct(")")
        return ast.PeriodLiteral(start, end)

    def _parse_set(self) -> ast.SetClause:
        items: list[ast.SetItem] = []
        while True:
            variable = self._expect_ident()
            self._expect_punct(".")
            name = self._name()
            self._expect_punct("=")
            value = self._parse_expression()
            items.append(ast.SetItem(ast.PropertyAccess(variable, name), value))
            if not self._accept_punct(","):
                break
        return ast.SetClause(tuple(items))

    def _parse_delete(self) -> ast.DeleteClause:
        detach = self._accept_keyword("DETACH")
        self._expect_keyword("DELETE")
        variables = [self._expect_ident()]
        while self._accept_punct(","):
            variables.append(self._expect_ident())
        return ast.DeleteClause(tuple(variables), detach=detach)

    # -- RETURN / WITH ----------------------------------------------------------------------

    def _parse_projection(self, with_: bool) -> ast.Projection:
        """The items and modifiers after ``RETURN`` or ``WITH``; only
        ``WITH`` takes a trailing ``WHERE``."""
        distinct = self._accept_keyword("DISTINCT")
        items = [self._parse_projection_item(with_)]
        while self._accept_punct(","):
            items.append(self._parse_projection_item(with_))
        order: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expression()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                else:
                    self._accept_keyword("ASC")
                order.append(ast.OrderItem(expr, descending))
                if not self._accept_punct(","):
                    break
        skip = self._parse_expression() if self._accept_keyword("SKIP") else None
        limit = self._parse_expression() if self._accept_keyword("LIMIT") else None
        where = None
        if with_ and self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Projection(
            tuple(items), distinct, tuple(order), skip, limit, where
        )

    def _parse_projection_item(self, with_: bool) -> ast.ReturnItem:
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._name()
        # Cypher's rule: anything but a bare variable needs an alias in
        # WITH, since the projected name becomes a binding.
        if with_ and alias is None and not isinstance(expression, ast.Variable):
            raise ParseError("WITH expressions require an AS alias")
        return ast.ReturnItem(expression, alias)

    # -- expressions ----------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BooleanOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BooleanOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        if isinstance(left, _VTAccess):
            return self._parse_vt_predicate(left)
        token = self._current
        if token.type == TokenType.PUNCT and token.value in _COMPARISON_OPS:
            op = self._advance().value
            right = self._parse_additive()
            if isinstance(right, _VTAccess):
                raise ParseError("VT may only appear left of an Allen operator")
            return ast.Comparison(op, left, right)
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        if self._accept_keyword("IN"):
            self._expect_punct("[")
            items: list[ast.Expression] = []
            if not self._check_punct("]"):
                while True:
                    items.append(self._parse_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct("]")
            return ast.InList(left, tuple(items))
        if (
            token.type == TokenType.KEYWORD
            and token.value in _ALLEN_OPS
            and isinstance(left, ast.PropertyAccess)
        ):
            raise ParseError(
                f"Allen operator {token.value} requires a .VT operand "
                f"(got property {left.variable}.{left.name})"
            )
        return left

    def _parse_vt_predicate(self, access: _VTAccess) -> ast.Expression:
        token = self._current
        if token.type != TokenType.KEYWORD or token.value not in _ALLEN_OPS:
            raise ParseError(
                f"expected an Allen operator after {access.variable}.VT, "
                f"found {token.value!r}"
            )
        op = self._advance().value
        argument = self._parse_additive()
        if isinstance(argument, _VTAccess):
            raise ParseError("VT-to-VT comparisons are not supported")
        return ast.VTPredicate(access.variable, op, argument)

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while self._current.type == TokenType.PUNCT and self._current.value in "+-":
            if isinstance(left, _VTAccess):
                raise ParseError("VT cannot be used in arithmetic")
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while self._current.type == TokenType.PUNCT and self._current.value in "*/%":
            if isinstance(left, _VTAccess):
                raise ParseError("VT cannot be used in arithmetic")
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self):
        if self._accept_punct("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.Arithmetic("-", ast.Literal(0), operand)
        return self._parse_primary()

    def _parse_primary(self):
        token = self._current
        if token.type == TokenType.INTEGER or token.type == TokenType.FLOAT:
            self._advance()
            return ast.Literal(token.value)
        if token.type == TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type == TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("PERIOD"):
            self._advance()
            self._expect_punct("(")
            start = self._parse_expression()
            self._expect_punct(",")
            end = self._parse_expression()
            self._expect_punct(")")
            return ast.PeriodLiteral(start, end)
        if self._accept_punct("("):
            inner = self._parse_expression()
            self._expect_punct(")")
            return inner
        if self._check_punct("["):
            self._advance()
            items: list[ast.Expression] = []
            if not self._check_punct("]"):
                while True:
                    items.append(self._parse_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct("]")
            return ast.FunctionCall("list", tuple(items))
        if token.type == TokenType.IDENT:
            name = self._advance().value
            if self._accept_punct("("):
                return self._parse_call(name)
            if self._accept_punct("."):
                if self._accept_keyword("VT"):
                    return _VTAccess(name)
                prop = self._name()
                return ast.PropertyAccess(name, prop)
            return ast.Variable(name)
        raise ParseError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _parse_call(self, name: str) -> ast.FunctionCall:
        if self._accept_punct("*"):
            self._expect_punct(")")
            return ast.FunctionCall(name.lower(), (), star=True)
        args: list[ast.Expression] = []
        if not self._check_punct(")"):
            while True:
                args.append(self._parse_expression())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return ast.FunctionCall(name.lower(), tuple(args))
