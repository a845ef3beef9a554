"""The Cypher-ish temporal query language (paper sections 2.2 and 6).

The surface language is a practical subset of Cypher extended with the
paper's temporal constructs:

- ``TT SNAPSHOT <t>`` — transaction-time point queries;
- ``TT BETWEEN <t1> AND <t2>`` — transaction-time slice queries;
- valid-time predicates in ``WHERE`` (``n.VT CONTAINS 5``,
  ``n.VT OVERLAPS PERIOD(3, 9)`` and the other Allen relations), which
  the translator rewrites into ordinary property predicates before
  planning — exactly the paper's CypherMainVisitor translation.

Example::

    MATCH (n:Customer)-[r]->(m:CreditCard)
    WHERE n.name = 'Jack' AND m.VT CONTAINS 100
    TT SNAPSHOT 200
    RETURN m.balance
"""

__all__ = ["execute_query", "parse"]


def __getattr__(name):
    # Loaded on first use: every engine imports ``repro.query.cache``,
    # and one driven only through the direct API should not pay ~45 ms
    # for the parser and planner.
    if name == "execute_query":
        from repro.query.executor import execute_query

        return execute_query
    if name == "parse":
        from repro.query.parser import parse

        return parse
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
