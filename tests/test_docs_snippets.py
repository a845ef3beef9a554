"""Docs-check: execute the fenced code in the documentation.

Two guarantees, enforced per documentation file:

- every ```python fence runs clean, executed **in document order in one
  shared namespace** (so a later block may use names an earlier block
  defined, exactly as a reader following along would);
- every ```cypher fence is paired with the ```text fence that follows
  it, and ``EXPLAIN <cypher>`` against the namespace's ``db`` engine
  must reproduce the text block **verbatim**.

Blocks run chdir'd into a temp directory, so doc examples may create
relative paths like ``demo-db`` freely.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import AeonG
from repro.faults import FAILPOINTS

pytestmark = pytest.mark.docs

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
DOC_FILES = [
    "API.md",
    "OBSERVABILITY.md",
    "SERVING.md",
    "REPLICATION.md",
    "OPERATIONS.md",
]

_FENCE = re.compile(
    r"^```(?P<lang>[a-zA-Z]*)[ \t]*\n(?P<body>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)


def extract_fences(text):
    """Return [(lang, body)] for every fenced block, in document order."""
    return [
        (match.group("lang"), match.group("body"))
        for match in _FENCE.finditer(text)
    ]


def iter_doc_steps(text):
    """Yield ("python", source) and ("explain", query, expected) steps.

    A ``cypher`` fence must be immediately followed (among fences) by a
    ``text`` fence holding its EXPLAIN rendering; anything else is a
    documentation bug this test should catch.
    """
    fences = extract_fences(text)
    index = 0
    while index < len(fences):
        lang, body = fences[index]
        if lang == "python":
            yield ("python", body)
        elif lang == "cypher":
            assert index + 1 < len(fences) and fences[index + 1][0] == "text", (
                "cypher fence %r has no trailing text fence" % body.strip()
            )
            yield ("explain", body.strip(), fences[index + 1][1].rstrip("\n"))
            index += 1
        index += 1


@pytest.mark.parametrize("doc_name", DOC_FILES)
def test_documentation_blocks_execute(doc_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = (DOCS_DIR / doc_name).read_text()
    steps = list(iter_doc_steps(text))
    assert steps, "no runnable fences found in %s" % doc_name

    namespace = {"__name__": "__doc_snippet__"}
    python_blocks = 0
    explain_pairs = 0
    try:
        for step in steps:
            if step[0] == "python":
                code = compile(step[1], "%s:python-block" % doc_name, "exec")
                exec(code, namespace)  # noqa: S102 - the docs are ours
                python_blocks += 1
            else:
                _, query, expected = step
                db = namespace.get("db")
                assert db is not None, (
                    "cypher fence before any python block defined `db`"
                )
                rows = db.execute("EXPLAIN " + query)
                rendered = [row["plan"] for row in rows]
                assert rendered == expected.splitlines(), (
                    "EXPLAIN drift for %r:\nexpected %r\ngot      %r"
                    % (query, expected.splitlines(), rendered)
                )
                explain_pairs += 1
    finally:
        FAILPOINTS.clear()
        for value in namespace.values():
            if isinstance(value, AeonG):
                value.close()  # idempotent; docs may leave engines open

    assert python_blocks > 0
    if doc_name == "OBSERVABILITY.md":
        # Every query form documented must have been asserted verbatim.
        assert explain_pairs >= 7
