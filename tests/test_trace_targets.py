"""The benchmark tracer's patch targets still exist.

aeonbench's outside-in tracer (``benchmarks/aeonbench/trace.py``)
wraps each layer's entry point by looking it up as
``owner.__dict__[attr]``.  A refactor that renames, moves or inherits
one of those functions would otherwise fail only in the benchmark's
traced run; this test fails it here first.  The tracer module is
loaded from its file and only its ``TARGETS`` table is read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "aeonbench" / "trace.py"


def _targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("_aeonbench_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.TARGETS)


@pytest.mark.parametrize(
    "module_name,class_name,attr,span_name",
    _targets(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_target_resolves_through_owner_dict(
    module_name, class_name, attr, span_name
):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, (
        f"{module_name}.{class_name or ''}.{attr} ({span_name}) is not "
        "defined where the tracer patches it"
    )
    assert callable(owner.__dict__[attr])
