"""Property-map validation.

Properties are plain ``dict[str, value]`` with values restricted to the
types the serializer understands.  The history store's backward diffs
are built in ``repro.core.deltas``.
"""

from __future__ import annotations

from typing import Any

#: Types allowed as property values (lists/dicts may nest these).
ALLOWED_SCALARS = (type(None), bool, int, float, str, bytes)


def validate_value(value: Any) -> None:
    """Raise ``TypeError`` unless ``value`` is storable."""
    if isinstance(value, ALLOWED_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            validate_value(item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("property map keys must be strings")
            validate_value(item)
        return
    raise TypeError(f"unsupported property value type: {type(value)!r}")


def validate_properties(properties: dict[str, Any]) -> None:
    """Validate a whole property map."""
    for name, value in properties.items():
        if not isinstance(name, str) or not name:
            raise TypeError("property names must be non-empty strings")
        validate_value(value)
