"""Unit + property tests for the binary value serializer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.serde import (
    decode_mapping,
    decode_value,
    encode_mapping,
    encode_value,
    encoded_size,
)
from repro.errors import CorruptionError


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 127, 128, -128, 2**40, -(2**40), 10**30],
    )
    def test_roundtrip_ints_and_bools(self, value):
        assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize("value", [0.0, -1.5, 3.141592653589793, 1e300])
    def test_roundtrip_floats(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert encode_value(True) != encode_value(1)

    @pytest.mark.parametrize("value", ["", "hello", "héllo wörld", "日本語", "a" * 10_000])
    def test_roundtrip_strings(self, value):
        assert decode_value(encode_value(value)) == value

    def test_roundtrip_bytes(self):
        raw = bytes(range(256))
        assert decode_value(encode_value(raw)) == raw

    def test_small_ints_encode_compactly(self):
        assert len(encode_value(5)) == 2  # tag + 1 varint byte
        assert len(encode_value(-3)) == 2

    def test_negative_ints_stay_small_via_zigzag(self):
        assert len(encode_value(-1)) <= len(encode_value(-(2**40)))


#: ``(value, hex)`` from the encoder as it stands: one case or more per
#: type tag (N T F i d s b l m), with multi-byte varints, big ints past
#: 64 bits, non-ASCII strings and nested lists and maps.  A faster
#: encoder must produce these bytes exactly: history records, WAL
#: frames and ``store_bytes_per_op`` are all made of them.
GOLDEN = [
    (None, "4e"),
    (True, "54"),
    (False, "46"),
    (0, "6900"),
    (1, "6902"),
    (-1, "6901"),
    (63, "697e"),
    (-64, "697f"),
    (64, "698001"),
    (300, "69d804"),
    (-301, "69d904"),
    (2**40, "69808080808040"),
    (-(2**40), "69ffffffffff3f"),
    (2**64, "6980808080808080808004"),
    (10**30, "6980808080c8faf6f48cc1e6c9e5a706"),
    (-(10**30), "69ffffffffc7faf6f48cc1e6c9e5a706"),
    (1.5, "643ff8000000000000"),
    (-0.0, "648000000000000000"),
    (1e300, "647e37e43c8800759c"),
    ("", "7300"),
    ("hello", "730568656c6c6f"),
    ("héllo wörld", "730d68c3a96c6c6f2077c3b6726c64"),
    ("日本語", "7309e697a5e69cace8aa9e"),
    ("\U0001f642", "7304f09f9982"),
    (b"", "6200"),
    (b"\x00\x7f\x80\xff", "6204007f80ff"),
    ([], "6c00"),
    ([1, "a", None], "6c0369027301614e"),
    ([[1, [2, [True]]], {}], "6c026c0269026c0269046c01546d00"),
    ({}, "6d00"),
    ({"a": 1}, "6d017301616902"),
    (
        {"p": {"n": [1, {"x": None}]}, "la": ["X", "Y"]},
        "6d027301706d0173016e6c0269026d017301784e73026c616c02730158730159",
    ),
    ({1: "int key", None: b"\x01"}, "6d0269027307696e74206b65794e620101"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("value,hex_", GOLDEN, ids=lambda v: repr(v)[:24])
    def test_encoding_is_pinned(self, value, hex_):
        assert encode_value(value).hex() == hex_

    @pytest.mark.parametrize("value,hex_", GOLDEN, ids=lambda v: repr(v)[:24])
    def test_golden_decodes_to_value(self, value, hex_):
        decoded = decode_value(bytes.fromhex(hex_))
        assert decoded == value and type(decoded) is type(value)

    def test_tuple_shares_the_list_encoding(self):
        assert encode_value((1, "a", None)).hex() == "6c0369027301614e"


class TestContainers:
    def test_roundtrip_list(self):
        value = [1, "two", 3.0, None, True, [4, 5]]
        assert decode_value(encode_value(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_roundtrip_nested_map(self):
        value = {"a": 1, "b": {"c": [1, 2, {"d": None}]}}
        assert decode_value(encode_value(value)) == value

    def test_mapping_helpers(self):
        mapping = {"name": "Jack", "balance": 270}
        assert decode_mapping(encode_mapping(mapping)) == mapping

    def test_decode_mapping_rejects_non_map(self):
        with pytest.raises(CorruptionError):
            decode_mapping(encode_value([1, 2]))

    def test_empty_containers(self):
        assert decode_value(encode_value([])) == []
        assert decode_value(encode_value({})) == {}


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_set_is_unsupported(self):
        with pytest.raises(TypeError):
            encode_value({1, 2})

    def test_trailing_garbage_detected(self):
        with pytest.raises(CorruptionError):
            decode_value(encode_value(1) + b"x")

    def test_truncated_input_detected(self):
        encoded = encode_value("hello world")
        with pytest.raises(CorruptionError):
            decode_value(encoded[:-3])

    def test_unknown_tag_detected(self):
        with pytest.raises(CorruptionError):
            decode_value(b"\xffxx")

    def test_empty_input_detected(self):
        with pytest.raises(CorruptionError):
            decode_value(b"")

    def test_truncated_varint_detected(self):
        with pytest.raises(CorruptionError):
            decode_value(b"i\x80")  # continuation bit set, no next byte


def test_encoded_size_matches_encoding():
    for value in [None, 42, "hello", {"a": [1, 2, 3]}]:
        assert encoded_size(value) == len(encode_value(value))


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@given(_values)
@settings(max_examples=300)
def test_roundtrip_property(value):
    decoded = decode_value(encode_value(value))
    assert decoded == _normalize(value)


def _normalize(value):
    """Tuples become lists on the wire; everything else is identity."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


@given(_values, _values)
@settings(max_examples=150)
def test_distinct_values_distinct_encodings(a, b):
    if _normalize(a) != _normalize(b):
        assert encode_value(a) != encode_value(b)
