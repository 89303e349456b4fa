"""Deterministic JSON rendering."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cclab.jsonout import dumps, format_rational


def test_keys_are_sorted_and_output_is_byte_stable():
    a = dumps({"zebra": 1, "apple": 2, "mango": [3, {"b": 1, "a": 2}]})
    b = dumps({"mango": [3, {"a": 2, "b": 1}], "apple": 2, "zebra": 1})
    assert a == b
    assert a == '{"apple":2,"mango":[3,{"a":2,"b":1}],"zebra":1}'


def test_golden_fragment():
    assert dumps({"a": Fraction(1, 3), "b": 1}) == '{"a":"1/3","b":1}'


def test_float_formatting():
    assert dumps(0.1) == "0.1"
    assert dumps(1.0) == "1.0"
    assert dumps(-0.5) == "-0.5"
    assert dumps(1e300) == "1e+300"
    assert dumps(-0.0) == "-0.0"


def test_float_round_trips_exactly():
    for value in (0.1, 2.0 / 3.0, 1e-12, math.pi, 6.02e23, -0.0):
        assert float(dumps(value)) == value


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dumps(bad)
        with pytest.raises(ValueError):
            dumps({"x": [bad]})


def test_rationals_become_strings():
    assert format_rational(Fraction(-80, 289)) == "-80/289"
    assert format_rational(Fraction(4, 2)) == "2"
    assert dumps(Fraction(-1, 2)) == '"-1/2"'
    assert dumps(Fraction(7)) == '"7"'


def test_unknown_types_rejected():
    for bad in (object(), {1, 2}, 1j):
        with pytest.raises(TypeError):
            dumps({"x": [bad]})


def test_scalars_and_containers():
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps((1, 2)) == "[1,2]"
    assert dumps([]) == "[]"
    assert dumps({}) == "{}"


def test_string_escapes():
    assert dumps("tab\there") == '"tab\\there"'
    assert dumps('say "hi"') == '"say \\"hi\\""'
    assert dumps("back\\slash") == '"back\\\\slash"'
    assert dumps("\x01") == '"\\u0001"'


@given(st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False, allow_infinity=False) |
    st.text(max_size=20),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
))
def test_output_is_valid_json_and_deterministic(obj):
    text = dumps(obj)
    assert text == dumps(obj)
    parsed = json.loads(text)
    # floats were rendered as their shortest repr: the round trip is exact
    assert _normalize(parsed) == _normalize(obj)


def _normalize(obj):
    if isinstance(obj, tuple):
        return [_normalize(x) for x in obj]
    if isinstance(obj, list):
        return [_normalize(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, float) and obj.is_integer() and not _is_neg_zero(obj):
        # json.loads may return int for "1.0"? it does not, but floats that
        # came back equal compare fine either way
        return obj
    return obj


def _is_neg_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) < 0
