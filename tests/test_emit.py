"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

Every report the CLI prints goes through ``cli._write``; its bytes must be
the standard library's, on any tree of JSON values."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfield.cli import _write


def _written(o) -> str:
    out: list = []
    _write(o, "\n", out)
    return "".join(out)


def _stdlib(o) -> str:
    return json.dumps(o, indent=2, sort_keys=True)


# non-ASCII, control characters, lone surrogates, quotes and backslashes
_TEXT = st.text(st.one_of(
    st.characters(),
    st.characters(categories=["Cs"]),
    st.sampled_from("\x00\x1f\x7f\"\\/\u2028\U0001f600"),
), max_size=8)
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
    2**300, -2**300, 2**63, -2**63 - 1, 0, True, False, None,
]
_SCALARS = st.one_of(
    _TEXT, st.sampled_from(_EDGES), st.floats(),
    st.integers(-2**300, 2**300), st.integers(0, 300).map(lambda k: (-3) ** k),
    st.booleans(), st.none())
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_TREES)
def test_write_matches_stdlib(o):
    assert _written(o) == _stdlib(o)


def test_write_matches_stdlib_on_edge_values():
    o = {"edges": _EDGES, "empty": [[], {}, (), {"e": {}}], "text": [
        "\x00\x1f\x7f\"\\/", "\u00e9\u2028\U0001f600", "\ud800", "\udfff"]}
    assert _written(o) == _stdlib(o)
    assert _written([]) == "[]" and _written({}) == "{}"


def test_write_encodes_number_subclasses_as_their_base():
    class Float(float):
        def __repr__(self):
            return "not a float"

    class Int(int):
        def __repr__(self):
            return "not an int"

    o = {"f": Float(0.1), "i": Int(7), "n": [Float("nan"), Float("-inf")]}
    assert _written(o) == _stdlib(o)
    assert '"f": 0.1' in _written(o)


def test_write_rejects_what_is_not_json():
    with pytest.raises(TypeError):
        _written({"a": [Fraction(1, 3)]})
    with pytest.raises(TypeError):
        _written({1: "a"})


def test_write_matches_stdlib_on_shared_containers():
    """One container object in several places, at one indent or at
    several."""
    inv = {"Xpos": [{"poly": ["1", "1"], "approx": -1.0}], "Ypos": []}
    row = ["a", {"b": [1, 2]}]
    trees = [
        {"field": inv, "principal_part": inv},  # adjacent keys
        {"a": inv, "m": 1, "z": inv},  # non-adjacent keys
        {"rows": [row, row], "tail": row},  # twice in a list
        {"a": inv, "b": {"inner": inv, "more": inv}, "c": [inv]},  # depths
        {"a": None, "b": None, "c": [None, None], "d": row, "e": row},
    ]
    for o in trees:
        assert _written(o) == _stdlib(o)
