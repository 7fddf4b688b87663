"""The verdict report and ``singularities --json`` against their dicts.

``polyfield.analysis`` writes these reports as text, one fixed shape at a
time.  Their bytes must be those of ``json.dumps(indent=2, sort_keys=True)``
of the reference dicts in ``tests/oracles.py``, built field by field, on
small and large random fields, on fields the verdict must shear, on fields
with coefficients past the float range, and on every golden field.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import field_text, inventory_json, report_json
from test_cli_golden import CASES

from polyfield.analysis import Analysis, equivalence_verdict
from polyfield.cli import SCHEMA_VERSION, main
from polyfield.fields import (
    PlanarField,
    WeightVector,
    format_field,
    parse_field,
    shear,
)


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _reference(argv) -> dict | None:
    """The document the CLI prints for ``argv``, or None where it fails."""
    def option(name):
        return argv[argv.index(name) + 1] if name in argv else None

    try:
        f = parse_field(option("--field"))
        if argv[0] == "check-equivalence":
            return {"schema_version": SCHEMA_VERSION,
                    "report": report_json(equivalence_verdict(f))}
        weight = option("--weight")
        a = Analysis(f, weight and WeightVector(
            *map(int, weight.split(","))))
        return {"schema_version": SCHEMA_VERSION,
                "weight": list(a.weight.as_tuple()),
                "charts": inventory_json(a.inventory)}
    except Exception:
        return None


def _assert_prints_reference(argv) -> None:
    code, out = _cli(argv)
    ref = _reference(argv)
    if ref is None:
        assert out == "" and code not in (0, 3)
    else:
        assert out == json.dumps(ref, indent=2, sort_keys=True) + "\n"


def _check(text: str) -> None:
    for argv in (("check-equivalence", "--field", text),
                 ("singularities", "--json", "--field", text)):
        _assert_prints_reference(argv)


def _poly_text(comp: dict) -> str:
    """``{(i, j): c}`` in the CLI grammar, written here, not by polyfield."""
    terms = [f"{'-' if c < 0 else '+'} {abs(c)}*x^{i}*y^{j}"
             for (i, j), c in sorted(comp.items()) if c]
    return " ".join(terms).lstrip("+ ") or "0"


def _text(dx: dict, dy: dict) -> str:
    return f"dx = {_poly_text(dx)}; dy = {_poly_text(dy)}"


# 2-5 logarithmic-basis terms x^m y^n (a x d/dx + b y d/dy) on [-1, 3]^2,
# numerators in [-4, 4] over {1, 2, 3}: the verdict-random corpus's draws
_POOL = [(m, n) for m in range(-1, 4) for n in range(-1, 4)]
_COEF = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def _small(draw) -> tuple[dict, dict]:
    points = draw(st.lists(st.sampled_from(_POOL), min_size=2, max_size=5,
                           unique=True))
    dx: dict = {}
    dy: dict = {}
    for m, n in points:
        a, b = draw(_COEF), draw(_COEF)
        if n >= 0 and a:
            dx[(m + 1, n)] = a
        if m >= 0 and b:
            dy[(m, n + 1)] = b
    return dx, dy


@st.composite
def _large(draw) -> tuple[dict, dict]:
    """4-9 monomials of degree 3-7, one of full degree, with integer
    coefficients of 3, 8, 16 or 24 bits: the verdict-large corpus's."""
    degree = draw(st.integers(3, 7))
    bits = draw(st.sampled_from([3, 8, 16, 24]))
    monos = [(i, k - i) for k in range(degree + 1) for i in range(k + 1)]
    top = draw(st.sampled_from([m for m in monos if sum(m) == degree]))
    rest = draw(st.lists(st.sampled_from(monos), min_size=3, max_size=8))
    comps: tuple[dict, dict] = ({}, {})
    for mono in [top] + rest:
        c = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        comps[draw(st.integers(0, 1))][mono] = c * draw(st.sampled_from([1, -1]))
    return comps


@st.composite
def _sheared(draw) -> tuple[dict, dict]:
    """A small field pushed through a shear, which the verdict must often
    undo before its polytope is favorable."""
    dx, dy = draw(_small())
    lam = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(1, 2)]))
    f = PlanarField.from_components(dx, dy)
    return (f if f.is_zero else shear(f, lam)).components()


@st.composite
def _huge(draw) -> tuple[dict, dict]:
    """A small field with one coefficient scaled past the float range."""
    dx, dy = draw(_small())
    comp = dx if dx and (draw(st.booleans()) or not dy) else dy
    if comp:
        key = draw(st.sampled_from(sorted(comp)))
        comp[key] *= 10 ** draw(st.sampled_from([310, 400, 700]))
    return dx, dy


@settings(max_examples=320, deadline=None, derandomize=True, database=None)
@given(st.one_of(_small(), _large(), _sheared(), _huge()))
@example(({(1, 0): 1}, {(0, 1): 1}))
@example(({(2, 0): 1}, {(1, 1): 1, (0, 2): 1, (2, 0): -10 ** 620}))
def test_reports_print_the_reference_dicts(comps):
    dx, dy = comps
    if dx or dy:
        _check(_text(dx, dy))


# the first case of each golden field, by name
_GOLDEN_FIELDS: dict = {}
for _name, _argv in sorted(CASES.items()):
    if "--field" in _argv:
        _GOLDEN_FIELDS.setdefault(_argv[_argv.index("--field") + 1], _name)
_GOLDEN_REPORTS = sorted(
    name for name, argv in CASES.items()
    if argv[0] == "check-equivalence"
    or (argv[0] == "singularities" and "--json" in argv))


@pytest.mark.parametrize("text", _GOLDEN_FIELDS, ids=_GOLDEN_FIELDS.get)
def test_golden_fields_print_the_reference_dicts(text):
    _check(text)


@pytest.mark.parametrize("name", _GOLDEN_REPORTS)
def test_golden_reports_print_the_reference_dicts(name):
    _assert_prints_reference(CASES[name])


@pytest.mark.parametrize("text", _GOLDEN_FIELDS, ids=_GOLDEN_FIELDS.get)
def test_to_json_is_the_reference(text):
    try:
        rep = equivalence_verdict(parse_field(text))
    except Exception:
        return
    assert rep.to_json() == report_json(rep)
    for recs in rep.inventory.values():
        for r in recs:
            assert r.to_json() == inventory_json({"c": [r]})["c"][0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_small(), _sheared(), _huge()))
def test_format_field_writes_reduced_coefficients(comps):
    """format_field from integers over ``den`` against the Fraction text."""
    f = PlanarField.from_components(*comps)
    assert format_field(f) == field_text(f)
    assert parse_field(format_field(f)) == f
