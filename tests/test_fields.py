import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evaluate, reference_parse_field
from polyfield import fields
from polyfield.fields import (
    AdmissibilityError,
    FieldError,
    ParseError,
    PlanarField,
    WeightVector,
    format_field,
    make_favorable,
    max_level,
    parse_field,
    shear,
)

QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"


def test_parse_quartic_example():
    f = parse_field(QUARTIC)
    assert f.terms() == {
        (-1, 3): (F(1), F(0)),
        (1, 2): (F(0), F(1)),
        (2, 1): (F(-1), F(0)),
        (3, -1): (F(0), F(-1)),
    }


def test_parse_coefficients_and_juxtaposition():
    f = parse_field("dx = 3x^2y - 1/2*y; dy = xy^2")
    P, Q = f.components()
    assert P == {(2, 1): F(3), (0, 1): F(-1, 2)}
    assert Q == {(1, 2): F(1)}


def test_parse_repeated_variables_accumulate():
    f = parse_field("dx = x*x*y^2*x; dy = 0")
    P, _ = f.components()
    assert P == {(3, 2): F(1)}


def test_parse_leading_sign_and_zero():
    f = parse_field("dx = -x; dy = +y")
    P, Q = f.components()
    assert P == {(1, 0): F(-1)}
    assert Q == {(0, 1): F(1)}
    assert parse_field("dx = 0; dy = 0").is_zero


def test_parse_cancellation_drops_terms():
    f = parse_field("dx = x - x; dy = y")
    assert f.support() == ((0, 0),)


def test_parse_errors_have_positions():
    for text in ("dx = ; dy = x", "dx = z; dy = x", "dx = x dy = y",
                 "dx = 1/0; dy = x", "dx = x^; dy = y", "dy = x; dx = y"):
        with pytest.raises(ParseError):
            parse_field(text)


def test_format_round_trip():
    f = parse_field(QUARTIC)
    text = format_field(f)
    assert parse_field(text) == f
    assert format_field(parse_field(text)) == text


def test_format_round_trip_random():
    rng = random.Random(11)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            m, n = rng.randint(-1, 3), rng.randint(-1, 3)
            a = F(rng.randint(-4, 4), rng.randint(1, 3)) if n >= 0 and m >= -1 else F(0)
            b = F(rng.randint(-4, 4), rng.randint(1, 3)) if m >= 0 and n >= -1 else F(0)
            if a == 0 and b == 0:
                continue
            terms[(m, n)] = (a, b)
        f = PlanarField(terms)
        if f.is_zero:
            continue
        assert parse_field(format_field(f)) == f


def test_admissibility_rejected():
    with pytest.raises(AdmissibilityError):
        PlanarField({(-2, 0): (F(1), F(0))})
    with pytest.raises(AdmissibilityError):
        PlanarField({(0, -1): (F(1), F(0))})
    with pytest.raises(AdmissibilityError):
        PlanarField({(-1, 0): (F(0), F(1))})
    # boundary cases that are allowed
    PlanarField({(-1, 0): (F(1), F(0)), (0, -1): (F(0), F(1))})


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(0, 1)
    with pytest.raises(ValueError):
        WeightVector(2, 4)
    assert WeightVector(1, 2).level((-1, 3)) == 5
    # ordered and hashed as the pair (alpha, beta), and frozen
    ws = [WeightVector(3, 1), WeightVector(1, 2), WeightVector(2, 1),
          WeightVector(1, 1)]
    assert [w.as_tuple() for w in sorted(ws)] == [(1, 1), (1, 2), (2, 1),
                                                  (3, 1)]
    assert WeightVector(1, 2) < WeightVector(2, 1)
    assert all(hash(w) == hash((w.alpha, w.beta)) for w in ws)
    assert len({WeightVector(1, 2), WeightVector(1, 2)}) == 1
    with pytest.raises(AttributeError):
        WeightVector(1, 2).alpha = 3


def test_max_level():
    f = parse_field(QUARTIC)
    assert max_level(f, WeightVector(1, 2)) == 5
    assert max_level(f, WeightVector(2, 1)) == 5
    assert max_level(f, WeightVector(1, 1)) == 3
    with pytest.raises(FieldError):
        max_level(PlanarField.zero(), WeightVector(1, 1))


def test_evaluate_matches_components():
    f = parse_field(QUARTIC)
    p, q = evaluate(f, F(1, 2), F(-2))
    # P = y^3 - x^3 y = -8 - (1/8)(-2) = -8 + 1/4; Q = -x^3 + x y^3 = -1/8 - 4
    assert p == F(-31, 4)
    assert q == F(-33, 8)


SHEAR_INPUT = "dx = y^2 + x^3*y^2; dy = x^2 + x^2*y^3"


def _expected_shear_components(lam: F):
    Pt = {
        (3, 2): F(1),
        (2, 0): -lam,
        (2, 3): 2 * lam,
        (1, 4): lam * lam,
        (1, 1): -2 * lam * lam,
        (0, 2): F(1) - lam**3,
    }
    Qt = {
        (2, 0): F(1),
        (1, 1): 2 * lam,
        (0, 2): lam * lam,
        (2, 3): F(1),
        (1, 4): 2 * lam,
        (0, 5): lam * lam,
    }
    return ({k: v for k, v in Pt.items() if v != 0},
            {k: v for k, v in Qt.items() if v != 0})


def test_shear_cubic_example_exact():
    f = parse_field(SHEAR_INPUT)
    for lam in (F(1), F(2), F(-1), F(3, 2)):
        g = shear(f, lam)
        P, Q = g.components()
        eP, eQ = _expected_shear_components(lam)
        assert P == eP
        assert Q == eQ


def test_shear_is_pushforward():
    rng = random.Random(5)
    f = parse_field(SHEAR_INPUT)
    for _ in range(20):
        lam = F(rng.randint(-3, 3), rng.randint(1, 2))
        g = shear(f, lam)
        x = F(rng.randint(-5, 5), rng.randint(1, 3))
        y = F(rng.randint(-5, 5), rng.randint(1, 3))
        # new coordinates (u, v) = (x - lam*y, y) at the old point (x, y)
        pu, qv = evaluate(g, x - lam * y, y)
        p, q = evaluate(f, x, y)
        assert pu == p - lam * q
        assert qv == q


def test_shear_zero_lambda_is_identity():
    f = parse_field(QUARTIC)
    assert shear(f, 0) == f


def test_shear_invariant_field():
    # y^2 d/dx is unchanged by any shear
    f = parse_field("dx = y^2; dy = 0")
    assert shear(f, 7) == f


def test_make_favorable_already_good():
    f = parse_field(QUARTIC)
    g, lam = make_favorable(f)
    assert lam == 0
    assert g == f


def test_make_favorable_shears_cubic_example():
    f = parse_field(SHEAR_INPUT)
    g, lam = make_favorable(f)
    assert lam != 0
    from polyfield.polytope import build_polytope, is_favorable, main_features

    p = build_polytope(g)
    assert is_favorable(p)
    assert main_features(p).ph[0] in (-1, 0)


def test_make_favorable_x_cubed():
    f = parse_field("dx = x^3; dy = 0")
    g, lam = make_favorable(f)
    from polyfield.polytope import build_polytope, main_features

    assert main_features(build_polytope(g)).ph[1] == 3


def test_make_favorable_impossible(monkeypatch):
    # y^2 d/dx is fixed by every shear: the search stops after the first
    calls = []
    real = fields.shear
    monkeypatch.setattr(fields, "shear",
                        lambda f, lam: calls.append(lam) or real(f, lam))
    f = parse_field("dx = y^2; dy = 0")
    with pytest.raises(FieldError, match="fixed by every shear"):
        make_favorable(f)
    assert calls == [1]


def test_zero_field_rejected_by_make_favorable():
    with pytest.raises(FieldError):
        make_favorable(PlanarField.zero())


# 30-digit numerators get a branch of their own, since integers() over a
# wide range draws mostly small values
_COEF = st.builds(F, st.one_of(st.integers(-9, 9),
                               st.integers(-10**30, 10**30)),
                  st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
_COMPONENT = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             _COEF, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_COMPONENT, _COMPONENT, st.tuples(_COEF, _COEF))
def test_fields_hold_integers_in_lowest_terms(P, Q, point):
    f = PlanarField.from_components(P, Q)
    parsed = parse_field(format_field(f))
    assert parsed == f
    lams = (F(1), F(-2), F(3, 2), F(-7, 5))
    sheared = [shear(f, lam) for lam in lams]
    # every other support point: the kept numerators may share a factor
    # with the denominator that the whole field's do not
    for g in [f, parsed, f.restricted(f.support()[::2])] + sheared:
        assert type(g.den) is int and g.den > 0
        nums = [c for ab in g.numerators.values() for c in ab]
        assert all(type(c) is int for c in nums)
        assert gcd(g.den, *nums) == 1
        again = PlanarField(g.terms())
        assert again == g and hash(again) == hash(g)
    # each shear is the pushforward of f
    x, y = point
    p, q = evaluate(f, x, y)
    for lam, g in zip(lams, sheared):
        assert evaluate(g, x - lam * y, y) == (p - lam * q, q)


# texts in the grammar of ``parse_field``: signs, coefficients written
# unreduced or as zero, repeated and juxtaposed variables, ^0, terms that
# cancel and any spacing, and one-character mutations of them
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def _term(draw) -> str:
    coeff = draw(st.one_of(
        st.just(""),
        st.integers(0, 40).map(str),
        st.tuples(st.integers(0, 40), st.integers(0, 12)).map(
            lambda nd: f"{nd[0]}/{nd[1]}")))
    factors = draw(st.lists(st.tuples(
        st.sampled_from(["x", "y", "xy", "yx", "xx", "yxy"]),
        st.sampled_from(["", "^0", "^1", "^2", "^3", "^12"]),
        st.sampled_from(["*", "", " ", " * "])), max_size=3))
    body = "".join(f"{sep}{v}{e}" for v, e, sep in factors)
    if coeff and body.startswith(("*", " *")):
        return coeff + body
    return (coeff + body.lstrip("* ")) or "y"


@st.composite
def _poly(draw) -> str:
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), _term()),
                          min_size=1, max_size=5))
    if draw(st.booleans()):  # a term and its negation cancel
        sign, t = terms[draw(st.integers(0, len(terms) - 1))]
        terms.append(("-" if sign == "+" else "+", t))
    sign, first = terms[0]
    out = ("-" if sign == "-" else draw(st.sampled_from(["", "+"]))) + first
    for sign, t in terms[1:]:
        out += draw(_SPACE) + sign + draw(_SPACE) + t
    return out


@st.composite
def _field_text(draw) -> str:
    sp = [draw(_SPACE) for _ in range(6)]
    # a trailing space or tab is a parse error, so most texts end without
    text = (f"{sp[0]}dx{sp[1]}={sp[2]}{draw(_poly())};{sp[3]}dy{sp[4]}="
            f"{sp[5]}{draw(_poly())}"
            f"{draw(st.sampled_from(['', '', '', '  ', chr(10)]))}")
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list("xyzd0123456789+-*/^=;. \n")
                                  + ["", "\u0663", "\u00e9"]))
        skip = draw(st.integers(0, 1))
        text = text[:k] + ch + text[k + skip:]
    return text


def _parsed(parse, text):
    try:
        f = parse(text)
    except FieldError as e:
        return type(e), str(e), getattr(e, "position", None)
    return f.numerators, f.den


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_field_text())
@example("dx = 4/6*x^2*y - 2/3*yx^2 + 3/9*x*y^3 + 0/5*y + 7; "
         "dy = 10/4*y - 1/2*y + 2/1*y^2*x^2 - 1/3")
@example("dx = 2/0*x; dy = y")
@example("dx = x; dy = y \n")
@example("dx = x; dy = y\n\n")
def test_parser_matches_the_fraction_parser(text):
    """The integer parser builds the field the Fraction parser builds, in
    lowest terms, or raises the same error at the same position."""
    assert _parsed(parse_field, text) == _parsed(reference_parse_field, text)
