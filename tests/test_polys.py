import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    bisection_refine,
    bisection_settle,
    bp,
    bp_mul,
    cauchy_bound,
    rational_root,
    squarefree,
    sturm_real_roots,
    up,
    up_eval,
    up_from_roots,
    up_gcd,
    up_mul,
)
from polyfield import polys
from polyfield.analysis import approximate
from polyfield.polys import (
    RealRoot,
    bp_gcd,
    bp_strip_monomial,
    count_real_roots,
    det2,
    has_real_branch,
    primitive,
    real_roots,
    up_deriv,
)


def test_gcd_known_factors():
    a = up_from_roots([1, 2])
    b = up_from_roots([2, 3])
    assert up_gcd(a, b) == up_from_roots([2])
    assert up_gcd((), a) == a  # gcd(0, a) = monic a


def test_real_roots_mixed_rational_irrational():
    # (t - 1/2)(t^2 - 2): roots 1/2, ±sqrt(2)
    f = up_mul(up_from_roots([F(1, 2)]), up([-2, 0, 1]))
    roots = real_roots(f)
    assert len(roots) == 3
    vals = sorted(approximate(r) for r in roots)
    assert abs(vals[0] + 2**0.5) < 1e-9
    assert vals[1] == 0.5
    assert abs(vals[2] - 2**0.5) < 1e-9
    rationals = [r for r in roots if r.is_rational]
    assert len(rationals) == 1 and rationals[0].exact == F(1, 2)


def test_real_roots_against_bisection_oracle():
    rng = random.Random(20260815)
    for _ in range(60):
        deg = rng.randint(1, 6)
        f = up([F(rng.randint(-6, 6)) for _ in range(deg + 1)])
        if len(f) < 2:
            continue
        roots = real_roots(f)
        oracle = _bisection_roots(f)
        assert len(roots) == len(oracle)
        for r, o in zip(sorted(roots, key=approximate), sorted(oracle)):
            assert abs(approximate(r) - o) < 1e-7


def _bisection_roots(f):
    """Sign-change bisection over (-B, B) on the squarefree part."""
    g = squarefree(f)
    if len(g) < 2:
        return []
    bound = float(cauchy_bound(g)) + 1
    n = 40000
    xs = [-bound + 2 * bound * i / n for i in range(n + 1)]
    vals = [_horner(g, x) for x in xs]
    roots = []
    for i in range(n):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(80):
                m = (a + b) / 2
                fm = _horner(g, m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((a + b) / 2)
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    # dedupe
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-9:
            out.append(r)
    return out


def _horner(f, x):
    acc = 0.0
    for c in reversed(f):
        acc = acc * x + float(c)
    return acc


def test_count_real_roots():
    assert count_real_roots(up([1, 0, 1])) == 0  # t^2 + 1
    assert count_real_roots(up([-2, 0, 1])) == 2
    assert count_real_roots(up([0, 0, 1])) == 1  # double root at 0 counted once


def test_realroot_sign_of_and_equals():
    sqrt2 = [r for r in real_roots(up([-2, 0, 1])) if approximate(r) > 0][0]
    # sign of t^2 - 2 at sqrt(2) is 0
    assert sqrt2.sign_of(up([-2, 0, 1])) == 0
    # sign of t - 1 at sqrt(2) is +1, of t - 2 is -1
    assert sqrt2.sign_of(up([-1, 1])) == 1
    assert sqrt2.sign_of(up([-2, 1])) == -1
    again = [r for r in real_roots(up_mul(up([-2, 0, 1]), up([1, 1])))
             if approximate(r) > 0][0]
    assert sqrt2.equals(again)
    assert not sqrt2.equals(rational_root(F(3, 2)))
    assert rational_root(F(1, 3)).equals(rational_root(F(1, 3)))
    # a rational inside an isolating interval equals the root only when it
    # is a zero of the defining polynomial, from either side
    inside = rational_root((sqrt2.lo + sqrt2.hi) / 2)
    assert not sqrt2.equals(inside) and not inside.equals(sqrt2)
    wide = RealRoot(up_from_roots([F(1, 2), 3]), F(0), F(1))
    half = rational_root(F(1, 2))
    assert wide.equals(half) and half.equals(wide)


def test_realroot_ordering():
    roots = real_roots(up_mul(up([-2, 0, 1]), up_from_roots([0, F(7, 5)])))
    vals = [approximate(r) for r in roots]
    assert vals == sorted(vals)


def test_real_roots_ascending_with_a_rational_root_beside_an_irrational_one():
    # r sits just below sqrt(2): closer than 2^-44, so the two can only be
    # ordered exactly
    r = F(math.isqrt(2**89), 2**44)
    roots = real_roots(up_mul(up_from_roots([r]), up([-2, 0, 1])))
    assert len(roots) == 3
    low, mid, high = roots
    assert mid.exact == r
    assert not low.is_rational and not high.is_rational
    assert low.hi < mid.lo and mid.hi < high.lo
    assert high.sign_of(up([-2, 0, 1])) == 0 and high.sign_of((-r, 1)) == 1
    assert low < mid < high


def test_sign_of_next_to_a_root_needs_no_bisection():
    # p/q, a convergent of sqrt(2) from below with a 10010-bit denominator,
    # lies within 2^-20000 of sqrt(2): an isolating interval would have to
    # be bisected some 20000 times before it left p/q out
    p, q = 1, 1
    while q.bit_length() < 10010 or p * p > 2 * q * q:
        p, q = p + 2 * q, p + q
    assert q.bit_length() == 10010
    sqrt2 = real_roots(up([-2, 0, 1]))[1]
    assert sqrt2.sign_of((F(-p, q), F(1))) == 1
    assert sqrt2.sign_of(up_mul((F(-p, q), F(1)), (F(-p - 1, q), F(1)))) == -1


T = sympy.symbols("t")


def _sympy_up(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f)] or [0], T, domain="QQ")


def _sympy_signs(f, g) -> list[int]:
    """The exact signs of g at the real roots of the squarefree f, ascending:
    sympy's isolating interval of each root is narrowed until it holds a
    root of gcd(f, g) (sign 0) or no root of g (the sign of g at an end)."""
    pf, pg = _sympy_up(f), _sympy_up(g)
    common = sympy.gcd(pf, pg)
    signs = []
    for (a, b), _ in pf.intervals():
        while not (common.degree() > 0 and common.count_roots(a, b) > 0):
            if pg.count_roots(a, b) == 0:
                signs.append(int(sympy.sign(pg.eval(a))))
                break
            a, b = pf.refine_root(a, b, eps=(b - a) / 2**20)
        else:
            signs.append(0)
    return signs


def _irrational_squarefree(rng: random.Random):
    """A random squarefree integer polynomial with real roots, none of them
    rational, and its irreducible factors."""
    while True:
        deg = rng.randint(2, 5)
        big = rng.random() < 0.2
        f = up([rng.randint(-9, 9) * (10**20 if big and rng.random() < 0.5
                                      else 1) for _ in range(deg + 1)])
        if len(f) < 3:
            continue
        _, factors = _sympy_up(f).factor_list()
        if any(m > 1 or p.degree() == 1 for p, m in factors):
            continue
        if count_real_roots(f):
            return f, [up(F(int(c.p), int(c.q))
                          for c in reversed(p.all_coeffs()))
                       for p, _ in factors]


def _near_root_factors(f, rng: random.Random):
    """Linear factors t - c with c rational and within 2^-60 of a root of f,
    below or above it."""
    intervals = _sympy_up(f).intervals(eps=sympy.Rational(1, 2**64))
    (a, b), _ = rng.choice(intervals)
    return [(F(-int(e.p), int(e.q)), F(1)) for e in (a, b)]


def test_sign_of_matches_sympy():
    """``RealRoot.sign_of`` against sympy exact arithmetic on 300 pairs
    (f, g): g random, sharing a factor with f, f' itself, or with rational
    roots within 2^-60 of a root of f."""
    rng = random.Random(20261018)
    for case in range(300):
        f, factors = _irrational_squarefree(rng)
        rand = up(F(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(rng.randint(1, 7)))
        kind = case % 4
        if kind == 0:
            g = rand
        elif kind == 1:
            g = up_mul(rng.choice(factors), rand or (F(1),))
        elif kind == 2:
            g = up_deriv(f)
        else:
            below, above = _near_root_factors(f, rng)
            g = rng.choice([below, above, up_mul(below, above),
                            up_mul(below, below),
                            up_mul(above, rand or (F(1),))])
        roots = real_roots(f)
        assert not any(r.is_rational for r in roots)
        assert [r.sign_of(g) for r in roots] == _sympy_signs(f, g), (f, g)


_COEF = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
_LEAD = _COEF.filter(lambda c: c != 0)
_FACTOR = st.tuples(st.one_of(st.tuples(_COEF, _LEAD),
                              st.tuples(_COEF, _COEF, _LEAD)),
                    st.integers(1, 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_FACTOR, min_size=1, max_size=3))
def test_real_roots_match_sympy(factors):
    """Products of linear and quadratic integer factors, some repeated and
    some with 30-digit coefficients, against ``sympy.real_roots``."""
    f = (F(1),)
    for coeffs, mult in factors:
        for _ in range(mult):
            f = up_mul(f, up(coeffs))
    ours = real_roots(f)
    poly = sympy.Poly([int(c) for c in reversed(f)], T)
    theirs = list(dict.fromkeys(sympy.real_roots(poly)))  # ascending
    assert len(ours) == len(theirs)
    for a, b in zip(ours, ours[1:]):
        assert a.hi <= b.lo  # ascending, disjoint open intervals
    squarefree = poly.sqf_part()
    for r, s in zip(ours, theirs):
        if s.is_Rational:
            assert r.is_rational and r.exact == F(int(s.p), int(s.q))
            continue
        assert not r.is_rational and r.lo < r.hi
        lo = sympy.Rational(r.lo.numerator, r.lo.denominator)
        hi = sympy.Rational(r.hi.numerator, r.hi.denominator)
        # one root of f in [lo, hi]; with the intervals ascending and
        # disjoint and the counts equal, it is the sympy root of this rank
        assert squarefree.count_roots(lo, hi) == 1
        assert abs(approximate(r) - float(s)) <= 1e-9 * max(1.0, abs(float(s)))


def test_refine_narrows():
    r = [q for q in real_roots(up([-2, 0, 1])) if approximate(q) > 0][0]
    s = r.refine(F(1, 10**9))
    assert s.hi - s.lo <= F(1, 10**9)
    assert s.lo <= s.hi
    assert up_eval(up([-2, 0, 1]), s.lo) * up_eval(up([-2, 0, 1]), s.hi) < 0


# quadratic interval refinement and the sign certificate, against bisection
# and sympy

_DYADIC = st.builds(lambda k, m: F(k, 2**m), st.integers(-40, 40),
                    st.integers(0, 5))
_REFINE_FACTOR = st.one_of(
    _DYADIC.map(lambda r: up_from_roots([r])),
    st.fractions(-20, 20, max_denominator=9).map(lambda r: up_from_roots([r])),
    st.tuples(_COEF, _COEF, _LEAD).map(up),
    st.tuples(_COEF, _COEF, _COEF, _LEAD).map(up),
)


def _product(factors):
    f = (F(1),)
    for h in factors:
        f = up_mul(f, h)
    return f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_REFINE_FACTOR, min_size=1, max_size=4))
@example([up_from_roots([0]), up([-2, 0, 1])])  # (0, B] starts at a root
@example([up([-10**30, 0, 10**30 - 1])])  # bisection needs about 200 steps
def test_settle_matches_bisection(factors):
    """``_settle`` on every interval of ``_isolate`` finds bisection's
    value, and bisection's interval when the root is irrational."""
    g = polys._isquarefree(polys.int_multiple(_product(factors)))
    assume(len(g) > 1)
    for a, b, q in polys._isolate(g):
        ours, want = polys._settle(g, a, b, q), bisection_settle(g, a, b, q)
        assert ours[0] == want[0]
        if want[0] is None:
            assert ours == want


#: an interval [a/q, b/q] between two fractions with denominators at most
#: 12, whose midpoint is as near the one as the other
_TIED = st.builds(lambda x, y: (x.numerator * y.denominator,
                                y.numerator * x.denominator,
                                x.denominator * y.denominator),
                  st.fractions(-3, 3, max_denominator=12),
                  st.fractions(-3, 3, max_denominator=12))
_INTERVAL = st.one_of(
    _TIED,
    st.tuples(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40),
              st.integers(1, 10**40)),
    st.tuples(st.integers(-500, 500), st.integers(-500, 500),
              st.integers(1, 300)))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(_INTERVAL, st.one_of(st.just(1), st.integers(1, 13),
                            st.integers(1, 10**12)))
@example((0, 1, 1), 1)  # 0 and 1 tie at 1/2
@example((-1, 0, 1), 1)  # -1 and 0 tie at -1/2
@example((2, 3, 6), 3)  # 1/3 and 1/2 tie at 5/12
@example((7, 7, 4), 1)  # 7/4 itself, nearer 2 than 1
def test_nearest_is_limit_denominator(interval, bound):
    """``_nearest``, the candidate of ``_settle`` on integers, picks what
    ``Fraction.limit_denominator`` picks at the interval's midpoint, ties
    included."""
    a, b, q = interval
    want = F(a + b, 2 * q).limit_denominator(bound)
    assert polys._nearest(a + b, 2 * q, bound) == (want.numerator,
                                                   want.denominator)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(_REFINE_FACTOR, min_size=1, max_size=2),
       st.lists(st.integers(1, 700), min_size=1, max_size=4))
def test_refine_matches_bisection(factors, exponents):
    """``refine`` to widths 10^-e, e up to 700 and in any order, keeps and
    returns bisection's narrowest intervals."""
    for r in real_roots(_product(factors)):
        if r.is_rational:
            continue
        for e in exponents:
            width = F(1, 10**e)
            (a, b, q), _ = bisection_refine(r._f, r._a, r._b, r._q, r._sa,
                                            width)
            got = r.refine(width)
            assert (r._a, r._b, r._q) == (a, b, q)
            assert (got.lo, got.hi) == (F(a, q), F(b, q))
            assert got.poly == r.poly and not got.is_rational


@pytest.mark.parametrize("root, width", [
    (F(3, 8), F(1, 100)),  # a midpoint within bisection's few steps
    (F(3, 1024), F(1, 10**6)),  # met on the way to 20 steps
    (F(1, 2**30), F(1, 10**6)),  # deeper than 20 steps: never met
    (F(1, 3), F(1, 10**40)),
])
def test_refine_meets_a_dyadic_root_where_bisection_does(root, width):
    r = RealRoot(up_from_roots([root, 5]), F(0), F(1))
    (a, b, q), _ = bisection_refine(r._f, r._a, r._b, r._q, r._sa, width)
    got = r.refine(width)
    assert (got.lo, got.hi) == (F(a, q), F(b, q))
    assert got.is_rational == (a == b)


def test_refine_to_1e700_takes_far_fewer_evaluations_than_bisection(
        monkeypatch):
    sqrt2 = real_roots(up([-2, 0, 1]))[1]
    width = F(1, 10**700)
    (a, b, q), steps = bisection_refine(sqrt2._f, sqrt2._a, sqrt2._b,
                                        sqrt2._q, sqrt2._sa, width)
    assert steps > 2000
    calls = []
    ival = polys.ival
    monkeypatch.setattr(polys, "ival", lambda *args: calls.append(args)
                        or ival(*args))
    r = sqrt2.refine(width)
    assert (r.lo, r.hi) == (F(a, q), F(b, q))
    assert len(calls) < 40


def test_certified_sign_is_sound():
    """Every nonzero answer of ``_certified_sign`` on a root's narrowest
    interval is sympy's sign, where g vanishes at the root it stays
    undecided, and ``sign_of`` narrows no interval."""
    rng = random.Random(20261019)
    decided = undecided = vanishing = 0
    for case in range(120):
        f, factors = _irrational_squarefree(rng)
        rand = up(F(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(rng.randint(1, 7)))
        kind = case % 3
        if kind == 0:
            g = rand
        elif kind == 1:
            g = up_mul(rng.choice(factors), rand or (F(1),))
        else:
            g = rng.choice(_near_root_factors(f, rng))
        roots = real_roots(f)
        want = _sympy_signs(f, g)
        ig = polys.int_multiple(g)
        for e in (0, 5, 20, 80):
            for r, s in zip(roots, want):
                if e:
                    r.refine(F(1, 10**e))
                c = polys._certified_sign(ig, r._a, r._b, r._q)
                assert c in (0, s), (f, g, e)  # so c = 0 where s = 0
                decided += c != 0
                undecided += c == 0
                vanishing += s == 0
        for r, s in zip(roots, want):
            narrowest = r._a, r._b, r._q
            assert r.sign_of(g) == s
            assert (r._a, r._b, r._q) == narrowest
    assert decided and undecided and vanishing


def _printed(roots) -> list:
    return [(r.poly, r.lo, r.hi) for r in roots]


def _bisected_roots(f) -> list:
    """``real_roots`` with the closed form switched off: Sturm isolation
    and :func:`polys._settle` alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_low_degree_roots", lambda f: None)
        return real_roots(f)


_BIG = 10**300 + 7


def _sympy_q(v: F):
    return sympy.Rational(v.numerator, v.denominator)


@pytest.mark.parametrize("f, want", [
    (up([-3, 1]), [3]),  # u - a, u^k (u - a) for k = 0..3
    (up([0, F(1, 2), 1]), [F(-1, 2), 0]),
    (up([0, 0, -7, 7]), [0, 1]),
    (up([0, 0, 0, 5, 2]), [F(-5, 2), 0]),
    (up([9, -6, 1]), [3]),  # (u - 3)^2, then u (u + 1/2)^2
    (up([0, F(1, 4), 1, 1]), [F(-1, 2), 0]),
    (up([1, 0, 1]), []),  # D < 0, without and with a factor u
    (up([0, 0, 2, 1, 1]), [0]),
    (up([0, -1, 0, 1]), [-1, 0, 1]),  # u (u^2 - 1)
    (up([-6, 1, 12]), [F(-3, 4), F(2, 3)]),
    (up([6, -1, -12]), [F(-3, 4), F(2, 3)]),  # negative leading coefficient
    (up([0, 0, -4, 0, -1]), [0]),
    ((F(1, 6), F(-5, 6), F(1)), [F(1, 3), F(1, 2)]),  # Fraction coefficients
    ((), []),
    (up([5]), []),
    (up([0, 0, 5]), [0]),
    # (u + 10^300)(u - 10^300 - 7): D = (2 * 10^300 + 7)^2, about 10^600
    (up([-_BIG * 10**300, 10**300 - _BIG, 1]), [-10**300, _BIG]),
])
def test_low_degree_roots_hand_cases(f, want):
    want = [rational_root(v) for v in want]
    assert polys._low_degree_roots(polys.int_multiple(f)) is not None
    assert _printed(real_roots(f)) == _printed(want)
    if len(f) > 1:  # the Sturm path is only ever given a nonconstant f
        assert _printed(_bisected_roots(f)) == _printed(want)


@pytest.mark.parametrize("f", [
    up([-2, 0, 1]), up([0, 0, 1, -1, -1]), up([-10**40, 3, 7]),  # D not square
    up_mul(up([-2, 3]), up([4, -12, 9])),  # (3u - 2)^3
    up_mul(up([0, 0, 1, 1]), up([1, 2, 1])),  # u^2 (u + 1)^3
])
def test_low_degree_roots_leaves_the_rest_to_bisection(f):
    assert polys._low_degree_roots(polys.int_multiple(f)) is None
    roots = real_roots(f)
    theirs = list(dict.fromkeys(sympy.real_roots(sympy.Poly(
        [int(c) for c in reversed(f)], T))))
    assert len(roots) == len(theirs)
    for r, s in zip(roots, theirs):
        if s.is_Rational:
            assert r.exact == F(int(s.p), int(s.q))
        else:
            assert _sympy_q(r.lo) < s < _sympy_q(r.hi)
    assert _printed(roots) == _printed(_bisected_roots(f))


_ROOT = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_MULT = st.integers(1, 4)
# a u^2 + b u + c with a > 0 and b^2 < 4 a c, times a sign
_COMPLEX_PAIR = st.builds(
    lambda a, b, e, s: up([s * (b * b // (4 * a) + e), s * b, s * a]),
    st.integers(1, 12), st.integers(-12, 12), st.integers(1, 30),
    st.sampled_from([1, -1]))
_LOW = st.one_of(
    st.tuples(_COEF, _LEAD),
    st.tuples(_COEF, _COEF, _LEAD),
    # quadratics with rational roots: a square discriminant, or D = 0
    st.tuples(_ROOT, _ROOT).map(up_from_roots),
    _ROOT.map(lambda r: up_from_roots([r, r])),
    # repeated factors: (u - a)^m (u - b)^n, whose squarefree part the
    # closed form reads, and (u - a)^m q(u) with q of negative discriminant,
    # whose squarefree part is a cubic unless a = 0
    st.builds(lambda a, b, m, n: up_from_roots([a] * m + [b] * n),
              _ROOT, _ROOT, _MULT, _MULT),
    st.builds(lambda a, m, q: up_mul(up_from_roots([a] * m), q),
              st.one_of(st.just(F(0)), _ROOT), _MULT, _COMPLEX_PAIR),
)


def _closed_form_roots(f) -> list:
    """``real_roots`` with the Sturm path switched off."""
    def refuse(*args):
        raise AssertionError("Sturm isolation ran")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_isolate", refuse)
        return real_roots(f)


@settings(max_examples=900, deadline=None, derandomize=True, database=None)
@given(_LOW, st.integers(0, 3),
       st.fractions(max_denominator=30).filter(lambda c: c != 0))
@example(up_from_roots([-1] * 3), 1, F(-1))  # -u (1 + u)^3, from a chart
@example(up_from_roots([-1, -1, -2, -2]), 2, F(1))  # u^2 (u + 1)^2 (u + 2)^2
@example(up([1, 0, 1]), 2, F(1))  # u^2 (u^2 + 1)
def test_low_degree_roots_match_bisection(h, k, c):
    """c u^k h with h linear, quadratic or with repeated factors: the
    closed form prints what the Sturm path prints, root by root, and where
    the squarefree part is u^(0 or 1) times at most a quadratic with
    rational roots, it answers without Sturm isolation."""
    f = (F(0),) * k + tuple(c * F(a) for a in h)
    want = _printed(_bisected_roots(f))
    assert _printed(real_roots(f)) == want
    g = polys._isquarefree(polys.int_multiple(f))
    if polys._low_degree_roots(g) is not None:
        assert _printed(_closed_form_roots(f)) == want


def test_real_roots_build_what_the_fraction_constructor_builds():
    """Every irrational root of ``real_roots``, built from the isolation's
    integers, against ``RealRoot(poly, lo, hi)``, which reads them off the
    printed interval: the same defining polynomial and sign at the left
    end, the same refined intervals and the same signs.  The polynomials
    mix rational roots, some repeated, with irrational ones, so the
    defining polynomial is deflated and its sign at each left end differs
    from that of the squarefree part."""
    rng = random.Random(20261020)
    irrational = 0
    for _ in range(60):
        f, factors = _irrational_squarefree(rng)
        rationals = [F(rng.randint(-30, 30), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 3))]
        whole = _product([f, up_from_roots(rationals + rationals[:1])])
        rand = up(F(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(rng.randint(2, 6)))
        checks = [up_deriv(whole), rand, up_mul(rng.choice(factors), rand)]
        for r in real_roots(whole):
            if r.is_rational:
                continue
            irrational += 1
            again = RealRoot(r.poly, r.lo, r.hi)
            assert (r._f, r._sa) == (again._f, again._sa)
            assert [r.sign_of(g) for g in checks] == [again.sign_of(g)
                                                     for g in checks]
            for e in (15, 40, 300):
                got, want = r.refine(F(1, 10**e)), again.refine(F(1, 10**e))
                assert (got.lo, got.hi) == (want.lo, want.hi)
    assert irrational > 60


# the remainder sequence of (f, f') runs once in real_roots: against the
# two steps, squarefree part then Sturm isolation, on products of factors
# with multiplicities 1-3
_CHAIN_FACTOR = st.one_of(
    st.fractions(-20, 20, max_denominator=9).map(lambda r: up_from_roots([r])),
    st.integers(2, 30).map(lambda c: up([-c, 0, 1])),
    st.tuples(_COEF, _COEF, _LEAD).map(up),
    st.tuples(_COEF, _COEF, _COEF, _LEAD).map(up),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_CHAIN_FACTOR, st.integers(1, 3)), min_size=1,
                max_size=4),
       st.fractions(max_denominator=7).filter(lambda c: c != 0))
@example([(up([-1, 1]), 1), (up([-2, 0, 1]), 2)], F(1))  # (u - 1)(u^2 - 2)^2
@example([(up([-2, 0, 1]), 3), (up([-3, 0, 1]), 1)], F(-2, 3))
def test_one_chain_real_roots_match_the_two_step_reference(factors, c):
    f = _product([h for h, m in factors for _ in range(m)])
    assume(len(f) - 1 <= 12)
    f = tuple(c * a for a in f)
    assert ([(r.lo, r.hi, r.poly, r.exact) for r in real_roots(f)]
            == [(r.lo, r.hi, r.poly, r.exact) for r in sturm_real_roots(f)])
    assert count_real_roots(f) == _sympy_up(f).count_roots()


def test_bp_gcd_shared_factor():
    common = bp({(1, 0): 1, (0, 1): -1})  # x - y
    f = bp_mul(common, bp({(2, 0): 1, (0, 0): 1}))
    g = bp_mul(common, bp({(0, 1): 1, (0, 0): 3}))
    h = bp_gcd(f, g)
    # gcd should be x - y up to normalization
    assert set(h) == {(1, 0), (0, 1)}
    assert h[(1, 0)] == -h[(0, 1)]


def test_bp_gcd_coprime():
    f = bp({(1, 0): 1, (0, 0): 1})
    g = bp({(0, 1): 1, (0, 0): 1})
    h = bp_gcd(f, g)
    assert set(h) == {(0, 0)}


def test_bp_gcd_x_only_factor():
    f = bp_mul(bp({(1, 0): 1, (0, 0): -2}), bp({(0, 1): 1}))  # (x-2) y
    g = bp_mul(bp({(1, 0): 1, (0, 0): -2}), bp({(0, 0): 1, (2, 0): 1}))
    h = bp_gcd(f, g)
    assert set(h) == {(1, 0), (0, 0)}


X, Y = sympy.symbols("x y")


def _sympy_poly(f: dict):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * X**i * Y**j
                       for (i, j), c in f.items()))


def test_bp_gcd_random_products():
    rng = random.Random(99)
    for _ in range(15):
        c = bp({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3),
                (0, 0): rng.randint(1, 3)})
        f = bp_mul(c, bp({(1, 1): 1, (0, 0): rng.randint(-3, 3)}))
        g = bp_mul(c, bp({(2, 0): 1, (0, 1): rng.randint(-3, 3), (0, 0): 1}))
        h = bp_gcd(f, g)
        assert h
        hs = _sympy_poly(h)
        assert sympy.rem(_sympy_poly(f), hs, X, Y) == 0
        assert sympy.rem(_sympy_poly(g), hs, X, Y) == 0


# integers() over a wide range draws mostly small values, so the 30-digit
# magnitudes get a branch of their own
_BICOEF = st.one_of(st.integers(-12, 12).filter(bool),
                    st.integers(10**29, 10**30), st.integers(-10**30, -10**29))
_BIPOLY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.builds(F, _BICOEF, st.integers(1, 6)),
                          min_size=1, max_size=4).map(bp)


def _lead_one(f: dict) -> dict:
    lc = f[max(f, key=lambda k: (k[1], k[0]))]
    return {k: c / lc for k, c in f.items()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_BIPOLY, _BIPOLY, _BIPOLY)
def test_bp_gcd_matches_sympy(c, a, b):
    """bp_gcd(c·a, c·b) against ``sympy.gcd`` scaled to the same leading
    term, with small and with 30-digit coefficients; a zero argument gives
    the other one back unchanged."""
    f, g = bp_mul(c, a), bp_mul(c, b)
    assert bp_gcd(f, {}) == f
    assert bp_gcd({}, g) == g
    theirs = sympy.Poly(sympy.gcd(_sympy_poly(f), _sympy_poly(g)), X, Y)
    expected = bp({k: F(int(v.p), int(v.q)) for k, v in theirs.terms()})
    assert bp_gcd(f, g) == _lead_one(expected)


# the upper part of the verdict-large corpus field deg10-t12-b3-0: the
# components share y and are otherwise coprime
_DEG10_P = bp({(0, 3): -4, (5, 1): 6, (5, 5): -5, (6, 2): -5, (6, 4): -7})
_DEG10_Q = bp({(0, 8): -5, (4, 2): 7})
# x y - x - y + 2: its leading coefficients x - 1 in y and y - 1 in x vanish
# at 1, where it is the constant 1
_HIDDEN = bp({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 2})


@pytest.mark.parametrize("f, g, want", [
    # shared monomials with coprime cofactors: x y^3
    (bp_mul(bp({(2, 3): 1}), bp({(1, 0): 1, (0, 0): 1})),
     bp_mul(bp({(1, 5): 2}), bp({(0, 1): 1, (0, 0): -2})), {(1, 3): 1}),
    (_DEG10_P, _DEG10_Q, {(0, 1): 1}),
    # a common factor that both specializations at 1 would lose, were the
    # points not chosen where f's leading coefficients are nonzero
    (bp_mul(_HIDDEN, bp({(0, 1): 1, (0, 0): 3})),
     bp_mul(_HIDDEN, bp({(1, 0): 1, (0, 2): 1})), _HIDDEN),
    # g(1, y) = 0: the specialization certifies nothing
    (bp({(0, 2): 1, (1, 0): 1}),
     bp_mul(bp({(1, 0): 1, (0, 0): -1}), bp({(0, 1): 1, (0, 0): 2})),
     {(0, 0): 1}),
    (bp_mul(bp({(1, 0): 1, (0, 0): -1}), bp({(0, 2): 1, (1, 0): 1})),
     bp_mul(bp({(1, 0): 1, (0, 0): -1}), bp({(0, 1): 1, (0, 0): 2})),
     {(1, 0): 1, (0, 0): -1}),
    # a common factor free of x passes the check in x; the mirror case is
    # test_bp_gcd_x_only_factor
    (bp_mul(bp({(0, 1): 1, (0, 0): -2}), bp({(1, 0): 1})),
     bp_mul(bp({(0, 1): 1, (0, 0): -2}), bp({(0, 2): 1, (0, 0): 1})),
     {(0, 1): 1, (0, 0): -2}),
])
def test_bp_gcd_hand_cases(f, g, want):
    assert bp_gcd(f, g) == bp(want)
    assert bp_gcd(g, f) == bp(want)


def test_bp_gcd_certifies_a_coprime_pair_without_a_remainder_sequence(
        monkeypatch):
    def refuse(*args):
        pytest.fail("ran the pseudo-remainder sequence")

    monkeypatch.setattr(polys, "_prem_rows", refuse)
    assert bp_gcd(_DEG10_P, _DEG10_Q) == {(0, 1): 1}
    assert bp_gcd(bp({(3, 1): 2, (0, 4): -1}),
                  bp({(2, 2): 1, (0, 0): 5})) == {(0, 0): 1}


_FACTOR = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          st.builds(F, _BICOEF, st.integers(1, 6)),
                          min_size=1, max_size=4).map(bp)
_MONOMIAL = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda m: bp({m: 1}))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(bp({(0, 0): 1})), _FACTOR), _FACTOR, _FACTOR,
       _MONOMIAL, _MONOMIAL)
def test_bp_gcd_with_monomials_matches_sympy(c, a, b, m, n):
    """bp_gcd(m·c·a, n·c·b), degrees up to 10 in each variable, against
    ``sympy.gcd``: coprime cofactors, where the specializations answer, and
    shared factors, where the remainder sequence does."""
    f, g = bp_mul(bp_mul(c, a), m), bp_mul(bp_mul(c, b), n)
    theirs = sympy.Poly(sympy.gcd(_sympy_poly(f), _sympy_poly(g)), X, Y)
    expected = bp({k: F(int(v.p), int(v.q)) for k, v in theirs.terms()})
    assert bp_gcd(f, g) == _lead_one(expected)


def test_strip_monomial():
    f = bp({(2, 1): 3, (1, 2): -1})
    core, i, j = bp_strip_monomial(f)
    assert (i, j) == (1, 1)
    assert core == bp({(1, 0): 3, (0, 1): -1})


def test_has_real_branch_line():
    assert has_real_branch(bp({(1, 0): 1, (0, 1): -1}))  # x = y
    assert has_real_branch(bp({(1, 0): 1, (0, 0): -2}))  # x = 2
    assert has_real_branch(bp({(0, 1): 1, (0, 0): 5}))  # y = -5


def test_has_real_branch_imaginary():
    assert not has_real_branch(bp({(2, 0): 1, (0, 2): 1, (0, 0): 1}))  # x^2+y^2+1
    assert not has_real_branch(bp({(0, 0): 4}))
    assert not has_real_branch(bp({(1, 1): 1}))  # xy = 0 lies inside the axes


def test_has_real_branch_circle():
    assert has_real_branch(bp({(2, 0): 1, (0, 2): 1, (0, 0): -4}))  # radius-2 circle


def test_has_real_branch_point_only():
    # x^2 + y^2 = 0 vanishes only at the origin, which sits on the axes
    assert not has_real_branch(bp({(2, 0): 1, (0, 2): 1}))


def test_has_real_branch_circle_off_the_sample_grid():
    # (x-3)^2 + (y-3)^2 - 1
    circle = bp({(2, 0): 1, (1, 0): -6, (0, 2): 1, (0, 1): -6, (0, 0): 17})
    assert has_real_branch(circle)


def test_has_real_branch_nine_isolated_points():
    # A^2 + B^2 vanishes where A = (y-1)(y-2)(y-3) and
    # B = (y-7x+10)(y-7x+20)(y+7x-40) both do: nine points, no branch
    a, b = bp({(0, 0): 1}), bp({(0, 0): 1})
    for c in (1, 2, 3):
        a = bp_mul(a, bp({(0, 1): 1, (0, 0): -c}))
    for lin in ({(0, 1): 1, (1, 0): -7, (0, 0): 10},
                {(0, 1): 1, (1, 0): -7, (0, 0): 20},
                {(0, 1): 1, (1, 0): 7, (0, 0): -40}):
        b = bp_mul(b, bp(lin))
    g = bp_mul(a, a)
    for k, c in bp_mul(b, b).items():
        g[k] = g.get(k, 0) + c
    assert not has_real_branch(bp(g))


def _from_sympy(expr) -> dict:
    return bp({k: F(int(c.p), int(c.q))
               for k, c in sympy.Poly(sympy.expand(expr), X, Y).terms()})


@pytest.mark.parametrize("expr, branch", [
    ("x**2 + y**2", False),  # an isolated point at the origin
    ("(x - 1)**2 + y**2", False),  # an isolated point on the x-axis
    ("(x - 1)**2 + (y - 2)**2", False),  # an isolated point off the axes
    ("((x - 1)**2 + (y + 1)**2) * ((x + 2)**2 + (y - 3)**2)", False),
    # isolated points at (-1/2, 9/4) and (0, 2), over the roots -1/2 and 0
    # of B, each the right end of its isolating interval
    ("((2*x + 1) * (y - 2))**2 + (x + 2*y - 4)**2", False),
    ("y**2 - x**3", True),  # a cusp at the origin
    ("(y - 1)**2 - (x - 2)**3", True),  # a cusp off the axes
    ("y**2 - x**2 * (x + 1)", True),  # a node
    # an isolated point at (3, 2) and a branch over x >= 4
    ("(y - 2)**2 - (x - 3)**2 * (x - 4)", True),
    # a node at (1, 1) and an isolated point at (-3, 5)
    ("((y - 1)**2 - (x - 1)**2 * (x + 1)) * ((x + 3)**2 + (y - 5)**2)", True),
    ("x*y - 1", True),  # a hyperbola, asymptotic to both axes
    ("x**2 - y**2 - 1", True),
    ("(x - 5) * (y - 5) + 1", True),
    ("x**2 + y**2 + 1", False),  # empty conics
    ("2 * (x - 3)**2 + (y + 1)**2 + 5", False),
    ("x**2 + x*y + y**2 + 1", False),
    ("(x - 2) * (x - 3) * ((x - 5)**2 + 1)", True),  # two vertical lines
    ("x**2 * y**3 * (x**2 + 3)", False),  # inside the axes
    # the leading coefficient in y vanishes at x = -1
    ("y**2 * (x + 1)**2 - x**4 * (y + 1)", True),
])
def test_has_real_branch_hand_cases(expr, branch):
    assert has_real_branch(_from_sympy(sympy.sympify(expr))) is branch


_SMALL = st.integers(-4, 4)
# a x + b y + c, never 0 = 0 and never an axis
_LINE = st.tuples(_SMALL, _SMALL, _SMALL).filter(
    lambda t: t[:2] != (0, 0) and (t[2] or (t[0] and t[1]))).map(
    lambda t: bp({(1, 0): t[0], (0, 1): t[1], (0, 0): t[2]}))
# (s x - p)^2 + (t y - q)^2 - r^2
_ELLIPSE = st.tuples(st.integers(1, 3), st.integers(-6, 6), st.integers(1, 3),
                     st.integers(-6, 6), st.integers(1, 4)).map(
    lambda t: bp({(2, 0): t[0] ** 2, (1, 0): -2 * t[0] * t[1],
                  (0, 2): t[2] ** 2, (0, 1): -2 * t[2] * t[3],
                  (0, 0): t[1] ** 2 + t[3] ** 2 - t[4] ** 2}))
_SMALL_POLY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              _SMALL.filter(bool), min_size=1,
                              max_size=4).map(bp)
_LINES = st.lists(_LINE, min_size=1, max_size=2).map(
    lambda ls: ls[0] if len(ls) == 1 else bp_mul(*ls))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_LINE, _ELLIPSE), _SMALL_POLY)
def test_has_real_branch_on_a_real_factor(factor, cofactor):
    """A real line or ellipse off the axes times anything is a branch."""
    assert has_real_branch(bp_mul(factor, cofactor))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_LINES, _SMALL_POLY), st.one_of(_LINES, _SMALL_POLY))
def test_has_real_branch_not_on_a_sum_of_squares(a, b):
    """A^2 + B^2 with A and B coprime vanishes only at their finitely many
    common real zeros: no branch."""
    assume(set(bp_gcd(a, b)) == {(0, 0)})
    g = bp_mul(a, a)
    for k, c in bp_mul(b, b).items():
        g[k] = g.get(k, 0) + c
    assert not has_real_branch(bp(g))


def test_primitive_and_det():
    assert primitive((4, -6)) == (2, -3)
    assert det2((0, 1), (-1, -1)) == 1
    assert det2((-1, -1), (1, 0)) == 1
    with pytest.raises(ValueError):
        primitive((0, 0))
