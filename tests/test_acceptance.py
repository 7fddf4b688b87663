"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    add,
    apply_forward,
    apply_inverse,
    bisection_roots,
    cauchy_bound,
    det,
    inventory_json,
    principal_part,
    principal_return_integral,
    reference_period,
    scaled,
    shortest_unimodular_chain_length,
    up_gcd,
)
from test_cli_golden import CASES
from test_polytope import _brute_hull

from polyfield.analysis import (
    DEGENERATE,
    Analysis,
    approximate,
    equivalence_verdict,
    return_map_test,
)
from polyfield.charts import DIRECTIONS, directional_plc
from polyfield.fans import _unimodular_chain, chart_maps, complete_fan
from polyfield.fields import (
    ParseError,
    PlanarField,
    WeightVector,
    format_field,
    parse_field,
    shear,
)
from polyfield.polys import (
    det2,
    real_roots,
    up_deriv,
)
from polyfield.polytope import (
    build_polytope,
    polytope_after_plc,
    polytope_from_support,
)
from polyfield.trig import build_trig

QUARTIC = parse_field("dx = y^3 - x^3*y; dy = -x^3 + x*y^3")
W12 = WeightVector(1, 2)
F = Fraction


def _random_field(rng: random.Random) -> PlanarField:
    pool = [(m, n) for m in range(-1, 4) for n in range(-1, 4)]
    terms = {}
    for m, n in rng.sample(pool, rng.randint(2, 5)):
        a = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        b = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if not (m >= -1 and n >= 0):
            a = F(0)
        if not (m >= 0 and n >= -1):
            b = F(0)
        if a or b:
            terms[(m, n)] = (a, b)
    return PlanarField(terms)


def test_criterion_01_golden_support():
    assert set(QUARTIC.support()) == {(-1, 3), (2, 1), (1, 2), (3, -1)}


def test_criterion_02_golden_compactifications_exact():
    xpos = directional_plc(QUARTIC, W12, "Xpos")
    assert xpos.u_comp == {(3, 0): 1, (4, 0): -2, (2, 1): 2, (0, 4): -1}
    assert xpos.v_comp == {(1, 2): 1, (3, 1): -1}
    ypos = directional_plc(QUARTIC, W12, "Ypos")
    assert ypos.u_comp == {(0, 0): 1, (2, 0): F(-1, 2), (3, 1): -1,
                           (4, 4): F(1, 2)}
    assert ypos.v_comp == {(1, 1): F(-1, 2), (3, 5): F(1, 2)}
    for cf in (xpos, ypos):
        for comp in (cf.u_comp, cf.v_comp):
            assert all(isinstance(c, (Fraction, int)) for c in comp.values())


def test_criterion_03_golden_fan():
    fan = complete_fan([(-2, -1), (-1, -1), (-1, -2)])
    assert list(fan.vectors) == [(0, 1), (-1, 0), (-2, -1), (-3, -2),
                                 (-1, -1), (-2, -3), (-1, -2), (0, -1),
                                 (1, 0)]


def test_criterion_04_perturbation_stability():
    rng = random.Random(90125)
    px = build_polytope(QUARTIC)
    for _ in range(10):
        coeffs = {}
        for pt in ((0, 2), (2, 0), (1, 1)):
            a = F(rng.choice([c for c in range(-5, 6) if c]),
                  rng.choice([1, 2, 3]))
            b = F(rng.choice([c for c in range(-5, 6) if c]),
                  rng.choice([1, 2, 3]))
            coeffs[pt] = (a, b)
        y = add(QUARTIC, PlanarField(coeffs))
        py = build_polytope(y)
        assert py.upper == px.upper
        for direction in DIRECTIONS:
            im_x = polytope_after_plc(px, W12, direction)
            im_y = polytope_after_plc(py, W12, direction)
            assert im_x.lower == im_y.lower


@functools.lru_cache(maxsize=1)
def _fifty_passing_reports():
    rng = random.Random(424242)
    out = []
    attempts = 0
    while len(out) < 50 and attempts < 3000:
        f = _random_field(rng)
        attempts += 1
        if f.is_zero:
            continue
        rep = equivalence_verdict(f)
        if rep.verdict == "Equivalent":
            out.append(rep)
    assert len(out) == 50, f"only {len(out)} passing fields in {attempts}"
    return tuple(out)


def test_criterion_05_inventories_agree_for_passing_fields():
    for rep in _fifty_passing_reports():
        assert all(rep.hypotheses.values())
        assert rep.to_json()["match_table"]
        # a separate analysis of the upper principal part finds the
        # inventory the report writes for the field and for it
        prin = principal_part(Analysis(rep.field_after_shear)).inventory
        inv = rep.to_json()["inventory"]
        assert inv["field"] == inv["principal_part"] == inventory_json(prin), \
            rep.field_after_shear


def test_criterion_06_no_degenerate_points_off_chart_origins():
    for rep in _fifty_passing_reports():
        for recs in rep.inventory.values():
            for r in recs:
                if r.is_curve or r.at_chart_origin:
                    continue
                assert r.classification != DEGENERATE, \
                    (rep.field_after_shear, r)


def test_criterion_07_negative_control_witnesses():
    base = parse_field("dx = y^2 + x^3*y^2; dy = x^2 + x^2*y^3")
    lam = F(2)
    rep = equivalence_verdict(shear(base, lam))
    assert rep.verdict == "HypothesesFail"
    assert rep.reasons == ("non_degenerate_upper_part",)
    assert rep.witnesses
    for w in rep.witnesses:
        x, y = w.point_exact
        assert x + lam * y == 0


def test_criterion_08_trig_invariants():
    assert abs(build_trig(WeightVector(1, 1)).period - 2 * math.pi) <= 1e-9
    for alpha, beta in ((1, 1), (1, 2), (2, 3)):
        table = build_trig(WeightVector(alpha, beta))
        for i in range(400):
            cs, sn = table.eval(table.period * i / 400.0)
            drift = beta * sn ** (2 * alpha) + alpha * cs ** (2 * beta) - alpha
            assert abs(drift) <= 1e-9
    # the closed-form period against quadrature of the quarter-orbit time
    for alpha, beta in ((1, 1), (1, 2), (1, 9), (2, 1), (2, 3), (3, 2),
                        (3, 5), (2, 5), (5, 7)):
        want = reference_period(alpha, beta)
        got = build_trig(WeightVector(alpha, beta)).period
        assert abs(got - want) <= 1e-12 * want


def test_criterion_09_return_map_closed_form():
    c = F(3, 5)
    swirl = parse_field("dx = -x^2*y - y^3 + x; dy = x^3 + x*y^2")
    radial = parse_field("dx = x^3 + x*y^2; dy = x^2*y + y^3")
    a = Analysis(add(swirl, scaled(radial, c)), WeightVector(1, 1))
    res = return_map_test(a)
    want = -2.0 * math.pi * float(c)
    assert abs(res.integral - want) <= 1e-7
    # the principal part's own chart-form analysis, bit for bit, and its
    # polar-form integral over the trig table
    assert res.integral == return_map_test(principal_part(a)).integral
    assert abs(res.integral - principal_return_integral(a)) <= 1e-9 * abs(want)
    assert res.to_json()["agreement"]
    assert res.sign == -1


def test_criterion_10a_hull_matches_brute_force():
    rng = random.Random(51504)
    for _ in range(500):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5))
               for _ in range(rng.randint(1, 12))]
        p = polytope_from_support(pts)
        assert sorted(p.vertices) == _brute_hull(pts)


def test_criterion_10b_sturm_matches_bisection():
    rng = random.Random(61803)
    compared = 0
    while compared < 200:
        f = _random_field(rng)
        if f.is_zero:
            continue
        alpha, beta = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (2, 3)])
        cf = directional_plc(f, WeightVector(alpha, beta),
                             rng.choice(DIRECTIONS))
        restriction = cf.branches["v=0"].restriction
        if len(restriction) < 2:
            continue
        if len(up_gcd(restriction, up_deriv(restriction))) > 1:
            continue  # the bisection oracle assumes simple roots
        exact = [approximate(r) for r in real_roots(restriction)]
        bound = float(cauchy_bound(restriction)) + 1.0
        if any(abs(a - b) < 8.0 * bound / 4096 for a, b in
               zip(exact, exact[1:])):
            continue  # and root separation beyond its grid
        approx = bisection_roots([float(c) for c in restriction], bound)
        assert len(approx) == len(exact)
        for a, b in zip(exact, approx):
            assert abs(a - b) <= 1e-7
        compared += 1


def test_criterion_10c_fan_completion_minimal_for_all_small_pairs():
    vecs = [(x, y) for x in range(-6, 7) for y in range(-6, 7)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1]
    checked = 0
    for a in vecs:
        for b in vecs:
            if det(a, b) < 1:
                continue
            chain = _unimodular_chain(a, b)
            full = [a] + chain + [b]
            assert all(det2(p, q) == 1 for p, q in zip(full, full[1:]))
            assert len(chain) == shortest_unimodular_chain_length(
                a, b, bound=12), (a, b)
            checked += 1
    assert checked == 4512


def test_criterion_11_round_trips():
    rng = random.Random(16180)
    for _ in range(40):
        f = _random_field(rng)
        if f.is_zero:
            continue
        # parse/print
        assert parse_field(format_field(f)) == f
        # shear and unshear
        for lam in (F(1), F(-2), F(3, 2)):
            assert shear(shear(f, lam), -lam) == f
    # fan chart maps are exact monomial isomorphisms off the axes
    fan = complete_fan([(-2, -1), (-1, -1), (-1, -2)])
    points = [(F(3, 2), F(-5, 7)), (F(-2), F(2, 3)), (F(1, 4), F(9))]
    for cm in chart_maps(fan):
        for pt in points:
            u, v = apply_forward(cm, *pt)
            assert apply_inverse(cm, u, v) == pt
    # directional charts round-trip numerically
    for alpha, beta in ((1, 2), (2, 3)):
        for x, y in ((0.7, 1.3), (2.25, 0.4), (1.0, 3.5)):
            v = x ** (-1.0 / alpha)
            u = y * v ** beta
            assert abs(v ** -alpha - x) <= 1e-12
            assert abs(u * v ** -beta - y) <= 1e-12
            w = y ** (-1.0 / beta)
            u2 = x * w ** alpha
            assert abs(w ** -beta - y) <= 1e-12
            assert abs(u2 * w ** -alpha - x) <= 1e-12


def _assert_time_reversal(f: PlanarField) -> None:
    """The verdict on -f against the verdict on f: reversing time keeps
    every decision and position and flips every eigenvalue."""
    try:
        rep = equivalence_verdict(f)
    except Exception as exc:
        with pytest.raises(type(exc)):
            equivalence_verdict(scaled(f, -1))
        return
    rev = equivalence_verdict(scaled(f, -1))
    assert (rev.verdict, rev.reasons, rev.hypotheses, rev.shear) == \
        (rep.verdict, rep.reasons, rep.hypotheses, rep.shear), f
    assert list(rev.inventory) == list(rep.inventory), f
    for chart, recs in rep.inventory.items():
        assert len(rev.inventory[chart]) == len(recs), (f, chart)
        for r, s in zip(recs, rev.inventory[chart]):
            assert (s.branch, s.classification) == \
                (r.branch, r.classification), (f, chart)
            assert (s.position is None) == (r.position is None), (f, chart)
            if r.position is not None:
                assert s.position.interval == r.position.interval, (f, chart)
            for e, g in ((r.tangent, s.tangent), (r.transverse, s.transverse)):
                assert (g is None) == (e is None), (f, chart)
                if e is not None:
                    assert (g.sign, g.num, g.den, g.is_exact) == \
                        (-e.sign, -e.num, e.den, e.is_exact), (f, chart)


_GOLDEN_FIELDS = sorted({argv[argv.index("--field") + 1]
                         for argv in CASES.values() if "--field" in argv})


@pytest.mark.parametrize("text", _GOLDEN_FIELDS)
def test_criterion_12a_time_reversal_on_golden_fields(text):
    try:
        f = parse_field(text)
    except ParseError:
        return
    _assert_time_reversal(f)


def test_criterion_12b_time_reversal_on_random_fields():
    """Small fields, sheared ones (which the verdict must often shear back)
    and ones with a coefficient past the float range."""
    rng = random.Random(27182)
    checked = 0
    while checked < 330:
        f = _random_field(rng)
        if f.is_zero:
            continue
        kind = checked % 3
        if kind == 1:
            f = shear(f, rng.choice([F(1), F(-1), F(2), F(1, 2)]))
        elif kind == 2:
            terms = f.terms()
            p = rng.choice(sorted(terms))
            big = F(10) ** rng.choice([20, 310, 700])
            terms[p] = tuple(c * big for c in terms[p])
            f = PlanarField(terms)
        _assert_time_reversal(f)
        checked += 1
