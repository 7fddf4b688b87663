import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_forward,
    apply_inverse,
    eval_uv,
    evaluate,
    reference_pullback,
    uv_support,
)
from polyfield.analysis import Analysis
from polyfield.charts import (
    _slice,
    directional_plc,
    fan_chart_field,
    level_data,
    polar_field,
    support_minima,
)
from polyfield.cli import main
from polyfield.fans import build_fan, chart_maps, complete_fan
from polyfield.fields import (
    DIRECTIONS,
    FieldError,
    PlanarField,
    WeightVector,
    directional_map,
    make_favorable,
    max_level,
    monomial_pullback,
    parse_field,
)
from polyfield.polys import up_deriv
from polyfield.polytope import build_polytope, polytope_after_plc

QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"
W12 = WeightVector(1, 2)
F = Fraction


def quartic():
    return parse_field(QUARTIC)


def fan_chart(f, fan, j):
    """Fan chart j of f over the given fan."""
    minima, _ = support_minima(f.support(), fan.vectors)
    return fan_chart_field(f, chart_maps(fan)[j], minima[j - 1:j + 1])


def _random_field(rng, span=3, terms=5):
    P = {}
    Q = {}
    for _ in range(terms):
        i, j = rng.randint(0, span), rng.randint(0, span)
        P[(i, j)] = F(rng.randint(-4, 4))
        i, j = rng.randint(0, span), rng.randint(0, span)
        Q[(i, j)] = F(rng.randint(-4, 4))
    f = PlanarField.from_components(P, Q)
    return None if f.is_zero else f


# ---------------------------------------------------------------------------
# directional charts


def test_xpos_quartic_matches_display():
    cf = directional_plc(quartic(), W12, "Xpos")
    assert cf.u_comp == {(3, 0): 1, (4, 0): -2, (2, 1): 2, (0, 4): -1}
    assert cf.v_comp == {(1, 2): 1, (3, 1): -1}
    assert cf.delta == 6
    assert cf.normalization == {"v": 5}
    assert cf.divisor == "v"


def test_ypos_quartic_matches_display():
    cf = directional_plc(quartic(), W12, "Ypos")
    assert cf.u_comp == {(0, 0): 1, (2, 0): F(-1, 2), (3, 1): -1,
                         (4, 4): F(1, 2)}
    assert cf.v_comp == {(1, 1): F(-1, 2), (3, 5): F(1, 2)}


def test_negative_directions_flip_odd_rows():
    xneg = directional_plc(quartic(), W12, "Xneg")
    # the y^3 dx term sits at (m,n)=(-1,3): odd m flips its sign
    assert xneg.u_comp[(4, 0)] == 2
    assert xneg.u_comp[(0, 4)] == 1
    # the x*y^3 dy term at (1,2) flips as well
    assert xneg.u_comp[(3, 0)] == -1
    yneg = directional_plc(quartic(), W12, "Yneg")
    assert yneg.u_comp[(0, 0)] == -1  # (-1,3): odd n
    assert yneg.u_comp[(3, 1)] == 1   # (2,1): odd n
    assert yneg.u_comp[(2, 0)] == F(-1, 2)  # (1,2): even n keeps sign


def _directional_raw(f, w, direction, u, v):
    """Chain-rule oracle: the chart components straight from the substitution."""
    alpha, beta = w.as_tuple()
    if direction in ("Xpos", "Xneg"):
        x = (1 if direction == "Xpos" else -1) * v ** -alpha
        y = u * v ** -beta
        P, Q = evaluate(f, x, y)
        vdot = (-1 if direction == "Xpos" else 1) * P * v ** (alpha + 1) / alpha
        udot = Q * v ** beta + beta * y * v ** (beta - 1) * vdot
    else:
        y = (1 if direction == "Ypos" else -1) * v ** -beta
        x = u * v ** -alpha
        P, Q = evaluate(f, x, y)
        vdot = (-1 if direction == "Ypos" else 1) * Q * v ** (beta + 1) / beta
        udot = P * v ** alpha + alpha * x * v ** (alpha - 1) * vdot
    return udot, vdot


def test_directional_pullback_identity():
    rng = random.Random(11)
    fields = [quartic()]
    while len(fields) < 6:
        f = _random_field(rng)
        if f is not None:
            fields.append(f)
    weights = [WeightVector(1, 1), W12, WeightVector(2, 3)]
    for f in fields:
        for w in weights:
            for direction in ("Xpos", "Xneg", "Ypos", "Yneg"):
                cf = directional_plc(f, w, direction)
                norm = cf.delta - 1
                for _ in range(10):
                    u = F(rng.randint(-9, 9), rng.randint(1, 7))
                    v = F(rng.randint(1, 9), rng.randint(1, 7))
                    udot, vdot = _directional_raw(f, w, direction, u, v)
                    assert eval_uv(cf.u_comp, u, v) == udot * v ** norm
                    assert eval_uv(cf.v_comp, u, v) == vdot * v ** norm


def test_directional_support_is_the_predicted_image():
    rng = random.Random(23)
    cases = [(quartic(), W12)]
    while len(cases) < 12:
        f = _random_field(rng)
        if f is not None and max_level(f, W12) >= 0:
            cases.append((f, rng.choice([WeightVector(1, 1), W12,
                                         WeightVector(3, 2)])))
    for f, w in cases:
        p = build_polytope(f)
        for direction in ("Xpos", "Xneg", "Ypos", "Yneg"):
            cf = directional_plc(f, w, direction)
            assert uv_support(cf) == set(
                polytope_after_plc(p, w, direction).support)


# 30-digit magnitudes get a branch of their own, since integers() over a
# wide range draws mostly small values
_COEF = st.builds(F, st.one_of(st.integers(-9, 9), st.integers(10**29, 10**30),
                               st.integers(-10**30, -10**29)),
                  st.integers(1, 7))
_COMPONENT = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             _COEF, max_size=5)
#: (forward, signs) of every directional chart at four weights and of every
#: chart of three real fans
_CHART_MAPS = (
    [directional_map(WeightVector(a, b), d)
     for a, b in ((1, 1), (1, 2), (2, 3), (3, 5)) for d in DIRECTIONS]
    + [(cmap.forward, (1, 1))
       for text in (QUARTIC, "dx = x^5*y + y^3; dy = x",
                    "dx = 2*x^3*y^2 - y^5; dy = x^4 + 3*y")
       for cmap in chart_maps(build_fan(build_polytope(parse_field(text))))[1:]])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_COMPONENT, _COMPONENT, st.sampled_from(_CHART_MAPS),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_pullback_matches_fraction_reference(P, Q, chart, normalization):
    f = PlanarField.from_components(P, Q)
    forward, signs = chart
    *nums, scale = monomial_pullback(f.numerators, f.den, forward, signs,
                                     normalization)
    assert type(scale) is int and scale > 0
    assert all(type(c) is int and c for comp in nums for c in comp.values())
    got = tuple({k: F(c, scale) for k, c in comp.items()} for comp in nums)
    assert got == reference_pullback(f, forward, signs, normalization)


def test_branch_polynomials_match_the_fraction_reference():
    """Every chart's integer restriction, derivative and transverse
    polynomial over its positive scale is the Fraction slice of the
    reference pullback, on 200 seeded fields with rational coefficients:
    their directional charts at four weights, the Y charts with det -beta
    among them, and the fan charts of the sheared field."""
    rng = random.Random(1717)
    weights = [WeightVector(a, b) for a, b in ((1, 1), (1, 2), (2, 3), (3, 2))]
    checked = Counter()
    for _ in range(200):
        P, Q = ({(rng.randint(0, 3), rng.randint(0, 3)):
                 F(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 10**6)))
                 for _ in range(rng.randint(1, 5))} for _ in "PQ")
        f = PlanarField.from_components(P, Q)
        if f.is_zero:
            continue
        charts = [(f, directional_plc(f, w, d), *directional_map(w, d))
                  for w in weights for d in DIRECTIONS]
        try:
            g, _ = make_favorable(f)
        except FieldError:
            g = None
        if g is not None:
            charts += [(g, cf, cf.chart.forward, (1, 1))
                       for cf in Analysis(g).fan_charts.values()]
        for field, cf, forward, signs in charts:
            norm = (cf.normalization.get("u", 0), cf.normalization["v"])
            ref_u, ref_v = reference_pullback(field, forward, signs, norm)
            assert type(cf.scale) is int and cf.scale > 0
            for name, branch in cf.branches.items():
                if name == "v=0":
                    tangent, normal, along, across = ref_u, ref_v, 0, 1
                else:
                    tangent, normal, along, across = ref_v, ref_u, 1, 0
                restriction = _slice(tangent, along, across, 0)
                want = (restriction, up_deriv(restriction),
                        _slice(normal, along, across, 1))
                assert tuple(tuple(F(c, cf.scale) for c in poly)
                             for poly in branch[:3]) == want
                checked[cf.label[:1], forward[0][0] * forward[1][1]
                        - forward[0][1] * forward[1][0] < 0] += 1
    # Y charts have det -beta < 0, X and fan charts a positive det
    assert checked["Y", True] >= 1500 and checked["X", False] >= 1500
    assert checked["f", False] >= 1000


def test_directional_rejects_zero_field():
    with pytest.raises(FieldError):
        directional_plc(PlanarField.zero(), W12, "Xpos")
    with pytest.raises(ValueError):
        directional_plc(quartic(), W12, "sideways")


# ---------------------------------------------------------------------------
# level data


def test_level_data_quartic():
    p = build_polytope(quartic())
    fan = build_fan(p)
    data = level_data(p, fan)
    assert data.minima == (0, -3, -5, -8, -3, -8, -5, -3, 0)
    by_vec = dict(zip(fan.vectors, data.argmins))
    assert by_vec[(-1, -1)] == ((1, 2), (2, 1))
    assert by_vec[(-2, -1)] == ((2, 1), (3, -1))
    assert by_vec[(-1, -2)] == ((-1, 3), (1, 2))
    assert by_vec[(0, 1)] == ((3, -1),)
    # every skeleton argmin is exactly its segment's point set
    skeleton_argmins = [m for m, f in zip(data.argmins, fan.skeleton_flags)
                        if f]
    assert len(skeleton_argmins) == len(p.upper)
    for argmin, seg in zip(skeleton_argmins, p.upper):
        assert set(argmin) == set(seg.points)
    # interior fan vectors have strictly negative minima
    assert all(m < 0 for m in data.minima[1:-1])


# ---------------------------------------------------------------------------
# fan charts


def test_fan_chart_one_has_no_divisor_roots():
    fan = build_fan(build_polytope(quartic()))
    cf = fan_chart(quartic(), fan, 1)
    assert cf.u_comp == {(0, 0): -1, (3, 2): 1}
    assert cf.v_comp == {(3, 5): -1, (1, 2): 1}
    assert cf.divisor == "v"
    assert cf.normalization == {"u": 0, "v": 3}


def test_fan_chart_two_frozen():
    fan = build_fan(build_polytope(quartic()))
    cf = fan_chart(quartic(), fan, 2)
    assert cf.u_comp == {(5, 4): -1, (3, 1): 2, (2, 0): 1, (1, 0): -2}
    assert cf.v_comp == {(2, 2): -1, (0, 1): 1}
    assert cf.divisor == "uv"
    assert cf.normalization == {"u": 3, "v": 5}


def test_single_term_field_in_first_homogeneous_chart():
    f = parse_field("dx = x; dy = 0")
    fan = complete_fan([(-1, -1)])
    cf = fan_chart(f, fan, 1)
    assert cf.u_comp == {(1, 0): -1}
    assert cf.v_comp == {(0, 1): -1}


def test_homogeneous_fan_chart_equals_xpos():
    rng = random.Random(7)
    fan = complete_fan([(-1, -1)])
    w = WeightVector(1, 1)
    produced = 0
    while produced < 8:
        # homogeneous quadratic field
        P = {(i, 2 - i): F(rng.randint(-3, 3)) for i in range(3)}
        Q = {(i, 2 - i): F(rng.randint(-3, 3)) for i in range(3)}
        f = PlanarField.from_components(P, Q)
        if f.is_zero:
            continue
        produced += 1
        cf = fan_chart(f, fan, 1)
        dp = directional_plc(f, w, "Xpos")
        assert cf.u_comp == dp.u_comp
        assert cf.v_comp == dp.v_comp


def test_fan_chart_pullback_identity():
    f = quartic()
    fan = build_fan(build_polytope(f))
    rng = random.Random(3)
    for j in range(1, len(fan.vectors)):
        cf = fan_chart(f, fan, j)
        cm = cf.chart
        eu, ev = cf.normalization["u"], cf.normalization["v"]
        (pa, pb), (qa, qb) = fan.vectors[j - 1], fan.vectors[j]
        for _ in range(50):
            u = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            v = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            x, y = apply_forward(cm, u, v)
            P, Q = evaluate(f, x, y)
            # u = x**qb y**(-qa), v = x**(-pb) y**pa
            udot = u * (qb * P / x - qa * Q / y)
            vdot = v * (-pb * P / x + pa * Q / y)
            norm = u ** eu * v ** ev
            assert eval_uv(cf.u_comp, u, v) == udot * norm
            assert eval_uv(cf.v_comp, u, v) == vdot * norm


def test_adjacent_fan_charts_are_conjugate():
    f = quartic()
    fan = build_fan(build_polytope(f))
    charts = chart_maps(fan)
    rng = random.Random(17)
    for j in range(1, len(fan.vectors) - 1):
        a = fan_chart(f, fan, j)
        b = fan_chart(f, fan, j + 1)
        for _ in range(20):
            u = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            v = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            x, y = apply_forward(charts[j], u, v)
            u2, v2 = apply_inverse(charts[j + 1], x, y)
            wu, wv = eval_uv(a.u_comp, u, v), eval_uv(a.v_comp, u, v)
            # monomial transition: push the vector through its Jacobian
            t11 = (charts[j].forward[0][0] * charts[j + 1].inverse[0][0]
                   + charts[j].forward[1][0] * charts[j + 1].inverse[0][1])
            t12 = (charts[j].forward[0][1] * charts[j + 1].inverse[0][0]
                   + charts[j].forward[1][1] * charts[j + 1].inverse[0][1])
            t21 = (charts[j].forward[0][0] * charts[j + 1].inverse[1][0]
                   + charts[j].forward[1][0] * charts[j + 1].inverse[1][1])
            t22 = (charts[j].forward[0][1] * charts[j + 1].inverse[1][0]
                   + charts[j].forward[1][1] * charts[j + 1].inverse[1][1])
            du2 = u2 * (t11 * wu / u + t12 * wv / v)
            dv2 = v2 * (t21 * wu / u + t22 * wv / v)
            na = u ** a.normalization["u"] * v ** a.normalization["v"]
            nb = u2 ** b.normalization["u"] * v2 ** b.normalization["v"]
            factor = nb / na
            assert eval_uv(b.u_comp, u2, v2) == factor * du2
            assert eval_uv(b.v_comp, u2, v2) == factor * dv2


def test_fan_chart_bad_index(capsys):
    for index in ("0", "9", "-1"):
        assert main(["compactify", "--chart", index, "--field", QUARTIC]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"chart index {index} out of range 1..8"}


def test_fan_charts_of_an_analysis():
    a = Analysis(quartic())
    assert list(a.fan_charts) == [f"fan:{j}" for j in range(1, 9)]
    fan = build_fan(build_polytope(quartic()))
    for j in range(1, 9):
        assert a.fan_charts[f"fan:{j}"] == fan_chart(quartic(), fan, j)


# ---------------------------------------------------------------------------
# polar chart


def test_polar_rotation():
    f = parse_field("dx = -y; dy = x")
    cf = polar_field(f, WeightVector(1, 1))
    assert cf.theta == {(0, 2, 0): 1, (2, 0, 0): 1}
    assert cf.r == {}
    assert (cf.weight, cf.delta) == (WeightVector(1, 1), 1)


def test_polar_radial():
    f = parse_field("dx = x; dy = y")
    cf = polar_field(f, WeightVector(1, 1))
    assert cf.theta == {}
    assert cf.r == {(2, 0, 1): -1, (0, 2, 1): -1}


def test_polar_quartic_spot_values():
    cf = polar_field(quartic(), W12)
    assert cf.delta == 6
    assert cf.theta[(0, 4, 0)] == -2   # from the y^3 dx term
    assert cf.theta[(2, 3, 0)] == 1    # from the x*y^3 dy term
    assert cf.r[(3, 3, 1)] == -1       # radial part of y^3 dx
    assert cf.r[(1, 4, 1)] == -1       # radial part of x*y^3 dy


def test_polar_divisor_invariance():
    rng = random.Random(41)
    done = 0
    while done < 20:
        f = _random_field(rng)
        if f is None:
            continue
        done += 1
        w = rng.choice([WeightVector(1, 1), W12, WeightVector(2, 1),
                        WeightVector(2, 3)])
        cf = polar_field(f, w)
        assert all(k[2] >= 1 for k in cf.r)
        assert all(k[2] >= 0 for k in cf.theta)


# ---------------------------------------------------------------------------
# formatting / serialization


def test_pretty_and_json():
    cf = directional_plc(quartic(), W12, "Xpos")
    s = cf.pretty()
    assert s == "(-2*u^4 + u^3 + 2*u^2*v - v^4) du + (-u^3*v + u*v^2) dv"
    blob = cf.to_json()
    assert blob["label"] == "Xpos"
    assert [[3, 0], "1"] in blob["u_component"]
    assert blob["weight"] == [1, 2]

    pol = polar_field(parse_field("dx = x; dy = y"), WeightVector(1, 1))
    assert pol.pretty() == "(0) dtheta + (-Cs^2*r - Sn^2*r) dr"
