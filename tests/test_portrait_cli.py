import hashlib
import io
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import exact_marker_theta, reference_trig, scipy_marker_theta
from polyfield import polys, portrait
from polyfield.analysis import Analysis, approximate
from polyfield.charts import polar_field
from polyfield.cli import main
from polyfield.fields import WeightVector, parse_field
from polyfield.portrait import (
    PortraitSpec,
    default_seeds,
    divisor_markers,
    marker_theta,
    render_portrait,
)
from polyfield.trig import TrigTable, build_trig

QUARTIC_TEXT = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"
QUARTIC = parse_field(QUARTIC_TEXT)
W12 = WeightVector(1, 2)


def _swirl_on_divisor(field, w):
    pf = polar_field(field, w)
    table = build_trig(w)
    terms = [(float(c), i, j) for (i, j, k), c in pf.theta.items()
             if k == 0]

    def g(theta):
        cs, sn = table.eval(theta)
        return sum(c * cs ** i * sn ** j for c, i, j in terms)

    return g


# ---------------------------------------------------------------------------
# markers


def _chart_coordinate(table, chart, theta):
    """The coordinate u, in a directional chart, of the table's point at
    theta, which must lie on that chart's side of the divisor."""
    alpha, beta = table.weight
    cs, sn = table.eval(theta)
    side = -1.0 if chart.endswith("neg") else 1.0
    if chart.startswith("X"):
        along, across, power = sn, side * cs, beta / alpha
    else:
        along, across, power = cs, side * sn, alpha / beta
    assert across > 0, (chart, theta)
    return along / across ** power


def _unit_chart(w, chart, u):
    """The chart, and the coordinate, in which the point u of ``chart`` has
    |u| <= 1.  Off the axes |u_Y| = |u_X|**(-alpha/beta); the sign of u
    picks the side of the other chart, and the side of ``chart`` is the
    sign of the point's u there."""
    if abs(u) <= 1:
        return chart, u
    alpha, beta = w.as_tuple()
    power = alpha / beta if chart.startswith("X") else beta / alpha
    side = -1.0 if chart.endswith("neg") else 1.0
    other = ("Y" if chart.startswith("X") else "X") + \
        ("pos" if u > 0 else "neg")
    return other, side * abs(u) ** -power


def _assert_inverts(w, chart, u):
    # the table is the oracle, read where the point has |u| <= 1: a point
    # with a large |u| lies closer to the axis than the table's error, so
    # its own chart coordinate cannot be read back from the table
    table = build_trig(w)
    th = marker_theta(w, chart, u)
    assert 0 <= th <= table.period
    near, v = _unit_chart(w, chart, u)
    assert abs(_chart_coordinate(table, near, th) - v) < 1e-9, (w, chart, u)


def test_marker_theta_inverts_the_chart_coordinates():
    charts = ("Xpos", "Xneg", "Ypos", "Yneg")
    for w in (WeightVector(1, 1), WeightVector(1, 2), WeightVector(2, 3)):
        table = build_trig(w)
        for chart in charts:
            for u in (-3.0, -0.7, 0.0, 0.7, 3.0):
                th = marker_theta(w, chart, u)
                assert abs(_chart_coordinate(table, chart, th) - u) < 1e-9
    # past 1e300, u**(2*alpha) overflows a float
    values = [0.0, 1e300, -1e300] + [s * 10.0 ** (k / 4)
                                     for k in range(-24, 25) for s in (1, -1)]
    for w in ((1, 1), (1, 2), (2, 3), (1, 5), (5, 1), (2, 9), (1, 12)):
        for chart in charts:
            for u in values:
                _assert_inverts(WeightVector(*w), chart, u)


def test_marker_theta_next_to_the_axes():
    # these points lie within 1e-15 of an axis, where a root search on the
    # table found no sign change
    _assert_inverts(WeightVector(1, 12), "Yneg", -20.0)
    _assert_inverts(WeightVector(9, 1), "Xneg", -60.0)
    _assert_inverts(WeightVector(1, 5), "Ypos", -2000.0)


@pytest.mark.parametrize("w, charts, values", [
    # |u|**400 underflows for |u| < 0.155, which put these points at
    # their chart's u = 0
    ((200, 1), ("Xpos", "Xneg"), (0.1, -0.1, 1e-3, -1e-3)),
    ((1, 200), ("Ypos", "Yneg"), (0.1, -0.1, 1e-3, -1e-3)),
    # |u|**(-2a) underflows, which put these points on the axis Cs = 0
    # although 1 - s, near |u|**(-a/b), is far above an ulp of 1
    ((30, 31), ("Xpos", "Xneg"), (1e6, -1e6)),
    ((201, 200), ("Ypos", "Yneg"), (7.0, -7.0)),
])
def test_marker_theta_where_a_power_of_u_underflows(w, charts, values):
    w = WeightVector(*w)
    t = build_trig(w).period
    for chart in charts:
        for u in values:
            # the angle within 1e-13 of the period of the exact one, on the
            # circle
            gap = abs(marker_theta(w, chart, u) - exact_marker_theta(w, chart, u))
            assert min(gap, t - gap) <= 1e-13 * t, (w, chart, u)
            # the table is 2.5e-9 off scipy's dense output at (201,200),
            # more than the table oracle's 1e-9 leaves
            if w.as_tuple() != (201, 200):
                _assert_inverts(w, chart, u)


def test_markers_are_drawn_from_charts_with_small_u():
    # the Ypos and Yneg points at |u| ~ 1585 are the Xpos and Xneg points
    # at u = -+5e-17, which in turn lie within float noise of the points at
    # u = 0 and share their markers
    w = WeightVector(1, 5)
    a = Analysis(parse_field("dx = 10000000000000000*x*y + x^6; dy = y^2"), w)
    markers, curve = divisor_markers(a)
    assert not curve
    t = build_trig(w).period
    assert [(m.chart, m.chart_position) for m in markers] == [
        ("Xpos", "0"), ("Ypos", "0"), ("Xneg", "0"), ("Yneg", "0")]
    assert {m.classification for m in markers} == {"Hyperbolic"}
    for k, m in enumerate(markers):
        assert abs(m.theta - k * t / 4) <= 1e-12 * t


def _random_small_field(rng):
    terms = []
    for comp in ("dx", "dy"):
        monos = rng.sample([(i, j) for i in range(4) for j in range(4 - i)],
                           rng.randint(2, 4))
        terms.append(" ".join(f"{rng.choice('+-')} {rng.randint(1, 3)}*"
                              f"x^{i}*y^{j}" for i, j in monos))
    return parse_field(f"dx = {terms[0]}; dy = {terms[1]}")


def test_each_divisor_point_gets_one_marker():
    # the x-charts together see every divisor point but the two at Cs = 0,
    # which are the y-charts' u = 0; every other y-chart record is a point
    # that an x-chart draws
    rng = random.Random(2718)
    weights = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)]
    seen = 0
    for k in range(240):
        w = WeightVector(*weights[k % len(weights)])
        a = Analysis(_random_small_field(rng), w)
        recs = a.directional_records
        if any(r.is_curve for rs in recs.values() for r in rs):
            continue
        t = build_trig(w).period
        points = sorted(
            marker_theta(w, chart, approximate(r.position) or 0.0)
            for chart, rs in recs.items() for r in rs
            if chart.startswith("X") or r.at_chart_origin)
        ends = points[1:] + [p + t for p in points[:1]]
        if any(hi - lo < 1e-3 * t for lo, hi in zip(points, ends)):
            continue
        seen += 1
        markers, _ = divisor_markers(a)
        assert len(markers) == len(points)
        for m, theta in zip(markers, points):
            assert abs(m.theta - theta) <= 1e-12 * t
            u = abs(float(m.chart_position))
            assert u <= 1 if m.chart.startswith("X") else u < 1
        for chart in ("Ypos", "Yneg"):
            for r in recs[chart]:
                theta = marker_theta(w, chart, approximate(r.position))
                assert min(abs(theta - p) for p in points + [t]) \
                    <= 1e-9 * t
    assert seen >= 100


def test_marker_angles_agree_with_scipys_betainc(monkeypatch):
    rng = random.Random(3141)
    weights = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2), (3, 4),
               (5, 7)]
    drawn = 0
    for k in range(240):
        w = WeightVector(*weights[k % len(weights)])
        a = Analysis(_random_small_field(rng), w)
        markers, _ = divisor_markers(a)
        with monkeypatch.context() as m:
            m.setattr(portrait, "marker_theta", scipy_marker_theta)
            want, _ = divisor_markers(a)
        t = build_trig(w).period
        assert len(markers) == len(want)
        for got, ref in zip(markers, want):
            assert (got.chart, got.classification, got.chart_position) == \
                (ref.chart, ref.classification, ref.chart_position)
            assert abs(got.theta - ref.theta) <= 1e-13 * t
        drawn += bool(markers)
    assert drawn >= 200


def test_quartic_markers_are_the_divisor_singularities():
    markers, curve = divisor_markers(Analysis(QUARTIC, W12))
    assert not curve
    # six chart records describe four distinct points of the divisor
    assert len(markers) == 4
    kinds = sorted(m.classification for m in markers)
    assert kinds == ["Degenerate", "Degenerate", "Hyperbolic", "Hyperbolic"]
    g = _swirl_on_divisor(QUARTIC, W12)
    for m in markers:
        assert abs(g(m.theta)) <= 1e-8


def test_overlapping_charts_agree_on_the_marker_angle():
    # the same divisor point seen from two charts: u=1/2 in Xpos is
    # u=sqrt(2) in Ypos
    a = marker_theta(W12, "Xpos", 0.5)
    b = marker_theta(W12, "Ypos", math.sqrt(2.0))
    assert abs(a - b) < 1e-9


def test_rotation_has_no_markers():
    markers, curve = divisor_markers(
        Analysis(parse_field("dx = -y; dy = x"), WeightVector(1, 1)))
    assert markers == () and not curve


# ---------------------------------------------------------------------------
# rendering


def test_rotation_portrait_deterministic_and_clean():
    f, w = parse_field("dx = -y; dy = x"), WeightVector(1, 1)
    spec = PortraitSpec()
    svg = render_portrait(Analysis(f, w), spec)
    assert svg == render_portrait(Analysis(f, w), spec)
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert svg.count("<polyline") == len(default_seeds(2 * math.pi))
    assert "truncated" not in svg
    assert 'class="singularity"' not in svg
    assert "rho = 1/(1+r)" in svg


def test_quartic_portrait_has_markers():
    svg = render_portrait(Analysis(QUARTIC, W12), PortraitSpec())
    assert svg.count('class="singularity"') == 4
    assert svg.count('fill="#d62728"') == 2   # hyperbolic
    assert svg.count('fill="#9467bd"') == 2   # degenerate


def test_curve_of_singularities_recolours_the_rim():
    svg = render_portrait(
        Analysis(parse_field("dx = x; dy = y"), WeightVector(1, 1)),
        PortraitSpec())
    assert 'stroke="#b22222"' in svg
    assert 'class="singularity"' not in svg


def test_empty_seed_list_draws_boundary_and_markers_only():
    svg = render_portrait(Analysis(QUARTIC, W12), PortraitSpec(seeds=()))
    assert "<polyline" not in svg
    assert 'class="divisor"' in svg
    assert svg.count('class="singularity"') == 4


def test_trajectory_truncation_is_annotated():
    # inward plane flow runs toward the centre of the disk and trips the cap
    a = Analysis(parse_field("dx = -x; dy = -y"), WeightVector(1, 1))
    svg = render_portrait(a, PortraitSpec(seeds=((0.3, 0.9),), horizon=30.0))
    assert 'class="trajectory truncated"' in svg


def _per_point_trajectory(terms_theta, terms_r, table, seed, horizon, tol,
                          sign):
    """The trajectory integrator as it was before the float trig pieces and
    the vectorized sampling: scipy dense-output trig lookups, numpy scalar
    state, one dense-output call per sample."""
    _, lookup = reference_trig(*table.weight, table.period)

    def rhs(t, y):
        cs, sn = lookup(y[0])
        r = y[1]
        td = 0.0
        for c, i, j, k in terms_theta:
            td += c * cs ** i * sn ** j * r ** k
        rd = 0.0
        for c, i, j, k in terms_r:
            rd += c * cs ** i * sn ** j * r ** k
        return (sign * td, sign * rd)

    def hit_centre(t, y):
        return y[1] - 49.0

    hit_centre.terminal = True

    def hit_divisor(t, y):
        return y[1] - 1e-7

    hit_divisor.terminal = True

    sol = solve_ivp(rhs, (0.0, horizon), list(seed), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True,
                    events=[hit_centre, hit_divisor])
    end = float(sol.t[-1])
    if end <= 0.0:
        return [tuple(seed)], sol.status != 0
    samples = []
    steps = 240
    for i in range(steps + 1):
        th, r = sol.sol(end * i / steps)
        samples.append((float(th), float(r)))
    return samples, sol.status != 0


def _loop_terms(comp):
    return tuple((float(c), i, j, k) for (i, j, k), c in sorted(comp.items()))


#: the horizon, and how every branch ends, where a case below says so
_ENDS = {
    # r' = -r: forward on the divisor's event (r = 0.85 e^-20 < 1e-7),
    # backward on the plane origin's
    "dx = x; dy = y": (20.0, "event"),
    # the rotation: every branch runs to the horizon
    "dx = -y; dy = x": (8.0, "horizon"),
}


@pytest.mark.parametrize("text,w", [
    (QUARTIC_TEXT, W12),
    ("dx = -x; dy = -y", WeightVector(1, 1)),
    ("dx = x; dy = y", WeightVector(1, 1)),
    ("dx = -y; dy = x", WeightVector(1, 1)),
])
def test_portrait_matches_per_point_integrator(monkeypatch, text, w):
    horizon, ends = _ENDS.get(text, (8.0, None))
    a = Analysis(parse_field(text), w)
    pf = polar_field(a.field, a.weight)
    terms = (_loop_terms(pf.theta), _loop_terms(pf.r), build_trig(w))
    spec = PortraitSpec(horizon=horizon)
    svg = render_portrait(a, spec)
    fast = portrait._trajectory
    pairs, signs = [], []

    def both(rhs_for, seed, horizon, tol, sign):
        signs.append(sign)
        pairs.append((fast(rhs_for, seed, horizon, tol, sign),
                      _per_point_trajectory(*terms, seed, horizon, tol, sign)))
        return pairs[-1][1]

    monkeypatch.setattr(portrait, "_trajectory", both)
    assert svg == render_portrait(a, spec)
    assert len(pairs) == 2 * len(default_seeds(1.0))
    # every sample, not just its three-decimal SVG rendering: the loop's
    # stage sums round differently from scipy's, so within 1e-8 (1.6e-9 at
    # most, on the radial field), with the same truncation flags
    for (new, new_cut), (old, old_cut) in pairs:
        assert new_cut == old_cut and len(new) == len(old)
        assert all(abs(a - b) <= 1e-8 for p, q in zip(new, old)
                   for a, b in zip(p, q))
    if ends == "event":
        level = {-1.0: 49.0, 1.0: 1e-7}
        assert all(cut and abs(samples[-1][1] - level[sign]) < 1e-12
                   for ((samples, cut), _), sign in zip(pairs, signs))
    elif ends == "horizon":
        assert not any(cut for (_, cut), _ in pairs)


def _loop_rhs(terms_theta, terms_r, trig, sign):
    """The right-hand side as a loop over (c, i, j, k) terms."""

    def rates(cs, sn, r):
        td = 0.0
        for c, i, j, k in terms_theta:
            td += c * cs ** i * sn ** j * r ** k
        rd = 0.0
        for c, i, j, k in terms_r:
            rd += c * cs ** i * sn ** j * r ** k
        return (sign * td, sign * rd)

    def rhs(t, y):
        theta, r = y.tolist()
        cs, sn = trig(theta)
        try:
            return rates(cs, sn, r)
        except OverflowError:
            return rates(cs, sn, np.float64(r))

    return rhs


def test_compiled_rhs_matches_the_loop_form_bit_for_bit():
    # the compiled form reads the trig pieces itself and folds each
    # coefficient's sign, and a magnitude 1, into its operator; the
    # reference is the loop over TrigTable.eval
    rng = random.Random(31)
    tables = [build_trig(WeightVector(*w)) for w in ((1, 2), (1, 1), (2, 3))]
    # the tables' pieces meet bit for bit at their knots; so that the piece
    # a lookup takes there shows, every other piece of this one is shifted
    first = tables[0]
    pieces = [p if i % 2 else
              p[:9] + (p[9] + 0.5,) + p[10:17] + (p[17] - 0.25,)
              for i, p in enumerate(first._pieces)]
    tables.append(TrigTable(first.weight, first.period, first._ends, pieces))
    overflowed = 0
    for table in tables:
        period = table.period
        # the knots inside one period, where the lookup takes the lower
        # piece, whole periods, and angles far out on either side
        inside = [end for end in table._ends if end < period]
        for _ in range(40):
            comps = []
            for _ in range(2):
                monos = rng.sample([(i, j, k) for i in range(5)
                                    for j in range(5) for k in range(5)],
                                   rng.randint(0, 7))
                if rng.random() < 0.3 and (0, 0, 0) not in monos:
                    monos.append((0, 0, 0))
                # a high power of r overflows a float power at r ~ 6
                if rng.random() < 0.3:
                    monos.append((rng.randint(0, 2), rng.randint(0, 2), 400))
                comps.append(tuple(sorted(
                    (rng.choice((-1, 1))
                     * rng.choice((1.0, rng.uniform(0.1, 9.9)
                                   * 10.0 ** rng.randint(-30, 30))), i, j, k)
                    for i, j, k in monos)))
            compiled = portrait._compile_rhs(*comps, table)
            thetas = [rng.uniform(-10.0, 10.0) for _ in range(12)]
            thetas += rng.sample(inside, 8)
            thetas += [rng.randint(-4, 4) * period,
                       -rng.uniform(1e3, 1e9), rng.uniform(1e3, 1e9)]
            for sign in (-1.0, 1.0):
                fast = compiled(sign)
                slow = _loop_rhs(*comps, table.eval, sign)
                for theta in thetas:
                    y = np.array([theta,
                                  rng.choice((rng.uniform(0.0, 1.0),
                                              rng.uniform(0.0, 60.0),
                                              1e200))])
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = np.asarray(slow(0.0, y), dtype=float)
                        got = np.asarray(fast(0.0, *y.tolist()), dtype=float)
                    assert got.tobytes() == want.tobytes(), (comps, y)
                    overflowed += not np.isfinite(want).all()
    # the fallback to _power ran, not just the float path
    assert overflowed > 20


def test_polar_rate_on_the_divisor_has_the_charts_sign():
    # the float path (the polar field, the trig pieces and marker_theta)
    # against the exact directional charts: at u on a chart's divisor the
    # restriction f gives the flow u' = f(u), and theta moves with u in the
    # direction ``step`` of _CHART_ORIGINS, so the polar rate theta' at
    # r = 0 has the sign step * sign(f(u)) wherever f(u) != 0
    rng = random.Random(1607)
    weights = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)]
    cases = [(_random_small_field(rng), WeightVector(*weights[k % 6]))
             for k in range(240)]
    with open(Path(__file__).with_name("data") / "cli_golden.json") as fh:
        golden = json.load(fh)
    for case in golden.values():
        argv = case["argv"]
        if argv[0] == "portrait" and case["code"] == 0:
            field = parse_field(argv[argv.index("--field") + 1])
            w = argv[argv.index("--weight") + 1] if "--weight" in argv \
                else None
            cases.append((field, w and WeightVector(*map(int, w.split(",")))))
    sampled = 0
    for field, w in cases:
        a = Analysis(field, w)
        pf = polar_field(a.field, a.weight)
        table = build_trig(a.weight)
        rhs = portrait._compile_rhs(portrait._terms(pf.theta),
                                    portrait._terms(pf.r), table)(1.0)
        for chart, cf in a.directional.items():
            restriction = cf.branches["v=0"].restriction
            step = portrait._CHART_ORIGINS[chart][1]
            for k in range(-7, 8):
                value = polys.ival(restriction, k, 7)
                if value == 0:
                    continue
                theta = marker_theta(a.weight, chart, k / 7)
                rate, _ = rhs(0.0, theta, 0.0)
                assert (step if value > 0 else -step) * rate > 0, \
                    (field, a.weight, chart, k)
                sampled += 1
    assert sampled >= 10_000


def test_power_gives_numpys_signed_inf():
    rng = random.Random(53)
    bases = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 6.0, -6.0, 1e200, -1e200,
             1.7976931348623157e308, -1.7976931348623157e308, math.inf,
             -math.inf, math.nan]
    bases += [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-5, 5)
              for _ in range(200)]
    overflowed = set()
    for x in bases:
        for e in (1, 2, 3, 7, 64, 399, 400, 401, 1000, 1001):
            with np.errstate(over="ignore"):
                want = np.float64(x) ** e
            got = portrait._power(x, e)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (x, e)
            if math.isinf(got) and math.isfinite(x):
                overflowed.add(got)
    # overflows to both signs of inf
    assert overflowed == {math.inf, -math.inf}


def test_trajectory_survives_a_trial_stage_overflow():
    # r' = r**400 overflows a float power once a trial stage passes r ~ 6;
    # the loop gives inf there as numpy does, the solver rejects the step
    # and gives up
    table = build_trig(WeightVector(1, 1))
    terms = (((1.0, 0, 0, 0),), ((1.0, 0, 0, 400),))
    rhs_for = portrait._compile_rhs(*terms, table)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _per_point_trajectory(*terms, table, (0.0, 1.0), 8.0, 1e-9, 1.0)
    got = portrait._trajectory(rhs_for, (0.0, 1.0), 8.0, 1e-9, 1.0)
    assert got[1] and want[1] and len(got[0]) == len(want[0]) == 241
    # theta = t, so the branches end at the same time; r agrees to 1e-12
    # up to the last sample, where r' = r**400 is near 1e14 and the two
    # differ by 1.6e-4 of r
    assert all(abs(p[0] - q[0]) <= 1e-15 for p, q in zip(got[0], want[0]))
    assert all(abs(p[1] - q[1]) <= 1e-12 * q[1]
               for p, q in zip(got[0][:-1], want[0][:-1]))
    assert abs(got[0][-1][1] - want[0][-1][1]) <= 1e-3 * want[0][-1][1]


#: x' = 10**300 * x**3: the rates at the seed (0.1, 0.5) are so large that
#: DOP853's first step would have to be shorter than ten float spacings of t
HUGE_CUBIC_TEXT = "dx = 1" + "0" * 300 + "*x^3; dy = y"


def test_a_branch_whose_first_step_fails_is_its_seed():
    a = Analysis(parse_field(HUGE_CUBIC_TEXT), WeightVector(1, 1))
    pf = polar_field(a.field, a.weight)
    table = build_trig(a.weight)
    terms = (_loop_terms(pf.theta), _loop_terms(pf.r))
    rhs_for = portrait._compile_rhs(*terms, table)
    for sign in (-1.0, 1.0):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _per_point_trajectory(*terms, table, (0.1, 0.5), 8.0, 1e-9,
                                         sign)
        got = portrait._trajectory(rhs_for, (0.1, 0.5), 8.0, 1e-9, sign)
        assert got == want == ([(0.1, 0.5)], True)


def test_a_branch_on_a_limit_cycle_stops_at_the_step_bound(monkeypatch):
    # the unit circle is a stable limit cycle: the forward branch settles
    # on it, where neither event fires, so under a huge horizon only the
    # step bound ends it; the backward branch ends at an event
    integrate = portrait.solve_ivp
    steps = []

    def counted(*args):
        ts, interpolants, cut = integrate(*args)
        steps.append((len(interpolants), cut))
        return ts, interpolants, cut

    monkeypatch.setattr(portrait, "solve_ivp", counted)
    a = Analysis(parse_field("dx = -y + x - x^3 - x*y^2; "
                             "dy = x + y - x^2*y - y^3"), WeightVector(1, 1))
    svg = render_portrait(a, PortraitSpec(seeds=((0.5, 0.9),), horizon=1e12,
                                          size=96))
    assert svg.count('<polyline class="trajectory truncated"') == 1
    back, fore = steps
    assert back[1] and back[0] < portrait.MAX_STEPS
    assert fore == (portrait.MAX_STEPS, True)


def test_spec_validation():
    a = Analysis(QUARTIC, WeightVector(1, 1))
    with pytest.raises(ValueError, match="radius"):
        render_portrait(a, PortraitSpec(seeds=((0.0, 1.5),)))
    with pytest.raises(ValueError, match="horizon"):
        render_portrait(a, PortraitSpec(horizon=-1.0))
    with pytest.raises(ValueError, match="size"):
        render_portrait(a, PortraitSpec(size=10))
    for tolerance in (0.0, 9e-14, 1e-300, 2e-3):
        with pytest.raises(ValueError, match=r"tolerance must lie in \[1e-13"):
            render_portrait(a, PortraitSpec(tolerance=tolerance))


@pytest.mark.parametrize("option", [
    "--horizon=nan", "--horizon=inf", "--horizon=-inf",
    "--seed=nan,0.5", "--seed=inf,0.5", "--tolerance=1e-20",
])
def test_cli_portrait_rejects_unbounded_options(capsys, monkeypatch, option):
    def integrate(*args):
        pytest.fail("integrated before the options were checked")

    monkeypatch.setattr(portrait, "_trajectory", integrate)
    code, out, err = _run(capsys, "portrait", "--weight", "1,1",
                          "--field", "dx = -y; dy = x", option)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    want = {"--horizon": "horizon", "--seed": "seed angle",
            "--tolerance": "tolerance"}[option.split("=")[0]]
    assert want in error["message"]


# ---------------------------------------------------------------------------
# command line


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_polytope(capsys):
    code, out, err = _run(capsys, "polytope", "--field", QUARTIC_TEXT)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["polytope"]["support"] == [[-1, 3], [1, 2], [2, 1], [3, -1]]
    assert doc["polytope"]["weight"] == [1, 2]


def test_cli_fan_skeleton_override(capsys):
    code, out, _ = _run(capsys, "fan",
                        "--skeleton", "(-2,-1),(-1,-1),(-1,-2)")
    assert code == 0
    fan = json.loads(out)["fan"]
    assert fan["vectors"] == [[0, 1], [-1, 0], [-2, -1], [-3, -2], [-1, -1],
                              [-2, -3], [-1, -2], [0, -1], [1, 0]]


def test_cli_fan_from_field(capsys):
    code, out, _ = _run(capsys, "fan", "--field", QUARTIC_TEXT)
    assert code == 0
    assert len(json.loads(out)["fan"]["vectors"]) == 9


def test_cli_compactify_directional(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "Xpos",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    doc = json.loads(out)
    assert doc["pretty"] == ("(-2*u^4 + u^3 + 2*u^2*v - v^4) du + "
                             "(-u^3*v + u*v^2) dv")


def test_cli_compactify_fan_chart(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "2",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    assert json.loads(out)["chart"]["label"] == "fan:2"


def test_cli_compactify_bad_chart(capsys):
    code, _, err = _run(capsys, "compactify", "--chart", "bogus",
                        "--field", QUARTIC_TEXT)
    assert code == 1
    assert json.loads(err)["error"] == "FieldError"


def test_cli_principal_part(capsys):
    code, out, _ = _run(capsys, "principal-part",
                        "--field", "dx = y^2 + x^3*y^2 - x; dy = x^2 + x^2*y^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "dx = x^3*y^2 + y^2; dy = x^2*y^3 + x^2"
    assert len(doc["upper_segments"]) == 2


def test_cli_singularities_table_and_json(capsys):
    code, out, _ = _run(capsys, "singularities", "--field", QUARTIC_TEXT)
    assert code == 0
    assert "Degenerate" in out and "Hyperbolic" in out
    code, out, _ = _run(capsys, "singularities", "--json",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == [1, 2]
    assert len(doc["charts"]["Ypos"]) == 2


def test_cli_check_equivalence_exit_codes(capsys):
    code, out, _ = _run(capsys, "check-equivalence", "--field", QUARTIC_TEXT)
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "Equivalent"
    sheared = ("dx = x^3*y^2 + 4*x^2*y^3 - 2*x^2 + 4*x*y^4 - 8*x*y - 7*y^2; "
               "dy = x^2*y^3 + x^2 + 4*x*y^4 + 4*x*y + 4*y^5 + 4*y^2")
    code, out, _ = _run(capsys, "check-equivalence", "--field", sheared)
    assert code == 3
    assert json.loads(out)["report"]["verdict"] == "HypothesesFail"


def test_cli_return_map(capsys):
    code, out, _ = _run(capsys, "return-map", "--field", "dx = -y; dy = x")
    assert code == 0
    assert json.loads(out)["return_map"]["conclusion"] \
        == "inconclusive: zero integral"
    code, _, err = _run(capsys, "return-map", "--field", QUARTIC_TEXT)
    assert code == 3
    assert "does not apply" in json.loads(err)["message"]


def test_cli_parse_error(capsys):
    code, out, err = _run(capsys, "polytope", "--field", "dx = oops")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParseError"


def test_cli_float_overflow_is_a_numeric_failure(capsys):
    # the portrait integrates in floats, so a coefficient past the float
    # range cannot be drawn
    huge = "1" + "0" * 400
    code, out, err = _run(capsys, "portrait", "--weight", "1,1",
                          "--field", f"dx = {huge}*x; dy = y")
    assert code == 4 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "OverflowError"


def test_portrait_markers_outside_the_float_range(capsys):
    # the saddle dx = 10**-800 y, dy = x has its separatrices at
    # u = +-10**400 in the x-charts, beyond the float range, and at
    # u = +-10**-400 in the y-charts, which underflow: both y-charts draw
    # their pair at u = 0, the top and the bottom of the disk
    code, out, err = _run(capsys, "portrait", "--weight", "1,1", "--size",
                          "64", "--seed", "0.5,0.5", "--field",
                          "dx = 1/1" + "0" * 800 + "*y; dy = x")
    assert code == 0 and err == ""
    markers = [line.strip() for line in out.splitlines()
               if 'class="singularity"' in line]
    assert markers == [
        f'<circle class="singularity" cx="32.000" cy="{cy}" r="4" '
        f'fill="#d62728"><title>Hyperbolic ({chart} chart, '
        f'u=(-5e-324,0))</title></circle>'
        for cy, chart in (("12.000", "Ypos"), ("52.000", "Yneg"))]


def test_cli_huge_exact_values_get_a_verdict(capsys):
    huge = "1" + "0" * 400
    code, out, _ = _run(capsys, "check-equivalence",
                        "--field", f"dx = {huge}*x; dy = y")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "Equivalent"
    tangents = [r["tangent"] for recs in report["inventory"]["field"].values()
                for r in recs]
    assert {t["approx"] for t in tangents} == {None}
    assert all(int(t["exact"]) == t["sign"] * (10**400 - 1) for t in tangents)


def test_cli_huge_positions_get_a_verdict_and_a_table(capsys):
    # restriction roots near +-10**310 lie outside the float range
    text = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 620 + "*x^2"
    code, out, _ = _run(capsys, "check-equivalence", "--field", text)
    assert code == 0
    rows = json.loads(out)["report"]["match_table"]
    assert sum(r["position"] is None for r in rows) >= 2
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1",
                        "--field", text)
    assert code == 0
    assert ">1e308" in out and "<-1e308" in out


def test_cli_tiny_values_are_not_printed_as_zero(capsys):
    # divisor roots at +-10**-350 and transverse eigenvalues of the same
    # size: nonzero, but their floats underflow to 0 and -0
    text = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 700 + "*x^2"
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1", "--json",
                        "--field", text)
    assert code == 0
    recs = [r for recs in json.loads(out)["charts"].values() for r in recs]
    values = [(r["position"]["approx"], r["position"]["interval"][0])
              for r in recs]
    values += [(r[k]["approx"], r[k]["exact"]) for r in recs
               for k in ("tangent", "transverse")]
    tiny = [v for v in values if v[0] is None and "/" in v[1]]
    assert len(tiny) == 4 * 3  # two positions and two eigenvalues per chart
    for approx, exact in values:
        if approx == 0:
            assert Fraction(exact) == 0
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1",
                        "--field", text)
    assert code == 0
    cells = [c for line in out.splitlines()[2:] for c in line.split()]
    assert cells.count("(0,5e-324)") == 6 and cells.count("(-5e-324,0)") == 6
    assert "-0" not in cells


@pytest.mark.parametrize("scale,above,below", [
    # eigenvalues near 10**-400 underflow, and near 10**400 they overflow
    (Fraction(1, 10**400), "(0,5e-324)", "(-5e-324,0)"),
    (Fraction(10**400), ">1e308", "<-1e308"),
], ids=["tiny", "huge"])
def test_cli_eigenvalues_at_irrational_points_keep_their_side(
        capsys, scale, above, below):
    c = [f"{k * scale}*" for k in range(4)]
    text = (f"dx = {c[1]}x^3 - {c[2]}x*y^2 + {c[1]}y^3; "
            f"dy = {c[1]}x^2*y + {c[3]}y^3 - {c[1]}x^3")
    code, out, _ = _run(capsys, "singularities", "--json", "--field", text)
    assert code == 0
    charts = {c: iter(recs) for c, recs in json.loads(out)["charts"].items()}
    code, out, _ = _run(capsys, "singularities", "--field", text)
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert len(rows) == 12
    for row in rows:
        rec = next(charts[row[0]])
        assert rec["position"]["approx"] is not None
        for k, cell in zip(("tangent", "transverse"), row[4:6]):
            e = rec[k]
            assert e["approx"] is None and e["exact"] is None
            assert cell == (above if e["sign"] > 0 else below)


def test_cli_witness_outside_the_float_range_gets_a_verdict(capsys):
    # the parabola y = -10**400 x^2 leaves the float range at x = +-1
    huge = "1" + "0" * 400
    code, out, err = _run(capsys, "check-equivalence", "--field",
                          f"dx = y^2 + {huge}*x^2*y; dy = 0")
    assert code == 3 and err == ""
    report = json.loads(out)["report"]
    assert report["verdict"] == "HypothesesFail"
    assert not report["hypotheses"]["non_degenerate_upper_part"]
    witnesses = report["witnesses"]
    assert [w["quadrant"] for w in witnesses] == [[1, -1], [-1, -1]]
    for w in witnesses:
        x, y = (Fraction(v) for v in w["point_exact"])
        assert y == -10**400 * x**2
        assert w["point"] == [float(x), None]


def test_cli_thirty_digit_coefficient_gets_a_verdict(capsys):
    code, out, _ = _run(capsys, "check-equivalence", "--field",
                        "dx = 123456789012345678901234567891*x + y^2; dy = y")
    assert code in (0, 3)
    assert json.loads(out)["report"]["verdict"] in ("Equivalent", "HypothesesFail")


def test_cli_portrait_whose_first_step_fails(capsys):
    # both branches of the seed fail their first step, so its polyline is
    # the seed alone, drawn truncated
    code, out, err = _run(capsys, "portrait", "--weight", "1,1", "--seed",
                          "0.1,0.5", "--field", HUGE_CUBIC_TEXT)
    assert code == 0 and "Traceback" not in err
    assert out.count("<polyline") == 1
    assert '<polyline class="trajectory truncated" points="524.308,299.501"/>' \
        in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48de6d5157b1c6155e1f1898367f3411521d67be3670667e26108f2c95a5e311")


@pytest.mark.parametrize("argv,digest", [
    (("--weight", "1,2", "--tolerance", "1e-3", "--field", QUARTIC_TEXT),
     "a5a13f1ac2ae5f987f687baad31278e1856fde8b211941951a07ac4a108ddfae"),
    # a stiff field: its branch magnifies the last bits in which the step
    # loop's stage sums differ from scipy's, so this digest is the loop's
    # own, not scipy's DOP853's
    (("--horizon", "2", "--seed", "1,0.5", "--field",
      "dx = y; dy = -x + 1" + "0" * 30 + "*y^3"),
     "c740b4e436f94c4001ec8aa77adb832757f36f253b7a591f974223e7541cf82d"),
    (("--weight", "1,1", "--seed", "0.1,0.5", "--field", HUGE_CUBIC_TEXT),
     "48de6d5157b1c6155e1f1898367f3411521d67be3670667e26108f2c95a5e311"),
])
def test_cli_portrait_with_overflowing_trial_stages_warns_nothing(
        capsys, argv, digest):
    # trial stages overflow to inf or nan, and the solver rejects them as
    # scipy's does; none of that reaches stderr or the warnings module
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "portrait", *argv)
    assert code == 0 and err == "" and caught == []
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_zero_field_portrait(capsys):
    code, _, err = _run(capsys, "portrait", "--field", "dx = 0; dy = 0")
    assert code == 1
    assert "empty support" in json.loads(err)["message"]


def test_cli_portrait_writes_file(capsys, tmp_path):
    target = tmp_path / "disk.svg"
    code, out, _ = _run(capsys, "portrait", "--field", QUARTIC_TEXT,
                        "--svg", str(target), "--seed", "0.1,0.5",
                        "--seed", "2.0,0.5")
    assert code == 0
    doc = json.loads(out)
    text = target.read_text()
    assert doc["bytes"] == len(text)
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<polyline") == 2


def test_cli_negative_seed_after_equals(capsys):
    # with a space, argparse reads -0.5,0.3 as an option: a usage error
    code, out, err = _run(capsys, "portrait", "--weight", "1,1", "--size",
                          "64", "--no-markers", "--seed=-0.5,0.3",
                          "--field", "dx = -y; dy = x")
    assert code == 0 and err == ""
    assert out.count("<polyline") == 1


def test_cli_weight_override(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "Xpos",
                        "--weight", "1,1", "--field", "dx = -y; dy = x")
    assert code == 0
    assert json.loads(out)["chart"]["weight"] == [1, 1]


def test_cli_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(QUARTIC_TEXT))
    code, out, _ = _run(capsys, "polytope")
    assert code == 0
    assert json.loads(out)["polytope"]["weight"] == [1, 2]
