import math

import pytest

from oracles import reference_period, reference_trig
from polyfield import trig
from polyfield.fields import InternalConsistencyError, WeightVector
from polyfield.trig import build_trig, period


def test_circular_case():
    t = build_trig(WeightVector(1, 1))
    assert abs(t.period - 2 * math.pi) <= 1e-9
    assert t.eval(0.0) == (1.0, 0.0)
    cs, sn = t.eval(math.pi / 2)
    assert abs(cs) <= 1e-9 and abs(sn - 1.0) <= 1e-9
    cs, sn = t.eval(t.period)
    assert abs(cs - 1.0) <= 1e-8 and abs(sn) <= 1e-8


def test_period_matches_the_quarter_orbit_quadrature():
    for a, b in [(1, 1), (1, 2), (1, 5), (1, 9), (2, 1), (3, 1), (2, 3),
                 (3, 2), (3, 5), (2, 5), (5, 7)]:
        want = reference_period(a, b)
        assert abs(period(WeightVector(a, b)) - want) <= 1e-12 * want, (a, b)


def test_conservation_along_orbit():
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        t = build_trig(WeightVector(a, b))
        for k in range(200):
            theta = t.period * k / 200.0
            cs, sn = t.eval(theta)
            assert abs(b * sn ** (2 * a) + a * cs ** (2 * b) - a) <= 1e-9


def test_conservation_drift_over_ten_periods():
    t = build_trig(WeightVector(1, 2))
    for k in range(50):
        theta = 10.0 * t.period * k / 50.0
        cs, sn = t.eval(theta)  # evaluation reduces theta mod the period
        assert abs(2 * sn ** 2 + cs ** 4 - 1) <= 1e-7


def test_derivatives_match_cauchy_problem():
    a, b = 2, 3
    t = build_trig(WeightVector(a, b))
    h = 1e-6
    for k in range(100):
        theta = t.period * (k + 0.5) / 101.0
        cs0, sn0 = t.eval(theta - h)
        cs1, sn1 = t.eval(theta + h)
        cs, sn = t.eval(theta)
        assert abs((cs1 - cs0) / (2 * h) + sn ** (2 * a - 1)) <= 1e-6
        assert abs((sn1 - sn0) / (2 * h) - cs ** (2 * b - 1)) <= 1e-6


def test_axis_crossings_partition_the_period():
    t = build_trig(WeightVector(1, 2))
    assert len(t.axis_crossings) == 4
    assert all(x < y for x, y in zip(t.axis_crossings, t.axis_crossings[1:]))
    assert abs(t.axis_crossings[-1] - t.period) <= 1e-7
    # crossings alternate between the Cs and Sn axes
    cs1, sn1 = t.eval(t.axis_crossings[0])
    assert abs(cs1) <= 1e-9 and sn1 > 0
    cs2, sn2 = t.eval(t.axis_crossings[1])
    assert abs(sn2) <= 1e-9 and cs2 < 0
    cs3, sn3 = t.eval(t.axis_crossings[2])
    assert abs(cs3) <= 1e-9 and sn3 < 0


def test_negative_theta_reduction():
    t = build_trig(WeightVector(1, 1))
    cs, sn = t.eval(-math.pi / 2)
    assert abs(cs) <= 1e-8 and abs(sn + 1.0) <= 1e-8


def test_tables_are_cached():
    t1 = build_trig(WeightVector(2, 3))
    t2 = build_trig(WeightVector(2, 3))
    assert t1 is t2


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (3, 5), (2, 1)])
def test_eval_is_bit_identical_to_scipy_dense_output(a, b):
    t = build_trig(WeightVector(a, b))
    dense, lookup = reference_trig(a, b, t.period)
    knots = dense.ts.tolist()
    thetas = knots + [(x + y) / 2 for x, y in zip(knots, knots[1:])]
    thetas += [0.0, -0.0, t.period, -5e-324, -1e-300]
    thetas += [s * k * t.period + f for k in (1, 3, 17)
               for s in (1, -1) for f in (0.0, 0.37, 1.9)]
    thetas += [-x for x in knots]
    for theta in thetas:
        got = t.eval(theta)
        assert all(type(v) is float for v in got)
        # hex tells -0.0 from 0.0
        assert [v.hex() for v in got] == [v.hex() for v in lookup(theta)], theta


def test_table_refuses_pieces_that_depart_from_scipy(monkeypatch):
    real = trig._pieces

    def swapped(dense):
        ends, pieces = real(dense)
        p = list(pieces[5])
        p[3], p[4] = p[4], p[3]
        pieces[5] = tuple(p)
        return ends, pieces

    monkeypatch.setattr(trig, "_CACHE", {})
    monkeypatch.setattr(trig, "_pieces", swapped)
    with pytest.raises(InternalConsistencyError, match="departs"):
        build_trig(WeightVector(1, 2))
