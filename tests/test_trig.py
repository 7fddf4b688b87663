import math
import warnings

import numpy as np
import pytest

from oracles import reference_period, reference_trig
from polyfield import portrait, trig
from polyfield.fields import WeightVector
from polyfield.trig import QuadratureError, build_trig, period


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


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3), (1, 5), (5, 1)])
def test_quarter_periods_lie_on_the_axes(a, b):
    # the oval is symmetric under Sn -> -Sn and Cs -> -Cs, so the orbit
    # meets the axes at exactly T/4, T/2, 3T/4 and T, where it reaches
    # Sn = (a/b)**(1/(2a)), Cs = -1, Sn = -(a/b)**(1/(2a)) and Cs = 1;
    # marker angles are measured from there
    t = build_trig(WeightVector(a, b))
    top = (a / b) ** (1 / (2 * a))
    for k, want in enumerate([(0.0, top), (-1.0, 0.0), (0.0, -top),
                              (1.0, 0.0)]):
        got = t.eval((k + 1) * t.period / 4)
        assert all(abs(g - v) <= 1e-9 for g, v in zip(got, want)), (k, got)


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
    # a table of scipy's own pieces: eval picks the piece and sums the
    # interpolant as OdeSolution does, by the bytes
    period = build_trig(WeightVector(a, b)).period
    dense, lookup = reference_trig(a, b, period)
    t = trig.TrigTable((a, b), period, *_scipy_pieces(dense))
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


def _scipy_pieces(dense):
    """Right ends and float pieces of scipy's DOP853 dense output, read off
    its interpolants in ``TrigTable``'s layout; the Horner sum starts from
    zero, so the leading row enters as ``0.0 + F[6]``."""
    pieces = []
    for p in dense.interpolants:
        rows = p.F[::-1].tolist()
        rows[0] = [0.0 + v for v in rows[0]]
        pieces.append((float(p.t_old), float(p.h),
                       *(row[0] for row in rows), float(p.y_old[0]),
                       *(row[1] for row in rows), float(p.y_old[1])))
    return dense.ts[1:].tolist(), pieces


#: weights whose trial stages overflow a float power, where the loop's
#: power gives inf as numpy's does and the solver rejects the step
OVERFLOWING = [(1, 20), (20, 1), (30, 31), (50, 1), (1, 100)]


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 5),
                                 (5, 7), (1, 9), (200, 1), *OVERFLOWING])
def test_table_pieces_match_scipys_dense_output_bit_for_bit(
        monkeypatch, a, b):
    # the table's own DOP853 loop sums each stage left to right, scipy's in
    # BLAS order: its (Cs, Sn) lie within 1e-10 of scipy's dense output
    # (4.7e-11 at most, at (200,1)) at scipy's knots, their midpoints and
    # 1000 points of the period, from at most 3% more or fewer pieces
    monkeypatch.setattr(trig, "_CACHE", {})
    # the overflowing trial stages warn nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = build_trig(WeightVector(a, b))
    assert caught == []
    with np.errstate(over="ignore", invalid="ignore"):
        dense, lookup = reference_trig(a, b, t.period)
    knots = dense.ts.tolist()
    assert abs(len(t._pieces) - (len(knots) - 1)) <= 0.03 * len(knots)
    thetas = knots + [(x + y) / 2 for x, y in zip(knots, knots[1:])]
    thetas += [t.period * k / 1000 for k in range(1000)]
    for theta in thetas:
        got, want = t.eval(theta), lookup(theta)
        assert all(abs(g - v) <= 1e-10 for g, v in zip(got, want)), theta
    assert all(type(v) is float for p in t._pieces for v in p)


def test_a_table_whose_loop_stops_short_is_refused(monkeypatch):
    monkeypatch.setattr(trig, "_CACHE", {})
    monkeypatch.setattr(portrait, "MAX_STEPS", 50)
    with pytest.raises(QuadratureError, match="stopped short"):
        build_trig(WeightVector(1, 2))


def test_a_table_off_the_beta_period_is_refused(monkeypatch):
    true_period = trig.period
    monkeypatch.setattr(trig, "_CACHE", {})
    monkeypatch.setattr(trig, "period",
                        lambda w: true_period(w) * (1 + 1e-6))
    with pytest.raises(QuadratureError, match="Beta period"):
        build_trig(WeightVector(1, 2))
