"""The markers' regularized incomplete Beta integral, ``portrait._betainc``,
against mpmath at 40 digits and against scipy's ``betainc``.

``marker_theta`` asks for I_x(a, b) with a = 1/(2*alpha), b = 1/(2*beta)
and x in (0, 1/2], and hands over x**a itself.
"""

from __future__ import annotations

import random

import pytest

from polyfield.portrait import _betainc

WEIGHTS = (1, 2, 3, 5, 7, 12, 31, 50, 101, 200, 10 ** 5)
# x = 1/2, the largest marker_theta asks for, down to the least subnormal
FIXED_X = (0.5, 0.4999999999999999, 0.3, 0.1, 1e-3, 1e-10, 1e-100, 1e-300,
           2.2250738585072014e-308, 1e-310, 5e-324)


def _grid(seed):
    rng = random.Random(seed)
    for alpha in WEIGHTS:
        for beta in WEIGHTS:
            xs = FIXED_X + tuple(0.5 * rng.random() for _ in range(3)) + \
                tuple(0.5 * 10.0 ** -rng.uniform(0, 300) for _ in range(2))
            for x in xs:
                yield 0.5 / alpha, 0.5 / beta, x


def test_betainc_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for a, b, x in _grid(16):
            got = _betainc(a, b, x, x ** a)
            want = mpmath.betainc(mpmath.mpf(a), mpmath.mpf(b), 0,
                                  mpmath.mpf(x), regularized=True)
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 4e-15


def test_betainc_matches_scipy_on_normal_floats():
    # scipy's betainc loses digits at subnormal x: at x = 5e-324 it gives
    # 1.1138e-81 for I_x(1/4, 1/2), 2% under 1.1372e-81, and 0.34460141
    # for I_x(1/2000, 1/2000), where the integral is 0.34460143
    betainc = pytest.importorskip("scipy.special").betainc
    for a, b, x in _grid(17):
        if x < 2.2250738585072014e-308:
            continue
        want = float(betainc(a, b, x))
        assert abs(_betainc(a, b, x, x ** a) - want) <= 4e-15 * want, \
            (a, b, x)


def test_betainc_at_zero():
    # marker_theta's u = 0, which the relative errors above leave out
    assert _betainc(0.5, 0.5, 0.0, 0.0) == 0.0
    assert _betainc(0.5 / 200, 0.5, 0.0, 0.0) == 0.0
