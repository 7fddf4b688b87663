"""Generalized sine/cosine pairs attached to a weight vector.

For a weight (alpha, beta) the functions Cs, Sn solve

    Cs' = -Sn**(2*alpha - 1),   Sn' = Cs**(2*beta - 1),
    Cs(0) = 1, Sn(0) = 0,

conserve beta*Sn**(2*alpha) + alpha*Cs**(2*beta) = alpha, and are periodic.
The period is a Beta integral, evaluated in closed form through the Gamma
function (:func:`period`), and cross-checked against the orbit return time
of the integrated Cauchy problem.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .fields import WeightVector


class QuadratureError(ArithmeticError):
    """A numerical integration failed or missed its accuracy check."""


class TrigTable:
    """The pair (Cs, Sn) as plain-float pieces of a DOP853 dense output.

    ``eval`` reads the package's DOP853 dense output of the Cauchy problem
    as scipy's would: it picks the piece that ``OdeSolution`` picks (the
    lower one at a knot) and sums the degree-7 interpolant in the
    operation order of ``Dop853DenseOutput``.  It is the reference lookup:
    generated code reads the pieces itself through ``LOOKUP``.
    """

    def __init__(self, weight: tuple[int, int], period: float,
                 ends: list[float], pieces: list[tuple[float, ...]]):
        self.weight = weight
        self.period = period
        #: right end of each piece, ascending; the last one lies past the
        #: period
        self._ends = ends
        #: per piece: t_old, h, the interpolant rows of Cs in Horner order
        #: and Cs at t_old, then the same for Sn
        self._pieces = pieces

    def eval(self, theta: float) -> tuple[float, float]:
        t = float(theta) % self.period
        # searchsorted 'left' on all knots, less one and clamped at 0, is
        # the first piece whose right end is not below t; t <= period never
        # needs the upper clamp
        piece = self._pieces[bisect_left(self._ends, t)]
        (t_old, h, c6, c5, c4, c3, c2, c1, c0, c,
         s6, s5, s4, s3, s2, s1, s0, s) = piece
        x = (t - t_old) / h
        u = 1 - x
        return (((((((c6 * x + c5) * u + c4) * x + c3) * u + c2) * x + c1)
                 * u + c0) * x + c,
                ((((((s6 * x + s5) * u + s4) * x + s3) * u + s2) * x + s1)
                 * u + s0) * x + s)

    #: ``eval``'s lookup as statements, in its operation order, for code
    #: generated around it: they read ``theta`` and the names that
    #: ``lookup_names`` gives, and leave (Cs, Sn) at theta in ``cs`` and
    #: ``sn``.  ``theta`` must be a float.
    LOOKUP = """\
at = theta % period
(t_old, h, c6, c5, c4, c3, c2, c1, c0, c,
 s6, s5, s4, s3, s2, s1, s0, s) = pieces[bisect_left(ends, at)]
x = (at - t_old) / h
u = 1 - x
cs = (((((((c6 * x + c5) * u + c4) * x + c3) * u + c2) * x + c1)
       * u + c0) * x + c)
sn = (((((((s6 * x + s5) * u + s4) * x + s3) * u + s2) * x + s1)
       * u + s0) * x + s)"""

    def lookup_names(self) -> dict:
        """The names that ``LOOKUP`` reads besides ``theta``."""
        return {"period": self.period, "ends": self._ends,
                "pieces": self._pieces, "bisect_left": bisect_left}


def period(w: WeightVector) -> float:
    """The period of (Cs, Sn): four equal quarter-orbits along the oval give
    prefactor * B(qa, qb), with the Beta function B from ``math.gamma``."""
    qa, qb = 1.0 / (2.0 * w.alpha), 1.0 / (2.0 * w.beta)
    prefactor = 2.0 * w.alpha ** (qa - 1.0) / w.beta ** qa
    return prefactor * math.gamma(qa) * math.gamma(qb) / math.gamma(qa + qb)


#: weight -> its table, for the life of the process
_CACHE: dict[tuple[int, int], TrigTable] = {}


def build_trig(w: WeightVector) -> TrigTable:
    """Integrate the Cauchy problem by DOP853 over one and a half periods
    and package its dense output as a table."""
    key = w.as_tuple()
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    # the step loop lives in portrait, which imports this module
    from .portrait import _power, _sample, solve_ivp

    alpha, beta = key
    t_period = period(w)
    ka, kb = 2 * alpha - 1, 2 * beta - 1

    def rhs(_, cs, sn):
        try:
            return -(sn ** ka), cs ** kb
        except OverflowError:
            # a float power overflowed at a trial stage; numpy's power
            # gives inf there instead, and the solver rejects the step
            return -_power(sn, ka), _power(cs, kb)

    ts, pieces, cut = solve_ivp(rhs, (1.0, 0.0), 1.5 * t_period, 1e-12, 1e-14,
                                ())
    if cut:
        raise QuadratureError(
            f"trig integration for {key} stopped short of 1.5 periods")
    # the orbit passes (1, 0) at the Beta period: Sn' = Cs**(2*beta - 1)
    # is 1 there, so |Sn(T)| is the error of the return time
    (cs, sn), = _sample(ts, pieces, [t_period])
    if not (abs(cs - 1.0) <= 1e-7 and abs(sn) <= 1e-7):
        raise QuadratureError(
            f"orbit return time disagrees with the Beta period for {key}")
    table = TrigTable(key, t_period, ts[1:], pieces)
    _CACHE[key] = table
    return table
