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
from dataclasses import dataclass, field

from .fields import InternalConsistencyError, WeightVector


class QuadratureError(ArithmeticError):
    """A numerical integration failed or missed its accuracy check."""


@dataclass(frozen=True)
class TrigTable:
    """The pair (Cs, Sn) as plain-float pieces of a DOP853 dense output.

    ``eval`` reproduces scipy's dense output of the Cauchy problem bit for
    bit: it picks the piece that ``OdeSolution`` picks (the lower one at a
    knot) and sums the degree-7 interpolant in the operation order of
    ``Dop853DenseOutput``, without scipy's per-call array overhead.
    """

    weight: tuple[int, int]
    period: float
    #: theta values in (0, period] where Cs or Sn crosses zero; the last
    #: entry is the return time, an independent estimate of the period
    axis_crossings: tuple[float, ...]
    #: right end of each piece, ascending; the last one lies past the period
    _ends: list[float] = field(repr=False, compare=False)
    #: per piece: t_old, h, the interpolant rows of Cs in Horner order and
    #: Cs at t_old, then the same for Sn
    _pieces: list[tuple[float, ...]] = field(repr=False, compare=False)

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


def _pieces(dense) -> tuple[list[float], list[tuple[float, ...]]]:
    """Right ends and float pieces of a DOP853 ``OdeSolution``.

    ``Dop853DenseOutput`` starts its Horner sum from zero, so the leading
    row enters as ``0.0 + F[6]``.
    """
    pieces = []
    for p in dense.interpolants:
        if getattr(p, "F", None) is None or p.F.shape != (7, 2):
            raise InternalConsistencyError(
                "trig dense output is not a DOP853 interpolant")
        rows = p.F[::-1].tolist()
        rows[0] = [0.0 + v for v in rows[0]]
        cs_old, sn_old = p.y_old.tolist()
        pieces.append((float(p.t_old), float(p.h),
                       *(row[0] for row in rows), cs_old,
                       *(row[1] for row in rows), sn_old))
    return dense.ts[1:].tolist(), pieces


def period(w: WeightVector) -> float:
    """The period of (Cs, Sn): four equal quarter-orbits along the oval give
    prefactor * B(qa, qb), with the Beta function B from ``math.gamma``."""
    qa, qb = 1.0 / (2.0 * w.alpha), 1.0 / (2.0 * w.beta)
    prefactor = 2.0 * w.alpha ** (qa - 1.0) / w.beta ** qa
    return prefactor * math.gamma(qa) * math.gamma(qb) / math.gamma(qa + qb)


#: weight -> its table, for the life of the process
_CACHE: dict[tuple[int, int], TrigTable] = {}


def build_trig(w: WeightVector) -> TrigTable:
    """Integrate the Cauchy problem and package a dense-output table."""
    key = w.as_tuple()
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    from scipy.integrate import solve_ivp

    alpha, beta = key
    t_period = period(w)

    def rhs(_, y):
        cs, sn = y
        return [-(sn ** (2 * alpha - 1)), cs ** (2 * beta - 1)]

    # events: Cs = 0 and Sn = 0
    sol = solve_ivp(rhs, (0.0, 1.5 * t_period), [1.0, 0.0], method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14,
                    events=[lambda _, y: y[0], lambda _, y: y[1]])
    if not sol.success:
        raise QuadratureError(f"trig integration failed: {sol.message}")
    crossings = sorted(t for ev in sol.t_events for t in ev if t > 1e-12)
    # the oval meets {Sn = 0, Cs > 0} only at (1, 0), so the first such
    # crossing is the orbit's own measurement of the period
    returns = [t for t in sol.t_events[1] if t > 1e-9 and sol.sol(t)[0] > 0]
    if not returns or abs(returns[0] - t_period) > 1e-7:
        raise QuadratureError(
            f"orbit return time disagrees with the Beta period for {key}")
    inside = tuple(t for t in crossings if t <= returns[0])
    table = TrigTable(key, t_period, inside, *_pieces(sol.sol))
    _check_against(table, sol.sol)
    _CACHE[key] = table
    return table


def _check_against(table: TrigTable, dense) -> None:
    """The float pieces read scipy internals; confirm they reproduce
    ``dense`` exactly at every knot and every piece midpoint."""
    knots = dense.ts.tolist()
    if not table.period < knots[-1]:
        raise InternalConsistencyError(
            f"trig table for {table.weight} stops short of its period")
    probes = knots + [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    for t in probes:
        want = tuple(dense(t % table.period).tolist())
        if table.eval(t) != want:
            raise InternalConsistencyError(
                f"trig table for {table.weight} departs from its dense "
                f"output at theta = {t!r}")
