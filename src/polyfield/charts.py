"""Exact compactified vector fields in directional, fan and polar charts.

Everything here is symbolic: chart components are dictionaries mapping
exponent tuples to coefficients.  Directional and fan charts hold integer
numerators over one positive scale, with keys (i, j) for u**i * v**j; the
polar chart holds rationals, with keys (c, s, k) for
Cs(theta)**c * Sn(theta)**s * r**k, where Cs/Sn are the generalized
trigonometric functions attached to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple, Optional

from .fans import ChartMap, SimpleFan
from .fields import (
    DIRECTIONS,
    FieldError,
    InternalConsistencyError,
    PlanarField,
    WeightVector,
    directional_map,
    format_poly,
    max_level,
    monomial_pullback,
)
from .polys import up_deriv
from .polytope import Polytope

TrigKey = tuple[int, int, int]

#: the divisor branches of a chart, in the order they are scanned
_BRANCHES = {"v": ("v=0",), "u": ("u=0",), "uv": ("v=0", "u=0")}


class Branch(NamedTuple):
    """The integer polynomials of one divisor branch over the chart's
    ``scale`` (see :func:`_branch_polys`), and the derivative and the
    transverse polynomial as the readings evaluate them: ``(f, c, scale)``
    for the polynomial f * c / scale, with f primitive and c > 0."""

    restriction: tuple
    derivative: tuple
    transverse: tuple
    tangent_reading: tuple
    transverse_reading: tuple


@dataclass
class ChartField:
    """A compactified field in one directional or fan chart.

    ``u_num``/``v_num`` are the du/dv polynomial components as integer
    numerators over the positive ``scale``; ``u_comp``/``v_comp`` give them
    as rationals.  ``normalization`` records the monomial the raw pullback
    was multiplied by to clear denominators.
    """

    label: str
    u_num: dict
    v_num: dict
    scale: int
    divisor: str
    normalization: dict[str, int]
    weight: Optional[WeightVector] = None
    chart: Optional[ChartMap] = None
    delta: Optional[int] = None

    @property
    def u_comp(self) -> dict:
        return {k: Fraction(c, self.scale) for k, c in self.u_num.items()}

    @property
    def v_comp(self) -> dict:
        return {k: Fraction(c, self.scale) for k, c in self.v_num.items()}

    @cached_property
    def branches(self) -> dict[str, Branch]:
        """The polynomials of each divisor branch, built once."""
        return {b: _branch_polys(self, b) for b in _BRANCHES[self.divisor]}

    def to_json(self) -> dict:
        def enc(comp):
            return [
                [list(k), str(c)]
                for k, c in sorted(comp.items())
            ]

        blob = {
            "label": self.label,
            "divisor": self.divisor,
            "normalization": dict(self.normalization),
            "u_component": enc(self.u_comp),
            "v_component": enc(self.v_comp),
        }
        if self.weight is not None:
            blob["weight"] = list(self.weight.as_tuple())
        if self.delta is not None:
            blob["delta"] = self.delta
        if self.chart is not None:
            blob["chart_index"] = self.chart.index
        return blob

    def pretty(self) -> str:
        u = format_poly(self.u_comp, ("u", "v"))
        v = format_poly(self.v_comp, ("u", "v"))
        return f"({u}) du + ({v}) dv"


@dataclass(frozen=True)
class PolarField:
    """The compactified field in weighted polar coordinates: ``theta`` and
    ``r`` are the dtheta and dr components as trig-polynomials, after
    multiplying by r**(delta-1)."""

    theta: dict
    r: dict
    weight: WeightVector
    delta: int

    def pretty(self) -> str:
        names = ("Cs", "Sn", "r")
        return (f"({format_poly(self.theta, names)}) dtheta + "
                f"({format_poly(self.r, names)}) dr")


def _slice(comp: dict, along: int, across: int, level: int) -> tuple:
    """The polynomial, in the ``along`` exponent, of the terms of ``comp``
    whose ``across`` exponent equals ``level``; ``comp`` has no zero
    values, so neither has its top coefficient."""
    coeffs = {k[along]: c for k, c in comp.items() if k[across] == level}
    return tuple(coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1))


def _reading_form(f: tuple, scale: int) -> tuple:
    """``(f / c, c, scale)`` with c > 0 the content of f, or ((), 0, scale)."""
    c = gcd(*f)
    return tuple(x // c for x in f), c, scale


def _branch_polys(cf: ChartField, branch: str) -> Branch:
    """Restriction, its derivative and transverse polynomial along one
    divisor branch.

    On {v = 0} the restriction is u' at v = 0 and the transverse eigenvalue
    polynomial is the v-linear part of v'; the {u = 0} branch mirrors the
    roles.  The off-diagonal Jacobian entry vanishes identically on the
    branch; that structural fact is re-checked here rather than assumed.
    """
    if branch == "v=0":
        tangent, normal, along, across = cf.u_num, cf.v_num, 0, 1
    else:
        tangent, normal, along, across = cf.v_num, cf.u_num, 1, 0
    if any(k[across] == 0 for k in normal):
        raise InternalConsistencyError(
            f"{cf.label}: divisor branch {branch} is not invariant")
    restriction = _slice(tangent, along, across, 0)
    derivative = up_deriv(restriction)
    transverse = _slice(normal, along, across, 1)
    return Branch(restriction, derivative, transverse,
                  _reading_form(derivative, cf.scale),
                  _reading_form(transverse, cf.scale))


def _strip_zeros(comp: dict) -> dict:
    return {k: c for k, c in comp.items() if c != 0}


def _check_nonnegative(u_num: dict, v_num: dict, where: str) -> None:
    for (i, j) in list(u_num) + list(v_num):
        if i < 0 or j < 0:
            raise InternalConsistencyError(
                f"negative exponent ({i},{j}) in {where}")


# ---------------------------------------------------------------------------
# directional charts


def directional_plc(f: PlanarField, w: WeightVector, direction: str) -> ChartField:
    """Compactify toward one of the four axis directions.

    In the x-positive chart the substitution is x = 1/v**alpha,
    y = u/v**beta; the y-positive chart swaps the roles of the variables;
    negative charts flip the sign of the compactified axis.  After clearing
    denominators with v**(delta-1), where delta is one more than the top
    weighted level, both components are polynomials and {v = 0} is the
    divisor at infinity.
    """
    forward, signs = directional_map(w, direction)
    if f.is_zero:
        raise FieldError("cannot compactify the zero field")
    delta = max_level(f, w) + 1
    u_num, v_num, scale = monomial_pullback(f.numerators, f.den, forward,
                                            signs, (0, delta - 1))
    _check_nonnegative(u_num, v_num, f"{direction} chart")
    return ChartField(direction, u_num, v_num, scale, divisor="v",
                      normalization={"v": delta - 1}, weight=w, delta=delta)


# ---------------------------------------------------------------------------
# fan charts


@dataclass(frozen=True)
class LevelData:
    """Per-fan-vector minima of the weighting functional over the support.

    ``minima[j]`` is min over the support of <xi_j, (m,n)>, except at the
    two endpoint rays where it is fixed to 0 by convention; ``argmins[j]``
    is the set of support points achieving the true minimum.
    """

    minima: tuple[int, ...]
    argmins: tuple[tuple[tuple[int, int], ...], ...]


def support_minima(support, vectors) -> tuple[list[int], list[tuple]]:
    minima = []
    argmins = []
    for j, (x, y) in enumerate(vectors):
        vals = {p: x * p[0] + y * p[1] for p in support}
        m = min(vals.values())
        argmins.append(tuple(sorted(p for p, v in vals.items() if v == m)))
        if j == 0 or j == len(vectors) - 1:
            m = 0
        minima.append(m)
    return minima, argmins


def level_data(p: Polytope, fan: SimpleFan) -> LevelData:
    minima, argmins = support_minima(p.support, fan.vectors)
    return LevelData(tuple(minima), tuple(argmins))


def fan_chart_field(f: PlanarField, cmap: ChartMap,
                    minima: tuple[int, int]) -> ChartField:
    """The compactified field in the fan chart ``cmap`` (index j >= 1).

    The pullback of x**m y**n (a x dx + b y dy) under the chart map is
    u**<xi_{j-1},p> v**<xi_j,p> (A u du + B v dv) with A = beta_j a -
    alpha_j b and B = alpha_{j-1} b - beta_{j-1} a; multiplying by
    u**e_{j-1} v**e_j with e = max(0, -M) clears all denominators, where
    ``minima`` holds M_{j-1}, M_j from :func:`support_minima` of ``f``.
    """
    eu = max(0, -minima[0])
    ev = max(0, -minima[1])
    u_num, v_num, scale = monomial_pullback(f.numerators, f.den, cmap.forward,
                                            (1, 1), (eu, ev))
    _check_nonnegative(u_num, v_num, f"fan chart {cmap.index}")
    return ChartField(f"fan:{cmap.index}", u_num, v_num, scale,
                      divisor=cmap.divisor, normalization={"u": eu, "v": ev},
                      chart=cmap)


# ---------------------------------------------------------------------------
# polar chart


def polar_field(f: PlanarField, w: WeightVector) -> PolarField:
    """The global compactified field in weighted polar coordinates.

    Substituting x = Cs(theta) r**(-alpha), y = Sn(theta) r**(-beta) and
    multiplying by r**(delta-1) yields

        theta' = sum_d r**(delta-d-1) (Cs Q_d - (beta/alpha) Sn P_d),
        r'     = -sum_d r**(delta-d)/alpha (Cs**(2 beta - 1) P_d
                                            + Sn**(2 alpha - 1) Q_d),

    where P_d, Q_d collect the terms of weighted level d.  Every r' term
    carries at least one power of r, so the divisor {r = 0} is invariant.
    """
    if f.is_zero:
        raise FieldError("cannot compactify the zero field")
    alpha, beta = w.as_tuple()
    delta = max_level(f, w) + 1
    theta: dict[TrigKey, Fraction] = {}
    rad: dict[TrigKey, Fraction] = {}
    for (m, n), (a, b) in f.items():
        d = alpha * m + beta * n
        c = b - Fraction(beta, alpha) * a
        if c:
            key = (m + 1, n + 1, delta - d - 1)
            theta[key] = theta.get(key, Fraction(0)) + c
        if a:
            key = (m + 2 * beta, n, delta - d)
            rad[key] = rad.get(key, Fraction(0)) - Fraction(a, alpha)
        if b:
            key = (m, n + 2 * alpha, delta - d)
            rad[key] = rad.get(key, Fraction(0)) - Fraction(b, alpha)
    theta = _strip_zeros(theta)
    rad = _strip_zeros(rad)
    for (ce, se, re) in theta:
        if ce < 0 or se < 0 or re < 0:
            raise InternalConsistencyError("negative exponent in polar chart")
    for (ce, se, re) in rad:
        if ce < 0 or se < 0 or re < 1:
            raise InternalConsistencyError(
                "polar radial component must vanish on the divisor")
    return PolarField(theta, rad, weight=w, delta=delta)
