"""Exact compactified vector fields in directional, fan and polar charts.

Everything here is symbolic: chart components are dictionaries mapping
exponent tuples to coefficients.  Directional and fan charts hold integer
numerators over one positive scale, with keys (i, j) for u**i * v**j; the
polar chart holds rationals, with keys (c, s, k) for
Cs(theta)**c * Sn(theta)**s * r**k, where Cs/Sn are the generalized
trigonometric functions attached to the weight.  A directional or fan
chart reads its divisor branches off the field's terms at divisor level 0
as it is built, and pulls the whole field back only when its components
are read.
"""

from __future__ import annotations

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


class Branch(NamedTuple):
    """The integer polynomials of one divisor branch over the chart's
    ``scale`` (see :func:`_divisor_pass`), and the derivative and the
    transverse polynomial as the readings evaluate them: ``(f, c, scale)``
    for the polynomial f * c / scale, with f primitive and c > 0."""

    restriction: tuple
    derivative: tuple
    transverse: tuple
    tangent_reading: tuple
    transverse_reading: tuple


class _ChartData(NamedTuple):
    label: str
    scale: int
    divisor: str
    normalization: dict[str, int]
    divisor_terms: dict[str, tuple[dict, dict]]
    pullback: tuple
    weight: Optional[WeightVector] = None
    chart: Optional[ChartMap] = None
    delta: Optional[int] = None


class ChartField(_ChartData):
    """A compactified field in one directional or fan chart.

    ``divisor_terms`` maps each divisor branch to the coefficients, by
    exponent along the branch, of its restriction and its transverse
    polynomial: the pullback of the field's terms at divisor level 0, read
    when the chart is built.  ``branches`` gives their polynomials, built
    once.  ``u_num``/``v_num`` are the du/dv polynomial components as integer
    numerators over the positive ``scale``, pulled back from ``pullback``,
    the arguments of :func:`monomial_pullback`, on first use; ``u_comp``/
    ``v_comp`` give them as rationals.  ``normalization`` records the
    monomial the raw pullback was multiplied by to clear denominators.
    The pullback is injective once the chart map and the normalization
    are fixed, so comparing ``pullback`` compares the components.
    """

    # no __slots__: the cached properties keep their values in the
    # instance's __dict__

    @cached_property
    def branches(self) -> dict[str, Branch]:
        return {b: _branch_polys(r, t, self.scale)
                for b, (r, t) in self.divisor_terms.items()}

    @cached_property
    def _components(self) -> tuple[dict, dict]:
        return monomial_pullback(*self.pullback)[:2]

    @property
    def u_num(self) -> dict:
        return self._components[0]

    @property
    def v_num(self) -> dict:
        return self._components[1]

    @property
    def u_comp(self) -> dict:
        return {k: Fraction(c, self.scale) for k, c in self.u_num.items()}

    @property
    def v_comp(self) -> dict:
        return {k: Fraction(c, self.scale) for k, c in self.v_num.items()}

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


class PolarField(NamedTuple):
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


def _poly(coeffs: dict) -> tuple:
    """The polynomial with the nonzero coefficients ``coeffs``, by degree."""
    if not coeffs:
        return ()
    f = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        f[e] = c
    return tuple(f)


def _reading_form(f: tuple, scale: int) -> tuple:
    """``(f / c, c, scale)`` with c > 0 the content of f, or ((), 0, scale)."""
    c = gcd(*f)
    return (f if c == 1 else tuple([x // c for x in f])), c, scale


def _branch_polys(restriction: dict, transverse: dict, scale: int) -> Branch:
    """The branch whose restriction and transverse polynomial have the
    coefficients ``restriction`` and ``transverse`` over ``scale``."""
    restriction, transverse = _poly(restriction), _poly(transverse)
    derivative = up_deriv(restriction)
    return Branch(restriction, derivative, transverse,
                  _reading_form(derivative, scale),
                  _reading_form(transverse, scale))


def _strip_zeros(comp: dict) -> dict:
    return {k: c for k, c in comp.items() if c != 0}


def _divisor_pass(numerators, den, forward, signs, normalization, divisor,
                  label, where) -> tuple[dict, int]:
    """The divisor terms of the chart that :func:`monomial_pullback` builds
    from the same arguments (see ``ChartField.divisor_terms``), and its
    scale, in one pass over the field's terms.

    A term at (m, n) pulls back to the du monomial (i + 1, j) and the dv
    monomial (i, j + 1).  On {v = 0} the restriction is u' at v = 0, the du
    terms with j = 0, and the transverse eigenvalue polynomial is the
    v-linear part of v', the dv terms with j = 0; the {u = 0} branch
    mirrors the roles, with i = 0.  So only the terms at divisor level 0
    are pulled back, and those that could break the two structural facts
    re-checked here rather than assumed: no pulled-back monomial has a
    negative exponent, and the off-diagonal Jacobian entry vanishes on the
    branch (no dv term at j = -1, no du term at i = -1).  The errors are
    those of the full pullback: the first negative du exponent, then the
    first negative dv exponent, then invariance branch by branch.
    """
    (f00, f01), (f10, f11) = forward
    det = f00 * f11 - f01 * f10
    if det == 0:
        raise InternalConsistencyError(f"chart matrix {forward} is singular")
    # A^-1 = adj(A) / det; a negative det moves its sign into the numerators
    flip_m, flip_n, flip = signs[0] < 0, signs[1] < 0, det < 0
    eu, ev = normalization
    on_v, on_u = divisor in ("v", "uv"), divisor in ("u", "uv")
    # a term with i > ti and j > tj reaches no branch and breaks nothing
    ti, tj = (0 if on_u else -1), (0 if on_v else -1)
    # along exponent -> coefficient, of each branch's two polynomials
    rv, tv, ru, tu = {}, {}, {}, {}
    negative_du, negative_dv, open_v, open_u = [], [], False, False
    for (m, n), (a, b) in numerators.items():
        i = eu + f00 * m + f10 * n
        j = ev + f01 * m + f11 * n
        if i > ti and j > tj:
            continue
        swirl = f11 * a - f01 * b
        radial = f00 * b - f10 * a
        if ((flip_m and m % 2 == 1) != (flip_n and n % 2 == 1)) != flip:
            swirl, radial = -swirl, -radial
        if swirl:
            if i < -1 or j < 0:
                negative_du.append((i + 1, j))
            else:
                if not j and on_v:
                    rv[i + 1] = swirl
                if on_u and i <= 0:
                    if i:
                        open_u = True
                    else:
                        tu[j] = swirl
        if radial:
            if i < 0 or j < -1:
                negative_dv.append((i, j + 1))
            else:
                if not i and on_u:
                    ru[j + 1] = radial
                if on_v and j <= 0:
                    if j:
                        open_v = True
                    else:
                        tv[i] = radial
    negative = negative_du + negative_dv
    if negative:
        i, j = negative[0]
        raise InternalConsistencyError(
            f"negative exponent ({i},{j}) in {where}")
    for branch, is_open in (("v=0", open_v), ("u=0", open_u)):
        if is_open:
            raise InternalConsistencyError(
                f"{label}: divisor branch {branch} is not invariant")
    terms = {}
    if on_v:
        terms["v=0"] = rv, tv
    if on_u:
        terms["u=0"] = ru, tu
    return terms, den * abs(det)


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
    pullback = (f.numerators, f.den, forward, signs, (0, delta - 1))
    terms, scale = _divisor_pass(*pullback, "v", direction,
                                 f"{direction} chart")
    return ChartField(direction, scale, "v", {"v": delta - 1}, terms,
                      pullback, weight=w, delta=delta)


# ---------------------------------------------------------------------------
# fan charts


class LevelData(NamedTuple):
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
    pullback = (f.numerators, f.den, cmap.forward, (1, 1), (eu, ev))
    label = f"fan:{cmap.index}"
    terms, scale = _divisor_pass(*pullback, cmap.divisor, label,
                                 f"fan chart {cmap.index}")
    return ChartField(label, scale, cmap.divisor, {"u": eu, "v": ev},
                      terms, pullback, chart=cmap)


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
