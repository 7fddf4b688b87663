"""Slow brute-force reference implementations shared by test modules."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd


def det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def bisection_roots(coeffs, bound, cells=4096, refine=90):
    """Float roots of an ascending-coefficient polynomial by sign-change
    bisection on a uniform grid over [-bound, bound].

    Sound only when every real root is simple and the roots are separated
    by more than one cell width; the caller must arrange that.
    """

    def ev(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    roots = []
    prev_x = -float(bound)
    prev_v = ev(prev_x)
    for i in range(1, cells + 1):
        x = -bound + 2.0 * bound * i / cells
        v = ev(x)
        if prev_v == 0.0:
            roots.append(prev_x)
        elif v != 0.0 and (prev_v < 0.0) != (v < 0.0):
            lo, hi, flo = prev_x, x, prev_v
            for _ in range(refine):
                mid = 0.5 * (lo + hi)
                fm = ev(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (flo < 0.0) != (fm < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
        prev_x, prev_v = x, v
    if ev(float(bound)) == 0.0:
        roots.append(float(bound))
    return roots


def shortest_unimodular_chain_length(a, b, bound=12):
    """Fewest insertions between a and b so all consecutive dets are 1.

    Breadth-first search over primitive vectors with entries in
    [-bound, bound] lying in the closed cone spanned by a and b.  Only
    meaningful for positively oriented pairs (det >= 1).  Returns None if
    no chain exists within the bound.
    """
    d = det(a, b)
    if d < 1:
        raise ValueError("chain search requires a positively oriented pair")
    if d == 1:
        return 0
    cone = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0)
        and gcd(abs(x), abs(y)) == 1
        and det(a, (x, y)) >= 0
        and det((x, y), b) >= 0
    ]
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return dist[cur] - 1
        for nxt in cone:
            if nxt not in dist and det(cur, nxt) == 1:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


@lru_cache(maxsize=None)
def reference_trig(alpha, beta, period):
    """scipy's own dense output of the (Cs, Sn) Cauchy problem, integrated
    with the arguments ``build_trig`` uses at its default tolerance.

    Returns the ``OdeSolution`` and a lookup that, like the table before its
    float pieces, reads it at ``theta % period`` through ``float()``.
    """
    from scipy.integrate import solve_ivp

    def rhs(_, y):
        cs, sn = y
        return [-(sn ** (2 * alpha - 1)), cs ** (2 * beta - 1)]

    def cs_zero(_, y):
        return y[0]

    def sn_zero(_, y):
        return y[1]

    dense = solve_ivp(rhs, (0.0, 1.5 * period), [1.0, 0.0], method="DOP853",
                      dense_output=True, rtol=1e-12, atol=1e-14,
                      events=[cs_zero, sn_zero]).sol

    def lookup(theta):
        cs, sn = dense(theta % period)
        return float(cs), float(sn)

    return dense, lookup


def eval_uv(comp, u, v):
    """Evaluate a u/v exponent dictionary at a point."""
    return sum(c * u ** i * v ** j for (i, j), c in comp.items())


def uv_support(cf):
    """Log-support of a directional or fan chart field.

    A u-component monomial u**i v**j du contributes (i-1, j); a
    v-component monomial contributes (i, j-1); this is the lattice image
    the compactification acts on.
    """
    pts = {(i - 1, j) for (i, j) in cf.u_comp}
    pts |= {(i, j - 1) for (i, j) in cf.v_comp}
    return pts


def cauchy_bound(f):
    """A strict bound B with all real roots of the ascending-coefficient
    polynomial f inside (-B, B)."""
    while f and f[-1] == 0:
        f = f[:-1]
    if len(f) < 2:
        return Fraction(1)
    return 1 + max(abs(Fraction(c)) for c in f[:-1]) / abs(Fraction(f[-1]))


def squarefree(f):
    """The monic squarefree part f / gcd(f, f') of an ascending-coefficient
    polynomial, computed by sympy."""
    import sympy

    t = sympy.Symbol("t")
    part = sympy.Poly(list(reversed([sympy.Rational(c) for c in f])), t).sqf_part()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(part.monic().all_coeffs()))


def up(coeffs):
    """A polynomial from ascending coefficients, in Fraction, with its
    trailing zeros trimmed."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def up_mul(f, g):
    """The product of two ascending-coefficient polynomials."""
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def up_from_roots(roots):
    """The monic polynomial with the given roots, as Fraction coefficients."""
    out = (Fraction(1),)
    for r in roots:
        out = up_mul(out, (-Fraction(r), Fraction(1)))
    return out


def bp(entries):
    """A bivariate polynomial dict with Fraction values, zeros dropped."""
    return {(int(i), int(j)): Fraction(c)
            for (i, j), c in dict(entries).items() if c != 0}


def bp_mul(f, g):
    """The product of two bivariate polynomial dicts."""
    out = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + a * b
    return {k: c for k, c in out.items() if c != 0}


def up_eval(f, x):
    """f(x) for an ascending-coefficient polynomial, by Horner in Fraction."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def reference_pullback(field, forward, signs, normalization):
    """``fields.monomial_pullback`` term by term in Fraction arithmetic,
    through the entries of the inverse chart matrix."""
    (f00, f01), (f10, f11) = forward
    det = f00 * f11 - f01 * f10
    i00, i01, i10, i11 = (Fraction(c, det) for c in (f11, -f01, -f10, f00))
    eu, ev = normalization
    u_comp, v_comp = {}, {}
    for (m, n), (a, b) in field.items():
        i = eu + f00 * m + f10 * n
        j = ev + f01 * m + f11 * n
        swirl = i00 * a + i01 * b
        radial = i10 * a + i11 * b
        if (signs[0] < 0 and m % 2 == 1) != (signs[1] < 0 and n % 2 == 1):
            swirl, radial = -swirl, -radial
        if swirl:
            u_comp[(i + 1, j)] = swirl
        if radial:
            v_comp[(i, j + 1)] = radial
    return u_comp, v_comp


def add(f, g):
    """The sum of two fields, in Fraction arithmetic."""
    from polyfield.fields import PlanarField

    out = f.terms()
    for p, (a, b) in g.items():
        c, d = out.get(p, (0, 0))
        out[p] = (a + c, b + d)
    return PlanarField(out)


def scaled(f, c):
    """The field f times the constant c."""
    from polyfield.fields import PlanarField

    c = Fraction(c)
    return PlanarField({p: (c * a, c * b) for p, (a, b) in f.items()})


def evaluate(field, x, y):
    """The Cartesian components (P(x, y), Q(x, y)) of a field, in Fraction."""
    x, y = Fraction(x), Fraction(y)
    P, Q = field.components()
    return (sum((c * x**i * y**j for (i, j), c in P.items()), Fraction(0)),
            sum((c * x**i * y**j for (i, j), c in Q.items()), Fraction(0)))


def _monomial_map(exps, a, b):
    (p, q), (r, s) = exps
    return a**p * b**q, a**r * b**s


def apply_forward(cmap, u, v):
    """The point (x, y) of the fan chart ``cmap`` at (u, v)."""
    return _monomial_map(cmap.forward, u, v)


def apply_inverse(cmap, x, y):
    """The fan chart coordinates (u, v) of the point (x, y)."""
    return _monomial_map(cmap.inverse, x, y)


def principal_part(a):
    """The upper principal part of ``a.field`` analysed on its own: a second
    ``Analysis`` of ``a.upper.field`` over ``a``'s weight and fan, which
    builds its own support minima, charts, branch polynomials and root
    table."""
    from polyfield.analysis import Analysis

    part = Analysis(a.upper.field, a.weight)
    part.fan = a.fan
    return part


def inventory_json(inv):
    """An inventory as the verdict report writes it."""
    return {chart: [r.to_json() for r in recs]
            for chart, recs in sorted(inv.items())}


def reference_period(alpha, beta):
    """The period of (Cs, Sn) as the time of four quarter-orbits, by mpmath
    quadrature along the conserved oval.

    From (1, 0) to the oval point with beta*Sn**(2*alpha) = alpha/2 the time
    is the integral of dSn / Cs**(2*beta-1), and from there to Cs = 0 the
    integral of dCs / Sn**(2*alpha-1); neither integrand is singular.
    """
    import mpmath

    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        sn_mid = (a / (2 * b)) ** (1 / (2 * a))
        cs_mid = mpmath.mpf(2) ** (-1 / (2 * b))
        along_sn = mpmath.quad(
            lambda s: (1 - b / a * s ** (2 * a)) ** ((1 - 2 * b) / (2 * b)),
            [0, sn_mid])
        along_cs = mpmath.quad(
            lambda c: (a / b * (1 - c ** (2 * b))) ** ((1 - 2 * a) / (2 * a)),
            [0, cs_mid])
        return float(4 * (along_sn + along_cs))


def linear_return_integrand(pf):
    """G(theta) = (r-linear radial coefficient) / (on-divisor angular speed)
    of a polar chart, as a function of (Cs, Sn); None when the radial
    component has no r-linear term."""
    theta0 = {(i, j): c for (i, j, k), c in pf.theta.items() if k == 0}
    r1 = {(i, j): c for (i, j, k), c in pf.r.items() if k == 1}
    if not r1:
        return None

    def g(cs: float, sn: float) -> float:
        num = sum(float(c) * cs**i * sn**j for (i, j), c in r1.items())
        den = sum(float(c) * cs**i * sn**j for (i, j), c in theta0.items())
        return num / den

    return g


def principal_return_integral(a):
    """The return-map integral of ``a``'s upper principal part in the polar
    chart: :func:`linear_return_integrand` over one period of the trig
    table, with the quadrature settings of ``return_map_test``."""
    from scipy.integrate import quad

    from polyfield.charts import polar_field
    from polyfield.trig import build_trig

    g = linear_return_integrand(polar_field(a.upper.field, a.weight))
    if g is None:
        return 0.0
    table = build_trig(a.weight)
    val, _ = quad(lambda th: g(*table.eval(th)), 0.0, table.period,
                  epsabs=1e-11, epsrel=1e-11, limit=200)
    return val
