"""Slow brute-force reference implementations shared by test modules."""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd

from polyfield.fields import InternalConsistencyError, ParseError, PlanarField


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


def up_gcd(f, g):
    """The monic gcd of two polynomials with rational coefficients, by
    polyfield's primitive integer remainder sequence (gcd(0, g) = monic g)."""
    from polyfield import polys

    h = polys._igcd(polys.int_multiple(f), polys.int_multiple(g))
    return tuple(Fraction(c, h[-1]) for c in h)


def rational_root(value):
    """The rational number ``value`` as a ``polys.RealRoot``."""
    from polyfield import polys

    value = Fraction(value)
    return polys._rational(value.numerator, value.denominator)


def sturm_real_roots(f):
    """``polys.real_roots`` in two steps, each with its own remainder
    sequence: the squarefree part g of f by ``_isquarefree``, then Sturm
    bisection of g by ``_isolate`` with ``_settle`` and deflation, or the
    closed form where f or g is u^k times a linear or quadratic polynomial
    with rational roots.  Roots are built from Fractions, by
    ``RealRoot(poly, lo, hi)`` and ``rational_root``."""
    from polyfield import polys

    f = polys.int_multiple(f)
    g = polys._isquarefree(f) if len(f) > 1 else f
    for p in (f, g):
        closed = polys._low_degree_roots(p)
        if closed is not None:
            return [rational_root(Fraction(n, d)) for n, d in closed]
    settled = [polys._settle(g, a, b, q) for a, b, q in polys._isolate(g)]
    h = g
    for v, *_ in settled:
        if v is not None:
            h = polys._iquo(h, (-v[0], v[1]))
    poly = tuple(Fraction(c, h[-1]) for c in h)
    return [rational_root(Fraction(*v)) if v is not None
            else polys.RealRoot(poly, Fraction(a, q), Fraction(b, q))
            for v, a, b, q in settled]


def up_eval(f, x):
    """f(x) for an ascending-coefficient polynomial, by Horner in Fraction."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _sign_at(f, a, q):
    """The sign of the integer polynomial f at a/q, q > 0: of the sum of
    c_i a^i q^(n-i), term by term."""
    n = len(f) - 1
    v = sum(c * a**i * q**(n - i) for i, c in enumerate(f))
    return (v > 0) - (v < 0)


def bisection_refine(f, a, b, q, sa, width):
    """``RealRoot.refine`` by bisection alone: [a/q, b/q] holds one root of
    the integer polynomial f, which has the sign sa at a/q, and is halved
    until it is at most ``width`` wide.  Returns (a, b, q) with b - a kept,
    or (c, c, q) when a midpoint c/q is the root.  Also returns the number
    of signs evaluated."""
    wn, wd = Fraction(width).numerator, Fraction(width).denominator
    steps = 0
    while (b - a) * wd > wn * q:
        c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        s = _sign_at(f, c, q)
        steps += 1
        if s == 0:
            return (c, c, q), steps
        if s == sa:
            a = c
        else:
            b = c
    return (a, b, q), steps


def bisection_settle(f, a, b, q):
    """``polys._settle`` by bisection alone: the one simple root of the
    primitive integer polynomial f in (a/q, b/q] as its value (p, s) in
    lowest terms when it is rational, else (None, a, b, q) with b - a kept
    and the interval narrower than 1/(2 lc^2), f nonzero at both ends."""
    sb = _sign_at(f, b, q)
    if sb == 0:
        return _pair(Fraction(b, q)), a, b, q
    sa = _sign_at(f, a, q)
    lc = abs(f[-1])
    limit = 2 * lc * lc
    while sa == 0 or (b - a) * limit >= q:
        c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        s = _sign_at(f, c, q)
        if s == 0:
            return _pair(Fraction(c, q)), a, b, q
        if s == sb:
            b = c
        else:
            a, sa = c, s
    cand = Fraction(a + b, 2 * q).limit_denominator(lc)
    p, s = cand.numerator, cand.denominator
    if a * s < p * q < b * s and _sign_at(f, p, s) == 0:
        return (p, s), a, b, q
    return None, a, b, q


def _pair(v):
    return v.numerator, v.denominator


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


def level_slice(comp, along, across, level):
    """The polynomial, in the ``along`` exponent, of the terms of ``comp``
    whose ``across`` exponent equals ``level``; ``comp`` has no zero
    values, so neither has its top coefficient."""
    coeffs = {k[along]: c for k, c in comp.items() if k[across] == level}
    return tuple(coeffs.get(e, 0) for e in range(max(coeffs, default=-1) + 1))


def reference_exponent_check(u_num, v_num, where):
    """Raise, as a chart pulled back in full does, for the first negative
    exponent among the du terms and then among the dv terms."""
    for (i, j) in list(u_num) + list(v_num):
        if i < 0 or j < 0:
            raise InternalConsistencyError(
                f"negative exponent ({i},{j}) in {where}")


def reference_branches(cf):
    """The divisor branches of the chart field ``cf`` sliced out of its
    full pullback ``cf.u_num``, ``cf.v_num``: on {v = 0} the restriction
    is the du terms at v-level 0 and the transverse polynomial the dv terms
    at v-level 1, on {u = 0} the roles mirror; a dv term at v-level 0 (a du
    term at u-level 0) leaves the branch not invariant."""
    from polyfield.charts import Branch
    from polyfield.polys import up_deriv

    def reading(f):
        c = gcd(*f)
        return tuple(x // c for x in f), c, cf.scale

    names = {"v": ("v=0",), "u": ("u=0",), "uv": ("v=0", "u=0")}
    out = {}
    for branch in names[cf.divisor]:
        if branch == "v=0":
            tangent, normal, along, across = cf.u_num, cf.v_num, 0, 1
        else:
            tangent, normal, along, across = cf.v_num, cf.u_num, 1, 0
        if any(k[across] == 0 for k in normal):
            raise InternalConsistencyError(
                f"{cf.label}: divisor branch {branch} is not invariant")
        restriction = level_slice(tangent, along, across, 0)
        derivative = up_deriv(restriction)
        transverse = level_slice(normal, along, across, 1)
        out[branch] = Branch(restriction, derivative, transverse,
                             reading(derivative), reading(transverse))
    return out


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


# The verdict report as dicts, built field by field: what
# ``json.dumps(indent=2, sort_keys=True)`` of these prints is what the CLI's
# renderers in ``polyfield.analysis`` must print.


def eigenvalue_json(e):
    return {
        "sign": e.sign,
        "approx": e.approx,
        "exact": None if e.exact is None else str(e.exact),
    }


def realroot_json(r):
    from polyfield.analysis import approximate

    return {
        "poly": [str(c) for c in r.poly],
        "interval": [str(r.lo), str(r.hi)],
        "approx": approximate(r),
    }


def record_json(r):
    return {
        "chart": r.chart,
        "branch": r.branch,
        "position": None if r.position is None else realroot_json(r.position),
        "classification": r.classification,
        "tangent": None if r.tangent is None else eigenvalue_json(r.tangent),
        "transverse": (None if r.transverse is None
                       else eigenvalue_json(r.transverse)),
        "characteristic_orbit": r.characteristic_orbit,
    }


def witness_json(w):
    return {
        "segment_normal": list(w.segment_normal),
        "quadrant": list(w.quadrant),
        "parameter": realroot_json(w.parameter),
        "point": [w.point[0], w.point[1]],
        "point_exact": None if w.point_exact is None else
        [str(w.point_exact[0]), str(w.point_exact[1])],
    }


def field_text(f):
    """``format_field``'s text, written from the Fraction coefficients."""
    from polyfield.fields import format_poly

    P, Q = (format_poly(comp, ("x", "y")) for comp in f.components())
    return f"dx = {P}; dy = {Q}"


def inventory_json(inv):
    """An inventory as the verdict report writes it."""
    return {chart: [record_json(r) for r in recs]
            for chart, recs in sorted(inv.items())}


def report_json(rep):
    """An :class:`EquivalenceReport` as the CLI prints it."""
    from polyfield.fields import format_field

    inv = inventory_json(rep.inventory)
    return {
        "verdict": rep.verdict,
        "reasons": list(rep.reasons),
        "hypotheses": dict(rep.hypotheses),
        "shear": str(rep.shear),
        "field_after_shear": format_field(rep.field_after_shear),
        "weight": None if rep.weight is None else list(rep.weight.as_tuple()),
        "inventory": {"field": inv, "principal_part": inv},
        # each record, as the field and its upper principal part both
        # carry it, chart by chart and stably sorted by branch
        "match_table": [
            {"chart": chart, "branch": r["branch"],
             "position": r["position"] and r["position"]["approx"],
             "field": r["classification"],
             "principal_part": r["classification"], "matched": True}
            for chart in rep.inventory
            for r in sorted(inv[chart], key=lambda rec: rec["branch"])],
        "witnesses": [witness_json(w) for w in rep.witnesses],
    }


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


# The parser as it was written on Fractions: each term's coefficient a
# Fraction, summed per monomial.  ``polyfield.fields`` keeps integers.


_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(\S))")


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        start = m.start(m.lastindex)
        if m.group(1):
            tokens.append(("num", m.group(1), start))
        elif m.group(2):
            tokens.append(("name", m.group(2), start))
        else:
            ch = m.group(3)
            if ch not in "=;+-*/^":
                raise ParseError(f"unexpected character {ch!r}", start)
            tokens.append((ch, ch, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _reference_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    def parse_field(self) -> PlanarField:
        self._expect_name("dx")
        self.expect("=", "'='")
        P = self.parse_poly()
        self.expect(";", "';'")
        self._expect_name("dy")
        self.expect("=", "'='")
        Q = self.parse_poly()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return PlanarField.from_components(P, Q)

    def _expect_name(self, name: str):
        tok = self.advance()
        if tok[0] != "name" or tok[1] != name:
            raise ParseError(f"expected '{name}', found {tok[1]!r}", tok[2])

    def parse_poly(self) -> dict:
        out: dict = {}
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        self._accumulate(out, sign)
        while True:
            tok = self.peek()
            if tok[0] in "+-":
                self.advance()
                self._accumulate(out, -1 if tok[0] == "-" else 1)
            else:
                break
        return {k: v for k, v in out.items() if v != 0}

    def _accumulate(self, out: dict, sign: int):
        coeff, (i, j) = self.parse_term()
        key = (i, j)
        out[key] = out.get(key, Fraction(0)) + sign * coeff

    def parse_term(self) -> tuple[Fraction, tuple[int, int]]:
        tok = self.peek()
        coeff = Fraction(1)
        have_any = False
        if tok[0] == "num":
            self.advance()
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("num", "a denominator")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            have_any = True
        i = j = 0
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.advance()
                tok = self.peek()
                if tok[0] != "name":
                    raise ParseError(f"expected a variable after '*', found {tok[1]!r}", tok[2])
            if tok[0] != "name":
                break
            self.advance()
            letters = tok[1]
            if letters in ("dx", "dy"):
                raise ParseError(f"unexpected keyword '{letters}' inside a polynomial", tok[2])
            if any(ch not in "xy" for ch in letters):
                raise ParseError(f"unknown variable {letters!r}", tok[2])
            for k, ch in enumerate(letters):
                exp = 1
                if k == len(letters) - 1 and self.peek()[0] == "^":
                    self.advance()
                    exp_tok = self.expect("num", "an exponent")
                    exp = int(exp_tok[1])
                if ch == "x":
                    i += exp
                else:
                    j += exp
            have_any = True
        if not have_any:
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
        return coeff, (i, j)


def reference_parse_field(text):
    """``parse_field`` as the Fraction parser above reads ``text``."""
    return _ReferenceParser(text).parse_field()
