"""Exact polynomial arithmetic over the rationals.

Univariate polynomials are tuples of ``Fraction`` coefficients in ascending
degree order with no trailing zeros; the zero polynomial is the empty tuple.
Bivariate polynomials are dicts mapping ``(i, j)`` exponent pairs to nonzero
``Fraction`` values.

The real-root machinery (Sturm chains, isolation, refinement, sign queries)
is exact; floating point values are derived afterwards for reporting only.
Algebraic numbers are represented by :class:`RealRoot`: a squarefree defining
polynomial together with an isolating rational interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .fields import InternalConsistencyError

Poly = "tuple[Fraction, ...]"

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# univariate basics


def up(coeffs: Iterable) -> tuple[Fraction, ...]:
    """Build a polynomial from ascending coefficients, trimming zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def up_degree(f: Sequence[Fraction]) -> int:
    return len(f) - 1


def up_is_zero(f: Sequence[Fraction]) -> bool:
    return len(f) == 0


def up_add(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(f), len(g))
    return up((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def up_neg(f: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-c for c in f)


def up_sub(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return up_add(f, up_neg(g))


def up_scale(f: Sequence[Fraction], c) -> tuple[Fraction, ...]:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(c * a for a in f)


def up_mul(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not f or not g:
        return ()
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return up(out)


def up_eval(f: Sequence[Fraction], x) -> Fraction:
    x = Fraction(x)
    acc = ZERO
    for c in reversed(f):
        acc = acc * x + c
    return acc


def up_deriv(f: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return up(i * c for i, c in enumerate(f) if i > 0)


def up_divmod(f: Sequence[Fraction], g: Sequence[Fraction]):
    """Exact division with remainder over the rationals."""
    if up_is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    q = [ZERO] * max(0, len(f) - len(g) + 1)
    dg = up_degree(g)
    lead = g[-1]
    for i in range(len(rem) - 1, dg - 1, -1):
        if rem[i] == 0:
            continue
        c = rem[i] / lead
        q[i - dg] = c
        for j, b in enumerate(g):
            rem[i - dg + j] -= c * b
    return up(q), up(rem)


def up_rem(f, g):
    return up_divmod(f, g)[1]


def up_monic(f: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if up_is_zero(f):
        return ()
    return up_scale(f, 1 / f[-1])


def up_gcd(f, g) -> tuple[Fraction, ...]:
    """Monic greatest common divisor (gcd(0, g) = monic g)."""
    a, b = up(f), up(g)
    while not up_is_zero(b):
        a, b = b, up_rem(a, b)
    return up_monic(a)


def up_squarefree(f) -> tuple[Fraction, ...]:
    """The squarefree part f / gcd(f, f')."""
    f = up(f)
    if up_degree(f) < 1:
        return up_monic(f)
    g = up_gcd(f, up_deriv(f))
    q, r = up_divmod(f, g)
    if not up_is_zero(r):
        raise InternalConsistencyError("gcd(f, f') does not divide f")
    return up_monic(q)


def up_from_roots(roots: Iterable) -> tuple[Fraction, ...]:
    out = (ONE,)
    for r in roots:
        out = up_mul(out, (-Fraction(r), ONE))
    return out


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def sturm_chain(f: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    chain = [up(f), up_deriv(f)]
    while not up_is_zero(chain[-1]) and up_degree(chain[-1]) > 0:
        chain.append(up_neg(up_rem(chain[-2], chain[-1])))
    if up_is_zero(chain[-1]):
        chain.pop()
    return chain


def _variations(signs: Iterable[int]) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_count(chain: Sequence[Sequence[Fraction]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    va = _variations(_sign(up_eval(p, a)) for p in chain)
    vb = _variations(_sign(up_eval(p, b)) for p in chain)
    return va - vb


def cauchy_bound(f: Sequence[Fraction]) -> Fraction:
    """A strict bound B with all real roots of f inside (-B, B)."""
    f = up(f)
    if up_degree(f) < 1:
        return ONE
    lead = abs(f[-1])
    m = max(abs(c) for c in f[:-1]) if len(f) > 1 else ZERO
    return 1 + m / lead


def count_real_roots(f) -> int:
    f = up_squarefree(f)
    if up_degree(f) < 1:
        return 0
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    return sturm_count(chain, -bound, bound)


# ---------------------------------------------------------------------------
# rational roots


def _rational_roots(f: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of f (without multiplicity), ascending."""
    f = up(f)
    if up_degree(f) < 1:
        return []
    # strip t^k
    k = 0
    while f[k] == 0:
        k += 1
    roots = [ZERO] if k > 0 else []
    g = f[k:]
    if up_degree(g) >= 1:
        den = 1
        for c in g:
            den = den * c.denominator // gcd(den, c.denominator)
        ig = [int(c * den) for c in g]
        c0, cl = abs(ig[0]), abs(ig[-1])
        for p in _divisors(c0):
            for q in _divisors(cl):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if up_eval(g, cand) == 0 and cand not in roots:
                        roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# real algebraic numbers


@dataclass(frozen=True)
class RealRoot:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating rational interval.  For rational values lo == hi."""

    poly: tuple[Fraction, ...]
    lo: Fraction
    hi: Fraction

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.is_rational else None

    def approx(self, width: Fraction = Fraction(1, 10**12)) -> float:
        r = self.refine(width)
        return float((r.lo + r.hi) / 2)

    def __float__(self) -> float:
        return self.approx()

    def refine(self, width) -> "RealRoot":
        """Shrink the isolating interval below the requested width."""
        if self.is_rational:
            return self
        lo, hi = self.lo, self.hi
        f = self.poly
        slo = _sign(up_eval(f, lo))
        width = Fraction(width)
        while hi - lo > width:
            mid = (lo + hi) / 2
            smid = _sign(up_eval(f, mid))
            if smid == 0:
                return RealRoot(self.poly, mid, mid)
            if smid == slo:
                lo = mid
            else:
                hi = mid
        return RealRoot(self.poly, lo, hi)

    def sign_of(self, g: Sequence[Fraction]) -> int:
        """Exact sign of g at this algebraic number."""
        g = up(g)
        if up_is_zero(g):
            return 0
        if self.is_rational:
            return _sign(up_eval(g, self.lo))
        h = up_gcd(self.poly, g)
        if up_degree(h) >= 1:
            chain = sturm_chain(h)
            if sturm_count(chain, self.lo, self.hi) >= 1:
                # the root of h inside our interval must be this number,
                # because h divides the defining polynomial
                return 0
        lo, hi = self.lo, self.hi
        f = self.poly
        slo = _sign(up_eval(f, lo))
        gchain = sturm_chain(up_squarefree(g))
        for _ in range(20000):
            if up_eval(g, lo) != 0 and sturm_count(gchain, lo, hi) == 0:
                return _sign(up_eval(g, lo))
            mid = (lo + hi) / 2
            smid = _sign(up_eval(f, mid))
            if smid == 0:
                return _sign(up_eval(g, mid))
            if smid == slo:
                lo = mid
            else:
                hi = mid
        raise InternalConsistencyError("sign refinement did not converge")

    def equals(self, other: "RealRoot") -> bool:
        if self.is_rational and other.is_rational:
            return self.lo == other.lo
        if self.is_rational != other.is_rational:
            # irrational RealRoots are built from polynomials with their
            # rational roots deflated away, so the two can never coincide
            rat, irr = (self, other) if self.is_rational else (other, self)
            return up_eval(irr.poly, rat.lo) == 0 and irr.lo < rat.lo < irr.hi
        h = up_gcd(self.poly, other.poly)
        if up_degree(h) < 1:
            return False
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return False
        chain = sturm_chain(h)
        return sturm_count(chain, lo, hi) >= 1

    def __lt__(self, other: "RealRoot") -> bool:
        if self.equals(other):
            return False
        a, b = self, other
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refine((a.hi - a.lo) / 4 if not a.is_rational else 1)
            b = b.refine((b.hi - b.lo) / 4 if not b.is_rational else 1)
        return a.hi < b.lo


def rational_root(value) -> RealRoot:
    v = Fraction(value)
    return RealRoot((-v, ONE), v, v)


def real_roots(f) -> list[RealRoot]:
    """All distinct real roots of f, ascending, as :class:`RealRoot`.

    Rational roots are detected exactly and deflated; the remaining factor is
    isolated by Sturm bisection, so every irrational root carries a defining
    polynomial with no rational roots at all.
    """
    g = up_squarefree(f)
    if up_degree(g) < 1:
        return []
    rats = _rational_roots(g)
    for r in rats:
        g, rem = up_divmod(g, (-r, ONE))
        if not up_is_zero(rem):
            raise InternalConsistencyError(f"rational root {r} does not divide")
    roots = [rational_root(r) for r in rats]
    if up_degree(g) >= 1:
        chain = sturm_chain(g)
        bound = cauchy_bound(g)
        total = sturm_count(chain, -bound, bound)
        stack = [(-bound, bound, total)]
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                # shrink until the endpoints straddle the single simple root
                while _sign(up_eval(g, lo)) == _sign(up_eval(g, hi)):
                    mid = (lo + hi) / 2
                    if sturm_count(chain, lo, mid) == 1:
                        hi = mid
                    else:
                        lo = mid
                roots.append(RealRoot(g, lo, hi))
                continue
            mid = (lo + hi) / 2
            left = sturm_count(chain, lo, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, cnt - left))
    roots.sort(key=lambda r: (r.refine(Fraction(1, 2**40)).lo))
    return roots


# ---------------------------------------------------------------------------
# bivariate polynomials: dict[(i, j)] -> Fraction


def bp(entries) -> dict:
    out = {}
    for (i, j), c in dict(entries).items():
        c = Fraction(c)
        if c != 0:
            out[(int(i), int(j))] = c
    return out


def bp_scale(f: dict, c) -> dict:
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in f.items()}


def bp_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            k = (i1 + i2, j1 + j2)
            v = out.get(k, ZERO) + a * b
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
    return out


def bp_is_zero(f: dict) -> bool:
    return not f


def bp_strip_monomial(f: dict) -> tuple[dict, int, int]:
    """Factor out the largest monomial x^i y^j dividing f."""
    if not f:
        return {}, 0, 0
    i0 = min(i for i, _ in f)
    j0 = min(j for _, j in f)
    return {(i - i0, j - j0): c for (i, j), c in f.items()}, i0, j0


def _to_ylists(f: dict) -> list[tuple[Fraction, ...]]:
    """Bivariate dict -> list indexed by y-degree of polynomials in x."""
    if not f:
        return []
    dy = max(j for _, j in f)
    rows: list[list[Fraction]] = [[] for _ in range(dy + 1)]
    dx = max(i for i, _ in f)
    for r in rows:
        r.extend([ZERO] * (dx + 1))
    for (i, j), c in f.items():
        rows[j][i] = c
    return [up(r) for r in rows]


def _from_ylists(rows: Sequence[Sequence[Fraction]]) -> dict:
    out = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c != 0:
                out[(i, j)] = c
    return out


def _ylists_trim(rows: list) -> list:
    while rows and up_is_zero(rows[-1]):
        rows.pop()
    return rows


def _ylists_content(rows: Sequence) -> tuple[Fraction, ...]:
    g: tuple[Fraction, ...] = ()
    for r in rows:
        g = up_gcd(g, r)
    return g


def _ylists_primitive(rows: Sequence) -> list:
    cont = _ylists_content(rows)
    if up_degree(cont) < 1:
        return list(rows)
    out = []
    for r in rows:
        if up_is_zero(r):
            out.append(())
        else:
            q, rem = up_divmod(r, cont)
            if not up_is_zero(rem):
                raise InternalConsistencyError("content does not divide a row")
            out.append(q)
    return out


def _ylists_pseudo_rem(f: list, g: list) -> list:
    """Pseudo remainder of f by g in the main variable y."""
    f = [up(r) for r in f]
    g = [up(r) for r in g]
    df, dg = len(f) - 1, len(g) - 1
    lead = g[-1]
    while len(f) - 1 >= dg and f:
        d = len(f) - 1
        # multiply f by lead and subtract f_lead * y^(d-dg) * g
        flead = f[-1]
        f = [up_mul(r, lead) for r in f]
        for k in range(dg + 1):
            f[d - dg + k] = up_sub(f[d - dg + k], up_mul(flead, g[k]))
        f = _ylists_trim(f)
        if not f:
            break
    return f


def bp_gcd(F: dict, G: dict) -> dict:
    """GCD over Q[x, y] via a primitive polynomial remainder sequence."""
    if bp_is_zero(F):
        return dict(G)
    if bp_is_zero(G):
        return dict(F)
    fr = _ylists_trim(_to_ylists(F))
    gr = _ylists_trim(_to_ylists(G))
    contf = _ylists_content(fr)
    contg = _ylists_content(gr)
    cont = up_gcd(contf, contg)
    a = _ylists_primitive(fr)
    b = _ylists_primitive(gr)
    if len(a) - 1 < len(b) - 1:
        a, b = b, a
    while True:
        if len(b) == 0:
            h = a
            break
        if len(b) == 1:
            # gcd of primitive a and a y-free polynomial: content is 1,
            # so the primitive gcd divides the x-content only
            h = [up_gcd(_ylists_content(a), b[0])]
            break
        r = _ylists_pseudo_rem(a, b)
        a, b = b, _ylists_primitive(_ylists_trim(r))
    h = _ylists_primitive(_ylists_trim(h))
    if not h:
        h = [(ONE,)]
    out = _from_ylists(h)
    out = bp_mul(out, _from_ylists([cont]))
    # normalize sign/lead: make the leading coefficient (lex in (j, i)) positive
    if out:
        lead_key = max(out, key=lambda k: (k[1], k[0]))
        lc = out[lead_key]
        out = bp_scale(out, 1 / lc)
    return out


def _y_poly_at_x(f: dict, x: Fraction) -> tuple[Fraction, ...]:
    rows = _to_ylists(f)
    return up(up_eval(r, x) for r in rows)


def has_real_branch(g: dict) -> bool:
    """Does the curve g(x, y) = 0 have a real point off the coordinate axes?

    Exact decision procedure on the monomial-stripped polynomial: a *True*
    answer is always certified (vertical/horizontal line factors, odd degree
    in one variable, or a pigeonhole count of exact real roots above the
    degree bound on a rational sample grid).  A *False* answer can in
    principle miss compact ovals avoiding both sample grids; the grids are
    sized so that this does not occur for curves of the degrees produced
    here.
    """
    g, _, _ = bp_strip_monomial(g)
    if not g:
        return False  # g was a monomial: zero set inside the axes only
    if all(k == (0, 0) for k in g):
        return False  # nonzero constant
    rows = _ylists_trim(_to_ylists(g))
    dy = len(rows) - 1
    if dy == 0:
        # univariate in x: real nonzero root <-> vertical line branch
        return any(not r.is_rational or r.lo != 0 for r in real_roots(rows[0]))
    cont = _ylists_content(rows)
    if up_degree(cont) >= 1 and any(
        not r.is_rational or r.lo != 0 for r in real_roots(cont)
    ):
        return True  # vertical line x = c with c a real nonzero root
    if dy % 2 == 1:
        return True  # odd y-degree: a real y exists for all large x
    # pigeonhole sampling in x, then symmetrically in y
    for orient in (0, 1):
        f = g if orient == 0 else {(j, i): c for (i, j), c in g.items()}
        frows = _ylists_trim(_to_ylists(f))
        total_deg = max(i + j for i, j in f)
        need = total_deg * total_deg + 3
        lead = frows[-1]
        hits = 0
        seen = 0
        k = 1
        while seen < need and k < 8 * need:
            c = Fraction(k, 7)  # avoids most small-denominator root loci
            k += 1
            if up_eval(lead, c) == 0:
                continue
            seen += 1
            fy = _y_poly_at_x(f, c)
            for r in real_roots(fy):
                if not (r.is_rational and r.lo == 0):
                    hits += 1
                    break
            if hits > total_deg:
                # more sample lines carry a nonzero root than a curve of this
                # degree could meet in isolated points: a 1-dim branch exists
                return True
    return False


# ---------------------------------------------------------------------------
# lattice helpers


def ivec_gcd(a: int, b: int) -> int:
    return gcd(abs(a), abs(b))


def primitive(v: tuple[int, int]) -> tuple[int, int]:
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive representative")
    g = ivec_gcd(x, y)
    return (x // g, y // g)


def det2(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
