"""Exact polynomial arithmetic over the rationals.

Univariate polynomials are tuples of ``Fraction`` coefficients in ascending
degree order with no trailing zeros; the zero polynomial is the empty tuple.
Bivariate polynomials are dicts mapping ``(i, j)`` exponent pairs to nonzero
``Fraction`` values.

The real-root machinery (Sturm chains, isolation, refinement, sign queries)
is exact; floating point values are derived afterwards for reporting only.
It evaluates signs on integer polynomials only, and gcds run as primitive
integer remainder sequences.  Algebraic numbers are represented by
:class:`RealRoot`: a squarefree defining polynomial together with an
isolating rational interval; each remembers its narrowest interval and the
signs decided at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

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


def up_gcd(f, g) -> tuple[Fraction, ...]:
    """Monic greatest common divisor (gcd(0, g) = monic g)."""
    return _monic(_igcd(_int_multiple(f), _int_multiple(g)))


def up_squarefree(f) -> tuple[Fraction, ...]:
    """The squarefree part f / gcd(f, f')."""
    return _monic(_isquarefree(_int_multiple(f)))


def up_from_roots(roots: Iterable) -> tuple[Fraction, ...]:
    out = (ONE,)
    for r in roots:
        out = up_mul(out, (-Fraction(r), ONE))
    return out


# ---------------------------------------------------------------------------
# integer kernels
#
# Signs are evaluated on integer polynomials only: every polynomial whose
# signs matter is replaced once by a primitive integer multiple of itself,
# positive when signs must be kept, and a point a/q (q > 0) is plugged in by
# homogeneous Horner, sum c_i a^i q^(n-i), which has the sign of f(a/q).


def _int_multiple(f: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of f."""
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    if not n:
        return ()
    den = lcm(*(c.denominator for c in f[:n]))
    ints = [c.numerator * (den // c.denominator) for c in f[:n]]
    g = gcd(*ints)
    return tuple(c // g for c in ints) if g != 1 else tuple(ints)


def _iprimitive(f: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*f) if f else 1
    return tuple(c // g for c in f) if g > 1 else tuple(f)


def _monic(f: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, f[-1]) for c in f) if f else ()


def _sign_at(f: Sequence[int], a: int, q: int) -> int:
    """Sign of the integer polynomial f at a/q, q > 0."""
    if not f:
        return 0
    acc, qk = f[-1], q
    for c in f[-2::-1]:
        acc = acc * a + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _ideriv(f: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(f) if i > 0)


def _iprem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """A positive integer multiple of the remainder of f by g."""
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    while len(r) > dg:
        c = r[-1]
        d = gcd(c, lead)
        m, k = abs(lead) // d, c // d if lead > 0 else -(c // d)
        shift = len(r) - 1 - dg
        if m != 1:
            r = [m * x for x in r]
        for j in range(dg):
            r[shift + j] -= k * g[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _iquo(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """The exact quotient f / g of integer polynomials."""
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c, rest = divmod(r[i], lead)
        if rest:
            raise InternalConsistencyError("inexact polynomial division")
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] -= c * g[j]
    if any(r[:dg]):
        raise InternalConsistencyError("inexact polynomial division")
    return tuple(q)


def _igcd(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd with a positive leading coefficient, by a primitive
    pseudo-remainder sequence (Collins)."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        a, b = b, _iprimitive(_iprem(a, b))
    a = _iprimitive(a)
    return a if not a or a[-1] > 0 else tuple(-c for c in a)


def _isquarefree(f: Sequence[int]) -> tuple[int, ...]:
    """Primitive squarefree part with a positive leading coefficient."""
    if len(f) < 2:
        return (1,) if f else ()
    g = _igcd(f, _ideriv(f))
    q = _iquo(f, g)
    return q if q[-1] > 0 else tuple(-c for c in q)


def _isturm(f: Sequence[int]) -> list[tuple[int, ...]]:
    """Positive integer multiples of the Sturm sequence of f."""
    if len(f) < 2:
        return [tuple(f)] if f else []
    chain = [tuple(f), _iprimitive(_ideriv(f))]
    while len(chain[-1]) > 1:
        r = _iprem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in _iprimitive(r)))
    return chain


def _variations(chain: Sequence[Sequence[int]], a: int, q: int) -> int:
    """Sign variations of a Sturm sequence at a/q."""
    v = last = 0
    for p in chain:
        s = _sign_at(p, a, q)
        if s:
            if s != last and last:
                v += 1
            last = s
    return v


def _root_bound(f: Sequence[int]) -> int:
    """A power of two B with every real root of f inside (-B, B)."""
    m = max(abs(c) for c in f[:-1])
    return 1 << (m // abs(f[-1]) + 1).bit_length()


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def sturm_chain(f: Sequence[Fraction]) -> list[tuple[int, ...]]:
    """The Sturm sequence of f, each member scaled to a primitive integer
    polynomial by a positive factor (which keeps every sign)."""
    return _isturm(_int_multiple(f))


def sturm_count(chain: Sequence[Sequence[int]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    a, b = Fraction(a), Fraction(b)
    return (_variations(chain, a.numerator, a.denominator)
            - _variations(chain, b.numerator, b.denominator))


def cauchy_bound(f: Sequence[Fraction]) -> Fraction:
    """A strict bound B with all real roots of f inside (-B, B)."""
    f = up(f)
    if up_degree(f) < 1:
        return ONE
    lead = abs(f[-1])
    m = max(abs(c) for c in f[:-1]) if len(f) > 1 else ZERO
    return 1 + m / lead


def count_real_roots(f) -> int:
    g = _isquarefree(_int_multiple(f))
    if len(g) < 2:
        return 0
    chain = _isturm(g)
    bound = _root_bound(g)
    return _variations(chain, -bound, 1) - _variations(chain, bound, 1)


# ---------------------------------------------------------------------------
# real algebraic numbers


class _RootMemo:
    """What one real algebraic number has learned about itself: its
    defining polynomial as a positive integer multiple, its narrowest
    isolating interval [a/q, b/q] with the sign ``sa`` of that polynomial at
    a/q, the signs already decided at it, and ``root``, the
    :class:`RealRoot` for the narrowest interval."""

    __slots__ = ("ipoly", "a", "b", "q", "sa", "signs", "root")

    def __init__(self, ipoly, a: int, b: int, q: int, sa: int):
        self.ipoly = ipoly
        self.a, self.b, self.q, self.sa = a, b, q, sa
        self.signs: dict = {}
        self.root = None

    def narrow(self, a: int, b: int, q: int) -> None:
        self.a, self.b, self.q = a, b, q
        self.root = None


@dataclass(frozen=True)
class RealRoot:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating rational interval.  For rational values lo == hi.

    An irrational root's interval is open at both ends: neither endpoint is a
    zero of ``poly``.  Roots that share ``memo`` stand for the same number;
    refinements and sign queries are kept there and reused.
    """

    poly: tuple[Fraction, ...]
    lo: Fraction
    hi: Fraction
    memo: Optional[_RootMemo] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m = self.memo
        if m is None:
            q = lcm(self.lo.denominator, self.hi.denominator)
            a = self.lo.numerator * (q // self.lo.denominator)
            b = self.hi.numerator * (q // self.hi.denominator)
            ip = _int_multiple(self.poly) if a != b else None
            m = _RootMemo(ip, a, b, q, _sign_at(ip, a, q) if ip else 0)
            object.__setattr__(self, "memo", m)
        if m.root is None:
            m.root = self

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
        """Shrink the isolating interval below the requested width.

        Returns the narrowest interval known so far when it is narrow
        enough, and otherwise bisects on from it.
        """
        if self.is_rational:
            return self
        m = self.memo
        width = Fraction(width)
        wn, wd = width.numerator, width.denominator
        a, b, q = m.a, m.b, m.q
        if (b - a) * wd > wn * q:
            f, sa = m.ipoly, m.sa
            while (b - a) * wd > wn * q:
                c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
                s = _sign_at(f, c, q)
                if s == 0:
                    mid = Fraction(c, q)
                    return RealRoot(self.poly, mid, mid)
                if s == sa:
                    a = c
                else:
                    b = c
            m.narrow(a, b, q)
        return self._narrowest()

    def _narrowest(self) -> "RealRoot":
        m = self.memo
        if m.root is None:
            RealRoot(self.poly, Fraction(m.a, m.q), Fraction(m.b, m.q), m)
        return m.root

    def sign_of(self, g: Sequence[Fraction]) -> int:
        """Exact sign of g at this algebraic number, remembered per g."""
        key = tuple(g)
        signs = self.memo.signs
        s = signs.get(key)
        if s is None:
            s = signs[key] = self._sign_of(_int_multiple(key))
        return s

    def _sign_of(self, g: tuple[int, ...]) -> int:
        m = self.memo
        if not g:
            return 0
        if self.is_rational:
            return _sign_at(g, m.a, m.q)
        f, a, b, q, sa = m.ipoly, m.a, m.b, m.q, m.sa
        h = _igcd(f, g)
        if len(h) > 1 and _sign_at(h, a, q) != _sign_at(h, b, q):
            # h divides the defining polynomial, so its one simple root in
            # the interval is this number
            return 0
        chain = None
        for _ in range(20000):
            sg = _sign_at(g, a, q)
            if sg and sg == _sign_at(g, b, q):
                if chain is None:
                    chain = _isturm(_isquarefree(g))
                if _variations(chain, a, q) == _variations(chain, b, q):
                    if q != m.q or a != m.a or b != m.b:
                        m.narrow(a, b, q)
                    return sg
            c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
            s = _sign_at(f, c, q)
            if s == 0:
                return _sign_at(g, c, q)
            if s == sa:
                a = c
            else:
                b = c
        raise InternalConsistencyError("sign refinement did not converge")

    def equals(self, other: "RealRoot") -> bool:
        if self is other or self.memo is other.memo:
            return True
        if self.is_rational and other.is_rational:
            return self.lo == other.lo
        if self.is_rational != other.is_rational:
            # irrational RealRoots are built from polynomials with their
            # rational roots deflated away, so the two can never coincide
            rat, irr = (self, other) if self.is_rational else (other, self)
            return up_eval(irr.poly, rat.lo) == 0 and irr.lo < rat.lo < irr.hi
        s, o = self._narrowest(), other._narrowest()
        lo, hi = max(s.lo, o.lo), min(s.hi, o.hi)
        if lo >= hi:
            return False
        h = _igcd(self.memo.ipoly, other.memo.ipoly)
        if len(h) < 2:
            return False
        # lo and hi are endpoints of isolating intervals, so not zeros of h,
        # and h has at most the one simple root common to both in between
        return (_sign_at(h, lo.numerator, lo.denominator)
                != _sign_at(h, hi.numerator, hi.denominator))

    def __lt__(self, other: "RealRoot") -> bool:
        if self is other or self.equals(other):
            return False
        a, b = self._narrowest(), other._narrowest()
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refine((a.hi - a.lo) / 4 if not a.is_rational else 1)
            b = b.refine((b.hi - b.lo) / 4 if not b.is_rational else 1)
        return a.hi < b.lo


def rational_root(value) -> RealRoot:
    v = Fraction(value)
    return RealRoot((-v, ONE), v, v)


def _isolate(f: Sequence[int]) -> list[tuple[int, int, int]]:
    """Ascending disjoint intervals (a/q, b/q], each holding one root of the
    squarefree integer polynomial f, by Sturm bisection of (-B, B]."""
    chain = _isturm(f)
    bound = _root_bound(f)
    out = []
    stack = [(-bound, bound, 1, _variations(chain, -bound, 1),
              _variations(chain, bound, 1))]
    while stack:
        a, b, q, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b, q))
        elif va - vb > 1:
            c, q = a + b, 2 * q
            vc = _variations(chain, c, q)
            stack.append((c, 2 * b, q, vc, vb))
            stack.append((2 * a, c, q, va, vc))
    return out


def _settle(f: Sequence[int], a: int, b: int, q: int):
    """Decide the one simple root of f in (a/q, b/q]: its exact value when it
    is rational, else an interval [a/q, b/q] narrower than 1/(2 lc^2) with f
    nonzero at both ends, returned as (None, a, b, q).

    A rational root p/s of a primitive integer f has s | lc, and two such
    fractions lie at least 1/lc^2 apart, so the fraction nearest the
    midpoint with denominator at most |lc| is the only candidate.
    """
    sb = _sign_at(f, b, q)
    if sb == 0:
        return Fraction(b, q), a, b, q
    sa = _sign_at(f, a, q)
    lc = abs(f[-1])
    limit = 2 * lc * lc
    # a may be the root of the interval to the left: bisect it away too
    while sa == 0 or (b - a) * limit >= q:
        c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        s = _sign_at(f, c, q)
        if s == 0:
            return Fraction(c, q), a, b, q
        if s == sb:
            b = c
        else:
            a, sa = c, s
    cand = Fraction(a + b, 2 * q).limit_denominator(lc)
    p, s = cand.numerator, cand.denominator
    if a * s < p * q < b * s and _sign_at(f, p, s) == 0:
        return cand, a, b, q
    return None, a, b, q


def real_roots(f) -> list[RealRoot]:
    """All distinct real roots of f, ascending, as :class:`RealRoot`.

    The squarefree part is isolated by Sturm bisection on integer
    coefficients; each root is then decided rational or not (see
    :func:`_settle`), and the rational ones are deflated, so every irrational
    root carries a defining polynomial with no rational roots at all.
    """
    g = _isquarefree(_int_multiple(f))
    if len(g) < 2:
        return []
    if len(g) == 2:
        return [rational_root(Fraction(-g[0], g[1]))]
    settled = [_settle(g, a, b, q) for a, b, q in _isolate(g)]
    h = g
    for v, *_ in settled:
        if v is not None:
            h = _iquo(h, (-v.numerator, v.denominator))
    poly = _monic(h)
    out = []
    for v, a, b, q in settled:
        if v is not None:
            out.append(rational_root(v))
        else:
            m = _RootMemo(h, a, b, q, _sign_at(h, a, q))
            out.append(RealRoot(poly, Fraction(a, q), Fraction(b, q), m))
    return out


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
