"""Exact polynomial arithmetic over the rationals.

At the boundary, univariate polynomials are tuples of ``Fraction``
coefficients in ascending degree order with no trailing zeros (the zero
polynomial is the empty tuple), and bivariate polynomials are dicts mapping
``(i, j)`` exponent pairs to nonzero ``Fraction`` values.  Inside, roots,
gcds and the curve check run on integers: a polynomial is replaced once by
an integer multiple of itself, a bivariate one by rows of integer
polynomials in x indexed by the degree in y.

The real-root machinery (Sturm chains, isolation, refinement, sign queries)
is exact; floating point values are derived afterwards for reporting only.
The roots of u^k h with h of degree at most 2 and rational roots, the
divisor restriction on most short faces, are read in closed form before
any remainder sequence, and the output cannot depend on the path (see
:func:`real_roots`).  Signs are evaluated by homogeneous Horner, and gcds,
univariate and bivariate, run as primitive integer pseudo-remainder
sequences.  A bivariate gcd that is a monomial is certified first, without
a remainder sequence: by one specialization per variable at a point where
the leading coefficient keeps its degree, exact and with no primes.  An
algebraic number is one :class:`RealRoot`: a squarefree defining polynomial
together with an isolating rational interval, its narrowest interval so far
and the signs decided at it.  The sign of a polynomial there is one Tarski
query, the sign variations of one signed remainder sequence at the two ends
of that interval, whatever the distance to the polynomial's own roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .fields import InternalConsistencyError

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# univariate basics


def up_deriv(f: Sequence) -> tuple:
    """The derivative of f, integer or rational, with no trailing zeros
    when f has none."""
    return tuple(i * c for i, c in enumerate(f) if i > 0)


def up_gcd(f, g) -> tuple[Fraction, ...]:
    """Monic greatest common divisor (gcd(0, g) = monic g)."""
    return _monic(_igcd(int_multiple(f), int_multiple(g)))


# ---------------------------------------------------------------------------
# integer kernels
#
# Signs are evaluated on integer polynomials only: every polynomial whose
# signs matter is replaced once by a primitive integer multiple of itself,
# positive when signs must be kept, and a point a/q (q > 0) is plugged in by
# homogeneous Horner, sum c_i a^i q^(n-i), which has the sign of f(a/q).


def int_multiple(f: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of f;
    integer coefficients are accepted as they are."""
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


def ival(f: Sequence[int], a: int, q: int) -> int:
    """q^n f(a/q) for the integer polynomial f of degree n: sum c_i a^i
    q^(n-i) by homogeneous Horner."""
    if not f:
        return 0
    acc, qk = f[-1], q
    for c in f[-2::-1]:
        acc = acc * a + c * qk
        qk *= q
    return acc


def _sign_at(f: Sequence[int], a: int, q: int) -> int:
    """Sign of the integer polynomial f at a/q, q > 0."""
    v = ival(f, a, q)
    return (v > 0) - (v < 0)


def _imul(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def _isub(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
    g = _igcd(f, up_deriv(f))
    q = _iquo(f, g)
    return q if q[-1] > 0 else tuple(-c for c in q)


def _isturm(f: Sequence[int],
            g: Sequence[int] = (1,)) -> list[tuple[int, ...]]:
    """Positive integer multiples of the signed remainder sequence of
    (f, f'g); for g = 1 it is the Sturm sequence of f."""
    if len(f) < 2:
        return [tuple(f)] if f else []
    chain = [tuple(f), _iprimitive(_imul(up_deriv(f), g))]
    while len(chain[-1]) > 1:
        r = _iprem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in _iprimitive(r)))
    return chain


def _variations(chains: Sequence, a: int, q: int) -> int:
    """Sign variations at a/q of integer Sturm sequences, summed."""
    v = 0
    for chain in chains:
        last = 0
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


def count_real_roots(f) -> int:
    g = _isquarefree(int_multiple(f))
    if len(g) < 2:
        return 0
    chains = [_isturm(g)]
    bound = _root_bound(g)
    return _variations(chains, -bound, 1) - _variations(chains, bound, 1)


# ---------------------------------------------------------------------------
# real algebraic numbers


class RealRoot:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating rational interval [lo, hi].  For rational values lo == hi.

    An irrational root's interval is open at both ends: neither endpoint is a
    zero of ``poly``.  Such a root also keeps ``poly`` as a positive integer
    multiple, its narrowest isolating interval [a/q, b/q] so far with the
    sign of that polynomial at a/q, and the signs already decided at it.
    """

    __slots__ = ("poly", "lo", "hi", "_f", "_a", "_b", "_q", "_sa", "_signs")

    def __init__(self, poly: tuple[Fraction, ...], lo: Fraction,
                 hi: Fraction):
        self.poly, self.lo, self.hi = poly, lo, hi
        q = lcm(lo.denominator, hi.denominator)
        self._a = a = lo.numerator * (q // lo.denominator)
        self._b = hi.numerator * (q // hi.denominator)
        self._q = q
        # only an irrational root keeps a defining polynomial
        self._f = f = None if lo == hi else int_multiple(poly)
        self._sa = _sign_at(f, a, q) if f else 0
        self._signs: dict = {}

    @property
    def is_rational(self) -> bool:
        return self._f is None

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self._f is None else None

    def refine(self, width) -> "RealRoot":
        """Shrink the isolating interval below the requested width.

        Returns a root over the narrowest interval known so far when that
        is narrow enough, and otherwise bisects on from it.
        """
        f = self._f
        if f is None:
            return self
        width = Fraction(width)
        wn, wd = width.numerator, width.denominator
        a, b, q = self._a, self._b, self._q
        if (b - a) * wd > wn * q:
            sa = self._sa
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
            self._a, self._b, self._q = a, b, q
        return RealRoot(self.poly, Fraction(a, q), Fraction(b, q))

    def sign_of(self, g: Sequence[Fraction]) -> int:
        """Exact sign of g at this algebraic number, remembered per g."""
        key = tuple(g)
        s = self._signs.get(key)
        if s is None:
            s = self._signs[key] = self._sign_of(int_multiple(key))
        return s

    def _sign_of(self, g: tuple[int, ...]) -> int:
        """The Tarski query of g at the one root of f in (a/q, b/q): the
        drop in sign variations, from a/q to b/q, of the signed remainder
        sequence of (f, f'g) counts the roots of f there where g > 0 minus
        those where g < 0 (Basu, Pollack & Roy, Algorithms in Real
        Algebraic Geometry, 2006, section 2.2)."""
        if self._f is None:
            return _sign_at(g, self._a, self._q)
        chains = [_isturm(self._f, g)]
        return (_variations(chains, self._a, self._q)
                - _variations(chains, self._b, self._q))

    def equals(self, other: "RealRoot") -> bool:
        if self is other:
            return True
        if self.is_rational and other.is_rational:
            return self.lo == other.lo
        if self.is_rational != other.is_rational:
            # irrational RealRoots are built from polynomials with their
            # rational roots deflated away, so the two can never coincide
            rat, irr = (self, other) if self.is_rational else (other, self)
            return (irr.lo < rat.lo < irr.hi
                    and _sign_at(irr._f, rat._a, rat._q) == 0)
        lo = max(Fraction(self._a, self._q), Fraction(other._a, other._q))
        hi = min(Fraction(self._b, self._q), Fraction(other._b, other._q))
        if lo >= hi:
            return False
        h = _igcd(self._f, other._f)
        if len(h) < 2:
            return False
        # lo and hi are endpoints of isolating intervals, so not zeros of h,
        # and h has at most the one simple root common to both in between
        return (_sign_at(h, lo.numerator, lo.denominator)
                != _sign_at(h, hi.numerator, hi.denominator))

    def __lt__(self, other: "RealRoot") -> bool:
        if self is other or self.equals(other):
            return False
        a, b = self, other
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refine((a.hi - a.lo) / 4 if not a.is_rational else 1)
            b = b.refine((b.hi - b.lo) / 4 if not b.is_rational else 1)
        return a.hi < b.lo


def rational_root(value) -> RealRoot:
    v = Fraction(value)
    return RealRoot((-v, ONE), v, v)


def _isolate(*fs: Sequence[int]) -> list[tuple[int, int, int]]:
    """Ascending disjoint intervals (a/q, b/q], each holding one root of the
    product of the squarefree, pairwise coprime integer polynomials fs, by
    Sturm bisection of (-B, B] on the sum of the factors' root counts."""
    chains = [_isturm(f) for f in fs]
    bound = max(map(_root_bound, fs))
    out = []
    stack = [(-bound, bound, 1, _variations(chains, -bound, 1),
              _variations(chains, bound, 1))]
    while stack:
        a, b, q, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b, q))
        elif va - vb > 1:
            c, q = a + b, 2 * q
            vc = _variations(chains, c, q)
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


def _low_degree_roots(f: Sequence[int]) -> list[Fraction] | None:
    """The real roots of the integer polynomial f = u^k h, h(0) != 0, when
    h has degree at most 2 and its real roots are rational; None otherwise.
    0 is a root exactly when k > 0, and never one of h."""
    k = next((i for i, c in enumerate(f) if c), 0)
    h = f[k:]
    roots = [Fraction(0)] if k else []
    if len(h) == 2:
        roots.append(Fraction(-h[0], h[1]))
    elif len(h) == 3:
        c, b, a = h
        d = b * b - 4 * a * c
        if d > 0:
            r = isqrt(d)
            if r * r != d:
                return None
            roots += (Fraction(-b - r, 2 * a), Fraction(-b + r, 2 * a))
        elif d == 0:
            roots.append(Fraction(-b, 2 * a))
    elif len(h) > 3:
        return None
    return roots


def real_roots(f) -> list[RealRoot]:
    """All distinct real roots of f, ascending, as :class:`RealRoot`.

    A polynomial u^k h with h of degree at most 2 and rational real roots,
    the divisor restriction of most charts, is answered in closed form
    (:func:`_low_degree_roots`).  The bytes a report prints cannot depend
    on which path ran: a rational root is ``rational_root(v)`` either way,
    and irrational roots, whose printed intervals come from bisection,
    never take the closed form.  Otherwise the squarefree part is isolated
    by Sturm bisection on integer coefficients; each root is then decided
    rational or not (see :func:`_settle`), and the rational ones are
    deflated, so every irrational root carries a defining polynomial with
    no rational roots at all.
    """
    f = int_multiple(f)
    roots = _low_degree_roots(f)
    if roots is not None:
        return [rational_root(v) for v in sorted(roots)]
    g = _isquarefree(f)
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
            out.append(RealRoot(poly, Fraction(a, q), Fraction(b, q)))
    return out


# ---------------------------------------------------------------------------
# bivariate polynomials: dict[(i, j)] -> Fraction


def bp_strip_monomial(f: dict) -> tuple[dict, int, int]:
    """Factor out the largest monomial x^i y^j dividing f."""
    if not f:
        return {}, 0, 0
    i0 = min(i for i, _ in f)
    j0 = min(j for _, j in f)
    return {(i - i0, j - j0): c for (i, j), c in f.items()}, i0, j0


# Inside, a bivariate polynomial is a list of rows indexed by the degree in
# y, each an integer polynomial in x, the top row nonzero.


def _rows(f: dict) -> list[tuple[int, ...]]:
    """The nonzero f as rows, times the lcm of its denominators."""
    den = lcm(*(c.denominator for c in f.values()))
    rows: list[list[int]] = [[] for _ in range(max(j for _, j in f) + 1)]
    for (i, j), c in f.items():
        r = rows[j]
        if len(r) <= i:
            r.extend([0] * (i + 1 - len(r)))
        r[i] = c.numerator * (den // c.denominator)
    return [tuple(r) for r in rows]


def _content(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The primitive gcd of the rows, with a positive leading coefficient."""
    g: tuple[int, ...] = ()
    for r in rows:
        g = _igcd(g, r)
        if len(g) == 1:
            break
    return g


def _primitive_rows(rows: Sequence[Sequence[int]], cont: Sequence[int]) -> list:
    """The rows divided by their content ``cont`` and by the integer gcd
    left over."""
    if len(cont) > 1:
        rows = [_iquo(r, cont) for r in rows]
    g = gcd(*(c for r in rows for c in r))
    return [tuple(c // g for c in r) for r in rows] if g > 1 else list(rows)


def _prem_rows(f: Sequence[Sequence[int]], g: Sequence[Sequence[int]]) -> list:
    """Pseudo-remainder of f by g in y: lead(g)^k f minus a multiple of g,
    of y-degree below g's."""
    dg = len(g) - 1
    lead = g[-1]
    f = list(f)
    while len(f) > dg:
        shift, flead = len(f) - 1 - dg, f[-1]
        f = [_imul(r, lead) for r in f]
        for k in range(dg):
            f[shift + k] = _isub(f[shift + k], _imul(flead, g[k]))
        f.pop()  # lead * flead - flead * lead
        while f and not f[-1]:
            f.pop()
    return f


def _split_monomial(rows: Sequence[Sequence[int]]) -> tuple[list, int, int]:
    """The nonzero rows divided by their largest monomial x^i y^j, and
    (i, j)."""
    j = next(k for k, r in enumerate(rows) if r)
    i = min(next(k for k, c in enumerate(r) if c) for r in rows if r)
    return [r[i:] for r in rows[j:]], i, j


def _columns(f: dict) -> list[tuple[int, ...]]:
    """The rows of f(y, x) without its monomial factor."""
    return _split_monomial(_rows({(j, i): c for (i, j), c in f.items()}))[0]


def _coprime_in_y(f: Sequence[Sequence[int]],
                  g: Sequence[Sequence[int]]) -> bool:
    """Whether one exact specialization certifies that gcd(f, g) is free
    of y; False certifies nothing.  At the smallest positive integer x0
    where f's leading coefficient in y is nonzero, so is the gcd's, which
    divides it: the gcd keeps its y-degree at x0, where it divides the gcd
    of f(x0, y) and g(x0, y) (of f(x0, y) alone where g(x0, y) = 0)."""
    x0 = 1
    while not ival(f[-1], x0, 1):
        x0 += 1
    fx = [ival(r, x0, 1) for r in f]
    gx = [ival(r, x0, 1) for r in g]
    while gx and not gx[-1]:
        gx.pop()
    return len(_igcd(_iprimitive(fx), _iprimitive(gx))) == 1


def bp_gcd(F: dict, G: dict) -> dict:
    """GCD over Q[x, y], normalized to leading coefficient 1 in (j, i)-lex
    order; gcd(0, G) is G itself.

    When the inputs without their monomial factors are certified coprime,
    by one exact specialization per variable (:func:`_coprime_in_y`, the
    degree bound behind modular gcds; Brown 1971), the gcd is the shared
    monomial.  Otherwise it is the gcd of the x-contents times the gcd of
    the primitive parts, the latter by a primitive pseudo-remainder
    sequence in y over Z[x].
    """
    if not F:
        return dict(G)
    if not G:
        return dict(F)
    fr, gr = _rows(F), _rows(G)
    (fs, fi, fj), (gs, gi, gj) = _split_monomial(fr), _split_monomial(gr)
    if _coprime_in_y(fs, gs) and _coprime_in_y(_columns(F), _columns(G)):
        return {(min(fi, gi), min(fj, gj)): ONE}
    cf, cg = _content(fr), _content(gr)
    a, b = _primitive_rows(fr, cf), _primitive_rows(gr, cg)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem_rows(a, b)
        a, b = b, _primitive_rows(r, _content(r))
    # a y-free primitive b is a constant
    h = [(1,)] if b else a
    cont = _igcd(cf, cg)
    rows = [_imul(r, cont) for r in h]
    lc = rows[-1][-1]
    return {(i, j): Fraction(c, lc)
            for j, r in enumerate(rows) for i, c in enumerate(r) if c}


def has_real_branch(g: dict) -> bool:
    """Does the real zero set of g(x, y) have a branch, a one-dimensional
    piece, off the coordinate axes?  Isolated real points do not count.

    Both answers are exact.  A real root c != 0 of the x-content is a
    vertical line.  The rest is a one-level cylindrical algebraic
    decomposition (Collins 1975): off the real roots of B, x times the
    leading coefficients in y of the primitive remainder sequence of
    (g, g_y) over Z[x], each taken before its content goes, the sequence
    specializes.  So between consecutive roots of B the fibre g(x0, y)
    keeps its degree and number of distinct real roots, and a branch
    exists iff the fibre at some rational sample has a real root; it is
    not in y = 0, which does not divide g.
    """
    g, _, _ = bp_strip_monomial(g)
    if not g or all(k == (0, 0) for k in g):
        return False  # a monomial or a nonzero constant: zero set in the axes
    rows = _rows(g)
    if count_real_roots(_content(rows)):
        return True
    # B as coprime squarefree factors, far cheaper to isolate together than
    # by one Sturm chain of their product
    factors, boundary = [(0, 1)], (0, 1)
    a, b = rows, [tuple(j * c for c in r) for j, r in enumerate(rows)][1:]
    while b:
        lc = _isquarefree(b[-1])
        new = _iquo(lc, _igcd(lc, boundary))
        if len(new) > 1:
            factors.append(new)
            boundary = _imul(boundary, new)
        b = _primitive_rows(b, _content(b))
        a, b = b, _prem_rows(a, b)
    # one sample per interval: the root bound for the last, and each
    # isolating interval's left end, moved right off a root it sits on
    samples = [(_root_bound(boundary), 1)]
    for lo, hi, q in _isolate(*factors):
        if not _sign_at(boundary, lo, q):
            # between the root lo and the one root in (lo, hi], B has the
            # sign of B'(lo)
            side = _sign_at(up_deriv(boundary), lo, q)
            while _sign_at(boundary, lo + hi, 2 * q) != side:
                lo, hi, q = 2 * lo, lo + hi, 2 * q
            lo, q = lo + hi, 2 * q
        samples.append((lo, q))
    top = max(map(len, rows))
    return any(count_real_roots([ival(r, x, q) * q ** (top - len(r))
                                 for r in rows])
               for x, q in samples)


# ---------------------------------------------------------------------------
# lattice helpers


def primitive(v: tuple[int, int]) -> tuple[int, int]:
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive representative")
    g = gcd(x, y)
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
