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
any Sturm isolation: first on the polynomial itself, then on its squarefree
part, so that repeated factors, the restrictions at non-hyperbolic points,
take the closed form too.  The output cannot depend on the path (see
:func:`real_roots`).  Signs are evaluated by homogeneous Horner, and gcds,
univariate and bivariate, run as primitive integer pseudo-remainder
sequences, the one of (f, f') once per root isolation.  A bivariate gcd
that is a monomial is certified first, without a remainder sequence: by one
specialization per variable at a point where the leading coefficient keeps
its degree, exact and with no primes.  An algebraic number is one
:class:`RealRoot` of integers: a squarefree defining polynomial together
with an isolating rational interval, its narrowest interval so far and the
signs decided at it, built by one constructor from the integers that
isolation holds.  Quadratic interval refinement narrows it onto the cells
bisection would reach.  A polynomial's sign there is certified by its
value at the midpoint against a bound on its slope, or else is one Tarski
query, the sign variations of one signed remainder sequence at the two
ends, whatever the distance to the polynomial's own roots.
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
    return tuple([i * f[i] for i in range(1, len(f))])


# ---------------------------------------------------------------------------
# integer kernels
#
# Signs are evaluated on integer polynomials only: every polynomial whose
# signs matter is replaced once by a primitive integer multiple of itself,
# positive when signs must be kept, and a point a/q (q > 0) is plugged in by
# homogeneous Horner, sum c_i a^i q^(n-i), which has the sign of f(a/q).


def int_multiple(f: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of f;
    integer coefficients skip the pass over denominators."""
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    f = f[:n]
    try:
        g = gcd(*f)
    except TypeError:  # a Fraction coefficient
        den = lcm(*(c.denominator for c in f))
        f = [c.numerator * (den // c.denominator) for c in f]
        g = gcd(*f)
    return tuple(c // g for c in f) if g > 1 else tuple(f)


def _iprimitive(f: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*f) if f else 1
    return tuple(c // g for c in f) if g > 1 else tuple(f)


def _positive(f: Sequence[int]) -> tuple[int, ...]:
    """f or -f, whichever has a positive leading coefficient."""
    return tuple(f) if not f or f[-1] > 0 else tuple(-c for c in f)


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
    return _positive(_iprimitive(a))


def _isquarefree(f: Sequence[int]) -> tuple[int, ...]:
    """Primitive squarefree part with a positive leading coefficient."""
    if len(f) < 2:
        return (1,) if f else ()
    return _positive(_iquo(f, _igcd(f, up_deriv(f))))


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


def _certified_sign(g: Sequence[int], a: int, b: int, q: int) -> int:
    """The sign of g on all of [a/q, b/q] when g's value at the midpoint
    exceeds (b - a)/(2q) times a bound on |g'| there, sum k |g_k| M^(k-1)
    with M = max(|a|, |b|)/q; else 0, undecided.  Scaled by (2q)^deg g,
    the test runs on integers."""
    v = ival(g, a + b, 2 * q)
    slope = ival(tuple(map(abs, up_deriv(g))), max(-a, b), q)
    return ((v > 0) - (v < 0)
            if v and 2 * abs(v) > (b - a) * slope << len(g) - 1 else 0)


def _root_bound(f: Sequence[int]) -> int:
    """A power of two B with every real root of f inside (-B, B)."""
    m = max(abs(c) for c in f[:-1])
    return 1 << (m // abs(f[-1]) + 1).bit_length()


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def count_real_roots(f) -> int:
    """The number of distinct real roots of f, from its Sturm chain at a
    root bound and its negative; Sturm's theorem needs no squarefree f
    (Basu, Pollack & Roy, 2006, theorem 2.50)."""
    f = int_multiple(f)
    if len(f) < 2:
        return 0
    chains = [_isturm(f)]
    bound = _root_bound(f)
    return _variations(chains, -bound, 1) - _variations(chains, bound, 1)


# ---------------------------------------------------------------------------
# real algebraic numbers


class RealRoot:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating rational interval [lo, hi].  For rational values lo == hi.

    A root holds integers only: its ``interval`` (a, b, q) for [a/q, b/q],
    its defining polynomial as a primitive integer polynomial f (q u - a
    at a rational a/q), and its narrowest interval so far, its cell, with
    f's sign at the cell's left end and the signs already decided at it,
    which the roots :meth:`refine` returns share.  ``lo``, ``hi``,
    ``exact`` and the monic ``poly`` are Fractions built on access.  An
    irrational root's interval is open at both ends: neither endpoint is a
    zero of f, so its cell never shrinks to a point.  Every root this
    module makes comes from :meth:`_of`, from the integers its caller
    already holds; ``RealRoot(poly, lo, hi)`` reads them off Fractions.
    """

    __slots__ = ("_f", "interval", "_a", "_b", "_q", "_sa", "_signs")

    def __init__(self, poly: Sequence[Fraction], lo: Fraction,
                 hi: Fraction):
        q = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (q // lo.denominator)
        f = int_multiple(poly)
        self._set(f, a, hi.numerator * (q // hi.denominator), q,
                  _sign_at(f, a, q) if lo != hi else 0, {})

    @classmethod
    def _of(cls, f: tuple[int, ...], a: int, b: int, q: int, sa: int,
            signs: dict) -> "RealRoot":
        """The root of f in [a/q, b/q], where f has the sign sa at a/q; the
        rational a/q, with sa = 0, when a == b."""
        r = cls.__new__(cls)
        r._set(f, a, b, q, sa, signs)
        return r

    def _set(self, f, a, b, q, sa, signs) -> None:
        self._f, self._sa, self._signs = f, sa, signs
        self.interval, self._a, self._b, self._q = (a, b, q), a, b, q

    @property
    def is_rational(self) -> bool:
        return self._a == self._b

    @property
    def int_poly(self) -> tuple[int, ...]:
        """The defining polynomial as a primitive integer polynomial."""
        return self._f

    @property
    def poly(self) -> tuple[Fraction, ...]:
        """The monic defining polynomial."""
        f = self._f
        return tuple(Fraction(c, f[-1]) for c in f)

    lo = property(lambda self: Fraction(self.interval[0], self.interval[2]))
    hi = property(lambda self: Fraction(self.interval[1], self.interval[2]))

    @property
    def exact(self) -> Fraction | None:
        return Fraction(self._a, self._q) if self._a == self._b else None

    @property
    def cell(self) -> tuple[int, int, int]:
        """The narrowest interval so far, [a/q, b/q], as integers (a, b, q)."""
        return self._a, self._b, self._q

    def refine(self, width) -> "RealRoot":
        """Shrink the isolating interval below the requested width, a
        rational number.

        Returns a root, with this one's signs, over the narrowest interval
        known so far when that is narrow enough, else over the cell that
        bisection from it reaches (:func:`_cell`).
        """
        a, b, q = self._a, self._b, self._q
        if a == b:
            return self
        wn, wd = width.as_integer_ratio()
        # the fewest bisection steps d with (b - a) / (2^d q) <= width
        d = (-(-(b - a) * wd // (wn * q)) - 1).bit_length()
        f = self._f
        if d:
            a, b, q = _cell(f, a, b, q, self._sa, d)
            if a == b:
                return RealRoot._of(f, a, a, q, 0, {})
            self._a, self._b, self._q = a, b, q
        return RealRoot._of(f, a, b, q, self._sa, self._signs)

    def sign_of(self, g: Sequence[Fraction]) -> int:
        """Exact sign of g at this algebraic number, remembered per g: by
        :func:`_certified_sign` on the narrowest interval (a/q, b/q), else
        by the Tarski query, the drop in sign variations from a/q to b/q of
        the signed remainder sequence of (f, f'g), which counts the roots of
        f there where g > 0 minus those where g < 0 (Basu, Pollack & Roy,
        Algorithms in Real Algebraic Geometry, 2006, section 2.2)."""
        key = tuple(g)
        s = self._signs.get(key)
        if s is None:
            a, b, q = self._a, self._b, self._q
            g = int_multiple(key)
            s = _sign_at(g, a, q) if a == b else _certified_sign(g, a, b, q)
            if not s and a != b:
                chains = [_isturm(self._f, g)]
                s = _variations(chains, a, q) - _variations(chains, b, q)
            self._signs[key] = s
        return s

    def equals(self, other: "RealRoot") -> bool:
        if self is other:
            return True
        (a1, b1, q1), (a2, b2, q2) = self.cell, other.cell
        if self.is_rational and other.is_rational:
            return a1 * q2 == a2 * q1
        if self.is_rational != other.is_rational:
            # irrational RealRoots are built from polynomials with their
            # rational roots deflated away, so the two can never coincide
            rat, irr = (self, other) if self.is_rational else (other, self)
            a, b, q = irr.cell
            n, _, d = rat.cell
            return a * d < n * q < b * d and _sign_at(irr._f, n, d) == 0
        # the common part of the two cells, over q1 q2
        lo, hi = max(a1 * q2, a2 * q1), min(b1 * q2, b2 * q1)
        if lo >= hi:
            return False
        h = _igcd(self._f, other._f)
        if len(h) < 2:
            return False
        # lo and hi are endpoints of isolating intervals, so not zeros of h,
        # and h has at most the one simple root common to both in between
        return _sign_at(h, lo, q1 * q2) != _sign_at(h, hi, q1 * q2)

    def __lt__(self, other: "RealRoot") -> bool:
        if self is other or self.equals(other):
            return False
        a, b = self, other
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refine((a.hi - a.lo) / 4 if not a.is_rational else 1)
            b = b.refine((b.hi - b.lo) / 4 if not b.is_rational else 1)
        return a.hi < b.lo


def _rational(n: int, d: int) -> RealRoot:
    """The rational n/d, d > 0, as a RealRoot in lowest terms."""
    g = gcd(n, d)
    return RealRoot._of((-n // g, d // g), n // g, n // g, d // g, 0, {})


def rational_root(value) -> RealRoot:
    """The rational number ``value`` as a RealRoot."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return _rational(value.numerator, value.denominator)


def _isolate(*fs: Sequence[int], chains=None) -> list[tuple[int, int, int]]:
    """Ascending disjoint intervals (a/q, b/q], each holding one root of the
    product of the squarefree, pairwise coprime integer polynomials fs, by
    Sturm bisection of (-B, B] on the sum of the factors' root counts.
    ``chains``, where given, are the factors' Sturm chains."""
    chains = chains or [_isturm(f) for f in fs]
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


#: calls for fewer steps, mostly :func:`_settle` on isolating intervals, are
#: bisected: there the secant guesses too badly to save evaluations
_QIR_DEPTH = 10


def _cell(f: Sequence[int], a: int, b: int, q: int, sa: int,
          d: int) -> tuple[int, int, int]:
    """The cell (a', a' + b - a, 2^d q) that d bisection steps reach from
    [a/q, b/q], which holds one root of f, or (c, c, 2^d q) if a point on
    the way is the root.  f is nonzero at b/q and has the sign sa between
    a/q and the root, and at a/q if d >= _QIR_DEPTH.  Quadratic interval
    refinement (Abbott 2006; Kerber & Sagraloff 2011): the secant through
    the end values guesses which of N = 2^k equal parts holds the root, and
    the signs at the part's ends confirm it.  A confirmed guess squares N,
    a failed one halves k and bisects once."""
    n, w, k = len(f) - 1, b - a, 2
    qir = d >= _QIR_DEPTH
    va, vb = (ival(f, a, q), ival(f, b, q)) if qir else (0, 0)  # times q^n
    while d:
        if qir:
            j = min(k, d)
            big, a2, q2 = 1 << j, a << j, q << j
            ua, ub = abs(va), abs(vb)
            m = (2 * big * ua + ua + ub) // (2 * (ua + ub))
            # the part on the root's side of m; the end values are known
            ends = {0: va << j * n, big: vb << j * n}
            v = ends[m] if m in ends else ival(f, a2 + m * w, q2)
            if not v:
                return a2 + m * w, a2 + m * w, q2
            o = m + 1 if (v > 0) - (v < 0) == sa else m - 1
            vo = ends[o] if o in ends else ival(f, a2 + o * w, q2)
            if not vo:
                return a2 + o * w, a2 + o * w, q2
            if (v > 0) != (vo > 0):
                a, q, d, k = a2 + min(m, o) * w, q2, d - j, 2 * k
                b, va, vb = (a + w, v, vo) if m < o else (a + w, vo, v)
                continue
            k = max(k // 2, 2)
        c, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        v = ival(f, c, q)
        if not v:
            return c, c, q
        a, b, va, vb = ((c, b, v, vb << n) if (v > 0) - (v < 0) == sa
                        else (a, c, va << n, v))
        d -= 1
    return a, b, q


def _nearest(n: int, d: int, bound: int) -> tuple[int, int]:
    """The fraction p/s, s <= bound, nearest n/d (d > 0), as integers in
    lowest terms: ``Fraction(n, d).limit_denominator(bound)``, whose
    continued-fraction step and tie rule (the last convergent before the
    semiconvergent when both are as near) it follows on integers."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if d <= bound:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    x, y = n, d
    while True:
        k = x // y
        q2 = q0 + k * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + k * p1, q2
        x, y = y, x - k * y
    k = (bound - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, times d q1 q2
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def _settle(f: Sequence[int], a: int, b: int, q: int):
    """Decide the one simple root of f in (a/q, b/q]: its exact value when it
    is rational, as integers (p, s) in lowest terms, else an interval
    [a/q, b/q] narrower than 1/(2 lc^2) with f nonzero at both ends,
    returned as (None, a, b, q).

    A rational root p/s of a primitive integer f has s | lc, and two such
    fractions lie at least 1/lc^2 apart, so the fraction nearest the
    midpoint with denominator at most |lc| is the only candidate.
    """
    sb = _sign_at(f, b, q)
    if sb == 0:
        g = gcd(b, q)
        return (b // g, q // g), a, b, q
    sa = _sign_at(f, a, q)
    while not sa:  # a is the root to the left: bisect it away
        a2, b, q = _cell(f, a, b, q, -sb, 1)
        a, sa = a2, 0 if a2 == 2 * a else -sb
    # the fewest bisection steps to a width below 1/(2 lc^2)
    d = ((b - a) * 2 * f[-1] ** 2 // q).bit_length()
    a, b, q = _cell(f, a, b, q, sa, d)
    # the candidate is the root itself when _cell met it (a == b)
    p, s = _nearest(a + b, 2 * q, abs(f[-1]))
    if a == b or (a * s < p * q < b * s and _sign_at(f, p, s) == 0):
        return (p, s), a, b, q
    return None, a, b, q


def _low_degree_roots(f: Sequence[int]) -> list[tuple[int, int]] | None:
    """The real roots of the integer polynomial f = u^k h, h(0) != 0, as
    ascending (n, d) for n/d, d > 0, when h has degree at most 2 and its
    real roots are rational; None otherwise.  0 is a root exactly when
    k > 0, and never one of h."""
    k = next((i for i, c in enumerate(f) if c), 0)
    h = _positive(f[k:])
    if len(h) > 3:
        return None
    roots = []
    if len(h) == 2:
        roots.append((-h[0], h[1]))
    elif len(h) == 3:
        c, b, a = h
        d = b * b - 4 * a * c
        if d > 0:
            r = isqrt(d)
            if r * r != d:
                return None
            roots += ((-b - r, 2 * a), (-b + r, 2 * a))
        elif d == 0:
            roots.append((-b, 2 * a))
    if k:  # between h's negative and positive roots
        roots.insert(sum(n < 0 for n, _ in roots), (0, 1))
    return roots


def real_roots(f) -> list[RealRoot]:
    """All distinct real roots of f, ascending, as :class:`RealRoot`.

    Roots are read in closed form (:func:`_low_degree_roots`) in two steps:
    first on f itself, then on its squarefree part g, so that u^k times a
    linear or quadratic polynomial with rational real roots, the divisor
    restriction of most charts, and such a polynomial with repeated
    factors, the restriction at a non-hyperbolic point, need no Sturm
    isolation.  The remainder sequence of (f, f') runs once: its last
    element is gcd(f, f') up to a constant (Basu, Pollack & Roy, 2006,
    section 2.2), so f is squarefree, and isolated on that chain, when it
    is a constant, and otherwise g is f divided by it, chained anew.  The
    bytes a report prints cannot depend on the path: a rational root is its
    value in lowest terms either way, and irrational roots, whose printed
    intervals come from bisection, never take the closed form.  Each root
    is then decided rational or not (see :func:`_settle`), and the rational
    ones are deflated, so every irrational root carries a defining
    polynomial with no rational roots at all.
    """
    f = int_multiple(f)
    roots = _low_degree_roots(f)
    if roots is None:
        g = _positive(f)
        chains = [_isturm(g)]
        gcd_ff = chains[0][-1]
        if len(gcd_ff) > 1:
            g = _positive(_iquo(g, _iprimitive(gcd_ff)))
            roots = _low_degree_roots(g)
            chains = None
    if roots is not None:
        return [_rational(n, d) for n, d in roots]
    settled = [_settle(g, a, b, q) for a, b, q in _isolate(g, chains=chains)]
    h = g
    for v, *_ in settled:
        if v is not None:
            h = _iquo(h, (-v[0], v[1]))
    # h has a positive leading coefficient and its simple real roots are
    # the irrational ones, so at the left end of each one's interval it has
    # the sign (-1)^m, m the number of irrational roots from that one up
    sa = (-1) ** sum(v is None for v, *_ in settled)
    out = []
    for v, a, b, q in settled:
        if v is not None:
            out.append(_rational(*v))
        else:
            out.append(RealRoot._of(h, a, b, q, sa, {}))
            sa = -sa
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
