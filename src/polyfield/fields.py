"""Planar polynomial vector fields in the logarithmic basis.

A field is stored as a finite sum over lattice points ``(m, n)``:

    sum of  x^m y^n (a * x d/dx + b * y d/dy)

with rational coefficient pairs ``(a, b)``.  Admissibility keeps every term
polynomial in Cartesian components: an ``a`` coefficient requires ``m >= -1``
and ``n >= 0``; a ``b`` coefficient requires ``m >= 0`` and ``n >= -1``.
Converting a polynomial pair (P, Q) = (dx, dy) always lands inside these
constraints, and the zero pair is dropped.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .polytope import Polytope

LatticePoint = tuple[int, int]
CoefPair = tuple[Fraction, Fraction]


class FieldError(ValueError):
    """Base class for field-construction problems."""


class InternalConsistencyError(RuntimeError):
    """A structural fact the theory guarantees failed to hold at runtime."""


class AdmissibilityError(FieldError):
    pass


class ParseError(FieldError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Weights(NamedTuple):
    alpha: int
    beta: int


class WeightVector(_Weights):
    """A pair of positive coprime integer weights, ordered and hashed as
    the tuple ``(alpha, beta)``."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int):
        if alpha < 1 or beta < 1:
            raise ValueError("weights must be positive integers")
        if gcd(alpha, beta) != 1:
            raise ValueError("weights must be coprime")
        return super().__new__(cls, alpha, beta)

    def level(self, p: LatticePoint) -> int:
        return self.alpha * p[0] + self.beta * p[1]

    def as_tuple(self) -> tuple[int, int]:
        return (self.alpha, self.beta)


# ---------------------------------------------------------------------------
# monomial charts
#
# A chart x = sx * u**A00 * v**A01, y = sy * u**A10 * v**A11 is given by its
# exponent matrix A (``forward``) and the signs (sx, sy).  It sends the
# monomial x**m y**n to sx**m sy**n u**i v**j with (i, j) = A^T (m, n), and
# the log vector (a, b) of x d/dx, y d/dy to A^-1 (a, b) in u d/du, v d/dv.

DIRECTIONS = ("Xpos", "Xneg", "Ypos", "Yneg")


def directional_map(w: WeightVector, direction: str):
    """``(forward, signs)`` of a directional chart: x = +-v**-alpha,
    y = u * v**-beta toward X, and x = u * v**-alpha, y = +-v**-beta
    toward Y."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    alpha, beta = w.as_tuple()
    sign = -1 if direction.endswith("neg") else 1
    if direction.startswith("X"):
        return ((0, -alpha), (1, -beta)), (sign, 1)
    return ((1, -alpha), (0, -beta)), (1, sign)


def monomial_pullback(numerators, den, forward, signs, normalization):
    """Pull the field with log vectors ``numerators`` over ``den`` back
    through a monomial chart and multiply by the monomial u**e_u v**e_v,
    ``normalization = (e_u, e_v)``.

    ``numerators`` maps lattice points (m, n) to integer pairs (a, b), and
    ``den`` is positive.  Returns ``(u_num, v_num, scale)``: the du and dv
    components as ``{(i, j): int}`` numerators over one positive ``scale``.
    """
    (f00, f01), (f10, f11) = forward
    det = f00 * f11 - f01 * f10
    if det == 0:
        raise InternalConsistencyError(f"chart matrix {forward} is singular")
    # A^-1 = adj(A) / det; a negative det moves its sign into the numerators
    flip_m, flip_n = signs[0] < 0, signs[1] < 0
    eu, ev = normalization
    # A^T is invertible, so distinct terms never share a key
    u_num: dict[LatticePoint, int] = {}
    v_num: dict[LatticePoint, int] = {}
    for (m, n), (a, b) in numerators.items():
        i = eu + f00 * m + f10 * n
        j = ev + f01 * m + f11 * n
        swirl = f11 * a - f01 * b
        radial = f00 * b - f10 * a
        if ((flip_m and m % 2 == 1) != (flip_n and n % 2 == 1)) != (det < 0):
            swirl, radial = -swirl, -radial
        if swirl:
            u_num[(i + 1, j)] = swirl
        if radial:
            v_num[(i, j + 1)] = radial
    return u_num, v_num, den * abs(det)


def _check_admissible(p: LatticePoint, a: int, b: int) -> None:
    m, n = p
    if a != 0 and (m < -1 or n < 0):
        raise AdmissibilityError(
            f"coefficient a at {p} would make the x-component non-polynomial"
        )
    if b != 0 and (m < 0 or n < -1):
        raise AdmissibilityError(
            f"coefficient b at {p} would make the y-component non-polynomial"
        )


class PlanarField:
    """Immutable planar field in the logarithmic basis.

    The coefficients are integer pairs ``numerators[(m, n)] = (a, b)`` over
    one positive denominator ``den``, in lowest terms: ``den`` and all the
    numerators have gcd 1, so equal fields are equal structurally.
    ``items()``, ``terms()`` and ``components()`` give rational coefficients.
    """

    __slots__ = ("numerators", "den")

    def __init__(self, terms: Mapping[LatticePoint, CoefPair]):
        terms = {(int(p[0]), int(p[1])): (Fraction(a), Fraction(b))
                 for p, (a, b) in terms.items()}
        den = lcm(*(c.denominator for ab in terms.values() for c in ab))
        f = self._over({p: [c.numerator * (den // c.denominator) for c in ab]
                        for p, ab in terms.items()}, den)
        self.numerators, self.den = f.numerators, f.den

    @classmethod
    def _over(cls, numerators: Mapping, den: int) -> "PlanarField":
        """The field of the integer pairs ``numerators`` over ``den`` > 0."""
        kept = {}
        for p, (a, b) in numerators.items():
            if a or b:
                _check_admissible(p, a, b)
                kept[p] = (a, b)
        g = gcd(den, *(c for ab in kept.values() for c in ab))
        if g > 1:
            kept = {p: (a // g, b // g) for p, (a, b) in kept.items()}
        f = cls.__new__(cls)
        f.numerators, f.den = dict(sorted(kept.items())), den // g
        return f

    # -- construction ------------------------------------------------------

    @classmethod
    def from_components(cls, P: Mapping, Q: Mapping) -> "PlanarField":
        """Build from Cartesian components dx = P(x, y), dy = Q(x, y)."""
        den = lcm(*(c.denominator for comp in (P, Q) for c in comp.values()))
        return cls._from_int_components(
            *({k: c.numerator * (den // c.denominator) for k, c in comp.items()}
              for comp in (P, Q)), den)

    @classmethod
    def _from_int_components(cls, P, Q, den: int) -> "PlanarField":
        """Build from integer components dx = P(x, y)/den, dy = Q(x, y)/den."""
        numerators = {(i - 1, j): [c, 0] for (i, j), c in P.items()}
        for (i, j), c in Q.items():
            numerators.setdefault((i, j - 1), [0, 0])[1] = c
        return cls._over(numerators, den)

    @classmethod
    def zero(cls) -> "PlanarField":
        return cls._over({}, 1)

    # -- access ------------------------------------------------------------

    def items(self) -> Iterator[tuple[LatticePoint, CoefPair]]:
        den = self.den
        return ((p, (Fraction(a, den), Fraction(b, den)))
                for p, (a, b) in self.numerators.items())

    def terms(self) -> dict[LatticePoint, CoefPair]:
        return dict(self.items())

    def support(self) -> tuple[LatticePoint, ...]:
        return tuple(self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def int_components(self) -> tuple[dict, dict]:
        """Cartesian components (P, Q) as bivariate dicts of integer
        numerators over ``den``."""
        terms = self.numerators.items()
        return ({(m + 1, n): a for (m, n), (a, _) in terms if a},
                {(m, n + 1): b for (m, n), (_, b) in terms if b})

    def components(self) -> tuple[dict, dict]:
        """Cartesian components (P, Q) as bivariate coefficient dicts."""
        return tuple({k: Fraction(c, self.den) for k, c in comp.items()}
                     for comp in self.int_components())

    # -- algebra -----------------------------------------------------------

    def restricted(self, points: Iterable[LatticePoint]) -> "PlanarField":
        keep = set(points)
        return PlanarField._over({p: ab for p, ab in self.numerators.items()
                                  if p in keep}, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PlanarField) and self.den == other.den
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.den, tuple(self.numerators.items())))

    def __repr__(self) -> str:
        return f"PlanarField({format_field(self)!r})"


# ---------------------------------------------------------------------------
# parsing
#
#   field := "dx" "=" poly ";" "dy" "=" poly
#   poly  := sign? term (("+" | "-") term)*
#   term  := coeff? ("*"? var ("^" uint)?)*
#   coeff := uint ("/" uint)?
#
# Variables are the single letters x and y; juxtaposed letters multiply
# ("xy^2" is x * y^2).  Repeated variables accumulate exponents.

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` and their positions.  Each match starts where
    the last ended, as a match fails only on a rest of whitespace, which
    is skipped like the whitespace between tokens."""
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, ch = m.groups()
        if num:
            tokens.append(("num", num, m.start(1)))
        elif name:
            tokens.append(("name", name, m.start(2)))
        elif ch in "=;+-*/^":
            tokens.append((ch, ch, m.start(3)))
        else:
            raise ParseError(f"unexpected character {ch!r}", m.start(3))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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
        # both components over the lcm of the written denominators
        den = lcm(*(d for terms in (P, Q) for _, _, d in terms))
        return PlanarField._from_int_components(
            *(_sum_over(terms, den) for terms in (P, Q)), den)

    def _expect_name(self, name: str):
        tok = self.advance()
        if tok[0] != "name" or tok[1] != name:
            raise ParseError(f"expected '{name}', found {tok[1]!r}", tok[2])

    def parse_poly(self) -> list[tuple[tuple[int, int], int, int]]:
        """The signed terms, as (monomial, numerator, denominator)."""
        terms = []
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        while True:
            key, num, den = self.parse_term()
            terms.append((key, sign * num, den))
            tok = self.peek()
            if tok[0] not in "+-":
                return terms
            self.advance()
            sign = -1 if tok[0] == "-" else 1

    def parse_term(self) -> tuple[tuple[int, int], int, int]:
        tok = self.peek()
        num = den = 1
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
        return (i, j), num, den


def _sum_over(terms, den: int) -> dict:
    """The (monomial, numerator, denominator) terms summed, as integer
    numerators over ``den``, a multiple of every denominator."""
    out: dict = {}
    for key, num, d in terms:
        out[key] = out.get(key, 0) + num * (den // d)
    return out


def parse_field(text: str) -> PlanarField:
    """Parse ``dx = <poly>; dy = <poly>`` into a :class:`PlanarField`."""
    return _Parser(text).parse_field()


# ---------------------------------------------------------------------------
# printing


def _format_monomial(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _join_terms(terms, names: tuple[str, ...]) -> str:
    """``(exponents, positive, magnitude text)`` terms as text, in order;
    a magnitude of "1" is dropped before a monomial."""
    out = []
    for key, positive, mag in terms:
        mono = _format_monomial(names, key)
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        if out:
            out.append(f"+ {body}" if positive else f"- {body}")
        else:
            out.append(body if positive else f"-{body}")
    return " ".join(out) if out else "0"


def format_poly(comp: Mapping, names: tuple[str, ...]) -> str:
    """An exponent-tuple -> coefficient dict as text, highest key first."""
    return _join_terms(((key, comp[key] > 0, str(abs(comp[key])))
                        for key in sorted(comp, reverse=True)), names)


def ratio_text(n: int, d: int) -> str:
    """The rational n/d, d > 0, as ``str(Fraction(n, d))`` writes it."""
    g = gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def format_field(f: PlanarField) -> str:
    """Canonical text form; ``parse_field`` round-trips it exactly.  The
    coefficients are written from the integer numerators over ``f.den``."""
    den, xy = f.den, ("x", "y")
    P, Q = (_join_terms(((key, c > 0, ratio_text(abs(c), den))
                         for key, c in sorted(comp.items(), reverse=True)), xy)
            for comp in f.int_components())
    return f"dx = {P}; dy = {Q}"


# ---------------------------------------------------------------------------
# weighted levels


def max_level(f: PlanarField, w: WeightVector) -> int:
    if f.is_zero:
        raise FieldError("zero field has no weighted levels")
    return max(w.level(p) for p in f.support())


# ---------------------------------------------------------------------------
# shear


def shear(f: PlanarField, lam) -> PlanarField:
    """Push the field through the unimodular change x~ = x - lam*y, y~ = y.

    In the new coordinates the components become
    P~ = P(x + lam*y, y) - lam*Q(x + lam*y, y) and Q~ = Q(x + lam*y, y).
    With lam = p/q and d one more than the top x-degree, both times q**d
    have integer numerators over ``f.den``.
    """
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    P, Q = f.int_components()
    d = max((i for comp in (P, Q) for i, _ in comp), default=0) + 1
    # (x + p/q y)^i q^d = sum_k C(i, k) x^(i-k) y^k p^k q^(d-k)
    Pt: dict = {}
    Qt: dict = {}
    for comp, out in ((P, Pt), (Q, Qt)):
        for (i, j), c in comp.items():
            for k in range(i + 1):
                key = (i - k, j + k)
                t = c * comb(i, k) * p**k
                out[key] = out.get(key, 0) + t * q**(d - k)
                if out is Qt:  # and -lam Q(x + lam*y, y) into P~
                    Pt[key] = Pt.get(key, 0) - t * p * q**(d - k - 1)
    return PlanarField._from_int_components(Pt, Qt, f.den * q**d)


def make_favorable(f: PlanarField) -> tuple[PlanarField, Fraction]:
    """Shear until the Newton polytope gains a negative-slope top segment
    whose arrival vertex sits in column m = -1 or m = 0.

    Returns ``(field, lambda)`` with lambda = 0 when the input already
    qualifies.  Raises :class:`FieldError` when no shear can help; fields
    of the form a*y^n d/dx are fixed by every shear.
    """
    g, lam, _ = favorable_shear(f)
    return g, lam


def favorable_shear(f: PlanarField
                    ) -> tuple[PlanarField, Fraction, Polytope]:
    """:func:`make_favorable` with the Newton polytope of the returned
    field: ``(field, lambda, polytope)``."""
    from . import polytope as _polytope

    if f.is_zero:
        raise FieldError("zero field has no Newton polytope")

    def favorable_with_vertex(p) -> bool:
        if not _polytope.is_favorable(p):
            return False
        feats = _polytope.main_features(p)
        return feats.ph[0] in (-1, 0) and feats.ph[1] >= 0

    p = _polytope.build_polytope(f)
    if favorable_with_vertex(p):
        return f, Fraction(0), p
    for k in range(1, 51):
        for lam in (Fraction(k), Fraction(-k)):
            g = shear(f, lam)
            if g == f:
                # shears compose by adding their lambda and are polynomial
                # in it: a field fixed by one nonzero shear is fixed by all
                raise FieldError("the field is fixed by every shear")
            p = _polytope.build_polytope(g)
            if favorable_with_vertex(p):
                return g, lam, p
    raise FieldError("no shear with |lambda| <= 50 makes the polytope favorable")
