"""Divisor singularities, the equivalence verdict and the return-map test.

Every compactified chart field leaves the divisor invariant, so its
singularities at infinity are the zeros of the one-variable restriction of
the chart field to the divisor branch.  This module isolates those zeros
exactly, classifies them through the (triangular) on-divisor Jacobian,
assembles the per-chart inventory of a field, decides the three hypotheses
of the equivalence criterion, and evaluates the linear-order return map
along the divisor cycle.

Every chart reads its divisor data off one face of the Newton polytope, and
each of those faces lies on the upper boundary (see
:func:`_check_on_upper_boundary`).  The field and its upper principal part
therefore share every chart's divisor data, so one inventory and one
return-map integral serve both.

The return map reads the same data.  Near the divisor of an x-chart,
u' = r(u) and v' = t(u) v + O(v**2) for the restriction r and transverse
polynomial t, so log v gains the integral of t/r du across the chart.  One
turn runs through Xpos with u increasing and through Xneg with u
decreasing, so the log-displacement is PV(Xpos) - PV(Xneg), symmetric
principal values over the real line.  They are exact: in Xpos, log v =
log rho - (1/alpha) log Cs with rho the weighted polar radius, and the oval
is symmetric under Sn -> -Sn, so log Cs agrees at u = R and u = -R and the
symmetric cut-off loses nothing; Xneg is the mirror image.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional

from .charts import (
    ChartField,
    directional_plc,
    fan_chart_field,
    support_minima,
)
from .fans import ChartMap, SimpleFan, build_fan, chart_maps
from .fields import (
    DIRECTIONS,
    FieldError,
    InternalConsistencyError,
    LatticePoint,
    PlanarField,
    WeightVector,
    favorable_shear,
    format_field,
    max_level,
    ratio_text,
)
from .polys import (
    RealRoot,
    _igcd,
    bp_gcd,
    has_real_branch,
    int_multiple,
    ival,
    real_roots,
    xgcd,
)
from .polytope import (
    Polytope,
    Segment,
    UpperPrincipalPart,
    build_polytope,
    plc_weight,
    upper_principal_part,
)
from .trig import period

HYPERBOLIC = "Hyperbolic"
SEMI_HYPERBOLIC = "SemiHyperbolic"
DEGENERATE = "Degenerate"
CURVE = "CurveOfSingularities"


# ---------------------------------------------------------------------------
# the float boundary: exact values leave the exact core only through here


#: below this, an exact value underflows to 0.0 with room to spare, so it
#: is read only to its sign
_TINY = Fraction(1, 2**1100)

#: the polynomial u, whose value at a root is the root, as a reading form
_U = ((0, 1), 1, 1)
#: the widths from below which positions and eigenvalues are read
_POSITION_WIDTH = Fraction(1, 10**12)
_EIGENVALUE_WIDTH = Fraction(1, 10**15)


def _reading(root: RealRoot, g, width, sign=None) -> tuple[int, int]:
    """The value that reports g at ``root``, as integers (n, d) in lowest
    terms, d > 0: exact at a rational root, 0 where g's exact sign there
    (``sign``, or ``root.sign_of``) is 0, else g at the midpoint of
    bisection's dyadic cell below ``width``, or below the square of the
    last width, the first on which g has that sign at the midpoint and both
    ends and its end values differ by at most 1e-9 of the smaller; inside
    (-_TINY, _TINY), the first of the three with that sign.  ``g = (f, sn,
    sd)`` stands for f * sn / sd with f a primitive integer polynomial and
    sn / sd > 0 (see ``charts.Branch``)."""
    f, sn, sd = g
    if not f:
        return 0, 1
    n = len(f) - 1
    a, b, q = root.cell
    if a == b:
        return _lowest(sn * ival(f, a, q), sd * q ** n)
    if sign is None:
        sign = root.sign_of(f)
    if sign == 0:
        return 0, 1
    r = root.refine(width)
    while True:
        a, b, q = r.cell
        # the values at the midpoint and the ends, times (2q)^n sd / sn
        den = (2 * q) ** n
        vals = mid, lo, hi = [ival(f, t, 2 * q)
                              for t in (a + b, 2 * a, 2 * b)]
        signed = [v for v in vals if (v > 0) - (v < 0) == sign]
        if len(signed) == 3 and abs(hi - lo) * 10**9 <= min(abs(lo), abs(hi)):
            return _lowest(sn * mid, sd * den)
        if signed and max(map(abs, vals)) * sn < _TINY * sd * den:
            return _lowest(sn * signed[0], sd * den)
        r = root.refine(Fraction((b - a) ** 2, q * q))


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d, d > 0, in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


def _stand_in(q) -> tuple[int, int]:
    """As integers (n, d), d > 0: ``q`` itself, the exact value of a
    rational RealRoot ``q``, or the reading of u at an irrational one from
    below 1e-12.  Isolation bisects at 0 first, so the root has the sign of
    its isolating interval."""
    if isinstance(q, RealRoot):
        a, b, d = q.cell
        if a != b:
            return _reading(q, _U, _POSITION_WIDTH, 1 if b > 0 else -1)
        return a, d
    return q.numerator, q.denominator


def _float(n: int, d: int) -> Optional[float]:
    """The float of n/d, or None outside the float range."""
    try:
        v = n / d
    except OverflowError:
        return None
    return v if v or not n else None


def approximate(q) -> Optional[float]:
    """The float of an exact value ``q`` (a Fraction or a RealRoot), or None
    when it lies outside the float range: it overflows, or it is nonzero and
    underflows to zero.  Every exact value a report prints as a float goes
    through here or through :func:`approximate_text`."""
    return _float(*_stand_in(q))


def approximate_text(q, digits: int) -> str:
    """``approximate(q)`` to ``digits`` significant digits; outside the
    float range ``>1e308`` or ``<-1e308`` when |q| >= 1, else ``(0,5e-324)``
    or ``(-5e-324,0)``, on the side of the sign of ``q``."""
    n, d = _stand_in(q)
    v = _float(n, d)
    if v is not None:
        return f"{v:.{digits}g}"
    if abs(n) >= d:
        return ">1e308" if n > 0 else "<-1e308"
    return "(0,5e-324)" if n > 0 else "(-5e-324,0)"


# ---------------------------------------------------------------------------
# the report's text: each renderer below writes one fixed shape with the
# bytes of json.dumps(indent=2, sort_keys=True), at the indent ``nl`` (a
# newline and the spaces before the shape's first line), keys in sorted order


_quote = json.encoder.encode_basestring_ascii


def _float_text(v: Optional[float]) -> str:
    """A value of :func:`approximate`, a finite float or None, as JSON."""
    return "null" if v is None else float.__repr__(v)


def _list_text(items: list, nl: str) -> str:
    """A JSON list of values already written at the indent ``nl + "  "``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def object_text(pairs: list, nl: str) -> str:
    """A JSON object of (key, value text) pairs given in key order, the
    values written at the indent ``nl + "  "``."""
    if not pairs:
        return "{}"
    inner = nl + "  "
    return "{" + ",".join([f"{inner}{_quote(k)}: {t}"
                           for k, t in pairs]) + nl + "}"


def _realroot_text(r: RealRoot, approx: str, nl: str) -> str:
    """The root ``r`` whose approximation has the text ``approx``: its
    interval and monic polynomial written from their integers."""
    i = nl + "  "
    j = i + "  "
    a, b, q = r.interval
    f = r.int_poly
    poly = f'",{j}"'.join([ratio_text(c, f[-1]) for c in f])
    return (f'{{{i}"approx": {approx},'
            f'{i}"interval": [{j}"{ratio_text(a, q)}",{j}"{ratio_text(b, q)}"'
            f'{i}],{i}"poly": [{j}"{poly}"{i}]{nl}}}')


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue of the on-divisor Jacobian.

    The sign is decided exactly.  ``num``/``den`` (in lowest terms, den > 0)
    is the reading of the polynomial at the base point from below 1e-15
    (see :func:`_reading`): the exact value at a rational point, where
    ``is_exact`` holds, else a value with the exact sign, above _TINY from
    an isolating interval whose end values differ by at most 1e-9 of the
    smaller.  ``value`` and ``exact`` give the reading as a Fraction.
    """

    sign: int
    num: int
    den: int
    is_exact: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def exact(self) -> Optional[Fraction]:
        return self.value if self.is_exact else None

    @property
    def approx(self) -> Optional[float]:
        return _float(self.num, self.den)

    def to_json(self) -> dict:
        return json.loads(_eigenvalue_text(self, "\n"))


def _eigenvalue_text(e: Optional[Eigenvalue], nl: str) -> str:
    if e is None:
        return "null"
    i = nl + "  "
    exact = f'"{ratio_text(e.num, e.den)}"' if e.is_exact else "null"
    return (f'{{{i}"approx": {_float_text(e.approx)},{i}"exact": {exact},'
            f'{i}"sign": {int.__repr__(e.sign)}{nl}}}')


@dataclass(frozen=True)
class SingularityRecord:
    """A singularity on the divisor of one chart (or a whole singular branch).

    ``position`` is the exact coordinate along the divisor branch; it is
    None exactly when the branch restriction vanishes identically and the
    record stands for the entire branch (classification CurveOfSingularities).
    """

    chart: str
    branch: str
    position: Optional[RealRoot]
    classification: str = ""
    tangent: Optional[Eigenvalue] = None
    transverse: Optional[Eigenvalue] = None
    characteristic_orbit: bool = False

    @property
    def is_curve(self) -> bool:
        return self.position is None

    @property
    def at_chart_origin(self) -> bool:
        return (self.position is not None
                and self.position.interval[:2] == (0, 0))

    def to_json(self) -> dict:
        return json.loads(_record_text(self, _position_text(self), "\n"))


def _position_text(r: SingularityRecord) -> str:
    """The approximation of the record's position as JSON: null for a
    curve of singularities and outside the float range."""
    if r.position is None:
        return "null"
    return _float_text(approximate(r.position))


def _record_text(r: SingularityRecord, approx: str, nl: str) -> str:
    """The record ``r``, whose position's approximation has the text
    ``approx`` (see :func:`_position_text`)."""
    i = nl + "  "
    pos = ("null" if r.position is None
           else _realroot_text(r.position, approx, i))
    return (f'{{{i}"branch": {_quote(r.branch)},'
            f'{i}"characteristic_orbit": '
            f'{"true" if r.characteristic_orbit else "false"},'
            f'{i}"chart": {_quote(r.chart)},'
            f'{i}"classification": {_quote(r.classification)},'
            f'{i}"position": {pos},'
            f'{i}"tangent": {_eigenvalue_text(r.tangent, i)},'
            f'{i}"transverse": {_eigenvalue_text(r.transverse, i)}{nl}}}')


def _inventory_text(inv: dict, approx: dict, nl: str) -> str:
    """The inventory ``inv`` as an object of record lists, sorted by chart;
    ``approx`` maps each chart to its records' :func:`_position_text`."""
    c = nl + "  "
    k = c + "  "
    return object_text(
        [(chart, _list_text([_record_text(r, t, k) for r, t in
                             zip(inv[chart], approx[chart])], c))
         for chart in sorted(inv)], nl)


def inventory_text(inv: dict[str, list[SingularityRecord]],
                   nl: str = "\n") -> str:
    """The JSON of an inventory, chart by chart, at the indent ``nl``."""
    return _inventory_text(
        inv, {chart: list(map(_position_text, recs))
              for chart, recs in inv.items()}, nl)


# ---------------------------------------------------------------------------
# locating and classifying divisor singularities


def _eigenvalue_at(root: RealRoot, g) -> Eigenvalue:
    n, d = _reading(root, g, _EIGENVALUE_WIDTH)
    return Eigenvalue((n > 0) - (n < 0), n, d, root.is_rational)


#: an unclassified divisor point (None: the branch), as classify reads it
_Site = namedtuple("_Site", "branch position")


def classify(cf: ChartField, rec) -> SingularityRecord:
    """Fill in eigenvalues, classification and the characteristic-orbit flag
    of ``rec``, a :class:`SingularityRecord` or a ``_Site``.

    The on-divisor Jacobian is triangular, so the eigenvalues are the
    derivative of the branch restriction (tangent) and the linear transverse
    coefficient, both evaluated at the singularity.  A point admits a
    characteristic orbit when it is hyperbolic, or semi-hyperbolic with its
    nonzero eigenvalue transverse to the divisor.
    """
    name, position = rec.branch, rec.position
    branch = cf.branches[name]
    if position is None:
        return SingularityRecord(cf.label, name, None, CURVE,
                                 characteristic_orbit=bool(branch.transverse))
    tangent = _eigenvalue_at(position, branch.tangent_reading)
    trans = _eigenvalue_at(position, branch.transverse_reading)
    cls = (HYPERBOLIC, SEMI_HYPERBOLIC, DEGENERATE)[
        (tangent.sign == 0) + (trans.sign == 0)]
    orbit = cls == HYPERBOLIC or (cls == SEMI_HYPERBOLIC and trans.sign != 0)
    return SingularityRecord(cf.label, name, position, cls, tangent, trans,
                             orbit)


def _chart_records(cf: ChartField, roots: dict) -> list[SingularityRecord]:
    """The singularities on the divisor of one chart.  ``roots`` maps each
    restriction polynomial already isolated, as its integer numerators and
    scale in lowest terms, to its roots, and is filled in.

    Interior fan charts carry two divisor branches meeting at the chart
    origin; the origin is reported once, on the {v = 0} branch (where it is
    always a zero of the restriction).
    """
    recs = []
    for branch, (restriction, *_) in cf.branches.items():
        if not restriction:
            positions = (None,)
        else:
            g = math.gcd(cf.scale, *restriction)
            key = tuple(c // g for c in restriction), cf.scale // g
            positions = roots.get(key)
            if positions is None:
                positions = roots[key] = real_roots(restriction)
        skip_origin = branch == "u=0" and cf.divisor == "uv"
        recs += [classify(cf, _Site(branch, p)) for p in positions
                 if not (skip_origin and p is not None
                         and p.interval[:2] == (0, 0))]
    return recs


def divisor_singularities(cf: ChartField) -> list[SingularityRecord]:
    """All singularities on the divisor of a directional or fan chart field."""
    return _chart_records(cf, {})


# ---------------------------------------------------------------------------
# hypothesis (a): the upper principal part has no zero in (R*)^2


@dataclass(frozen=True)
class DegeneracyWitness:
    """A common zero of one upper-segment restriction off the axes."""

    segment_normal: tuple[int, int]
    quadrant: tuple[int, int]
    parameter: RealRoot
    #: a coordinate is None where it lies outside the float range
    point: tuple[Optional[float], Optional[float]]
    point_exact: Optional[tuple[Fraction, Fraction]]

    def to_json(self) -> dict:
        return json.loads(_witness_text(self, "\n"))


def ints_text(values, nl: str) -> str:
    """A JSON list of integers at the indent ``nl``."""
    return _list_text(list(map(int.__repr__, values)), nl)


def _witness_text(w: DegeneracyWitness, nl: str) -> str:
    i = nl + "  "
    exact = ("null" if w.point_exact is None
             else _list_text([_quote(str(v)) for v in w.point_exact], i))
    parameter = _realroot_text(w.parameter,
                               _float_text(approximate(w.parameter)), i)
    return (f'{{{i}"parameter": {parameter},'
            f'{i}"point": {_list_text(list(map(_float_text, w.point)), i)},'
            f'{i}"point_exact": {exact},'
            f'{i}"quadrant": {ints_text(w.quadrant, i)},'
            f'{i}"segment_normal": {ints_text(w.segment_normal, i)}{nl}}}')


def _segment_parameter_polys(seg: Segment, field: PlanarField):
    """Coefficient polynomials along a segment, indexed by primitive steps,
    as integer numerators over ``field.den``."""
    dx, dy = seg.direction
    start = seg.points[0]
    coeffs = {(p[0] - start[0]) // dx if dx else (p[1] - start[1]) // dy:
              field.numerators.get(p, (0, 0)) for p in seg.points}
    pairs = [coeffs.get(k, (0, 0)) for k in range(max(coeffs) + 1)]
    return [a for a, _ in pairs], [b for _, b in pairs]


def _positive_roots(g) -> list[RealRoot]:
    """The positive roots of the integer polynomial g."""
    # roots at t = 0 sit on the axes and do not count
    shift = 0
    while shift < len(g) and g[shift] == 0:
        shift += 1
    g = g[shift:]
    if len(g) < 2:
        return []
    # isolation bisects at 0 first, so no interval holds 0 inside
    return [root for root in real_roots(g) if root.interval[1] > 0]


def check_nondegenerate(upp: UpperPrincipalPart):
    """Decide whether the upper principal part vanishes anywhere off the axes.

    Each upper segment restricts the field to a one-parameter family:
    writing the support points as start + k * direction, both coefficient
    sequences become polynomials in t = x**dx * y**dy.  A common positive
    root of their gcd in any of the four quadrant sign charts is a
    singularity of the segment field in (R*)^2.  Returns ``(ok, witnesses)``.
    """
    witnesses: list[DegeneracyWitness] = []
    for seg in upp.polytope.upper:
        ia, ib = map(int_multiple, _segment_parameter_polys(seg, upp.field))
        if not ia and not ib:
            raise InternalConsistencyError(
                "an upper segment with empty coefficient data")
        dx, dy = seg.direction
        _, wu, wv = xgcd(dx, dy)
        # the direction is primitive, so some quadrant has each parity; and
        # gcd(ia(-t), ib(-t)) is g(-t) up to sign
        g = _igcd(ia, ib)
        g_odd = tuple(-c if k % 2 else c for k, c in enumerate(g))
        positive = {False: _positive_roots(g), True: _positive_roots(g_odd)}
        for s1 in (1, -1):
            for s2 in (1, -1):
                # t = x^dx y^dy is negative in the quadrant when exactly one
                # negative coordinate carries an odd exponent: use f(-t)
                odd = (s1 < 0 and dx % 2 == 1) != (s2 < 0 and dy % 2 == 1)
                for root in positive[odd]:
                    # an irrational root is read at its float's midpoint
                    m = Fraction(*_stand_in(root))
                    point = (s1 * m**wu, s2 * m**wv)
                    witnesses.append(DegeneracyWitness(
                        segment_normal=seg.inward_normal,
                        quadrant=(s1, s2),
                        parameter=root,
                        point=(approximate(point[0]), approximate(point[1])),
                        point_exact=point if root.is_rational else None,
                    ))
    return not witnesses, tuple(witnesses)


# ---------------------------------------------------------------------------
# hypothesis (b): no curve of singularities


def check_no_singularity_curve(upp: UpperPrincipalPart) -> bool:
    """True when the components of the upper principal part share no
    factor with a branch (a one-dimensional piece) off the axes."""
    return not has_real_branch(bp_gcd(*upp.field.int_components()))


# ---------------------------------------------------------------------------
# inventories and the equivalence verdict


class Analysis:
    """The pipeline stages of one field, each computed on first use.

    ``weight`` overrides the weight read off the polytope, and
    ``polytope``, the field's Newton polytope where it is already built,
    saves building it again.  Every stage lives as long as this object.
    """

    def __init__(self, field: PlanarField,
                 weight: Optional[WeightVector] = None,
                 polytope: Optional[Polytope] = None):
        self.field = field
        #: restriction polynomial -> its real roots
        self.roots: dict = {}
        if weight is not None:
            self.weight = weight
        if polytope is not None:
            self.polytope = polytope

    @cached_property
    def polytope(self) -> Polytope:
        return build_polytope(self.field)

    @cached_property
    def weight(self) -> WeightVector:
        return plc_weight(self.polytope)[0]

    @cached_property
    def fan(self) -> SimpleFan:
        return build_fan(self.polytope)

    @cached_property
    def chart_maps(self) -> list[ChartMap]:
        return chart_maps(self.fan)

    @cached_property
    def upper(self) -> UpperPrincipalPart:
        return upper_principal_part(self.field, self.polytope)

    @cached_property
    def directional(self) -> dict[str, ChartField]:
        return {d: directional_plc(self.field, self.weight, d)
                for d in DIRECTIONS}

    @cached_property
    def fan_minima(self) -> tuple[list[int], list[tuple]]:
        """:func:`support_minima` of the support over the fan vectors."""
        return support_minima(self.field.support(), self.fan.vectors)

    @cached_property
    def fan_charts(self) -> dict[str, ChartField]:
        minima, _ = self.fan_minima
        return {f"fan:{j}": fan_chart_field(self.field, cmap,
                                            minima[j - 1:j + 1])
                for j, cmap in enumerate(self.chart_maps) if j}

    @cached_property
    def directional_records(self) -> dict[str, list[SingularityRecord]]:
        """Divisor singularities of the four directional charts."""
        return {label: _chart_records(cf, self.roots)
                for label, cf in self.directional.items()}

    @cached_property
    def inventory(self) -> dict[str, list[SingularityRecord]]:
        """Divisor singularities per chart: fan charts, then directional."""
        fan = {label: _chart_records(cf, self.roots)
               for label, cf in self.fan_charts.items()}
        return fan | self.directional_records


def singularity_inventory(f: PlanarField, fan: SimpleFan, w: WeightVector
                          ) -> dict[str, list[SingularityRecord]]:
    """Per-chart divisor singularities across all fan and directional charts."""
    a = Analysis(f, w)
    a.fan = fan
    return a.inventory


def _top_face(a: Analysis) -> tuple[LatticePoint, ...]:
    """The support points of top weighted level."""
    top = max_level(a.field, a.weight)
    return tuple(p for p in a.field.support() if a.weight.level(p) == top)


def _check_on_upper_boundary(a: Analysis, faces) -> None:
    """Raise unless every face lies in the support of the upper principal part.

    A chart reads its divisor restriction and transverse polynomial off one
    face of the polytope: a fan chart off the argmin face of its interior
    fan vector, a directional chart off the top weighted level.  Each face
    has an inward normal outside the closed first quadrant, so it lies on
    the upper boundary; then the charts of the field and of its upper
    principal part share their divisor data, and so their singularities and
    their return-map integral.
    """
    upper = set(a.upper.field.support())
    for face in faces:
        if not upper.issuperset(face):
            raise InternalConsistencyError(
                f"the divisor face {list(face)} leaves the upper boundary")


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str
    reasons: tuple[str, ...]
    hypotheses: dict[str, bool]
    shear: Fraction
    field_after_shear: PlanarField
    weight: Optional[WeightVector]
    #: the divisor singularities of the field and of its upper principal part
    inventory: dict[str, list[SingularityRecord]]
    witnesses: tuple[DegeneracyWitness, ...]

    def to_json(self) -> dict:
        """The report as the CLI prints it, parsed."""
        return json.loads(self.json_text())

    def json_text(self, nl: str = "\n") -> str:
        """The report as JSON at the indent ``nl``.  The inventory's text
        is written once and stands for the field and its upper principal
        part; each position's approximation is read once, for its record
        and its match-table row."""
        i, j = nl + "  ", nl + "    "
        inv = self.inventory
        approx = {chart: list(map(_position_text, recs))
                  for chart, recs in inv.items()}
        inv_text = _inventory_text(inv, approx, j)
        # each record, as the field and its upper principal part both carry
        # it, chart by chart and stably sorted by branch
        rows = [_match_row_text(chart, r, t, j) for chart, recs in inv.items()
                for r, t in sorted(zip(recs, approx[chart]),
                                   key=lambda rt: rt[0].branch)]
        hypotheses = object_text(
            [(k, "true" if ok else "false")
             for k, ok in sorted(self.hypotheses.items())], i)
        weight = ("null" if self.weight is None
                  else ints_text(self.weight.as_tuple(), i))
        witnesses = [_witness_text(w, j) for w in self.witnesses]
        return (
            f'{{{i}"field_after_shear": '
            f'{_quote(format_field(self.field_after_shear))},'
            f'{i}"hypotheses": {hypotheses},'
            f'{i}"inventory": {{{j}"field": {inv_text},'
            f'{j}"principal_part": {inv_text}{i}}},'
            f'{i}"match_table": {_list_text(rows, i)},'
            f'{i}"reasons": {_list_text(list(map(_quote, self.reasons)), i)},'
            f'{i}"shear": {_quote(str(self.shear))},'
            f'{i}"verdict": {_quote(self.verdict)},'
            f'{i}"weight": {weight},'
            f'{i}"witnesses": {_list_text(witnesses, i)}{nl}}}')


def _match_row_text(chart: str, r: SingularityRecord, approx: str,
                    nl: str) -> str:
    """The match-table row of ``r``: the same classification on both sides,
    at the position whose approximation has the text ``approx``."""
    i = nl + "  "
    cls = _quote(r.classification)
    return (f'{{{i}"branch": {_quote(r.branch)},{i}"chart": {_quote(chart)},'
            f'{i}"field": {cls},{i}"matched": true,{i}"position": {approx},'
            f'{i}"principal_part": {cls}{nl}}}')


def equivalence_verdict(field: PlanarField) -> EquivalenceReport:
    """Run the whole pipeline and decide topological equivalence at infinity.

    The field is sheared until its polytope is favorable; the three
    hypotheses (non-degenerate upper part, no curve of singularities,
    at least one characteristic orbit) are decided exactly; and the
    singularity inventory is read once, for the field and its upper
    principal part alike, after checking that every divisor face the
    charts read lies on the upper boundary.
    """
    if field.is_zero:
        raise FieldError("the zero field has no behaviour at infinity")
    try:
        sheared, lam, polytope = favorable_shear(field)
    except FieldError:
        return EquivalenceReport(
            verdict="HypothesesFail",
            reasons=("no upper boundary",),
            hypotheses={},
            shear=Fraction(0),
            field_after_shear=field,
            weight=None,
            inventory={},
            witnesses=(),
        )
    a = Analysis(sheared, polytope=polytope)
    hyp_a, witnesses = check_nondegenerate(a.upper)
    hyp_b = check_no_singularity_curve(a.upper)
    _, argmins = a.fan_minima
    _check_on_upper_boundary(a, argmins[1:-1] + [_top_face(a)])
    inv = a.inventory
    hyp_c = any(r.characteristic_orbit for recs in inv.values() for r in recs)

    hypotheses = {
        "non_degenerate_upper_part": hyp_a,
        "no_curve_of_singularities": hyp_b,
        "has_characteristic_orbit": hyp_c,
    }
    reasons = tuple(name for name, ok in hypotheses.items() if not ok)
    return EquivalenceReport(
        verdict="HypothesesFail" if reasons else "Equivalent",
        reasons=reasons,
        hypotheses=hypotheses,
        shear=lam,
        field_after_shear=sheared,
        weight=a.weight,
        inventory=inv,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# the return-map test


@dataclass(frozen=True)
class ReturnMapResult:
    """The linear-order return-map integral, shared by the field and its
    upper principal part, and its strict sign."""

    weight: WeightVector
    period: float
    integral: float
    sign: int
    conclusion: str

    def to_json(self) -> dict:
        return {
            "weight": list(self.weight.as_tuple()),
            "period": self.period,
            "integral_full": self.integral,
            "integral_principal": self.integral,
            "sign_full": self.sign,
            "sign_principal": self.sign,
            "agreement": self.sign != 0,
            "conclusion": self.conclusion,
        }


def _assert_no_divisor_singularities(a: Analysis) -> None:
    """The return map exists only when the divisor carries no singularity.

    The four directional charts cover the divisor cycle, so an empty record
    list in each of them is both necessary and sufficient.
    """
    for direction, recs in a.directional_records.items():
        if recs:
            where = ("the divisor is a curve of singularities"
                     if recs[0].is_curve else "divisor singularity near u = "
                     + approximate_text(recs[0].position, 6))
            raise FieldError(f"{direction}: {where}; "
                             "the return-map test does not apply")


def _horner(coeffs: list[float], x: float) -> float:
    return reduce(lambda acc, c: acc * x + c, reversed(coeffs), 0.0)


def _principal_value(cf: ChartField, beta: int) -> tuple[float, float]:
    """PV over the real line of the integral of t/r du, and its error.

    On a clean divisor deg t = deg r - 1 and lead(t)/lead(r) = 1/beta, both
    checked exactly: t/r decays like 1/(beta*u), which is odd, so its even
    part decays like 1/u**2 and is integrated over [0, inf)."""
    from scipy.integrate import quad

    branch = cf.branches["v=0"]
    r, t = branch.restriction, branch.transverse
    if len(t) != len(r) - 1 or t[-1] * beta != r[-1]:
        raise InternalConsistencyError(
            f"{cf.label}: t/r does not decay like 1/({beta}u) on the divisor")
    # r made monic, so that both fit floats whenever the field's ratios do;
    # a ratio beyond the float range raises OverflowError, exit 4
    rf, tf = ([float(Fraction(c, r[-1])) for c in p] for p in (r, t))

    def even(u: float) -> float:
        return (_horner(tf, u) / _horner(rf, u)
                + _horner(tf, -u) / _horner(rf, -u))

    # a float zero of r, or a QUADPACK failure message, leaves no error bound
    try:
        val, err, _, *failure = quad(even, 0.0, math.inf, epsabs=1e-11,
                                     epsrel=1e-11, limit=200, full_output=1)
    except ZeroDivisionError:
        return math.nan, math.inf
    return val, math.inf if failure else err


def return_map_test(a: Analysis) -> ReturnMapResult:
    """Integrate the linear-order return map over one divisor cycle in the
    x-charts (see the module docstring).

    The integrand reads the top weighted level only, which lies on the
    upper boundary, so the field and its upper principal part share it.  The
    displacement of the return map at linear order is exp(integral) - 1, so
    both fields expand, or both contract, when the integral carries a strict
    sign; a vanishing integral is reported as inconclusive.
    """
    # without an override, a field with no favorable polytope fails here
    w = a.weight
    if a.field.is_zero:
        raise FieldError("the zero field has no return map")
    _assert_no_divisor_singularities(a)
    _check_on_upper_boundary(a, [_top_face(a)])

    (pos, e_pos), (neg, e_neg) = (_principal_value(a.directional[d], w.beta)
                                  for d in ("Xpos", "Xneg"))
    if not e_pos + e_neg <= 1e-8 * max(1.0, abs(pos - neg)):
        raise FieldError(
            f"return-map quadrature error {e_pos + e_neg:g} too large")
    integral = pos - neg

    sign = 0 if abs(integral) <= 1e-9 else (1 if integral > 0 else -1)
    if sign == 0:
        conclusion = "inconclusive: zero integral"
    else:
        side = "expands" if sign > 0 else "contracts"
        conclusion = (f"sign agreement at linear order: the return map {side} "
                      "for both fields, so no periodic orbit survives near "
                      "the divisor")
    return ReturnMapResult(
        weight=w,
        period=period(w),
        integral=integral,
        sign=sign,
        conclusion=conclusion,
    )
