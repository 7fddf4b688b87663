"""Newton polytopes of planar fields and their boundary structure.

The boundary of a support polytope splits into a *lower* part (the edges
lying on the boundary of ``conv(S + first quadrant)``, equivalently the edges
whose primitive inward normal has both components >= 0) and an *upper* part
(every other edge).  Polytopes with empty interior are a deliberate special
case: the single geometric segment belongs to both parts, once per normal
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .fields import (
    FieldError,
    InternalConsistencyError,
    LatticePoint,
    PlanarField,
    WeightVector,
    directional_map,
    monomial_pullback,
)
from .polys import primitive

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class Segment:
    """One boundary segment, oriented along the counterclockwise cycle."""

    start: LatticePoint
    end: LatticePoint
    inward_normal: tuple[int, int]
    level: int
    tag: str
    points: tuple[LatticePoint, ...]

    @property
    def direction(self) -> tuple[int, int]:
        return primitive((self.end[0] - self.start[0], self.end[1] - self.start[1]))


@dataclass(frozen=True)
class Polytope:
    support: tuple[LatticePoint, ...]
    vertices: tuple[LatticePoint, ...]
    segments: tuple[Segment, ...]
    lower: tuple[Segment, ...]
    upper: tuple[Segment, ...]

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_ccw(points: Iterable[LatticePoint]) -> list[LatticePoint]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lo: list[LatticePoint] = []
    for p in pts:
        while len(lo) >= 2 and _cross(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    hi: list[LatticePoint] = []
    for p in reversed(pts):
        while len(hi) >= 2 and _cross(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return lo[:-1] + hi[:-1]


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _points_on(support, normal, level, start, end) -> tuple[LatticePoint, ...]:
    d = (end[0] - start[0], end[1] - start[1])
    on = [p for p in support if _dot(normal, p) == level]
    on.sort(key=lambda p: _dot(p, d))
    return tuple(on)


def _make_segment(support, start, end, normal, tag) -> Segment:
    level = _dot(normal, start)
    if _dot(normal, end) != level:
        raise InternalConsistencyError(
            f"segment {start}..{end} is not orthogonal to {normal}")
    if any(_dot(normal, p) < level for p in support):
        raise InternalConsistencyError(f"normal {normal} is not inward")
    return Segment(
        start=start,
        end=end,
        inward_normal=normal,
        level=level,
        tag=tag,
        points=_points_on(support, normal, level, start, end),
    )


def polytope_from_support(points: Iterable[LatticePoint]) -> Polytope:
    support = tuple(sorted({(int(p[0]), int(p[1])) for p in points}))
    if not support:
        raise FieldError("empty support has no Newton polytope")
    verts = _hull_ccw(support)
    if len(verts) == 1:
        return Polytope(support, tuple(verts), (), (), ())
    if len(verts) == 2:
        v, w = verts  # v is lexicographically smaller
        d = (w[0] - v[0], w[1] - v[1])
        n1 = primitive((-d[1], d[0]))
        n2 = (-n1[0], -n1[1])
        # the lower copy takes the orientation whose normal points toward the
        # open first quadrant; the tie (normals +-(1,-1)) goes up-left
        s1 = _dot(n1, (1, 1))
        if s1 > 0 or (s1 == 0 and n1 == (1, -1)):
            low_n, up_n = n1, n2
        else:
            low_n, up_n = n2, n1
        lower_seg = _make_segment(support, v, w, low_n, LOWER)
        upper_seg = _make_segment(support, w, v, up_n, UPPER)
        segs = (lower_seg, upper_seg)
        return Polytope(support, tuple(verts), segs, (lower_seg,), (upper_seg,))
    segs = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        d = (w[0] - v[0], w[1] - v[1])
        normal = primitive((-d[1], d[0]))
        tag = LOWER if normal[0] >= 0 and normal[1] >= 0 else UPPER
        segs.append(_make_segment(support, v, w, normal, tag))
    lower = tuple(s for s in segs if s.tag == LOWER)
    upper = tuple(s for s in segs if s.tag == UPPER)
    return Polytope(support, tuple(verts), tuple(segs), lower, upper)


def build_polytope(field: PlanarField) -> Polytope:
    if field.is_zero:
        raise FieldError("empty support: the zero field has no Newton polytope")
    return polytope_from_support(field.support())


def split_boundary(p: Polytope) -> tuple[tuple[Segment, ...], tuple[Segment, ...]]:
    return p.lower, p.upper


@dataclass(frozen=True)
class MainFeatures:
    p0: LatticePoint
    ph: LatticePoint
    gamma1: Optional[Segment]
    gammah: Optional[Segment]


def main_features(p: Polytope) -> MainFeatures:
    p0 = p.support[0]
    top = max(n for _, n in p.support)
    ph = max(pt for pt in p.support if pt[1] == top)
    gamma1 = p.segments[0] if p.segments else None
    gammah = None
    for s in p.segments:
        if s.end == ph:
            gammah = s
            break
    return MainFeatures(p0=p0, ph=ph, gamma1=gamma1, gammah=gammah)


def is_favorable(p: Polytope) -> bool:
    """True when some upper segment has strictly negative slope."""
    return any(s.inward_normal[0] < 0 and s.inward_normal[1] < 0 for s in p.upper)


def plc_weight(p: Polytope) -> tuple[WeightVector, int]:
    """Weight read off the upper segment arriving at the top vertex, plus the
    weighted level of the line carrying it."""
    if not is_favorable(p):
        raise FieldError(
            "polytope is not favorable: no upper segment has negative slope; "
            "apply make_favorable or pass an explicit weight"
        )
    g = main_features(p).gammah
    if g is None or g.tag != UPPER:
        raise InternalConsistencyError("favorable polytope has no top segment")
    nx, ny = g.inward_normal
    if not (nx < 0 and ny < 0):
        raise InternalConsistencyError(
            "favorable polytope must end in a negative-slope segment")
    return WeightVector(-nx, -ny), -g.level


@dataclass(frozen=True)
class UpperPrincipalPart:
    """The field restricted to the upper boundary of its polytope, whose
    segments are ``polytope.upper``."""

    field: PlanarField
    polytope: Polytope


def upper_principal_part(field: PlanarField, p: Polytope) -> UpperPrincipalPart:
    """The restriction of ``field`` to the upper boundary of its polytope ``p``."""
    if p.is_point:
        # a one-point polytope is its own boundary on both sides
        return UpperPrincipalPart(field=field, polytope=p)
    keep = {q for s in p.upper for q in s.points}
    return UpperPrincipalPart(field=field.restricted(keep), polytope=p)


def polytope_after_plc(p: Polytope, w: WeightVector, direction: str) -> Polytope:
    """Support image of the compactified field in one directional chart.

    The chart exponent matrix sends (m, n) to (n, delta - d) toward X and to
    (m, delta - d) toward Y, with d the weighted level and delta the maximal
    level over the support; sign conjugation in the negative charts never
    moves support points.  The image is read off the pullback of a field
    with a nonzero log vector at every support point.
    """
    forward, signs = directional_map(w, direction)
    delta = max(w.level(pt) for pt in p.support)
    u_num, v_num, _ = monomial_pullback(dict.fromkeys(p.support, (1, 1)), 1,
                                        forward, signs, (0, delta))
    return polytope_from_support([(i - 1, j) for i, j in u_num]
                                 + [(i, j - 1) for i, j in v_num])
