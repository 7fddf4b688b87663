"""Simple fans adapted to the upper boundary, and their chart atlases.

A fan here is an ordered chain of primitive integer vectors running from
(0,1) to (1,0) the long way around (through the second, third and fourth
quadrants) such that every consecutive pair is a positively oriented
unimodular basis.  The chain must contain the inward normals of the upper
boundary segments (the skeleton), must separate normals of consecutive
upper segments by at least one auxiliary vector, and must be minimal in
the sense that no auxiliary interior vector can be deleted without
breaking one of those constraints.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .fields import InternalConsistencyError
from .polys import det2, xgcd
from .polytope import Polytope

IVec = tuple[int, int]

#: every reflex gap strictly contains the antidiagonal direction, which makes
#: it a safe routing point when no single insertion closes the gap
ANCHOR: IVec = (-1, -1)


class FanError(ValueError):
    """A skeleton that cannot be completed, or an invalid fan."""


class SweepKey(tuple):
    """(sector, x, y) for a direction (x, y) in lowest terms.

    The sectors 0-6 are (0,1), the second quadrant, (-1,0), the third
    quadrant, (0,-1), the fourth quadrant and (1,0).  Within a quadrant the
    sweep turns counterclockwise, so there one integer cross-multiplication
    orders two directions.  Equality and hashing are the tuple's.
    """

    def __lt__(self, other: "SweepKey") -> bool:
        return self[0] < other[0] or (
            self[0] == other[0] and self[1] * other[2] > self[2] * other[1])

    def __gt__(self, other: "SweepKey") -> bool:
        return other < self

    def __le__(self, other: "SweepKey") -> bool:
        return not other < self

    def __ge__(self, other: "SweepKey") -> bool:
        return not self < other


def sweep_key(v: IVec) -> SweepKey:
    """Sort key ordering directions from (0,1) around to (1,0).

    The sweep starts at (0,1), passes through the second quadrant, (-1,0),
    the third quadrant, (0,-1) and the fourth quadrant, and ends at (1,0).
    Directions in the open first quadrant are not part of the sweep and
    raise ValueError.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no direction")
    if x > 0 and y > 0:
        raise ValueError(f"direction {v} lies in the open first quadrant")
    if x == 0:
        sector = 0 if y > 0 else 4
    elif y == 0:
        sector = 2 if x < 0 else 6
    else:
        sector = 1 if y > 0 else 3 if x < 0 else 5
    g = gcd(x, y)
    return SweepKey((sector, x // g, y // g))


class ChartMap(NamedTuple):
    """Monomial coordinate change attached to one cone of the fan.

    ``forward`` holds the exponents of (x, y) in terms of (u, v):
    x = u**forward[0][0] * v**forward[0][1] and similarly for y.
    ``inverse`` holds the exponents of (u, v) in terms of (x, y).
    ``divisor`` names the locus representing infinity in this chart:
    "v" for the first chart, "u" for the last, "uv" for interior charts
    and "none" for the identity chart of the finite plane.
    """

    index: int
    basis: tuple[IVec, IVec]
    forward: tuple[tuple[int, int], tuple[int, int]]
    inverse: tuple[tuple[int, int], tuple[int, int]]
    divisor: str


class SimpleFan(NamedTuple):
    vectors: tuple[IVec, ...]
    skeleton_flags: tuple[bool, ...]

    @property
    def skeleton_vectors(self) -> tuple[IVec, ...]:
        return tuple(v for v, f in zip(self.vectors, self.skeleton_flags) if f)

    def to_json(self) -> dict:
        return {
            "vectors": [list(v) for v in self.vectors],
            "skeleton_flags": list(self.skeleton_flags),
            "charts": [
                {
                    "index": c.index,
                    "forward": [list(r) for r in c.forward],
                    "inverse": [list(r) for r in c.inverse],
                    "divisor": c.divisor,
                }
                for c in chart_maps(self)
            ],
        }


def skeleton(p: Polytope) -> list[IVec]:
    """Inward normals of the upper boundary, in sweep order.

    A point polytope has no boundary segments and yields the empty
    skeleton; completion then falls back to the homogeneous fan.
    """
    return [s.inward_normal for s in p.upper]


def _unimodular_chain(a: IVec, b: IVec) -> list[IVec]:
    """Minimal insertion chain for a pair with det(a, b) >= 1.

    Repeatedly splits off the vector z = (b + t*a) / det(a, b) where t is
    the unique residue making the quotient integral; then det(a, z) = 1 and
    det(z, b) = t < det(a, b), so continuing from (z, b) terminates with the
    continued-fraction chain of the cone.  The chain can be as long as an
    exponent of the field, so it is built in a loop, not by recursion.
    """
    d = det2(a, b)
    if d < 1:
        raise FanError(f"chain requested across a non-convex gap {a}..{b}")
    chain: list[IVec] = []
    while d > 1:
        g, u, v = xgcd(a[0], a[1])
        if g != 1:
            raise FanError(f"non-primitive fan vector {a}")
        t = (-(u * b[0] + v * b[1])) % d
        zx, zy = b[0] + t * a[0], b[1] + t * a[1]
        if t == 0 or zx % d or zy % d:
            raise FanError(f"cannot refine the cone {a}..{b}")
        z = (zx // d, zy // d)
        if det2(a, z) != 1 or det2(z, b) != t:
            raise InternalConsistencyError(f"bad split {z} of the cone {a}..{b}")
        chain.append(z)
        a, d = z, t
    return chain


def _fill_gap(a: IVec, b: IVec) -> list[IVec]:
    """Vectors to insert between consecutive rays a, b of the spine."""
    d = det2(a, b)
    if d >= 1:
        return _unimodular_chain(a, b)
    # the gap opens 180 degrees or more; a single insertion works exactly
    # when (a + b) / d is a lattice vector outside the open first quadrant
    if d != 0 and (a[0] + b[0]) % d == 0 and (a[1] + b[1]) % d == 0:
        z = ((a[0] + b[0]) // d, (a[1] + b[1]) // d)
        if not (z[0] > 0 and z[1] > 0):
            if det2(a, z) != 1 or det2(z, b) != 1:
                raise InternalConsistencyError(
                    f"bad insertion {z} into the gap {a}..{b}")
            return [z]
    # otherwise route through the antidiagonal, which splits the gap into
    # two convex cones
    if not (sweep_key(a) < sweep_key(ANCHOR) < sweep_key(b)):
        raise FanError(f"gap {a}..{b} does not admit a completion")
    return _unimodular_chain(a, ANCHOR) + [ANCHOR] + _unimodular_chain(ANCHOR, b)


def _validate(vectors: list[IVec], flags: list[bool],
              adjacent_pairs: set[tuple[IVec, IVec]]) -> None:
    if vectors[0] != (0, 1) or vectors[-1] != (1, 0):
        raise FanError("fan must run from (0,1) to (1,0)")
    keys = []
    for j, v in enumerate(vectors):
        if gcd(*v) != 1:
            raise FanError(f"fan vector {v} is not primitive")
        if 0 < j < len(vectors) - 1 and v[0] > 0 and v[1] > 0:
            raise FanError(f"fan vector {v} lies in the open first quadrant")
        keys.append(sweep_key(v))
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        raise FanError("fan vectors out of sweep order")
    for i in range(len(vectors) - 1):
        if det2(vectors[i], vectors[i + 1]) != 1:
            raise FanError(
                f"consecutive pair {vectors[i]}, {vectors[i+1]} is not unimodular")
        if (vectors[i], vectors[i + 1]) in adjacent_pairs:
            raise FanError(
                f"normals of consecutive upper segments {vectors[i]}, "
                f"{vectors[i+1]} must not be consecutive in the fan")
    for j in range(1, len(vectors) - 1):
        if flags[j]:
            continue
        prev, nxt = vectors[j - 1], vectors[j + 1]
        if det2(prev, nxt) == 1 and (prev, nxt) not in adjacent_pairs:
            raise FanError(f"fan is not minimal: {vectors[j]} is removable")


def complete_fan(skeleton_vectors: Sequence[IVec]) -> SimpleFan:
    """Complete a skeleton of upper-boundary normals to a simple fan.

    Consecutive skeleton vectors are taken to be normals of consecutive
    upper segments, which may not end up adjacent in the fan.  That holds
    for every skeleton read off a polytope: the upper boundary is one
    connected chain, so its normals form one contiguous run of the sweep.
    """
    sk = []
    for v in skeleton_vectors:
        if not (isinstance(v, (tuple, list)) and len(v) == 2
                and all(type(c) is int for c in v)):
            raise FanError(f"skeleton entry {v!r} is not a pair of integers")
        v = tuple(v)
        sk.append(v)
        if v == (0, 0) or gcd(*v) != 1:
            raise FanError(f"skeleton vector {v} is not primitive")
        if v[0] > 0 and v[1] > 0:
            raise FanError(f"skeleton vector {v} lies in the open first quadrant")
        if v in ((0, 1), (1, 0)):
            raise FanError(f"skeleton vector {v} coincides with a fan endpoint")
    keys = [sweep_key(v) for v in sk]
    if any(keys[i] >= keys[i + 1] for i in range(len(sk) - 1)):
        raise FanError("skeleton vectors must be strictly ordered by sweep angle")
    adjacent_pairs = set(zip(sk, sk[1:]))

    spine = [(0, 1)] + sk + [(1, 0)]
    vectors: list[IVec] = [(0, 1)]
    flags: list[bool] = [False]
    for i in range(len(spine) - 1):
        for z in _fill_gap(spine[i], spine[i + 1]):
            vectors.append(z)
            flags.append(False)
        vectors.append(spine[i + 1])
        flags.append(0 < i + 1 < len(spine) - 1)

    # separate normals of consecutive upper segments (their cones meet in a
    # ray that must carry its own chart); the vector sum is the unique
    # single insertion preserving unimodularity
    for a, b in zip(sk, sk[1:]):
        i = vectors.index(a)
        if vectors[i + 1] == b:
            vectors.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
            flags.insert(i + 1, False)

    # prune auxiliary vectors until none can be deleted without breaking
    # unimodularity or reuniting an adjacent pair
    changed = True
    while changed:
        changed = False
        for j in range(1, len(vectors) - 1):
            if flags[j]:
                continue
            prev, nxt = vectors[j - 1], vectors[j + 1]
            if det2(prev, nxt) == 1 and (prev, nxt) not in adjacent_pairs:
                del vectors[j]
                del flags[j]
                changed = True
                break

    _validate(vectors, flags, adjacent_pairs)
    return SimpleFan(tuple(vectors), tuple(flags))


def build_fan(p: Polytope) -> SimpleFan:
    """Skeleton extraction plus completion."""
    return complete_fan(skeleton(p))


def chart_maps(fan: SimpleFan) -> list[ChartMap]:
    """The atlas of monomial charts, one per cone, plus the identity chart.

    Chart j (for j >= 1) uses the basis pair (xi_{j-1}, xi_j) and sends
    (u, v) to x = u**a_{j-1} v**a_j, y = u**b_{j-1} v**b_j.  Index 0 is the
    identity chart of the finite plane.
    """
    charts = [ChartMap(0, ((1, 0), (0, 1)),
                       ((1, 0), (0, 1)), ((1, 0), (0, 1)), "none")]
    vs = fan.vectors
    s = len(vs) - 1
    for j in range(1, s + 1):
        (a0, b0), (a1, b1) = vs[j - 1], vs[j]
        forward = ((a0, a1), (b0, b1))
        inverse = ((b1, -a1), (-b0, a0))
        divisor = "v" if j == 1 else ("u" if j == s else "uv")
        charts.append(ChartMap(j, (vs[j - 1], vs[j]), forward, inverse, divisor))
    return charts
