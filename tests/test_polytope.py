import random
from fractions import Fraction as F

import pytest

from polyfield.fields import FieldError, WeightVector, parse_field
from polyfield.polytope import (
    build_polytope,
    is_favorable,
    main_features,
    plc_weight,
    polytope_after_plc,
    polytope_from_support,
    split_boundary,
    upper_principal_part,
)

QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"


def _brute_hull(points):
    """O(n^3) hull oracle: a point is a vertex iff some strict half-plane
    through it contains all other points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    if all((pts[1][0] - pts[0][0]) * (q[1] - pts[0][1])
           == (pts[1][1] - pts[0][1]) * (q[0] - pts[0][0]) for q in pts):
        return [pts[0], pts[-1]]
    verts = []
    for p in pts:
        others = [q for q in pts if q != p]
        is_vertex = False
        for q in pts:
            for r in pts:
                # direction candidates from all point pairs
                d = (r[0] - q[0], r[1] - q[1])
                if d == (0, 0):
                    continue
                nrm = (-d[1], d[0])
                val = nrm[0] * p[0] + nrm[1] * p[1]
                if all(nrm[0] * o[0] + nrm[1] * o[1] > val for o in others):
                    is_vertex = True
                    break
            if is_vertex:
                break
        if is_vertex:
            verts.append(p)
    return verts


def test_quartic_hull_and_split():
    p = build_polytope(parse_field(QUARTIC))
    assert p.support == ((-1, 3), (1, 2), (2, 1), (3, -1))
    assert p.vertices == ((-1, 3), (3, -1), (2, 1), (1, 2))
    lower, upper = split_boundary(p)
    assert len(lower) == 1 and len(upper) == 3
    low = lower[0]
    assert low.inward_normal == (1, 1) and low.level == 2
    assert low.points == ((-1, 3), (3, -1))
    ups = [(s.inward_normal, s.level) for s in upper]
    assert ups == [((-2, -1), -5), ((-1, -1), -3), ((-1, -2), -5)]
    assert upper[1].points == ((3, -1), (2, 1), (1, 2)) or upper[1].points == ((2, 1), (1, 2))
    with pytest.raises(AttributeError):
        low.level = 0


def test_quartic_upper_segment_points():
    p = build_polytope(parse_field(QUARTIC))
    pts = [set(s.points) for s in p.upper]
    assert pts == [{(3, -1), (2, 1)}, {(2, 1), (1, 2)}, {(1, 2), (-1, 3)}]


def test_axes_triangle_lower_split():
    # support {(0,0),(2,0),(0,2)}: the two axis-facing sides through the
    # origin are lower, the hypotenuse is upper with normal (-1,-1)
    p = polytope_from_support([(0, 0), (2, 0), (0, 2)])
    lower, upper = split_boundary(p)
    assert {s.inward_normal for s in lower} == {(0, 1), (1, 0)}
    assert len(upper) == 1
    assert upper[0].inward_normal == (-1, -1)
    assert upper[0].level == -2


def test_segment_polytope_in_both_lists():
    p = polytope_from_support([(0, 2), (2, 0), (1, 1)])
    assert p.is_segment
    lower, upper = split_boundary(p)
    assert len(lower) == 1 and len(upper) == 1
    assert lower[0].inward_normal == (1, 1) and lower[0].level == 2
    assert upper[0].inward_normal == (-1, -1) and upper[0].level == -2
    assert set(lower[0].points) == {(0, 2), (1, 1), (2, 0)}
    assert set(upper[0].points) == {(0, 2), (1, 1), (2, 0)}


def test_point_polytope():
    p = polytope_from_support([(0, 0)])
    assert p.is_point
    assert p.segments == () and p.lower == () and p.upper == ()


def test_hull_matches_brute_force_oracle():
    rng = random.Random(20260815)
    for _ in range(120):
        n = rng.randint(1, 12)
        pts = [(rng.randint(-4, 6), rng.randint(-4, 6)) for _ in range(n)]
        p = polytope_from_support(pts)
        assert sorted(p.vertices) == _brute_hull(pts)


def test_normals_point_inward():
    rng = random.Random(31337)
    for _ in range(80):
        pts = [(rng.randint(-3, 5), rng.randint(-3, 5)) for _ in range(rng.randint(3, 10))]
        p = polytope_from_support(pts)
        for s in p.segments:
            nx, ny = s.inward_normal
            assert all(nx * m + ny * n >= s.level for (m, n) in p.support)
            if not p.is_segment:
                # a degenerate polytope carries the same edge with both
                # orientations, so the componentwise rule only applies to
                # genuine 2-d boundaries
                tag_lower = nx >= 0 and ny >= 0
                assert (s.tag == "lower") == tag_lower


def test_sign_rule_on_quartic():
    # on this polytope every lower level is positive and every upper level
    # negative (the sign rule holds whenever no boundary line meets 0)
    p = build_polytope(parse_field(QUARTIC))
    assert all(s.level > 0 for s in p.lower)
    assert all(s.level < 0 for s in p.upper)


def test_main_features_quartic():
    p = build_polytope(parse_field(QUARTIC))
    feats = main_features(p)
    assert feats.p0 == (-1, 3)
    assert feats.ph == (-1, 3)
    assert feats.gamma1.tag == "lower"
    assert feats.gamma1.start == (-1, 3) and feats.gamma1.end == (3, -1)
    assert feats.gammah.tag == "upper"
    assert feats.gammah.inward_normal == (-1, -2)


def test_plc_weight_quartic():
    p = build_polytope(parse_field(QUARTIC))
    w, delta = plc_weight(p)
    assert (w.alpha, w.beta) == (1, 2)
    assert delta == 5


def test_plc_weight_second_example():
    # upper main segment from (0,3) to (3,1) has primitive normal (2,3)
    p = polytope_from_support([(0, 3), (3, 1), (0, 0), (3, 0)])
    w, delta = plc_weight(p)
    assert (w.alpha, w.beta) == (2, 3)
    assert delta == 9


def test_plc_weight_requires_favorable():
    p = polytope_from_support([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert not is_favorable(p)
    with pytest.raises(FieldError):
        plc_weight(p)


def test_is_favorable_cases():
    assert is_favorable(build_polytope(parse_field(QUARTIC)))
    # vertical and horizontal upper sides only
    assert not is_favorable(polytope_from_support([(0, 0), (3, 0), (3, 2), (0, 2)]))
    # negative-slope segment polytope is favorable
    assert is_favorable(polytope_from_support([(0, 2), (2, 0)]))
    # positive-slope segment polytope is not
    assert not is_favorable(polytope_from_support([(0, 0), (2, 2)]))


def test_upper_principal_part_quartic():
    f = parse_field(QUARTIC)
    upp = upper_principal_part(f, build_polytope(f))
    # all four support points lie on the upper boundary
    assert upp.field == f
    assert len(upp.polytope.upper) == 3
    assert set(upp.field.support()) == {q for seg in upp.polytope.upper
                                         for q in seg.points}


def test_upper_principal_part_drops_interior():
    f = parse_field("dx = y^3 - x^3*y + x; dy = -x^3 + x*y^3")
    upp = upper_principal_part(f, build_polytope(f))
    assert (0, 0) not in upp.field.support()
    assert upp.field == parse_field(QUARTIC)


def test_upper_principal_part_point():
    f = parse_field("dx = x; dy = y")
    upp = upper_principal_part(f, build_polytope(f))
    assert upp.field == f
    assert upp.polytope.upper == ()


def test_polytope_after_plc_quartic_images():
    p = build_polytope(parse_field(QUARTIC))
    w = WeightVector(1, 2)
    py = polytope_after_plc(p, w, "Ypos")
    assert py.support == ((-1, 0), (1, 0), (2, 1), (3, 4))
    px = polytope_after_plc(p, w, "Xpos")
    assert px.support == ((-1, 4), (1, 1), (2, 0), (3, 0))
    assert polytope_after_plc(p, w, "Yneg").support == py.support
    assert polytope_after_plc(p, w, "Xneg").support == px.support
    with pytest.raises(ValueError):
        polytope_after_plc(p, w, "sideways")


def test_empty_support_raises():
    with pytest.raises(FieldError):
        polytope_from_support([])
