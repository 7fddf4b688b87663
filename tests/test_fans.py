import json
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import apply_forward, apply_inverse, shortest_unimodular_chain_length
from polyfield.cli import main
from polyfield.fans import (
    FanError,
    build_fan,
    chart_maps,
    complete_fan,
    skeleton,
    sweep_key,
    _unimodular_chain,
)
from polyfield.fields import parse_field
from polyfield.polys import det2
from polyfield.polytope import build_polytope

QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"

NINE = [(0, 1), (-1, 0), (-2, -1), (-3, -2), (-1, -1),
        (-2, -3), (-1, -2), (0, -1), (1, 0)]


def _check_fan(fan, adjacent_pairs):
    vs = fan.vectors
    assert vs[0] == (0, 1) and vs[-1] == (1, 0)
    keys = [sweep_key(v) for v in vs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for j, v in enumerate(vs):
        assert gcd(*v) == 1
        if 0 < j < len(vs) - 1:
            assert not (v[0] > 0 and v[1] > 0)
    for a, b in zip(vs, vs[1:]):
        assert det2(a, b) == 1
        assert (a, b) not in adjacent_pairs
    # nothing auxiliary can be deleted
    for j in range(1, len(vs) - 1):
        if fan.skeleton_flags[j]:
            continue
        prev, nxt = vs[j - 1], vs[j + 1]
        assert det2(prev, nxt) != 1 or (prev, nxt) in adjacent_pairs


def test_sweep_order():
    ordered = [(0, 1), (-1, 3), (-1, 1), (-3, 1), (-1, 0), (-3, -1),
               (-1, -1), (-1, -3), (0, -1), (1, -3), (1, -1), (3, -1), (1, 0)]
    shuffled = ordered[:]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled, key=sweep_key) == ordered


def test_sweep_rejects_bad_directions():
    with pytest.raises(ValueError):
        sweep_key((0, 0))
    with pytest.raises(ValueError):
        sweep_key((2, 3))


def test_empty_skeleton_gives_homogeneous_fan():
    fan = complete_fan([])
    assert fan.vectors == ((0, 1), (-1, -1), (1, 0))
    assert fan.skeleton_flags == (False, False, False)


def test_single_normal_skeleton():
    fan = complete_fan([(-1, -1)])
    assert fan.vectors == ((0, 1), (-1, -1), (1, 0))
    assert fan.skeleton_flags == (False, True, False)


def test_nine_vector_fan():
    fan = complete_fan([(-2, -1), (-1, -1), (-1, -2)])
    assert list(fan.vectors) == NINE
    assert fan.skeleton_vectors == ((-2, -1), (-1, -1), (-1, -2))
    flags = [False] * 9
    for i in (2, 4, 6):
        flags[i] = True
    assert list(fan.skeleton_flags) == flags


def test_fan_from_quartic_polytope():
    p = build_polytope(parse_field(QUARTIC))
    assert skeleton(p) == [(-2, -1), (-1, -1), (-1, -2)]
    fan = build_fan(p)
    assert list(fan.vectors) == NINE
    # each skeleton vector is the inward normal of its upper segment
    assert [s.inward_normal for s in p.upper] == list(fan.skeleton_vectors)


def test_consecutive_normals_are_separated():
    # (-2,-1), (-1,-1) is already unimodular, yet the normals of consecutive
    # upper segments get their sum between them
    fan = complete_fan([(-2, -1), (-1, -1)])
    assert fan.vectors == ((0, 1), (-1, 0), (-2, -1), (-3, -2), (-1, -1),
                           (1, 0))


def test_skeleton_of_segment_polytope():
    p = build_polytope(parse_field("dx = y; dy = x"))
    assert p.is_segment
    assert skeleton(p) == [(-1, -1)]
    fan = build_fan(p)
    assert fan.vectors == ((0, 1), (-1, -1), (1, 0))
    assert fan.skeleton_vectors == (p.upper[0].inward_normal,)


def test_completion_errors():
    with pytest.raises(FanError):
        complete_fan([(-1, -2), (-2, -1)])  # out of sweep order
    with pytest.raises(FanError):
        complete_fan([(1, 2)])  # open first quadrant
    with pytest.raises(FanError):
        complete_fan([(-2, -2)])  # not primitive
    with pytest.raises(FanError):
        complete_fan([(0, 1)])  # endpoint ray
    for entry in (1, (), (-1, -1, 0), (-1.0, -1), (True, False)):
        with pytest.raises(FanError, match="not a pair of integers"):
            complete_fan([entry])


@pytest.mark.parametrize("text", [
    "1", "[]", "(-1,-1),(1.5,2)", "(-1,-1,0)", "(True,False)",
    # deep nesting exhausts the parser: ast.literal_eval's MemoryError
    "-" * 100000 + "1",
], ids=["int", "empty", "float", "triple", "bools", "deep-nesting"])
def test_cli_fan_skeleton_rejects_what_is_not_integer_pairs(capsys, text):
    code = main(["fan", f"--skeleton={text}"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "FanError"


def test_random_skeletons_give_valid_minimal_fans():
    rng = random.Random(2024)
    pool = []
    for x in range(-5, 6):
        for y in range(-5, 6):
            if (x, y) == (0, 0) or gcd(x, y) != 1:
                continue
            if x > 0 and y > 0:
                continue
            if (x, y) in ((0, 1), (1, 0)):
                continue
            pool.append((x, y))
    for _ in range(200):
        count = rng.randint(0, 4)
        sk = sorted(rng.sample(pool, count), key=sweep_key)
        fan = complete_fan(sk)
        assert fan.skeleton_vectors == tuple(sk)
        _check_fan(fan, set(zip(sk, sk[1:])))


def test_chain_matches_breadth_first_search():
    vecs = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
            if (x, y) != (0, 0) and gcd(x, y) == 1]
    checked = 0
    for a in vecs:
        for b in vecs:
            if det2(a, b) < 1:
                continue
            chain = _unimodular_chain(a, b)
            full = [a] + chain + [b]
            for p, q in zip(full, full[1:]):
                assert det2(p, q) == 1
            assert len(chain) == shortest_unimodular_chain_length(a, b, bound=8)
            checked += 1
    assert checked > 100


def test_chart_maps_homogeneous_fan():
    fan = complete_fan([(-1, -1)])
    charts = chart_maps(fan)
    assert [c.divisor for c in charts] == ["none", "v", "u"]
    # x = 1/v, y = u/v
    assert charts[1].forward == ((0, -1), (1, -1))
    # x = v/u, y = 1/u
    assert charts[2].forward == ((-1, 1), (-1, 0))
    u, v = Fraction(3), Fraction(5)
    x, y = apply_forward(charts[1], u, v)
    assert (x, y) == (Fraction(1, 5), Fraction(3, 5))
    assert apply_inverse(charts[1], x, y) == (u, v)


def test_chart_maps_roundtrip_nine_vector_fan():
    fan = complete_fan([(-2, -1), (-1, -1), (-1, -2)])
    charts = chart_maps(fan)
    assert len(charts) == len(fan.vectors)  # identity chart plus one per cone
    assert charts[1].divisor == "v"
    assert charts[-1].divisor == "u"
    assert all(c.divisor == "uv" for c in charts[2:-1])
    pt = (Fraction(2), Fraction(3))
    for c in charts:
        assert apply_inverse(c, *apply_forward(c, *pt)) == pt
        assert apply_forward(c, *apply_inverse(c, *pt)) == pt


def test_fan_serializes():
    fan = complete_fan([(-2, -1), (-1, -1), (-1, -2)])
    blob = fan.to_json()
    assert blob["vectors"] == [list(v) for v in NINE]
    assert blob["skeleton_flags"][2] is True
    assert len(blob["charts"]) == 9
    assert blob["charts"][1]["divisor"] == "v"


def test_long_fan_needs_no_recursion(capsys):
    # x^n*y + y^3 has a chain of n + 3 fan vectors, so building the chain
    # must not take one stack frame per inserted vector
    text = "dx = x^1000*y + y^3; dy = x"
    assert main(["fan", "--field", text]) == 0
    vectors = json.loads(capsys.readouterr().out)["fan"]["vectors"]
    assert len(vectors) == 1003
    assert all(det2(a, b) == 1 for a, b in zip(vectors, vectors[1:]))
    assert main(["check-equivalence", "--field", text]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert len(report["inventory"]["field"]) == 1002 + 4
