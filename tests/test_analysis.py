import gc
import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    add,
    inventory_json,
    principal_part,
    principal_return_integral,
    scaled,
    up,
    up_eval,
    up_from_roots,
    up_mul,
)
from polyfield import analysis, charts, cli, polys, polytope, portrait, trig
from polyfield.analysis import (
    CURVE,
    Analysis,
    DEGENERATE,
    HYPERBOLIC,
    SEMI_HYPERBOLIC,
    approximate,
    check_no_singularity_curve,
    check_nondegenerate,
    classify,
    divisor_singularities,
    equivalence_verdict,
    return_map_test,
    singularity_inventory,
)
from polyfield.charts import directional_plc
from polyfield.fans import build_fan
from polyfield.fields import (
    FieldError,
    InternalConsistencyError,
    PlanarField,
    WeightVector,
    make_favorable,
    parse_field,
    shear,
)
from polyfield.polys import real_roots, up_deriv
from polyfield.polytope import build_polytope, plc_weight

QUARTIC = parse_field("dx = y^3 - x^3*y; dy = -x^3 + x*y^3")
W12 = WeightVector(1, 2)


# ---------------------------------------------------------------------------
# locating and classifying


def test_quartic_x_chart_records():
    recs = divisor_singularities(directional_plc(QUARTIC, W12, "Xpos"))
    assert len(recs) == 2
    origin, node = recs
    assert origin.position.exact == 0
    assert origin.classification == DEGENERATE
    assert (origin.tangent.exact, origin.transverse.exact) == (0, 0)
    assert not origin.characteristic_orbit
    assert node.position.exact == Fraction(1, 2)
    assert node.classification == HYPERBOLIC
    assert node.tangent.exact == Fraction(-1, 4)
    assert node.transverse.exact == Fraction(-1, 8)
    assert node.characteristic_orbit
    # the records and their eigenvalues are frozen
    with pytest.raises(AttributeError):
        node.classification = DEGENERATE
    with pytest.raises(AttributeError):
        node.tangent.sign = 1


def test_quartic_y_chart_records():
    recs = divisor_singularities(directional_plc(QUARTIC, W12, "Ypos"))
    assert len(recs) == 2
    neg, pos = recs
    for r, sign in ((neg, -1), (pos, 1)):
        # the position is exactly a root of u^2 - 2
        assert r.position.sign_of((Fraction(-2), Fraction(0), Fraction(1))) == 0
        assert not r.position.is_rational
        assert r.classification == HYPERBOLIC
        assert r.characteristic_orbit
        assert abs(approximate(r.position) - sign * math.sqrt(2)) < 1e-9
        assert abs(r.tangent.approx + sign * math.sqrt(2)) < 1e-9
        assert abs(r.transverse.approx + sign * math.sqrt(2) / 2) < 1e-9


def test_quartic_fan_chart_records():
    charts = Analysis(QUARTIC).fan_charts
    assert divisor_singularities(charts["fan:1"]) == []
    recs = divisor_singularities(charts["fan:2"])
    assert [r.position.exact for r in recs] == [0, 2]
    corner, node = recs
    assert (corner.tangent.exact, corner.transverse.exact) == (-2, 1)
    assert (node.tangent.exact, node.transverse.exact) == (2, 1)
    assert all(r.classification == HYPERBOLIC for r in recs)
    # the second branch contributes only the shared origin, which is dropped
    assert all(r.branch == "v=0" for r in recs)


def test_radial_field_gives_curve_record():
    f = parse_field("dx = x; dy = y")
    recs = divisor_singularities(directional_plc(f, WeightVector(1, 1), "Xpos"))
    assert len(recs) == 1
    assert recs[0].classification == CURVE
    assert recs[0].position is None
    # the transverse coefficient is -1, so orbits still cross the divisor
    assert recs[0].characteristic_orbit


def test_semi_hyperbolic_with_transverse_eigenvalue():
    # the x-chart restriction is (1-u)^2: a double root off the origin with
    # a nonzero transverse eigenvalue
    f = parse_field("dx = x^2; dy = x^2 - x*y + y^2")
    recs = divisor_singularities(directional_plc(f, WeightVector(1, 1), "Xpos"))
    assert [r.position.exact for r in recs] == [1]
    rec = recs[0]
    assert rec.classification == SEMI_HYPERBOLIC
    assert rec.tangent.sign == 0
    assert rec.transverse.exact == -1
    assert rec.characteristic_orbit


def test_semi_hyperbolic_along_the_divisor_has_no_orbit():
    f = parse_field("dx = x; dy = y + x*y")
    recs = divisor_singularities(directional_plc(f, WeightVector(1, 1), "Xpos"))
    assert [r.classification for r in recs] == [SEMI_HYPERBOLIC]
    assert recs[0].tangent.exact == 1
    assert recs[0].transverse.sign == 0
    assert not recs[0].characteristic_orbit


def test_classify_is_idempotent():
    cf = directional_plc(QUARTIC, W12, "Ypos")
    for rec in divisor_singularities(cf):
        again = classify(cf, rec)
        assert again == rec


def test_eigenvalues_match_fraction_horner_at_the_refined_midpoint():
    # two irrational pairs, (u^2 - 2) and a shifted copy, and two rational
    # roots, scaled by integers large enough to leave the float range
    rng = random.Random(4242)
    shifted = up([Fraction(-17, 9), Fraction(-2, 3), 1])  # (u - 1/3)^2 - 2
    shape = up_mul(up_mul(up([-2, 0, 1]), shifted),
                   up_from_roots([Fraction(5, 2), -4]))
    for scale in (1, 10**30 + 7, Fraction(3, 10**40), 10**400):
        restriction = up(scale * c for c in shape)
        roots = real_roots(restriction)
        assert sum(not r.is_rational for r in roots) == 4 and len(roots) == 6
        transverse = up(scale * Fraction(rng.randint(-10**30, 10**30),
                                         rng.randint(1, 7)) for _ in range(4))
        for root in roots:
            for poly in (up_deriv(restriction), transverse, ()):
                den = math.lcm(*(c.denominator for c in poly))
                e = analysis._eigenvalue_at(root, charts._reading_form(
                    tuple(c.numerator * (den // c.denominator) for c in poly),
                    den))
                if root.is_rational:
                    val = up_eval(poly, root.lo)
                    assert type(e.exact) is Fraction and e.exact == val
                else:
                    r = root.refine(Fraction(1, 10**15))
                    val = up_eval(poly, (r.lo + r.hi) / 2)
                    assert e.exact is None
                assert e.sign == (val > 0) - (val < 0)
                assert e.value == val
                # no value here comes near either end of the float range
                if val == 0 or 1e-300 < abs(val) < 1e300:
                    assert e.approx == float(val)
                else:
                    assert e.approx is None


# ---------------------------------------------------------------------------
# hypothesis checks


def test_quartic_hypotheses_hold():
    upp = Analysis(QUARTIC).upper
    ok, witnesses = check_nondegenerate(upp)
    assert ok and witnesses == ()
    assert check_no_singularity_curve(upp)


def test_degenerate_segment_produces_witness():
    # (y^2 + x^2 y) d/dx vanishes on the parabola y = -x^2
    f = parse_field("dx = y^2 + x^2*y; dy = 0")
    ok, witnesses = check_nondegenerate(Analysis(f).upper)
    assert not ok
    for w in witnesses:
        x, y = w.point
        assert abs(y + x * x) < 1e-9


def test_witness_search_isolates_once_per_twist_parity(monkeypatch):
    # one integer gcd g per upper segment serves both twists, g(t) and
    # g(-t), and quadrants whose twist t -> -t agrees share its roots
    calls = Counter()
    for name in ("_igcd", "real_roots"):
        real = getattr(analysis, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)
    upp = Analysis(parse_field("dx = y^2 + x^2*y; dy = 0")).upper
    ok, witnesses = check_nondegenerate(upp)
    assert len(upp.polytope.upper) == 1
    assert calls == {"_igcd": 1, "real_roots": 2}
    # the parabola y = -x^2 meets the two lower quadrants, in loop order
    assert not ok
    assert [w.quadrant for w in witnesses] == [(1, -1), (-1, -1)]


def test_witness_coordinates_outside_the_float_range_are_none():
    # y = +-sqrt(c) x^2 meets x = +-1 at irrational y far above, and with
    # c inverted far below, the float range; so do the lines y = +-sqrt(c) x
    c = 2 * 10**800
    for text in (f"dx = y^2 - {c}*x^4; dy = 0", f"dx = {c}*y^2 - x^4; dy = 0",
                 f"dx = y^3 - {c}*x^2*y; dy = 0"):
        ok, witnesses = check_nondegenerate(Analysis(parse_field(text)).upper)
        assert not ok and len(witnesses) == 4
        for w in witnesses:
            assert w.point_exact is None
            assert w.point == (float(w.quadrant[0]), None)


def test_common_factor_is_detected():
    f = parse_field("dx = x^2 - x*y; dy = x*y - y^2")
    assert not check_no_singularity_curve(Analysis(f).upper)
    g = parse_field("dx = x; dy = y")
    assert check_no_singularity_curve(Analysis(g).upper)


# ---------------------------------------------------------------------------
# the verdict


def test_quartic_verdict_equivalent():
    rep = equivalence_verdict(QUARTIC)
    assert rep.verdict == "Equivalent"
    assert rep.reasons == ()
    assert rep.shear == 0
    assert rep.weight == W12
    assert all(rep.hypotheses.values())
    assert len(rep.to_json()["match_table"]) \
        == sum(map(len, rep.inventory.values()))
    # here the upper principal part is the whole field; a separate analysis
    # of it finds the inventory the report writes for both sides
    prin = principal_part(Analysis(rep.field_after_shear)).inventory
    inv = rep.to_json()["inventory"]
    assert inv["field"] == inv["principal_part"] == inventory_json(prin)


# the field has lower-order terms, so its upper principal part differs
PERTURBED = parse_field("dx = y^3 - x^3*y + x^2 - 3*y; "
                        "dy = -x^3 + x*y^3 + 2*x*y - 1")


def _positions(rep):
    return [r.position for recs in rep.inventory.values() for r in recs
            if r.position is not None]


def test_verdict_isolates_each_restriction_once(monkeypatch):
    calls = Counter()
    isolate = analysis.real_roots

    def counting(f):
        calls[tuple(f)] += 1
        return isolate(f)

    monkeypatch.setattr(analysis, "real_roots", counting)
    rep = equivalence_verdict(PERTURBED)
    a = Analysis(rep.field_after_shear)
    assert a.weight == rep.weight
    restrictions = {branch.restriction
                    for cf in (a.fan_charts | a.directional).values()
                    for branch in cf.branches.values() if branch.restriction}
    assert restrictions
    assert {r: calls[r] for r in restrictions} == dict.fromkeys(restrictions, 1)
    # the upper principal part differs from the field here; a separate
    # analysis of it finds the inventory the report writes for it
    prin = principal_part(a).inventory
    inv = rep.to_json()["inventory"]
    assert prin and inv["principal_part"] == inventory_json(prin)


def test_divisor_face_off_the_upper_boundary_is_an_internal_error(monkeypatch):
    # drop the largest support point from the upper principal part: in both
    # fields below it is a vertex of the upper boundary that a chart reads
    real = analysis.upper_principal_part

    def lossy(field, p):
        upp = real(field, p)
        kept = set(upp.field.support()) - {max(field.support())}
        return upp._replace(field=upp.field.restricted(kept))

    monkeypatch.setattr(analysis, "upper_principal_part", lossy)
    with pytest.raises(InternalConsistencyError, match="upper boundary"):
        equivalence_verdict(QUARTIC)
    with pytest.raises(InternalConsistencyError, match="upper boundary"):
        return_map_test(Analysis(_spiral_field(Fraction(3, 5)),
                                 WeightVector(1, 1)))


def test_root_table_lives_for_one_verdict():
    first, second = equivalence_verdict(PERTURBED), equivalence_verdict(PERTURBED)
    assert first.to_json() == second.to_json()
    a, b = _positions(first), _positions(second)
    assert a and len(a) == len(b)
    assert not {id(p) for p in a} & {id(p) for p in b}
    # nor do they share what they learned: refining the first verdict's
    # roots far leaves the second's intervals as they were
    for p in a:
        p.refine(Fraction(1, 10**40))
    for p in b:
        r = p.refine(1)
        assert p.is_rational or r.hi - r.lo > Fraction(1, 10**40)


def test_verdicts_leave_no_root_cycles():
    # a root must be freed by reference counting alone, so a long process
    # does not hold it until the cyclic collector runs
    rng = random.Random(8)
    fields = [QUARTIC, PERTURBED] + [_random_field(rng) for _ in range(12)]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for f in fields:
            if not f.is_zero:
                equivalence_verdict(f).to_json()
        gc.collect()
        cyclic = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic["RealRoot"] == 0


def _stage_counts(monkeypatch, argv) -> Counter:
    """How often each shared pipeline stage runs for one CLI call."""
    calls = Counter()
    stages = [(analysis, "chart_maps"), (analysis, "support_minima"),
              (portrait, "polar_field"), (charts, "_branch_polys"),
              (polytope, "polytope_from_support")]
    # every binding of up_deriv outside polys, wherever a module calls it
    # from; polys takes derivatives of its own for its Sturm chains
    stages += [(module, "up_deriv") for module in (analysis, charts)
               if hasattr(module, "up_deriv")]
    with monkeypatch.context() as m:
        for module, name in stages:
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            m.setattr(module, name, counting)
        assert cli.main(list(argv)) == 0
    return calls


def test_each_stage_runs_once_per_call(monkeypatch, capsys):
    text = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"
    # one polytope, built by the shear search and handed to the analysis;
    # one atlas for the fan; one minima pass and one branch build per chart
    # (8 fan charts with 14 branches and 4 directional ones), each with its
    # one derivative and none per root; nothing again for the principal part
    assert _stage_counts(monkeypatch, ["check-equivalence", "--field", text]) \
        == {"polytope_from_support": 1, "chart_maps": 1, "support_minima": 1,
            "_branch_polys": 18, "up_deriv": 18}
    assert _stage_counts(monkeypatch, ["singularities", "--field", text]) \
        == {"polytope_from_support": 1, "chart_maps": 1, "support_minima": 1,
            "_branch_polys": 18, "up_deriv": 18}
    # the portrait reads the polar chart and the directional charts of the
    # markers from the command's one Analysis
    assert _stage_counts(monkeypatch, [
        "portrait", "--weight", "1,2", "--seed", "0.5,0.5", "--size", "64",
        "--field", text]) == {"polar_field": 1, "_branch_polys": 4,
                              "up_deriv": 4}
    # the return map reads the directional charts, shared with the principal
    # part, and the polytope of the face check; it builds no polar chart
    assert _stage_counts(monkeypatch, [
        "return-map", "--weight", "1,1", "--field",
        "dx = x^3 + x*y^2 - x^2*y - y^3 + x; dy = x^3 + x*y^2 + x^2*y + y^3"]) \
        == {"polytope_from_support": 1, "_branch_polys": 4, "up_deriv": 4}
    capsys.readouterr()


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_rotation_has_no_characteristic_orbit():
    rep = equivalence_verdict(parse_field("dx = -y; dy = x"))
    assert rep.verdict == "HypothesesFail"
    assert rep.reasons == ("has_characteristic_orbit",)


def test_point_polytope_fails_with_no_upper_boundary():
    rep = equivalence_verdict(parse_field("dx = x; dy = y"))
    assert rep.verdict == "HypothesesFail"
    assert rep.reasons == ("no upper boundary",)


def test_sheared_negative_control():
    base = parse_field("dx = y^2 + x^3*y^2; dy = x^2 + x^2*y^3")
    lam = Fraction(2)
    rep = equivalence_verdict(shear(base, lam))
    assert rep.verdict == "HypothesesFail"
    assert rep.reasons == ("non_degenerate_upper_part",)
    assert rep.witnesses
    for w in rep.witnesses:
        x, y = w.point_exact
        assert x + lam * y == 0


def test_verdict_shears_internally_when_needed():
    # the unsheared field has its top vertex at m = 2, so the verdict must
    # shear first; afterwards the upper part degenerates along x = -lam*y
    base = parse_field("dx = y^2 + x^3*y^2; dy = x^2 + x^2*y^3")
    rep = equivalence_verdict(base)
    assert rep.verdict == "HypothesesFail"
    assert "non_degenerate_upper_part" in rep.reasons
    assert rep.shear != 0
    for w in rep.witnesses:
        x, y = w.point_exact
        assert x + rep.shear * y == 0


def test_curve_of_singularities_fails_hypothesis():
    rep = equivalence_verdict(parse_field("dx = x^2 - x*y; dy = x*y - y^2"))
    assert rep.verdict == "HypothesesFail"
    assert "no_curve_of_singularities" in rep.reasons


def test_segment_polytope_verdict():
    rep = equivalence_verdict(parse_field("dx = y; dy = x"))
    assert rep.verdict == "Equivalent"
    assert rep.to_json()["match_table"]


def _random_field(rng: random.Random) -> PlanarField:
    pool = [(m, n) for m in range(-1, 4) for n in range(-1, 4)]
    terms = {}
    for p in rng.sample(pool, rng.randint(2, 5)):
        m, n = p
        a = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if not (m >= -1 and n >= 0):
            a = Fraction(0)
        if not (m >= 0 and n >= -1):
            b = Fraction(0)
        if a or b:
            terms[p] = (a, b)
    return PlanarField(terms)


def _reported_eigenvalues(rep):
    return [e for recs in rep.inventory.values() for r in recs
            for e in (r.tangent, r.transverse) if e is not None]


def test_eigenvalue_floats_have_the_exact_sign():
    # c is a convergent of sqrt(2) with a 2000-bit denominator: the divisor
    # points sit at +-sqrt(2), and the transverse polynomial has a root
    # within 2^-4000 of them: on that side of a divisor point, it has the
    # wrong sign across any 1e-15 interval
    p, q = 1, 1
    while q.bit_length() < 2000:
        p, q = p + 2 * q, p + q
    c = Fraction(p, q)
    near = parse_field(f"dx = -x*y + {c}*x^2; dy = -2*x^2 + {c}*x*y")
    rng = random.Random(1018)
    fields = [near] + [f for f in (_random_field(rng) for _ in range(40))
                       if not f.is_zero]
    for f in fields:
        for e in _reported_eigenvalues(equivalence_verdict(f)):
            assert e.approx is None or (e.approx > 0) - (e.approx < 0) == e.sign
    assert any(e.sign and e.exact is None
               for e in _reported_eigenvalues(equivalence_verdict(near)))


def _rational_polys(cf, branch: str) -> list[tuple]:
    """The derivative and the transverse polynomial of a divisor branch of
    ``cf``, in Fraction."""
    b = cf.branches[branch]
    return [tuple(Fraction(c, cf.scale) for c in p)
            for p in (b.derivative, b.transverse)]


def test_floats_next_to_zero_keep_their_relative_accuracy():
    # divisor points at about +-2e-120 and transverse eigenvalues of about
    # 9e-121: an absolute width of 1e-12 or 1e-15 would print the width
    zeros = "0" * 120
    checked = 0
    for text in (f"dx = 3/7*y; dy = 4*x + 2{zeros}*y + 4",
                 "dx = 3/7*y; dy = 4*x + 2000000000000000000000000000000*y"
                 " + 4",
                 "dx = x*y - 2*x^2; dy = y^2 - 2*x^2"):
        a = Analysis(parse_field(text))
        charts = a.fan_charts | a.directional
        for label, recs in a.inventory.items():
            for rec in recs:
                if rec.position is None or rec.position.is_rational:
                    continue
                derivative, transverse = _rational_polys(charts[label],
                                                         rec.branch)
                reported = [(approximate(rec.position), None),
                            (rec.tangent.approx, derivative),
                            (rec.transverse.approx, transverse)]
                r = rec.position.refine(Fraction(1, 10**700))
                x = (r.lo + r.hi) / 2
                for approx, poly in reported:
                    true = float(x if poly is None else up_eval(poly, x))
                    assert abs(approx - true) <= 1e-9 * abs(true)
                    checked += 1
    assert checked >= 30


def _mp_root(root):
    """The irrational RealRoot ``root`` to 350 significant digits, by mpmath
    at 600 digits on its isolating interval; the sign change of its
    polynomial across that interval cut to a relative 1e-350 of the result
    is checked."""
    coeffs = [mpmath.mpf(c.numerator) / c.denominator
              for c in reversed(root.poly)]

    def p(t):
        return mpmath.polyval(coeffs, t)

    lo, hi = (mpmath.mpf(e.numerator) / e.denominator
              for e in (root.lo, root.hi))
    x = mpmath.findroot(p, (lo, hi), solver="anderson", maxsteps=500,
                        tol=mpmath.mpf(10) ** -590, verify=False)
    a, b = sorted((x * (1 - mpmath.mpf(10) ** -350),
                   x * (1 + mpmath.mpf(10) ** -350)))
    assert p(max(a, lo)) * p(min(b, hi)) < 0
    return x


def _scaled(f: PlanarField, rng: random.Random) -> PlanarField:
    """f with one coefficient pair scaled by 10^+-30 or 10^+-120."""
    terms = f.terms()
    k = rng.choice(sorted(terms))
    s = Fraction(10) ** rng.choice((-120, -30, 30, 120))
    terms[k] = tuple(s * c for c in terms[k])
    return PlanarField(terms)


def test_readings_match_mpmath_on_seeded_fields():
    """Every printed position, witness parameter and eigenvalue ``approx``
    of 200 seeded fields, a third of them with a coefficient scaled far from
    1, is None outside the float range and otherwise within 1e-9 relative
    of the value mpmath computes at 600 digits, with its exact sign."""
    rng = random.Random(14)
    fields = [parse_field("dx = 3/7*y; dy = 4*x + 2" + "0" * 120 + "*y + 4"),
              parse_field("dx = 3/7*y; dy = 4*x + 2/1" + "0" * 120
                          + "*y + 4")]
    while len(fields) < 200:
        f = _random_field(rng)
        if not f.is_zero:
            fields.append(_scaled(f, rng) if len(fields) % 3 == 0 else f)
    checked = Counter()

    def check(approx, true, sign):
        # true is exact or good to 300 digits; approx must carry its sign
        assert sign == (true > 0) - (true < 0)
        if approx is None:
            assert not 1e-300 < abs(true) < 1e300
        else:
            assert (approx > 0) - (approx < 0) == sign
            assert abs(approx - true) <= 1e-9 * abs(true)

    with mpmath.workdps(600):
        for f in fields:
            try:
                sheared, _ = make_favorable(f)
            except FieldError:
                continue
            a = Analysis(sheared)
            charts = a.fan_charts | a.directional
            for label, recs in a.inventory.items():
                for rec in recs:
                    if rec.position is None:
                        continue
                    pos = rec.position
                    x = pos.exact if pos.is_rational else _mp_root(pos)
                    check(approximate(pos), x, 1 if x > 0 else -1 if x else 0)
                    derivative, transverse = _rational_polys(charts[label],
                                                             rec.branch)
                    for e, poly in ((rec.tangent, derivative),
                                    (rec.transverse, transverse)):
                        if pos.is_rational:
                            check(e.approx, up_eval(poly, x), e.sign)
                            continue
                        coeffs = [mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(poly)]
                        true = mpmath.polyval(coeffs, x)
                        size = mpmath.polyval([abs(c) for c in coeffs],
                                              abs(x))
                        # exact zeros vanish to the root's precision, and
                        # the others stand far above it
                        if pos.sign_of(poly) == 0:
                            assert abs(true) <= mpmath.mpf(10) ** -340 * size
                            true = 0
                        else:
                            assert abs(true) > mpmath.mpf(10) ** -320 * size
                        check(e.approx, true, e.sign)
                        checked["eigenvalue", pos.is_rational] += 1
                    checked["position", pos.is_rational] += 1
            for w in check_nondegenerate(a.upper)[1]:
                root = w.parameter
                x = root.exact if root.is_rational else _mp_root(root)
                check(approximate(root), x, 1)
                checked["witness", root.is_rational] += 1
    assert checked["position", False] >= 250
    assert checked["eigenvalue", False] >= 500
    assert checked["witness", False] >= 5


def test_random_fields_obey_the_verdict_contract():
    rng = random.Random(20240817)
    passing = 0
    for _ in range(120):
        f = _random_field(rng)
        if f.is_zero:
            continue
        rep = equivalence_verdict(f)  # must never raise an internal error
        if rep.verdict != "Equivalent":
            continue
        passing += 1
        for recs in rep.inventory.values():
            for r in recs:
                if not r.is_curve and not r.at_chart_origin:
                    assert r.classification != DEGENERATE
        if passing >= 12:
            break
    assert passing >= 12


_COEF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_COMPONENT = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             _COEF, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_COMPONENT, _COMPONENT,
       st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]))
def test_report_inventory_matches_a_separate_principal_part_analysis(P, Q, lam):
    f = shear(PlanarField.from_components(P, Q), lam)
    assume(not f.is_zero)
    rep = equivalence_verdict(f)
    if rep.weight is None:
        assert rep.inventory == {} and rep.to_json()["match_table"] == []
        return
    prin = principal_part(Analysis(rep.field_after_shear)).inventory
    inv = rep.to_json()["inventory"]
    assert inv["field"] == inv["principal_part"] == inventory_json(prin)


def test_chart_records_ascend_within_each_branch():
    # each branch lists its roots in ascending order, which the match
    # table keeps: it sorts by branch only, stably
    rng = random.Random(31)
    fields = [QUARTIC, PERTURBED] + [_random_field(rng) for _ in range(60)]
    runs = 0
    for f in fields:
        if f.is_zero:
            continue
        rep = equivalence_verdict(f)
        for recs in rep.inventory.values():
            for branch in {r.branch for r in recs}:
                pos = [r.position for r in recs if r.branch == branch]
                if len(pos) < 2:
                    continue
                runs += 1
                assert None not in pos
                assert all(p < q and not p.equals(q)
                           for p, q in zip(pos, pos[1:]))
    assert runs >= 20


def test_inventory_covers_fan_and_directional_charts():
    p = build_polytope(QUARTIC)
    fan = build_fan(p)
    w, _ = plc_weight(p)
    inv = singularity_inventory(QUARTIC, fan, w)
    assert set(inv) == {f"fan:{j}" for j in range(1, 9)} | {
        "Xpos", "Xneg", "Ypos", "Yneg"}


# ---------------------------------------------------------------------------
# the return map


def test_rotation_return_map_is_inconclusive():
    res = return_map_test(Analysis(parse_field("dx = -y; dy = x"),
                                    WeightVector(1, 1)))
    assert res.integral == 0.0
    assert res.sign == 0
    assert not res.to_json()["agreement"]
    assert res.conclusion == "inconclusive: zero integral"
    assert abs(res.period - 2 * math.pi) <= 1e-9


def _spiral_field(c: Fraction) -> PlanarField:
    # (x^2+y^2)((c*x - y) d/dx + (x + c*y) d/dy) plus the perturbation x d/dx
    swirl = parse_field("dx = -x^2*y - y^3 + x; dy = x^3 + x*y^2")
    radial = parse_field("dx = x^3 + x*y^2; dy = x^2*y + y^3")
    return add(swirl, scaled(radial, c))


def test_return_map_integral_matches_closed_form():
    for c in (Fraction(3, 5), Fraction(-1, 3)):
        res = return_map_test(Analysis(_spiral_field(c), WeightVector(1, 1)))
        want = -2.0 * math.pi * float(c)
        assert abs(res.integral - want) <= 1e-7
        assert res.sign == (-1 if c > 0 else 1)
        assert res.to_json()["agreement"]


def test_return_map_integral_matches_a_separate_principal_part():
    # the lower-order terms make the upper principal part differ from the
    # field, which the integral must not see
    cases = [(add(_spiral_field(Fraction(3, 5)),
                  parse_field("dx = x^2 + 1; dy = y - x")),
              WeightVector(1, 1), -1),
             (parse_field("dx = -4*y + x^2 + x; dy = 4*x^3 + 2*x*y + y - 1"),
              W12, 0)]
    for f, w, sign in cases:
        a = Analysis(f, w)
        assert a.upper.field != f
        res = return_map_test(a)
        assert res.sign == sign
        assert res.integral == return_map_test(principal_part(a)).integral
        assert abs(res.integral - principal_return_integral(a)) \
            <= 1e-9 * max(1.0, abs(res.integral))


#: weights of the chart-form/polar-form comparison
_RETURN_WEIGHTS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2),
                   (3, 5), (2, 5)]


def _perturbed_rotation(rng: random.Random, alpha: int, beta: int) -> PlanarField:
    """dx = -y^(2 alpha-1), dy = x^(2 beta-1), quasi-homogeneous for the
    weight (alpha, beta), with random terms at its level and below."""
    top = 2 * alpha * beta - alpha - beta
    terms = {(-1, 2 * alpha - 1): (Fraction(-1), Fraction(0)),
             (2 * beta - 1, -1): (Fraction(0), Fraction(1))}
    points = [(m, n) for m in range(-1, top + 2) for n in range(-1, top + 2)
              if alpha * m + beta * n <= top]
    upper = [p for p in points if alpha * p[0] + beta * p[1] == top]
    lower = [p for p in points if p not in upper]
    for (m, n) in upper + rng.sample(lower, 2):
        # the field is polynomial: x^(m+1) y^n dx and x^m y^(n+1) dy
        a = Fraction(rng.randint(-6, 6), rng.randint(2, 5)) if n >= 0 else 0
        b = Fraction(rng.randint(-6, 6), rng.randint(2, 5)) if m >= 0 else 0
        old_a, old_b = terms.get((m, n), (0, 0))
        terms[(m, n)] = (old_a + a, old_b + b)
    return PlanarField({p: c for p, c in terms.items() if any(c)})


def test_return_map_chart_form_matches_the_polar_form():
    # an independent derivation of the integral: the polar chart of the
    # upper principal part over the trig table, with the period of the table
    rng = random.Random(271828)
    seen = Counter()
    signs = Counter()
    while sum(seen.values()) < 216:
        alpha, beta = _RETURN_WEIGHTS[sum(seen.values()) % len(_RETURN_WEIGHTS)]
        f = _perturbed_rotation(rng, alpha, beta)
        a = Analysis(f, WeightVector(alpha, beta))
        try:
            res = return_map_test(a)
        except FieldError as exc:
            assert "does not apply" in str(exc)
            continue
        seen[(alpha, beta)] += 1
        signs[res.sign] += 1
        want = principal_return_integral(a)
        assert abs(res.integral - want) <= 1e-9 * max(1.0, abs(want)), f
        assert res.sign == (0 if abs(want) <= 1e-9 else (1 if want > 0 else -1)), f
    assert set(seen) == set(_RETURN_WEIGHTS)
    assert signs[1] and signs[-1]


def test_return_map_builds_no_polar_chart_and_no_trig_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the return map built a polar chart or a trig "
                             "table")

    for module in (analysis, charts, trig, portrait):
        for name in ("polar_field", "build_trig"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    res = return_map_test(Analysis(_spiral_field(Fraction(3, 5)),
                                   WeightVector(1, 1)))
    assert res.sign == -1


@pytest.mark.parametrize("argv,spot", [
    # the root -10**800 overflows a float
    (["--weight", "1,1", "--field", "dx = 1/1" + "0" * 800 + "*y; dy = x"],
     "<-1e308"),
    # a negative root near 10**-400 underflows to -0.0
    (["--field", "dx = -1" + "0" * 400 + "*y; dy = x + x^2*y"],
     "(-5e-324,0)"),
])
def test_return_map_names_divisor_points_outside_the_float_range(
        capsys, argv, spot):
    assert cli.main(["return-map", *argv]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FieldError"
    assert err["message"] == (f"Xpos: divisor singularity near u = {spot}; "
                              "the return-map test does not apply")


def test_return_map_bounds_the_quadrature_error_relative_to_the_integral():
    # the spiral dx = c x - y, dy = x + c y has the integral -2 pi c; at
    # c = 3*10**100 the error estimate is about 1e87, 1e-14 of it
    c = 3 * 10**100
    res = return_map_test(Analysis(
        parse_field(f"dx = {c}*x - y; dy = x + {c}*y"), WeightVector(1, 1)))
    assert res.sign == -1
    assert abs(res.integral + 2 * math.pi * c) <= 1e-9 * 2 * math.pi * c
    res = return_map_test(Analysis(
        parse_field("dx = 3000*x - y; dy = x + 3000*y"), WeightVector(1, 1)))
    assert abs(res.integral + 6000 * math.pi) <= 1e-9 * 6000 * math.pi


def test_return_map_checks_the_decay_of_t_over_r():
    a = Analysis(_spiral_field(Fraction(3, 5)), WeightVector(1, 1))
    assert analysis._principal_value(a.directional["Xpos"], 1)[0] != 0.0
    # at weight (1,1) t/r decays like 1/u, not 1/(2u)
    with pytest.raises(InternalConsistencyError, match="decay"):
        analysis._principal_value(a.directional["Xpos"], 2)


def test_return_map_of_a_huge_linear_centre():
    # r = 1 + 10**400 u^2 leaves the float range, its monic form does not
    f = parse_field("dx = -1" + "0" * 400 + "*y; dy = x")
    assert return_map_test(Analysis(f, WeightVector(1, 1))).integral == 0.0


@pytest.mark.parametrize("text", [
    # r = u^2 + (2 - 2*10**-100) u + 1 has no real root, but its float
    # form (u + 1)^2 vanishes at u = -1
    "dx = 1/5" + "0" * 99 + "*x - y; dy = x + 2*y",
    # r = u^2 + 2*10**-12 u + 10**-12 peaks within 10**-6 of u = 0, where
    # the quadrature cannot see it; the integral is -2*pi*10**-6, not 0
    "dx = -1000000000000*y; dy = x + 2*y",
])
def test_return_map_refuses_an_unreliable_quadrature(capsys, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["return-map", "--weight", "1,1", "--field", text]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "FieldError",
        "message": "return-map quadrature error inf too large"}


def test_return_map_requires_a_clean_divisor():
    with pytest.raises(FieldError, match="Xpos"):
        return_map_test(Analysis(QUARTIC, W12))
