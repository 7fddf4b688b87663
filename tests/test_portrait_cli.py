import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import reference_trig
from polyfield import portrait
from polyfield.analysis import Analysis
from polyfield.charts import polar_field
from polyfield.cli import main
from polyfield.fields import WeightVector, parse_field
from polyfield.portrait import (
    PortraitSpec,
    default_seeds,
    divisor_markers,
    marker_theta,
    render_portrait,
)
from polyfield.trig import build_trig

QUARTIC_TEXT = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"
QUARTIC = parse_field(QUARTIC_TEXT)
W12 = WeightVector(1, 2)


def _swirl_on_divisor(field, w):
    pf = polar_field(field, w)
    table = build_trig(w)
    terms = [(float(c), i, j) for (i, j, k), c in pf.theta.items()
             if k == 0]

    def g(theta):
        cs, sn = table.eval(theta)
        return sum(c * cs ** i * sn ** j for c, i, j in terms)

    return g


# ---------------------------------------------------------------------------
# markers


def test_marker_theta_inverts_the_chart_coordinates():
    for w in (WeightVector(1, 1), WeightVector(1, 2), WeightVector(2, 3)):
        table = build_trig(w)
        alpha, beta = w.as_tuple()
        for u in (-3.0, -0.7, 0.0, 0.7, 3.0):
            th = marker_theta(table, "Xpos", u)
            cs, sn = table.eval(th)
            assert cs > 0
            assert abs(sn * cs ** (-beta / alpha) - u) < 1e-9
            th = marker_theta(table, "Xneg", u)
            cs, sn = table.eval(th)
            assert cs < 0
            assert abs(sn * (-cs) ** (-beta / alpha) - u) < 1e-9
            th = marker_theta(table, "Ypos", u)
            cs, sn = table.eval(th)
            assert sn > 0
            assert abs(cs * sn ** (-alpha / beta) - u) < 1e-9
            th = marker_theta(table, "Yneg", u)
            cs, sn = table.eval(th)
            assert sn < 0
            assert abs(cs * (-sn) ** (-alpha / beta) - u) < 1e-9


def test_quartic_markers_are_the_divisor_singularities():
    markers, curve = divisor_markers(Analysis(QUARTIC, W12))
    assert not curve
    # six chart records describe four distinct points of the divisor
    assert len(markers) == 4
    kinds = sorted(m.classification for m in markers)
    assert kinds == ["Degenerate", "Degenerate", "Hyperbolic", "Hyperbolic"]
    g = _swirl_on_divisor(QUARTIC, W12)
    for m in markers:
        assert abs(g(m.theta)) <= 1e-8


def test_overlapping_charts_agree_on_the_marker_angle():
    table = build_trig(W12)
    # the same divisor point seen from two charts: u=1/2 in Xpos is
    # u=sqrt(2) in Ypos
    a = marker_theta(table, "Xpos", 0.5)
    b = marker_theta(table, "Ypos", math.sqrt(2.0))
    assert abs(a - b) < 1e-9


def test_rotation_has_no_markers():
    markers, curve = divisor_markers(
        Analysis(parse_field("dx = -y; dy = x"), WeightVector(1, 1)))
    assert markers == () and not curve


# ---------------------------------------------------------------------------
# rendering


def test_rotation_portrait_deterministic_and_clean():
    f, w = parse_field("dx = -y; dy = x"), WeightVector(1, 1)
    spec = PortraitSpec()
    svg = render_portrait(Analysis(f, w), spec)
    assert svg == render_portrait(Analysis(f, w), spec)
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert svg.count("<polyline") == len(default_seeds(2 * math.pi))
    assert "truncated" not in svg
    assert 'class="singularity"' not in svg
    assert "rho = 1/(1+r)" in svg


def test_quartic_portrait_has_markers():
    svg = render_portrait(Analysis(QUARTIC, W12), PortraitSpec())
    assert svg.count('class="singularity"') == 4
    assert svg.count('fill="#d62728"') == 2   # hyperbolic
    assert svg.count('fill="#9467bd"') == 2   # degenerate


def test_curve_of_singularities_recolours_the_rim():
    svg = render_portrait(
        Analysis(parse_field("dx = x; dy = y"), WeightVector(1, 1)),
        PortraitSpec())
    assert 'stroke="#b22222"' in svg
    assert 'class="singularity"' not in svg


def test_empty_seed_list_draws_boundary_and_markers_only():
    svg = render_portrait(Analysis(QUARTIC, W12), PortraitSpec(seeds=()))
    assert "<polyline" not in svg
    assert 'class="divisor"' in svg
    assert svg.count('class="singularity"') == 4


def test_trajectory_truncation_is_annotated():
    # inward plane flow runs toward the centre of the disk and trips the cap
    a = Analysis(parse_field("dx = -x; dy = -y"), WeightVector(1, 1))
    svg = render_portrait(a, PortraitSpec(seeds=((0.3, 0.9),), horizon=30.0))
    assert 'class="trajectory truncated"' in svg


def _per_point_trajectory(terms_theta, terms_r, table, seed, horizon, tol,
                          sign):
    """The trajectory integrator as it was before the float trig pieces and
    the vectorized sampling: scipy dense-output trig lookups, numpy scalar
    state, one dense-output call per sample."""
    _, lookup = reference_trig(*table.weight, table.period)

    def rhs(t, y):
        cs, sn = lookup(y[0])
        r = y[1]
        td = 0.0
        for c, i, j, k in terms_theta:
            td += c * cs ** i * sn ** j * r ** k
        rd = 0.0
        for c, i, j, k in terms_r:
            rd += c * cs ** i * sn ** j * r ** k
        return (sign * td, sign * rd)

    def hit_centre(t, y):
        return y[1] - 49.0

    hit_centre.terminal = True

    def hit_divisor(t, y):
        return y[1] - 1e-7

    hit_divisor.terminal = True

    sol = solve_ivp(rhs, (0.0, horizon), list(seed), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True,
                    events=[hit_centre, hit_divisor])
    end = float(sol.t[-1])
    if end <= 0.0:
        return [tuple(seed)], sol.status != 0
    samples = []
    steps = 240
    for i in range(steps + 1):
        th, r = sol.sol(end * i / steps)
        samples.append((float(th), float(r)))
    return samples, sol.status != 0


@pytest.mark.parametrize("text,w", [
    (QUARTIC_TEXT, W12),
    ("dx = -x; dy = -y", WeightVector(1, 1)),
])
def test_portrait_matches_per_point_integrator(monkeypatch, text, w):
    a = Analysis(parse_field(text), w)
    spec = PortraitSpec()
    svg = render_portrait(a, spec)
    fast = portrait._trajectory
    pairs = []

    def both(*args):
        pairs.append((fast(*args), _per_point_trajectory(*args)))
        return pairs[-1][1]

    monkeypatch.setattr(portrait, "_trajectory", both)
    assert svg == render_portrait(a, spec)
    assert len(pairs) == 2 * len(default_seeds(1.0))
    # every sample, not just its three-decimal SVG rendering
    assert all(new == old for new, old in pairs)


def test_trajectory_survives_a_trial_stage_overflow():
    # r' = r**400 overflows a float power once a trial stage passes r ~ 6;
    # numpy gives inf there, the solver rejects the step and gives up
    table = build_trig(WeightVector(1, 1))
    args = (((1.0, 0, 0, 0),), ((1.0, 0, 0, 400),), table, (0.0, 1.0), 8.0,
            1e-9, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _per_point_trajectory(*args)
        got = portrait._trajectory(*args)
    assert got == want
    assert got[1] and len(got[0]) == 241


def test_spec_validation():
    a = Analysis(QUARTIC, WeightVector(1, 1))
    with pytest.raises(ValueError, match="radius"):
        render_portrait(a, PortraitSpec(seeds=((0.0, 1.5),)))
    with pytest.raises(ValueError, match="horizon"):
        render_portrait(a, PortraitSpec(horizon=-1.0))
    with pytest.raises(ValueError, match="size"):
        render_portrait(a, PortraitSpec(size=10))


@pytest.mark.parametrize("option", [
    "--horizon=nan", "--horizon=inf", "--horizon=-inf",
    "--seed=nan,0.5", "--seed=inf,0.5",
])
def test_cli_portrait_rejects_unbounded_options(capsys, monkeypatch, option):
    def integrate(*args):
        pytest.fail("integrated before the options were checked")

    monkeypatch.setattr(portrait, "_trajectory", integrate)
    code, out, err = _run(capsys, "portrait", "--weight", "1,1",
                          "--field", "dx = -y; dy = x", option)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    want = "horizon" if option.startswith("--horizon") else "seed angle"
    assert want in error["message"]


# ---------------------------------------------------------------------------
# command line


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_polytope(capsys):
    code, out, err = _run(capsys, "polytope", "--field", QUARTIC_TEXT)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["polytope"]["support"] == [[-1, 3], [1, 2], [2, 1], [3, -1]]
    assert doc["polytope"]["weight"] == [1, 2]


def test_cli_fan_skeleton_override(capsys):
    code, out, _ = _run(capsys, "fan",
                        "--skeleton", "(-2,-1),(-1,-1),(-1,-2)")
    assert code == 0
    fan = json.loads(out)["fan"]
    assert fan["vectors"] == [[0, 1], [-1, 0], [-2, -1], [-3, -2], [-1, -1],
                              [-2, -3], [-1, -2], [0, -1], [1, 0]]


def test_cli_fan_from_field(capsys):
    code, out, _ = _run(capsys, "fan", "--field", QUARTIC_TEXT)
    assert code == 0
    assert len(json.loads(out)["fan"]["vectors"]) == 9


def test_cli_compactify_directional(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "Xpos",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    doc = json.loads(out)
    assert doc["pretty"] == ("(-2*u^4 + u^3 + 2*u^2*v - v^4) du + "
                             "(-u^3*v + u*v^2) dv")


def test_cli_compactify_fan_chart(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "2",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    assert json.loads(out)["chart"]["label"] == "fan:2"


def test_cli_compactify_bad_chart(capsys):
    code, _, err = _run(capsys, "compactify", "--chart", "bogus",
                        "--field", QUARTIC_TEXT)
    assert code == 1
    assert json.loads(err)["error"] == "FieldError"


def test_cli_principal_part(capsys):
    code, out, _ = _run(capsys, "principal-part",
                        "--field", "dx = y^2 + x^3*y^2 - x; dy = x^2 + x^2*y^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "dx = x^3*y^2 + y^2; dy = x^2*y^3 + x^2"
    assert len(doc["upper_segments"]) == 2


def test_cli_singularities_table_and_json(capsys):
    code, out, _ = _run(capsys, "singularities", "--field", QUARTIC_TEXT)
    assert code == 0
    assert "Degenerate" in out and "Hyperbolic" in out
    code, out, _ = _run(capsys, "singularities", "--json",
                        "--field", QUARTIC_TEXT)
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == [1, 2]
    assert len(doc["charts"]["Ypos"]) == 2


def test_cli_check_equivalence_exit_codes(capsys):
    code, out, _ = _run(capsys, "check-equivalence", "--field", QUARTIC_TEXT)
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "Equivalent"
    sheared = ("dx = x^3*y^2 + 4*x^2*y^3 - 2*x^2 + 4*x*y^4 - 8*x*y - 7*y^2; "
               "dy = x^2*y^3 + x^2 + 4*x*y^4 + 4*x*y + 4*y^5 + 4*y^2")
    code, out, _ = _run(capsys, "check-equivalence", "--field", sheared)
    assert code == 3
    assert json.loads(out)["report"]["verdict"] == "HypothesesFail"


def test_cli_return_map(capsys):
    code, out, _ = _run(capsys, "return-map", "--field", "dx = -y; dy = x")
    assert code == 0
    assert json.loads(out)["return_map"]["conclusion"] \
        == "inconclusive: zero integral"
    code, _, err = _run(capsys, "return-map", "--field", QUARTIC_TEXT)
    assert code == 3
    assert "does not apply" in json.loads(err)["message"]


def test_cli_parse_error(capsys):
    code, out, err = _run(capsys, "polytope", "--field", "dx = oops")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParseError"


def test_cli_float_overflow_is_a_numeric_failure(capsys):
    # the portrait integrates in floats, so a coefficient past the float
    # range cannot be drawn
    huge = "1" + "0" * 400
    code, out, err = _run(capsys, "portrait", "--weight", "1,1",
                          "--field", f"dx = {huge}*x; dy = y")
    assert code == 4 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "OverflowError"


def test_portrait_markers_outside_the_float_range(capsys):
    # the saddle dx = 10**-800 y, dy = x has its separatrices at
    # u = +-10**400 in the x-charts, beyond the float range, and at
    # u = +-10**-400 in the y-charts, which underflow: both y-charts draw
    # their pair at u = 0, the top and the bottom of the disk
    code, out, err = _run(capsys, "portrait", "--weight", "1,1", "--size",
                          "64", "--seed", "0.5,0.5", "--field",
                          "dx = 1/1" + "0" * 800 + "*y; dy = x")
    assert code == 0 and err == ""
    markers = [line.strip() for line in out.splitlines()
               if 'class="singularity"' in line]
    assert markers == [
        f'<circle class="singularity" cx="32.000" cy="{cy}" r="4" '
        f'fill="#d62728"><title>Hyperbolic ({chart} chart, '
        f'u=(-5e-324,0))</title></circle>'
        for cy, chart in (("12.000", "Ypos"), ("52.000", "Yneg"))]


def test_cli_huge_exact_values_get_a_verdict(capsys):
    huge = "1" + "0" * 400
    code, out, _ = _run(capsys, "check-equivalence",
                        "--field", f"dx = {huge}*x; dy = y")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "Equivalent"
    tangents = [r["tangent"] for recs in report["inventory"]["field"].values()
                for r in recs]
    assert {t["approx"] for t in tangents} == {None}
    assert all(int(t["exact"]) == t["sign"] * (10**400 - 1) for t in tangents)


def test_cli_huge_positions_get_a_verdict_and_a_table(capsys):
    # restriction roots near +-10**310 lie outside the float range
    text = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 620 + "*x^2"
    code, out, _ = _run(capsys, "check-equivalence", "--field", text)
    assert code == 0
    rows = json.loads(out)["report"]["match_table"]
    assert sum(r["position"] is None for r in rows) >= 2
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1",
                        "--field", text)
    assert code == 0
    assert ">1e308" in out and "<-1e308" in out


def test_cli_tiny_values_are_not_printed_as_zero(capsys):
    # divisor roots at +-10**-350 and transverse eigenvalues of the same
    # size: nonzero, but their floats underflow to 0 and -0
    text = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 700 + "*x^2"
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1", "--json",
                        "--field", text)
    assert code == 0
    recs = [r for recs in json.loads(out)["charts"].values() for r in recs]
    values = [(r["position"]["approx"], r["position"]["interval"][0])
              for r in recs]
    values += [(r[k]["approx"], r[k]["exact"]) for r in recs
               for k in ("tangent", "transverse")]
    tiny = [v for v in values if v[0] is None and "/" in v[1]]
    assert len(tiny) == 4 * 3  # two positions and two eigenvalues per chart
    for approx, exact in values:
        if approx == 0:
            assert Fraction(exact) == 0
    code, out, _ = _run(capsys, "singularities", "--weight", "1,1",
                        "--field", text)
    assert code == 0
    cells = [c for line in out.splitlines()[2:] for c in line.split()]
    assert cells.count("(0,5e-324)") == 6 and cells.count("(-5e-324,0)") == 6
    assert "-0" not in cells


@pytest.mark.parametrize("scale,above,below", [
    # eigenvalues near 10**-400 underflow, and near 10**400 they overflow
    (Fraction(1, 10**400), "(0,5e-324)", "(-5e-324,0)"),
    (Fraction(10**400), ">1e308", "<-1e308"),
], ids=["tiny", "huge"])
def test_cli_eigenvalues_at_irrational_points_keep_their_side(
        capsys, scale, above, below):
    c = [f"{k * scale}*" for k in range(4)]
    text = (f"dx = {c[1]}x^3 - {c[2]}x*y^2 + {c[1]}y^3; "
            f"dy = {c[1]}x^2*y + {c[3]}y^3 - {c[1]}x^3")
    code, out, _ = _run(capsys, "singularities", "--json", "--field", text)
    assert code == 0
    charts = {c: iter(recs) for c, recs in json.loads(out)["charts"].items()}
    code, out, _ = _run(capsys, "singularities", "--field", text)
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert len(rows) == 12
    for row in rows:
        rec = next(charts[row[0]])
        assert rec["position"]["approx"] is not None
        for k, cell in zip(("tangent", "transverse"), row[4:6]):
            e = rec[k]
            assert e["approx"] is None and e["exact"] is None
            assert cell == (above if e["sign"] > 0 else below)


def test_cli_witness_outside_the_float_range_gets_a_verdict(capsys):
    # the parabola y = -10**400 x^2 leaves the float range at x = +-1
    huge = "1" + "0" * 400
    code, out, err = _run(capsys, "check-equivalence", "--field",
                          f"dx = y^2 + {huge}*x^2*y; dy = 0")
    assert code == 3 and err == ""
    report = json.loads(out)["report"]
    assert report["verdict"] == "HypothesesFail"
    assert not report["hypotheses"]["non_degenerate_upper_part"]
    witnesses = report["witnesses"]
    assert [w["quadrant"] for w in witnesses] == [[1, -1], [-1, -1]]
    for w in witnesses:
        x, y = (Fraction(v) for v in w["point_exact"])
        assert y == -10**400 * x**2
        assert w["point"] == [float(x), None]


def test_cli_thirty_digit_coefficient_gets_a_verdict(capsys):
    code, out, _ = _run(capsys, "check-equivalence", "--field",
                        "dx = 123456789012345678901234567891*x + y^2; dy = y")
    assert code in (0, 3)
    assert json.loads(out)["report"]["verdict"] in ("Equivalent", "HypothesesFail")


def test_cli_zero_field_portrait(capsys):
    code, _, err = _run(capsys, "portrait", "--field", "dx = 0; dy = 0")
    assert code == 1
    assert "empty support" in json.loads(err)["message"]


def test_cli_portrait_writes_file(capsys, tmp_path):
    target = tmp_path / "disk.svg"
    code, out, _ = _run(capsys, "portrait", "--field", QUARTIC_TEXT,
                        "--svg", str(target), "--seed", "0.1,0.5",
                        "--seed", "2.0,0.5")
    assert code == 0
    doc = json.loads(out)
    text = target.read_text()
    assert doc["bytes"] == len(text)
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<polyline") == 2


def test_cli_weight_override(capsys):
    code, out, _ = _run(capsys, "compactify", "--chart", "Xpos",
                        "--weight", "1,1", "--field", "dx = -y; dy = x")
    assert code == 0
    assert json.loads(out)["chart"]["weight"] == [1, 1]


def test_cli_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(QUARTIC_TEXT))
    code, out, _ = _run(capsys, "polytope")
    assert code == 0
    assert json.loads(out)["polytope"]["weight"] == [1, 2]
