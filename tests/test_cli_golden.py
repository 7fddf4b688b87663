"""Every CLI subcommand, byte for byte, against recorded output.

``tests/data/cli_golden.json`` holds the stdout, stderr and exit code of
each case below.  The error cases pin which failure a command reports
first when an input has several.  Regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output
change is intended, and say why in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from polyfield.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"
ROTATION = "dx = -y; dy = x"
# top vertex at m = 2: the verdict shears before it decides
SHEARED = "dx = y^2 + x^3*y^2; dy = x^2 + x^2*y^3"
PERTURBED = "dx = y^3 - x^3*y + x^2 - 3*y; dy = -x^3 + x*y^3 + 2*x*y - 1"
# a one-point polytope: not favorable, so it has no default weight
RADIAL = "dx = x; dy = y"
ZERO = "dx = 0; dy = 0"
# x S d/dx + 2 y S d/dy with S = x^2 y^2 E(y/x, 1/y), E the circle
# (X-3)^2 + (Y-3)^2 = 1: every monomial lies on the two upper segments, and
# the components share S, whose real zero set has an oval off the axes, a
# curve of singularities (hypothesis (b) fails)
OVAL = ("dx = x*y^4 - 6*x^2*y^3 + x^3 - 6*x^3*y + 17*x^3*y^2; "
        "dy = 2*y^5 - 12*x*y^4 + 2*x^2*y - 12*x^2*y^2 + 34*x^2*y^3")
# halves, a shear of 1, four irrational divisor points and records in the
# Y charts: pins the exact values that leave the core for rational input
RATIONAL = "dx = 1/2*x*y; dy = 2*y^2 - 1"
# its field after the shear: unsheared, its polytope is not favorable
RATIONAL_SHEARED = "dx = 1/2*x*y - 3/2*y^2 + 1; dy = 2*y^2 - 1"
# the verdict-large corpus field deg10-t12-b3-0: the upper part's components
# share the factor y and are otherwise coprime, and hypothesis (a) fails
SHARED_MONOMIAL = ("dx = -7*x^6*y^4 - 5*x^6*y^2 - 5*x^5*y^5 + 6*x^5*y "
                   "- 5*x^4*y^3 + 6*x^3*y^2 - 4*y^3; dy = 7*x^4*y^2 "
                   "+ 4*x^3*y^4 - 4*x*y^7 - 5*y^8 + 6*y^2")
# at weight (1,2) the Yneg restriction is u*(u^2 - 1): three rational
# divisor points, two of them the roots of a quadratic with a square
# discriminant
SQUARE_DISCRIMINANT = "dx = -2*x; dy = 4*x^2 - 1"
# twelve Degenerate records at irrational divisor points (the roots of
# u^2 - 1/2 and u^2 - 2), where both eigenvalue polynomials vanish: each
# sign 0 comes from the Tarski query, and no interval is refined before
# the position is read
DEGENERATE_IRRATIONAL = "dx = x^5 - 4*x^3*y^2 + 4*x*y^4; dy = x^2*y - 2*y^3"
# the verdict-large corpus field deg4-t6-b24-1: 24-bit coefficients, so the
# eigenvalue readings refine intervals with wide endpoints
HIGH_BIT = ("dx = -15322381*x*y^3; dy = -13002826*x^4 - 14126853*x^3 "
            "+ 16417733*x*y^3 - 15732042*x - 15254117*y^3")
# the verdict-random corpus op random-072: the Xpos and fan:1 restrictions
# are -u(1 + u)^3 and the Xneg one is -u(1 - u)^3, so the divisor points
# u = -1 and u = 1 are triple zeros, Degenerate records at rational points
REPEATED_ROOTS = "dx = 4/3*x^3; dy = x^2*y"
HUGE = "1" + "0" * 400
# at weight (200,1) |u|**400 underflows for |u| < 0.155: the Xpos points
# u = -0.1 and 0.1 get their own markers beside the origin's Hyperbolic one
UNDERFLOWING_MARKERS = ("dx = x^2 - 1" + "0" * 200 + "*x*y^200; dy = 0")
# divisor points near +-10^310 in Xpos, Xneg and fan:1, past the float
# range: their positions and tangent eigenvalues print a null approximation
# (24 in the inventory's two copies) and six match-table rows a null
# position, while the points near +-10^-310 in the Y charts print subnormal
# floats; the verdict holds (exit 0)
HUGE_POSITIONS = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 620 + "*x^2"
# the same field with 10^700 at weight (1,1): the divisor points near
# +-10^-350 and their transverse eigenvalues underflow, and the points near
# +-10^350 and their tangent eigenvalues overflow, so all print a null
# approximation beside their exact intervals
TINY_POSITIONS = "dx = x^2; dy = x*y + y^2 - 1" + "0" * 700 + "*x^2"
# the Xpos restriction is (u - 1)(u^2 - 2)^2 up to a constant: root
# isolation runs its Sturm path on a polynomial that is not squarefree and
# deflates the rational root 1, and the SemiHyperbolic records at +-sqrt(2)
# take tangent sign 0 from the Tarski query (exit 0)
REPEATED_IRRATIONAL = ("dx = x^5; dy = y^5 - x*y^4 - 4*x^2*y^3 + 4*x^3*y^2 "
                       "+ 5*x^4*y - 4*x^5")
# coefficients written unreduced, as zero and over 1, and monomials met
# twice: x^2*y and y*x^2 cancel, 10/4*y and -1/2*y sum to 2*y; the parsed
# field, and so the field after the shear, is in lowest terms (exit 3)
UNREDUCED = ("dx = 4/6*x^2*y - 2/3*yx^2 + 3/9*x*y^3 + 0/5*y + 7; "
             "dy = 10/4*y - 1/2*y + 2/1*y^2*x^2 - 1/3")
# the support minimum of the first and last fan vectors is positive, so
# fan:1 and fan:2 are multiplied by no power of their divisor and have no
# term on it: each divisor branch is a CurveOfSingularities record
POSITIVE_LEVEL = ("dx = -3/2*x^4*y - 4*x*y - 1/3*y^3 - 3*y^2 - 4/3; "
                  "dy = -3*x^3*y^2 - 2/3*y^2")

CASES = {
    "polytope-quartic": ("polytope", "--field", QUARTIC),
    "polytope-radial": ("polytope", "--field", RADIAL),
    "polytope-zero": ("polytope", "--field", ZERO),
    "polytope-parse-error": ("polytope", "--field", "dx = oops"),
    # the position of each parse error: the denominator's digits, the token
    # after '^', the keyword's first letter, the first trailing token
    "principal-part-zero-denominator": ("principal-part", "--field",
                                        "dx = 2/0*x; dy = y"),
    "check-equivalence-missing-exponent": ("check-equivalence", "--field",
                                           "dx = x^; dy = y"),
    "singularities-keyword-in-poly": ("singularities", "--field",
                                      "dx = x + dy; dy = y"),
    "fan-trailing-input": ("fan", "--field", "dx = x; dy = y; 3"),
    # trailing spaces and tabs are skipped like a trailing newline
    "principal-part-trailing-space": ("principal-part", "--field",
                                      "dx = x; dy = y \t "),
    "fan-quartic": ("fan", "--field", QUARTIC),
    "fan-sheared": ("fan", "--field", SHEARED),
    "fan-radial": ("fan", "--field", RADIAL),
    "fan-zero": ("fan", "--field", ZERO),
    "fan-skeleton": ("fan", "--skeleton", "(-2,-1),(-1,-1),(-1,-2)"),
    "fan-skeleton-bad": ("fan", "--skeleton", "(1,1)"),
    "compactify-xpos": ("compactify", "--chart", "Xpos", "--field", QUARTIC),
    "compactify-yneg-perturbed": ("compactify", "--chart", "Yneg",
                                  "--field", PERTURBED),
    "compactify-fan-2": ("compactify", "--chart", "2", "--field", QUARTIC),
    "compactify-fan-8": ("compactify", "--chart", "8", "--field", PERTURBED),
    "compactify-positive-fan-level": ("compactify", "--chart", "1",
                                      "--field", POSITIVE_LEVEL),
    "compactify-fan-out-of-range": ("compactify", "--chart", "9",
                                    "--field", QUARTIC),
    "compactify-fan-bad-weight": ("compactify", "--chart", "2",
                                  "--weight", "2,4", "--field", QUARTIC),
    "compactify-weight-override": ("compactify", "--chart", "Xpos",
                                   "--weight", "1,1", "--field", ROTATION),
    "compactify-bad-weight": ("compactify", "--chart", "Xpos",
                              "--weight", "2,4", "--field", QUARTIC),
    "compactify-bad-chart": ("compactify", "--chart", "bogus",
                             "--field", QUARTIC),
    "compactify-radial-no-weight": ("compactify", "--chart", "Xpos",
                                    "--field", RADIAL),
    "compactify-zero-weighted": ("compactify", "--chart", "Xpos",
                                 "--weight", "1,1", "--field", ZERO),
    "compactify-zero-fan": ("compactify", "--chart", "1", "--field", ZERO),
    "compactify-missing-chart": ("compactify", "--field", QUARTIC),
    "principal-part-quartic": ("principal-part", "--field", QUARTIC),
    "principal-part-sheared": ("principal-part", "--field", SHEARED),
    "principal-part-zero": ("principal-part", "--field", ZERO),
    "singularities-table": ("singularities", "--field", QUARTIC),
    "singularities-json": ("singularities", "--json", "--field", QUARTIC),
    "singularities-perturbed-json": ("singularities", "--json",
                                     "--field", PERTURBED),
    "singularities-rotation-weighted": ("singularities", "--weight", "1,1",
                                        "--field", ROTATION),
    "singularities-sheared": ("singularities", "--field", SHEARED),
    "singularities-rational-json": ("singularities", "--json",
                                    "--field", RATIONAL_SHEARED),
    "singularities-tiny-json": ("singularities", "--weight", "1,1", "--json",
                                "--field", TINY_POSITIONS),
    "singularities-radial-no-weight": ("singularities", "--field", RADIAL),
    "singularities-radial-weighted": ("singularities", "--weight", "1,1",
                                      "--field", RADIAL),
    "singularities-zero-weighted": ("singularities", "--weight", "1,1",
                                    "--field", ZERO),
    "singularities-zero-bad-weight": ("singularities", "--weight", "1,2,3",
                                      "--field", ZERO),
    "check-equivalence-quartic": ("check-equivalence", "--field", QUARTIC),
    "check-equivalence-perturbed": ("check-equivalence", "--field", PERTURBED),
    "check-equivalence-rotation": ("check-equivalence", "--field", ROTATION),
    "check-equivalence-sheared": ("check-equivalence", "--field", SHEARED),
    "check-equivalence-radial": ("check-equivalence", "--field", RADIAL),
    "check-equivalence-zero": ("check-equivalence", "--field", ZERO),
    "check-equivalence-oval": ("check-equivalence", "--field", OVAL),
    "check-equivalence-rational": ("check-equivalence", "--field", RATIONAL),
    "check-equivalence-shared-monomial": ("check-equivalence", "--field",
                                          SHARED_MONOMIAL),
    "check-equivalence-square-discriminant": ("check-equivalence", "--field",
                                              SQUARE_DISCRIMINANT),
    "check-equivalence-degenerate-irrational": ("check-equivalence",
                                                "--field",
                                                DEGENERATE_IRRATIONAL),
    "check-equivalence-high-bit": ("check-equivalence", "--field", HIGH_BIT),
    "check-equivalence-repeated-roots": ("check-equivalence", "--field",
                                         REPEATED_ROOTS),
    "check-equivalence-huge-positions": ("check-equivalence", "--field",
                                        HUGE_POSITIONS),
    "check-equivalence-repeated-irrational-factor": ("check-equivalence",
                                                     "--field",
                                                     REPEATED_IRRATIONAL),
    "check-equivalence-unreduced-fractions": ("check-equivalence", "--field",
                                              UNREDUCED),
    "check-equivalence-positive-fan-level": ("check-equivalence", "--field",
                                             POSITIVE_LEVEL),
    "return-map-rotation": ("return-map", "--field", ROTATION),
    "return-map-quartic": ("return-map", "--field", QUARTIC),
    "return-map-radial-weighted": ("return-map", "--weight", "1,1",
                                   "--field", RADIAL),
    "return-map-radial-no-weight": ("return-map", "--field", RADIAL),
    "return-map-zero": ("return-map", "--field", ZERO),
    "return-map-zero-weighted": ("return-map", "--weight", "1,1",
                                 "--field", ZERO),
    "portrait-rotation-no-markers": ("portrait", "--no-markers",
                                     "--size", "96", "--seed", "0.5,0.5",
                                     "--seed", "3.0,0.9", "--field", ROTATION),
    "portrait-quartic-seeds": ("portrait", "--size", "96", "--seed", "0.1,0.5",
                               "--seed", "2.0,0.3", "--field", QUARTIC),
    "portrait-radial-curve": ("portrait", "--size", "96", "--weight", "1,1",
                              "--seed", "0.5,0.5", "--field", RADIAL),
    "portrait-bad-seed": ("portrait", "--seed", "1", "--field", QUARTIC),
    "portrait-radial-bad-seed": ("portrait", "--seed", "1", "--field", RADIAL),
    "portrait-bad-size": ("portrait", "--size", "10", "--field", QUARTIC),
    # usage errors are one JSON line on stderr too: argparse reads -0.5,0.3
    # as an option, which --seed=-0.5,0.3 avoids
    "portrait-negative-seed": ("portrait", "--seed", "-0.5,0.3",
                               "--field", ROTATION),
    "portrait-radial-no-weight": ("portrait", "--field", RADIAL),
    "portrait-zero": ("portrait", "--field", ZERO),
    "portrait-zero-weighted": ("portrait", "--weight", "1,1", "--field", ZERO),
    "portrait-underflowing-markers": ("portrait", "--weight", "200,1",
                                      "--seed", "0,0.5", "--horizon", "1",
                                      "--field", UNDERFLOWING_MARKERS),
    "portrait-overflow": ("portrait", "--weight", "1,1", "--seed", "0.5,0.5",
                          "--field", f"dx = {HUGE}*x; dy = y"),
}


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert set(golden) == set(CASES)
    assert {argv[0] for argv in CASES.values()} == {
        "polytope", "fan", "compactify", "principal-part", "singularities",
        "check-equivalence", "return-map", "portrait"}
    assert {rec["code"] for rec in golden.values()} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(golden, name):
    want = golden[name]
    assert want["argv"] == list(CASES[name])
    assert run_case(CASES[name]) == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
