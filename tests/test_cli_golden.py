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
HUGE = "1" + "0" * 400

CASES = {
    "polytope-quartic": ("polytope", "--field", QUARTIC),
    "polytope-radial": ("polytope", "--field", RADIAL),
    "polytope-zero": ("polytope", "--field", ZERO),
    "polytope-parse-error": ("polytope", "--field", "dx = oops"),
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
