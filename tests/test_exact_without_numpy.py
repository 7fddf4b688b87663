"""The exact subcommands and the portrait run on the standard library alone.

Floats enter polyfield only through the trig table, the return-map
quadrature and the portrait's trajectories and markers.  The trig table,
the trajectories and the markers are the package's own float code, so
every portrait runs without numpy and scipy; the return map's quadrature
imports both on first use, and a return map that the divisor data refuses
never reaches it.  The package's records are named tuples, so its start-up
imports neither ``dataclasses`` nor the ``inspect`` module that it pulls
in.  Each test runs recorded CLI cases from ``tests/data/cli_golden.json``
in one fresh interpreter and compares them byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
SRC = Path(__file__).resolve().parents[1] / "src"

EXACT = ("polytope", "fan", "compactify", "principal-part", "singularities",
         "check-equivalence")
# return maps refused before any quadrature: a divisor singularity, a curve
# of singularities, no weight or the zero field
REFUSALS = ("return-map-quartic", "return-map-radial-no-weight",
            "return-map-radial-weighted", "return-map-zero",
            "return-map-zero-weighted")

# Reads [name, argv] pairs on stdin and prints, per case, what
# tests/test_cli_golden.py records plus the float libraries and the
# introspection modules (dataclasses, inspect) loaded so far.  With the
# argument "block", a meta path finder makes every import of numpy, scipy
# or dataclasses fail.
RUNNER = """
import contextlib, io, json, sys

if sys.argv[1] == "block":
    class Block:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("numpy", "scipy", "dataclasses"):
                raise ImportError(f"import of {name} blocked")
            return None

    sys.meta_path.insert(0, Block())

from polyfield.cli import main

out = {}
for name, argv in json.load(sys.stdin):
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = main(argv)
    loaded = {m.partition(".")[0] for m in sys.modules} & {"numpy", "scipy"}
    introspection = {"dataclasses", "inspect"} & set(sys.modules)
    out[name] = {"argv": argv, "code": code, "stdout": o.getvalue(),
                 "stderr": e.getvalue(), "loaded": sorted(loaded),
                 "introspection": sorted(introspection)}
json.dump(out, sys.stdout)
"""


def _run_fresh(mode: str, cases: list) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RUNNER, mode],
                          input=json.dumps(cases), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _replay_blocked(golden: dict, cases: list) -> None:
    got = _run_fresh("block", cases)
    for name, _ in cases:
        rec = got[name]
        assert rec.pop("loaded") == [], name
        assert rec.pop("introspection") == [], name
        assert rec == golden[name], name


def test_exact_subcommands_run_without_numpy_and_scipy():
    golden = _golden()
    cases = [[name, rec["argv"]] for name, rec in sorted(golden.items())
             if rec["argv"][0] in EXACT]
    assert {argv[0] for _, argv in cases} == set(EXACT)
    _replay_blocked(golden, cases)


def test_return_map_refusals_run_without_numpy_and_scipy():
    golden = _golden()
    assert all(golden[name]["code"] == 3 for name in REFUSALS)
    _replay_blocked(golden, [[name, golden[name]["argv"]]
                             for name in REFUSALS])


def test_portraits_run_without_scipy():
    # the step loop, the trig table and the markers' incomplete Beta
    # integral are the package's own; the radial field's divisor is a curve
    # of singularities, which has no marker, and the quartic's has four
    golden = _golden()
    cases = [[name, rec["argv"]] for name, rec in sorted(golden.items())
             if rec["argv"][0] == "portrait"]
    names = [name for name, _ in cases]
    assert {"portrait-rotation-no-markers", "portrait-radial-curve",
            "portrait-quartic-seeds", "portrait-underflowing-markers"} \
        <= set(names)
    assert golden["portrait-quartic-seeds"]["stdout"].count(
        'class="singularity"') == 4
    _replay_blocked(golden, cases)


def test_float_subcommands_load_scipy_on_first_use():
    golden = _golden()
    first = "check-equivalence-quartic"
    cases = [[first, golden[first]["argv"]]] + [
        [name, rec["argv"]] for name, rec in sorted(golden.items())
        if rec["argv"][0] in ("return-map", "portrait")]
    got = _run_fresh("normal", cases)
    assert got[first]["loaded"] == got[first]["introspection"] == []
    # the portraits run first, in name order, and load neither; the return
    # map's quadrature loads numpy and scipy
    portraits = [name for name, argv in cases if argv[0] == "portrait"]
    assert all(got[name]["loaded"] == got[name]["introspection"] == []
               for name in portraits)
    assert got["return-map-rotation"]["loaded"] == ["numpy", "scipy"]
    assert got[cases[-1][0]]["loaded"] == ["numpy", "scipy"]
    for name, _ in cases:
        rec = got[name]
        rec.pop("loaded")
        rec.pop("introspection")
        assert rec == golden[name], name
