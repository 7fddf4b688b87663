"""The exact subcommands run on the standard library alone.

Floats enter polyfield only through the trig table, the return-map
quadrature and the portrait's trajectories and markers, and those import
numpy and scipy on first use.  Each test runs recorded CLI cases from
``tests/data/cli_golden.json`` in one fresh interpreter and compares them
byte for byte.
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

# Reads [name, argv] pairs on stdin and prints, per case, what
# tests/test_cli_golden.py records plus the float libraries loaded so far.
# With the argument "block", a meta path finder makes every import of numpy
# or scipy fail.
RUNNER = """
import contextlib, io, json, sys

if sys.argv[1] == "block":
    class Block:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("numpy", "scipy"):
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
    out[name] = {"argv": argv, "code": code, "stdout": o.getvalue(),
                 "stderr": e.getvalue(), "loaded": sorted(loaded)}
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


def test_exact_subcommands_run_without_numpy_and_scipy():
    golden = _golden()
    cases = [[name, rec["argv"]] for name, rec in sorted(golden.items())
             if rec["argv"][0] in EXACT]
    assert {argv[0] for _, argv in cases} == set(EXACT)
    got = _run_fresh("block", cases)
    for name, _ in cases:
        rec = got[name]
        assert rec.pop("loaded") == [], name
        assert rec == golden[name], name


def test_float_subcommands_load_scipy_on_first_use():
    golden = _golden()
    first = "check-equivalence-quartic"
    cases = [[first, golden[first]["argv"]]] + [
        [name, rec["argv"]] for name, rec in sorted(golden.items())
        if rec["argv"][0] in ("return-map", "portrait")]
    got = _run_fresh("normal", cases)
    assert got[first]["loaded"] == []
    assert got[cases[-1][0]]["loaded"] == ["numpy", "scipy"]
    for name, _ in cases:
        rec = got[name]
        rec.pop("loaded")
        assert rec == golden[name], name
