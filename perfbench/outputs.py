"""Correctness gate: digests of CLI output, reference comparison, invariants.

A digest keeps the parts of an op's output that must not change.  Exact
parts compare with ``==``: verdict, reasons, hypotheses, shear, weight, and
per chart the branch, classification and characteristic-orbit flag; for a
portrait the polyline count, truncation flags and marker classes.  Floats
compare within a tolerance: singularity positions and eigenvalue
approximations within ``VERDICT_TOL`` relative (and absolute near 0), SVG
coordinates within ``SVG_TOL_PX`` pixels.  Isolating intervals and defining
polynomials are left out, because an exact core that represents the same
algebraic numbers differently may change them.
"""

from __future__ import annotations

import json
import math
import re

VERDICT_TOL = 1e-9
SVG_TOL_PX = 0.5
#: points kept per polyline, at evenly spaced fractions of its length
POLYLINE_SAMPLES = 11


class Mismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# check-equivalence


def _eigen(e):
    return None if e is None else [e["sign"], e["approx"], e["exact"]]


def _record(r: dict) -> list:
    pos = r["position"]
    return [r["branch"], r["classification"], r["characteristic_orbit"],
            None if pos is None else pos["approx"],
            _eigen(r["tangent"]), _eigen(r["transverse"])]


def verdict_digest(code: int, stdout: str) -> dict:
    rep = json.loads(stdout)["report"]
    return {
        "exit": code,
        "verdict": rep["verdict"],
        "reasons": rep["reasons"],
        "hypotheses": rep["hypotheses"],
        "shear": rep["shear"],
        "weight": rep["weight"],
        "inventory": {side: {chart: [_record(r) for r in recs]
                             for chart, recs in inv.items()}
                      for side, inv in rep["inventory"].items()},
        "match_table": [[row["chart"], row["branch"], row["position"],
                         row["field"], row["principal_part"], row["matched"]]
                        for row in rep["match_table"]],
        "witnesses": [[w["segment_normal"], w["quadrant"], w["point"],
                       w["point_exact"]] for w in rep["witnesses"]],
    }


def verdict_invariants(d: dict) -> list[str]:
    """Checks that need no reference."""
    errs = []
    want_exit = 0 if d["verdict"] == "Equivalent" else 3
    if d["exit"] != want_exit:
        errs.append(f"exit {d['exit']} with verdict {d['verdict']}")
    failed = [name for name, ok in d["hypotheses"].items() if not ok]
    if d["hypotheses"] and sorted(d["reasons"]) != sorted(failed):
        errs.append(f"reasons {d['reasons']} but failed hypotheses {failed}")
    if d["verdict"] == "Equivalent":
        if failed or not d["hypotheses"]:
            errs.append("Equivalent with a failed hypothesis")
        if not all(row[-1] for row in d["match_table"]):
            errs.append("Equivalent with an unmatched inventory row")
    return errs


# ---------------------------------------------------------------------------
# portrait


_POLYLINE = re.compile(r'<polyline class="([^"]*)" points="([^"]*)"/>')
_MARKER = re.compile(r'<circle class="singularity" cx="([^"]*)" cy="([^"]*)"'
                     r'[^>]*><title>(\w+) ')
_DIVISOR = re.compile(r'<circle class="divisor"[^>]*stroke="([^"]*)"')


def _sampled(points: str) -> list[list[float]]:
    pts = [p.split(",") for p in points.split()]
    n = len(pts)
    idx = sorted({round(k * (n - 1) / (POLYLINE_SAMPLES - 1))
                  for k in range(POLYLINE_SAMPLES)})
    return [[float(pts[i][0]), float(pts[i][1])] for i in idx]


def portrait_digest(code: int, stdout: str) -> dict:
    lines = _POLYLINE.findall(stdout)
    divisor = _DIVISOR.search(stdout)
    return {
        "exit": code,
        "polylines": len(lines),
        "classes": [cls for cls, _ in lines],
        "points": [_sampled(pts) for _, pts in lines],
        "markers": [[cls, float(cx), float(cy)]
                    for cx, cy, cls in _MARKER.findall(stdout)],
        "divisor_stroke": divisor.group(1) if divisor else None,
    }


#: trajectories per portrait with the default spec: 12 angles x 4 rings,
#: each drawn as one polyline through both time directions
DEFAULT_SEEDS = 48


def portrait_invariants(d: dict) -> list[str]:
    errs = []
    if d["exit"] != 0:
        errs.append(f"exit {d['exit']}")
    if d["polylines"] != DEFAULT_SEEDS:
        errs.append(f"{d['polylines']} polylines for {DEFAULT_SEEDS} seeds")
    if d["divisor_stroke"] is None:
        errs.append("no divisor circle")
    return errs


def truncated(d: dict) -> int:
    return sum("truncated" in cls for cls in d["classes"])


# ---------------------------------------------------------------------------
# comparison


def compare(ref, got, abs_tol: float, rel_tol: float, path: str = "") -> None:
    """Raise :class:`Mismatch` at the first difference; floats compare
    within ``abs_tol + rel_tol * |ref|``, everything else exactly."""
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not math.isclose(ref, got, rel_tol=rel_tol, abs_tol=abs_tol):
            raise Mismatch(f"{path}: {got!r} != {ref!r}")
        return
    if type(ref) is not type(got):
        raise Mismatch(f"{path}: {got!r} != {ref!r}")
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            raise Mismatch(f"{path}: keys {sorted(got)} != {sorted(ref)}")
        for k in ref:
            compare(ref[k], got[k], abs_tol, rel_tol, f"{path}/{k}")
    elif isinstance(ref, list):
        if len(ref) != len(got):
            raise Mismatch(f"{path}: length {len(got)} != {len(ref)}")
        for i, (a, b) in enumerate(zip(ref, got)):
            compare(a, b, abs_tol, rel_tol, f"{path}[{i}]")
    elif ref != got:
        raise Mismatch(f"{path}: {got!r} != {ref!r}")


class Checker:
    """Digests each op's output and checks it; collects mismatches."""

    def __init__(self, command: str, reference: dict):
        if command == "check-equivalence":
            self.digest, self.invariants = verdict_digest, verdict_invariants
            self.tol = (VERDICT_TOL, VERDICT_TOL)
        else:
            self.digest, self.invariants = portrait_digest, portrait_invariants
            self.tol = (SVG_TOL_PX, 0.0)
        self.reference = reference
        self.mismatches: list[str] = []

    def check(self, key: str, code: int, stdout: str) -> dict:
        try:
            d = self.digest(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.mismatches.append(f"{key}: unreadable output ({exc!r})")
            return {}
        for err in self.invariants(d):
            self.mismatches.append(f"{key}: {err}")
        ref = self.reference.get(key)
        if ref is None:
            self.mismatches.append(f"{key}: no reference output")
        else:
            try:
                compare(ref, d, *self.tol)
            except Mismatch as exc:
                self.mismatches.append(f"{key}: {exc}")
        return d
