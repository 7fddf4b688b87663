"""Command-line front end for the compactification pipeline.

Every subcommand reads a planar field (``--field``, ``--file`` or stdin) in
the grammar ``dx = <poly>; dy = <poly>``, prints a versioned JSON document
on stdout and reports failures, usage errors included, as a single JSON
line on stderr.  Exit codes: 0 success, 1 domain error, 2 parse or usage
error, 3 failed hypotheses, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .analysis import (
    Analysis,
    approximate_text,
    equivalence_verdict,
    ints_text,
    inventory_text,
    object_text,
    return_map_test,
)
from .fans import FanError, complete_fan
from .fields import (
    DIRECTIONS,
    FieldError,
    InternalConsistencyError,
    ParseError,
    PlanarField,
    WeightVector,
    format_field,
    parse_field,
)
from .polytope import Polytope, plc_weight
from .portrait import PortraitSpec, render_portrait
from .trig import QuadratureError

SCHEMA_VERSION = "1"


def _emit(payload: dict) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                     indent=2, sort_keys=True))


def _emit_text(payload: dict) -> None:
    """Print a document whose values ``analysis``'s renderers have written
    as JSON text at the indent of a top-level value."""
    payload["schema_version"] = json.dumps(SCHEMA_VERSION)
    print(object_text(sorted(payload.items()), "\n"))


def _fail(exc: BaseException, code: int) -> int:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True)
    print(line, file=sys.stderr)
    return code


def _read_field(args: argparse.Namespace) -> PlanarField:
    if args.field is not None:
        text = args.field
    elif args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return parse_field(text)


def _analysis(args: argparse.Namespace) -> Analysis:
    """The field's analysis, with the ``--weight`` override where given."""
    f = _read_field(args)
    text = getattr(args, "weight", None)
    if not text:
        return Analysis(f)
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--weight expects two integers, e.g. 1,2")
    return Analysis(f, WeightVector(int(parts[0]), int(parts[1])))


def _polytope_json(p: Polytope) -> dict:
    out = {
        "support": sorted(p.support),
        "vertices": p.vertices,
        "segments": [s._asdict() for s in p.segments],
        "is_point": p.is_point,
        "is_segment": p.is_segment,
    }
    try:
        w, level = plc_weight(p)
        out["weight"] = w.as_tuple()
        out["upper_level"] = level
    except FieldError:
        out["weight"] = None
        out["upper_level"] = None
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_polytope(args: argparse.Namespace) -> int:
    _emit({"polytope": _polytope_json(_analysis(args).polytope)})
    return 0


def _cmd_fan(args: argparse.Namespace) -> int:
    if args.skeleton:
        # ast imports on first use: the other subcommands never need it
        import ast

        try:
            vectors = ast.literal_eval(f"[{args.skeleton}]")
        # the failures ast.literal_eval documents for malformed input
        except (SyntaxError, ValueError, TypeError, MemoryError,
                RecursionError) as exc:
            raise FanError(f"cannot parse skeleton {args.skeleton!r}") from exc
        fan = complete_fan(vectors)
    else:
        fan = _analysis(args).fan
    _emit({"fan": fan.to_json()})
    return 0


def _cmd_compactify(args: argparse.Namespace) -> int:
    a = _analysis(args)
    if args.chart in DIRECTIONS:
        cf = a.directional[args.chart]
    else:
        try:
            j = int(args.chart)
        except ValueError:
            raise FieldError(
                f"--chart must be one of {', '.join(DIRECTIONS)} or a fan "
                f"chart index, got {args.chart!r}")
        charts = a.fan_charts
        cf = charts.get(f"fan:{j}")
        if cf is None:
            raise ValueError(f"chart index {j} out of range 1..{len(charts)}")
    _emit({"chart": cf.to_json(), "pretty": cf.pretty()})
    return 0


def _cmd_principal_part(args: argparse.Namespace) -> int:
    upp = _analysis(args).upper
    _emit({
        "field": format_field(upp.field),
        "upper_segments": [s._asdict() for s in upp.polytope.upper],
    })
    return 0


def _eigenvalue_text(e) -> str:
    return "" if e is None else approximate_text(e.value, 4)


def _cmd_singularities(args: argparse.Namespace) -> int:
    a = _analysis(args)
    w = a.weight
    inv = a.inventory
    if args.json:
        _emit_text({"weight": ints_text(w.as_tuple(), "\n  "),
                    "charts": inventory_text(inv, "\n  ")})
        return 0
    header = (f"{'chart':8s} {'branch':6s} {'position':>14s} "
              f"{'classification':20s} {'tangent':>10s} {'transverse':>10s} "
              f"orbit")
    print(header)
    print("-" * len(header))
    for chart, recs in inv.items():
        for r in recs:
            pos = "curve" if r.is_curve else approximate_text(r.position, 8)
            tan = _eigenvalue_text(r.tangent)
            tra = _eigenvalue_text(r.transverse)
            orbit = "yes" if r.characteristic_orbit else "no"
            print(f"{chart:8s} {r.branch:6s} {pos:>14s} "
                  f"{r.classification:20s} {tan:>10s} {tra:>10s} {orbit}")
    return 0


def _cmd_check_equivalence(args: argparse.Namespace) -> int:
    rep = equivalence_verdict(_read_field(args))
    _emit_text({"report": rep.json_text("\n  ")})
    return 0 if rep.verdict == "Equivalent" else 3


def _cmd_return_map(args: argparse.Namespace) -> int:
    res = return_map_test(_analysis(args))
    _emit({"return_map": res.to_json()})
    return 0


def _parse_seed(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--seed expects 'theta,r', got {text!r}")
    return float(parts[0]), float(parts[1])


def _cmd_portrait(args: argparse.Namespace) -> int:
    a = _analysis(args)
    # read the weight first: a missing one is reported before a bad seed
    # and before a zero field
    a.weight
    seeds = tuple(_parse_seed(s) for s in args.seed) if args.seed else None
    spec = PortraitSpec(seeds=seeds, horizon=args.horizon,
                        tolerance=args.tolerance, size=args.size,
                        markers=not args.no_markers)
    svg = render_portrait(a, spec)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        _emit({"written": args.svg, "bytes": len(svg)})
    else:
        sys.stdout.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    """A command line that the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print its usage text
    and exit, so usage errors follow the one-JSON-line stderr contract."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyfield",
        description="Newton-polytope adapted compactification of planar "
                    "polynomial vector fields")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, handler, help_text: str,
            weight: bool = False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--field", help="the field as 'dx = ...; dy = ...'")
        sp.add_argument("--file", help="read the field from this file")
        if weight:
            sp.add_argument("--weight",
                            help="override the weight, e.g. --weight 1,2; "
                                 "a value that starts with '-' goes after "
                                 "'=', as in --weight=-1,2")
        sp.set_defaults(handler=handler)
        return sp

    add("polytope", _cmd_polytope, "Newton polytope of the field")
    fan_p = add("fan", _cmd_fan, "simple fan adapted to the upper boundary")
    fan_p.add_argument("--skeleton",
                       help="complete this comma-separated list of primitive "
                            "vectors instead, e.g. \"(-2,-1),(-1,-1),(-1,-2)\"")
    comp = add("compactify", _cmd_compactify,
               "compactified field in one chart", weight=True)
    comp.add_argument("--chart", required=True,
                      help="Xpos, Xneg, Ypos, Yneg, or a fan chart index")
    add("principal-part", _cmd_principal_part,
        "restriction of the field to its upper boundary")
    sing = add("singularities", _cmd_singularities,
               "singularities on the divisor at infinity", weight=True)
    sing.add_argument("--json", action="store_true",
                      help="emit JSON instead of a table")
    add("check-equivalence", _cmd_check_equivalence,
        "test the field against its upper principal part at infinity")
    add("return-map", _cmd_return_map,
        "linear displacement of the return map near infinity", weight=True)
    port = add("portrait", _cmd_portrait,
               "render the Poincare-Lyapunov disk as SVG", weight=True)
    port.add_argument("--svg", help="output path (default: stdout)")
    port.add_argument("--size", type=int, default=640,
                      help="image size in pixels")
    port.add_argument("--horizon", type=float, default=8.0,
                      help="integration horizon per direction")
    port.add_argument("--tolerance", type=float, default=1e-9,
                      help="integrator tolerance")
    port.add_argument("--seed", action="append",
                      help="trajectory seed 'theta,r' (repeatable); write a "
                           "negative theta as --seed=-0.5,0.3")
    port.add_argument("--no-markers", action="store_true",
                      help="skip singularity markers")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(exc, 2)
    try:
        return args.handler(args)
    except ParseError as exc:
        return _fail(exc, 2)
    except (QuadratureError, InternalConsistencyError, OverflowError) as exc:
        return _fail(exc, 4)
    except FieldError as exc:
        return _fail(exc, 3 if args.cmd == "return-map" else 1)
    except (FanError, ValueError, OSError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    raise SystemExit(main())
