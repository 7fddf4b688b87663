"""polyfield benchmark: closed-loop CLI workloads with an output gate.

    python3 perfbench/run.py --workload verdict-random --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

One client calls ``polyfield.cli.main`` in this process, op after op, with
stdout captured.  A run repeats whole rounds of its workload's fixed corpus,
each round in an order drawn from ``--seed``, until the ops have been busy
for ``--seconds`` and at least three rounds are done; whole rounds keep the
mix of fields identical from run to run.  Op times are paced: scaled to the
machine's unloaded speed by a stdlib kernel timed around and during each op
(see ``pace.py``), because a shared host runs the same code at up to half
speed for tens of seconds at a time.  Each op's latency is its median paced
time over the rounds, and the percentiles and throughput are taken over the
corpus at those latencies.  Every op's output is checked against
``reference/<workload>.json.gz`` and against invariants that need no
reference; any mismatch makes the run print ``"correct": false`` and exit 1.

An op fails when it overruns its deadline (an interval timer in this
process), exits with a code that is not an answer, or raises.  Failed ops
count at the deadline in the latency percentiles.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
several fresh interpreters each importing the CLI and running the
workload's warm-up op, each paced like an op.  ``--trace 1`` alternates
untraced rounds with rounds in which polyfield's public functions are
wrapped (see ``tracer.py``), and reports per-layer self times and counts per
traced op, the tracing overhead and the share of op time the layers account
for; it is not paced, and compares each op's best wall time over the
traced and the untraced rounds.  Each run writes
``results/<workload>-seed<n>-trace<t>.json`` with provenance; a traced run
also writes its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpora
import outputs
import pace
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 5
#: rounds of an untraced run, so that each op's best latency can skip
#: rounds slowed by other load on the machine
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60.0
#: no new op starts after this much wall time, and no op runs past
#: ``EXIT_BY_S``, so a run that regresses badly still ends within 180 s
RUN_CAP_S = 120.0
EXIT_BY_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


class Deadline(BaseException):
    """Raised by the interval timer when an op overruns its deadline."""


def on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# program under test


def import_cli():
    if not (SRC / "polyfield" / "cli.py").is_file():
        raise BenchError(f"no polyfield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyfield.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "polyfield":
        raise BenchError(f"imported polyfield from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(wl: corpora.Workload) -> list[float]:
    """Paced seconds from spawning a fresh interpreter to the end of its
    warm-up op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *wl.warmup.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        parts = proc.stdout.split()
        if proc.returncode != 0 or len(parts) != 4 \
                or int(parts[0]) not in wl.ok_codes:
            raise BenchError(f"set-up probe failed: {proc.stdout!r} "
                             f"{proc.stderr[-2000:]}")
        end, spent, speed = map(float, parts[1:])
        samples.append((end - t0 - spent) * speed)
    return samples


@dataclass
class OpResult:
    cause: str | None  # None when the op answered
    code: int | None
    stdout: str
    #: wall time, less the pacing kernel's time inside the op
    seconds: float
    #: ``seconds`` scaled to the machine's unloaded speed; equal to
    #: ``seconds`` when the op ran without a pacer
    paced: float


def run_op(main, op: corpora.Op, ok_codes, deadline: float,
           pacer: pace.Pacer | None = None) -> OpResult:
    out = io.StringIO()
    code = None
    if pacer is not None:
        pacer.begin()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if pacer is not None:
                pacer.stop()
            wall = time.perf_counter() - t0
        cause = None if code in ok_codes else f"exit_{code}"
    except Deadline:
        cause = "deadline"
    except SystemExit as exc:
        cause = f"exit_{exc.code}"
    except Exception as exc:  # any uncaught error is a failed op, not a crash
        cause = f"exception_{type(exc).__name__}"
    spent, speed = pacer.end() if pacer is not None else (0.0, 1.0)
    return OpResult(cause, code, out.getvalue(), wall - spent,
                    (wall - spent) * speed)


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Loop:
    """Tallies of one sequence of rounds."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    #: op key -> wall and paced latency of each attempt; a failed attempt
    #: counts at its deadline in both
    latencies: dict[str, list[float]] = field(default_factory=dict)
    paced: dict[str, list[float]] = field(default_factory=dict)
    busy_s: float = 0.0
    rounds: int = 0
    polylines: int = 0
    truncated: int = 0

    @property
    def completed(self) -> int:
        return self.attempted - sum(self.failed.values())


def run_round(main, wl: corpora.Workload, checker: outputs.Checker,
              rng: random.Random, loop: Loop, t_start: float,
              trace: tracer.Tracer | None = None,
              pacer: pace.Pacer | None = None) -> bool:
    """Run the corpus once in an order drawn from ``rng``, tallying into
    ``loop``; False when the run's time cap cut the round short."""
    order = list(wl.ops)
    rng.shuffle(order)
    for op in order:
        elapsed = time.perf_counter() - t_start
        if elapsed > RUN_CAP_S:
            return False
        deadline = min(wl.deadline_s, EXIT_BY_S - elapsed)
        if trace is not None:
            trace.op = f"{op.key}#{loop.attempted}"
        res = run_op(main, op, wl.ok_codes, deadline, pacer)
        if trace is not None:
            trace.end_op()
        loop.attempted += 1
        loop.busy_s += res.seconds
        lat = loop.latencies.setdefault(op.key, [])
        paced = loop.paced.setdefault(op.key, [])
        if res.cause is not None:
            loop.failed[res.cause] += 1
            lat.append(deadline)
            paced.append(deadline)
            continue
        lat.append(res.seconds)
        paced.append(res.paced)
        d = checker.check(op.key, res.code, res.stdout)
        if "polylines" in d:
            loop.polylines += d["polylines"]
            loop.truncated += outputs.truncated(d)
    loop.rounds += 1
    return True


# ---------------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_latencies_ms(loop: Loop) -> list[float]:
    """Each op's best wall latency over the rounds of the run, ascending."""
    return sorted(min(v) * 1e3 for v in loop.latencies.values())


def paced_latencies_ms(loop: Loop) -> list[float]:
    """Each op's median paced latency over the rounds of the run, ascending."""
    return sorted(statistics.median(v) * 1e3 for v in loop.paced.values())


def throughput(lat_ms: list[float]) -> float:
    """Ops per second of one client running the corpus once at ``lat_ms``."""
    return len(lat_ms) * 1e3 / sum(lat_ms)


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    lat_ms = paced_latencies_ms(loop)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] \
        if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": _metric(throughput(lat_ms), "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(t: tracer.Tracer, loop: Loop) -> dict:
    n = loop.attempted
    layers = t.layer_self_s()

    def ms(name):
        return _metric(t.self_s.get(name, 0.0) * 1e3 / n, "ms/op")

    def calls(*names):
        return _metric(sum(t.calls.get(x, 0) for x in names) / n, "calls/op")

    m = {f"{layer}.self_ms": _metric(layers.get(layer, 0.0) * 1e3 / n, "ms/op")
         for layer in tracer.TARGETS}
    m.update({
        "fields.parse_field.self_ms": ms("fields.parse_field"),
        "fields.make_favorable.self_ms": ms("fields.make_favorable"),
        "fields.shear.calls": calls("fields.shear"),
        "polytope.build_polytope.calls": calls("polytope.build_polytope"),
        "fans.build_fan.calls": calls("fans.build_fan"),
        "charts.pullback.calls": calls("charts.directional_plc",
                                       "charts.fan_chart_field",
                                       "charts.polar_field"),
        "polys.real_roots.calls": calls("polys.real_roots"),
        "polys.real_roots.self_ms": ms("polys.real_roots"),
        "polys.roots_found": _metric(t.roots_found / n, "roots/op"),
        "polys.refine.calls": calls("polys.refine"),
        "polys.refine.self_ms": ms("polys.refine"),
        "polys.refine_per_root": _metric(
            t.calls.get("polys.refine", 0) / t.roots_found
            if t.roots_found else 0.0, "calls/root"),
        "polys.sign_of.calls": calls("polys.sign_of"),
        "polys.sign_of.self_ms": ms("polys.sign_of"),
        "polys.bp_gcd.self_ms": ms("polys.bp_gcd"),
        "polys.has_real_branch.self_ms": ms("polys.has_real_branch"),
        "polys.max_endpoint_bits": _metric(t.max_endpoint_bits, "bits"),
        "analysis.classify.calls": calls("analysis.classify"),
        "analysis.classify.self_ms": ms("analysis.classify"),
        "analysis.divisor_singularities.self_ms":
            ms("analysis.divisor_singularities"),
        "analysis.check_nondegenerate.self_ms":
            ms("analysis.check_nondegenerate"),
        "analysis.check_no_singularity_curve.self_ms":
            ms("analysis.check_no_singularity_curve"),
        "analysis.equivalence_verdict.self_ms":
            ms("analysis.equivalence_verdict"),
        "trig.build_trig.calls": calls("trig.build_trig"),
        "trig.build_trig.self_ms": ms("trig.build_trig"),
        "trig.eval.calls": calls("trig.eval"),
        "trig.eval.self_ms": ms("trig.eval"),
        "portrait.solve_ivp.calls": calls("portrait.solve_ivp"),
        "portrait.solve_ivp.self_ms": ms("portrait.solve_ivp"),
        "portrait.truncated_share": _metric(
            loop.truncated / loop.polylines if loop.polylines else 0.0,
            "share"),
        "portrait.markers.self_ms": ms("portrait.divisor_markers"),
        "portrait.render_portrait.self_ms": ms("portrait.render_portrait"),
        "trace.coverage": _metric(sum(layers.values()) / loop.busy_s, "share"),
    })
    return m


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    lines = {}
    for path in sorted((SRC / "polyfield").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.stem] = sum(1 for _ in fh)
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# one workload


def load_reference(name: str) -> dict:
    with gzip.open(REFERENCE / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _report(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")


def _write_spans(t: tracer.Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in t.spans:
            fh.write(json.dumps(span) + "\n")


def run_workload(args) -> int:
    t_start = time.perf_counter()
    wl = corpora.WORKLOADS[args.workload]()
    cli = import_cli()
    setup = [] if args.trace else measure_setup(wl)
    checker = outputs.Checker(wl.command, load_reference(wl.name))
    signal.signal(signal.SIGALRM, on_alarm)
    pacer = None if args.trace else pace.Pacer()
    warm = run_op(cli.main, wl.warmup, wl.ok_codes, wl.deadline_s, pacer)
    if warm.cause is not None:
        raise BenchError(f"warm-up op failed: {warm.cause}")
    rng = random.Random(args.seed)

    result = {"workload": wl.name, "trace": args.trace,
              "provenance": provenance(args.seed),
              "setup_samples_s": setup}
    print(f"{wl.name}: {len(wl.ops)} ops per round, seed {args.seed}")
    if args.trace:
        # untraced and traced rounds alternate, so that both see the same
        # phases of load on the machine
        base, loop, t = Loop(), Loop(), tracer.Tracer()
        while run_round(cli.main, wl, checker, rng, base, t_start):
            t.install()
            try:
                done = run_round(cli.main, wl, checker, rng, loop, t_start, t)
            finally:
                t.uninstall()
            if not done or base.busy_s + loop.busy_s >= args.seconds:
                break
        metrics = per_layer(t, loop)
        untraced = throughput(best_latencies_ms(base))
        traced = throughput(best_latencies_ms(loop))
        if t.missing:
            print(f"  not traced, no longer in polyfield: {', '.join(t.missing)}")
        result["tracing"] = {
            "untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
            "missing_targets": t.missing,
            "spans": len(t.spans), "dropped_spans": t.dropped_spans,
            "self_s": dict(t.self_s), "calls": dict(t.calls)}
        print(f"  tracing overhead: traced - untraced ops_per_s = "
              f"{traced - untraced:+.4g} 1/s ({traced:.4g} vs {untraced:.4g}"
              f", {traced / untraced - 1:+.1%})")
        print(f"  per-layer self times cover "
              f"{metrics['trace.coverage']['value']:.2%} of traced op time")
        RESULTS.mkdir(exist_ok=True)
        _write_spans(t, RESULTS / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        loop = Loop()
        while (loop.rounds < MIN_ROUNDS or loop.busy_s < args.seconds) and \
                run_round(cli.main, wl, checker, rng, loop, t_start,
                          pacer=pacer):
            pass
        metrics = end_to_end(loop, setup)
        result["unpaced_ops_per_s"] = throughput(best_latencies_ms(loop))
        print(f"  unpaced ops_per_s at each op's best wall time: "
              f"{result['unpaced_ops_per_s']:.4g} 1/s")
    _report(metrics)
    print(f"  ops: {loop.attempted} attempted in {loop.rounds} rounds, "
          f"{loop.completed} completed in {loop.busy_s:.2f} s; "
          f"failed by cause: {dict(loop.failed) or 'none'}")
    for line in checker.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    correct = not checker.mismatches
    result.update(metrics=metrics, attempted=loop.attempted,
                  rounds=loop.rounds, latencies_s=loop.latencies,
                  paced_latencies_s=loop.paced,
                  failed_by_cause=dict(loop.failed), correct=correct,
                  mismatches=checker.mismatches[:100])
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": sum(loop.failed.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in corpora.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*corpora.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
