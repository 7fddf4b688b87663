"""Self-tests of the benchmark's tracer, output gate and pacer."""

import contextlib
import copy
import io
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import polyfield  # noqa: E402
import polyfield.cli  # noqa: E402

import corpora  # noqa: E402
import outputs  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bindings():
    """Every (owner, attribute) -> object in the loaded polyfield modules,
    including the methods of the classes the tracer wraps."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "polyfield" or name.startswith("polyfield."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for layer, targets in tracer.TARGETS.items():
        for target in targets:
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(sys.modules[f"polyfield.{layer}"], cls_name)
                out[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return out


def _quartic_verdict():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = polyfield.cli.main(["check-equivalence", "--field",
                                   corpora.QUARTIC])
    return code, out.getvalue()


def test_install_leaves_no_unwrapped_reference():
    t = tracer.Tracer()
    t.install()
    try:
        assert t.originals and t.missing == []
        stale = [key for key, value in _bindings().items()
                 if t.originals.get(id(value)) is value]
        assert stale == []
        code, _ = _quartic_verdict()
    finally:
        t.uninstall()
    assert code == 0
    for name in ("cli.main", "fields.parse_field", "polytope.build_polytope",
                 "fans.build_fan", "charts.directional_plc", "polys.real_roots",
                 "polys.refine", "analysis.classify",
                 "analysis.equivalence_verdict"):
        assert t.calls[name] > 0, name
    assert t.roots_found > 0
    # the root span covers the op, so self times add up to its duration
    root = [s for s in t.spans if s[2] is None]
    assert len(root) == 1 and root[0][3] == "cli.main"
    total = root[0][5] - root[0][4]
    assert abs(sum(t.self_s.values()) - total) <= 1e-6 * max(1.0, total)


def test_uninstall_restores_originals():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    wrapped = _bindings()
    t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(wrapped[k] is not before[k] for k in before)
    assert not any(id(v) in t.wrappers for v in after.values())


def test_output_gate_uses_exact_fields_and_tolerances():
    code, stdout = _quartic_verdict()
    digest = outputs.verdict_digest(code, stdout)
    assert outputs.verdict_invariants(digest) == []

    def mismatches(reference):
        checker = outputs.Checker("check-equivalence", {"q": reference})
        checker.check("q", code, stdout)
        return checker.mismatches

    assert mismatches(digest) == []
    nudged = copy.deepcopy(digest)
    record = next(r for recs in nudged["inventory"]["field"].values()
                  for r in recs if r[3] is not None)
    record[3] += 1e-12
    assert mismatches(nudged) == []
    record[3] += 1e-3
    assert mismatches(nudged)
    relabelled = copy.deepcopy(digest)
    relabelled["verdict"] = "HypothesesFail"
    assert mismatches(relabelled)


def test_reference_covers_every_corpus_op():
    for name, make in corpora.WORKLOADS.items():
        keys = {op.key for op in make().ops}
        assert keys == set(run.load_reference(name)), name


def test_pacer_samples_inside_the_op_and_leaves_out_its_own_time():
    def busy(argv):
        t0 = time.process_time()
        while time.process_time() - t0 < 0.2:
            pass
        return 0

    signal.signal(signal.SIGALRM, run.on_alarm)
    pacer = pace.Pacer()
    res = run.run_op(busy, corpora.Op("busy", ()), {0}, 5.0, pacer)
    assert res.cause is None
    # an edge sample on each side and about one every PERIOD_S inside
    inside = len(pacer.samples) - 2
    assert inside >= 0.1 / pace.PERIOD_S
    assert pacer.spent == sum(pacer.samples[1:-1])
    speed = pace.KERNEL_NOMINAL_S * len(pacer.samples) / sum(pacer.samples)
    assert abs(res.paced - res.seconds * speed) <= 1e-12
    # the next op starts from the previous op's closing sample
    edge = pacer.edge
    pacer.begin()
    assert pacer.samples == [edge]
    pacer.end()
