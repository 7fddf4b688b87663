"""Outside-in span tracer: times polyfield's layers by wrapping their
public functions, without changing any file of the program.

``analysis``, ``portrait``, ``cli`` and the package ``__init__`` bind many
of these functions by ``from ... import``, so replacing the attribute of the
defining module alone would miss their calls.  :meth:`Tracer.install`
therefore replaces every binding of a traced object in every loaded
``polyfield`` module, and :meth:`Tracer.uninstall` puts the originals back,
so untraced runs pay no wrapper cost.

Each wrapped call records a span (op id, span id, parent span id, name,
start, end) in memory; self time is the span's duration minus the time its
child spans cover, accumulated per name as calls return.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

#: layer -> public names to wrap; ``Class.method`` wraps a method.  A
#: function defined outside polyfield (``solve_ivp``) is named after the
#: polyfield module that binds it.  The polys primitives ``up_eval``,
#: ``up_gcd`` and ``up_deriv`` stay unwrapped: most of their time is spent
#: inside the entry points listed here and belongs to them, and the direct
#: calls from analysis (about 1-2% of a verdict) count as analysis time.
TARGETS = {
    "cli": ("main",),
    "fields": ("parse_field", "make_favorable", "shear", "format_field"),
    "polytope": ("build_polytope", "polytope_from_support",
                 "upper_principal_part", "plc_weight", "polytope_after_plc",
                 "split_boundary", "main_features", "is_favorable"),
    "fans": ("build_fan", "complete_fan", "chart_maps"),
    "charts": ("directional_plc", "fan_chart_field", "polar_field",
               "level_data"),
    "polys": ("real_roots", "count_real_roots", "RealRoot.refine",
              "RealRoot.sign_of", "RealRoot.equals", "RealRoot.__lt__",
              "bp_gcd", "bp_strip_monomial", "has_real_branch"),
    "analysis": ("equivalence_verdict", "singularity_inventory",
                 "divisor_singularities", "classify", "check_nondegenerate",
                 "check_no_singularity_curve"),
    "trig": ("build_trig", "TrigTable.eval"),
    "portrait": ("render_portrait", "divisor_markers", "solve_ivp"),
}

#: spans kept for the span file; calls beyond it are still timed and counted
MAX_SPANS = 100_000


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _polyfield_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "polyfield"
                                  or name.startswith("polyfield."))]


class Tracer:
    """Install with :meth:`install`; set :attr:`op` before each op."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.roots_found = 0
        self.max_endpoint_bits = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = ""
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}
        #: targets the program no longer defines; their time counts in
        #: their callers
        self.missing: list[str] = []

    # -- counters fed from results -------------------------------------

    def _note_roots(self, roots) -> None:
        self.roots_found += len(roots)
        for r in roots:
            self._note_root(r)

    def _note_root(self, r) -> None:
        self.max_endpoint_bits = max(self.max_endpoint_bits,
                                     _bits(r.lo), _bits(r.hi))

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, on_result=None):
        perf = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[name] += d - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += d
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, span_id, parent, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target, in every polyfield module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = _polyfield_modules()
        hooks = {"polys.real_roots": self._note_roots,
                 "polys.refine": self._note_root}
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"polyfield.{layer}")
            for target in names:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name, None)
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is None:
                        self.missing.append(f"{layer}.{target}")
                        continue
                    name = f"{layer}.{meth}"
                    wrapper = self._wrap(fn, name, hooks.get(name))
                    self._remember(fn, wrapper)
                    self._patch(cls, meth, wrapper)
                    continue
                fn = getattr(home, target, None)
                if fn is None:
                    self.missing.append(f"{layer}.{target}")
                    continue
                own = getattr(fn, "__module__", "").startswith("polyfield")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is not fn:
                            continue
                        bind = mod.__name__.rpartition(".")[2]
                        name = f"{layer}.{target}" if own else f"{bind}.{attr}"
                        wrapper = self._wrap(fn, name, hooks.get(name))
                        self._remember(fn, wrapper)
                        self._patch(mod, attr, wrapper)

    def _remember(self, fn, wrapper) -> None:
        self.originals[id(fn)] = fn
        self.wrappers[id(wrapper)] = wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def end_op(self) -> None:
        """Forget frames left open by an op cut short by its deadline."""
        self._stack.clear()

    # -- results -------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return dict(out)
