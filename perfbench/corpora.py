"""The benchmark's workloads: fixed field corpora and the ops run on them.

Each workload is a fixed corpus of field texts, generated here from a
constant corpus seed without importing polyfield, so the program receives
only text.  The ``--seed`` of a run orders the corpus anew in every round;
it does not draw new fields.  Drawing a fresh corpus per seed made the
per-run medians depend on which few heavy fields a seed happened to draw
(about 10% interquartile spread of ``ops_per_s`` over ten seeds at 20 s
runs), which would hide any change smaller than that.  A fixed corpus also
lets every op of every run be checked against the checked-in reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CORPUS_SEED = 0


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    #: exit codes that count as an answer; anything else is a failed op
    ok_codes: frozenset
    #: per-op deadline in seconds, far above the slowest op at the seed
    deadline_s: float
    warmup: Op
    ops: tuple[Op, ...]


def _monomial(i: int, j: int) -> str:
    factors = []
    if i:
        factors.append("x" if i == 1 else f"x^{i}")
    if j:
        factors.append("y" if j == 1 else f"y^{j}")
    return "*".join(factors)


def _poly_text(poly: dict) -> str:
    """``{(i, j): c}`` as text in the CLI grammar, highest monomial first."""
    parts = []
    for (i, j), c in sorted(poly.items(), reverse=True):
        c = Fraction(c)
        if c == 0:
            continue
        mono = _monomial(i, j)
        mag = abs(c)
        if mag != 1 or not mono:
            mono = f"{mag}*{mono}" if mono else str(mag)
        parts.append(("- " if c < 0 else "+ ") + mono)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def field_text(dx: dict, dy: dict) -> str:
    return f"dx = {_poly_text(dx)}; dy = {_poly_text(dy)}"


def _verdict_op(key: str, text: str) -> Op:
    return Op(key, ("check-equivalence", "--field", text))


def _portrait_op(key: str, text: str, weight: str) -> Op:
    return Op(key, ("portrait", "--field", text, "--weight", weight))


QUARTIC = "dx = y^3 - x^3*y; dy = -x^3 + x*y^3"


# ---------------------------------------------------------------------------
# verdict-random: many small exact problems


def _random_small_field(rng: random.Random) -> tuple[dict, dict]:
    """The distribution of ``_random_field`` in tests/test_acceptance.py:
    2-5 logarithmic-basis terms x^m y^n (a x d/dx + b y d/dy) on the pool
    [-1, 3]^2, with numerators in [-4, 4] over denominators {1, 2, 3}."""
    pool = [(m, n) for m in range(-1, 4) for n in range(-1, 4)]
    dx: dict = {}
    dy: dict = {}
    for m, n in rng.sample(pool, rng.randint(2, 5)):
        a = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if m >= -1 and n >= 0 and a:
            dx[(m + 1, n)] = a
        if m >= 0 and n >= -1 and b:
            dy[(m, n + 1)] = b
    return dx, dy


def verdict_random(size: int = 120) -> Workload:
    """Many small exact problems, the typical batch: root isolation and
    refinement in polys dominate."""
    rng = random.Random(CORPUS_SEED)
    ops = []
    while len(ops) < size:
        dx, dy = _random_small_field(rng)
        if dx or dy:
            ops.append(_verdict_op(f"random-{len(ops):03d}", field_text(dx, dy)))
    return Workload(
        name="verdict-random",
        command="check-equivalence",
        ok_codes=frozenset({0, 3}),
        deadline_s=10.0,
        warmup=_verdict_op("warmup", QUARTIC),
        ops=tuple(ops))


# ---------------------------------------------------------------------------
# verdict-large: a few big exact problems


def _random_large_field(rng: random.Random, degree: int, terms: int,
                        bits: int) -> tuple[dict, dict]:
    """``terms`` monomials of total degree <= ``degree`` spread over dx and
    dy, one of them of full degree, with integer coefficients of exactly
    ``bits`` bits and random sign."""
    monos = [(i, k - i) for k in range(degree + 1) for i in range(k + 1)]
    top = [m for m in monos if sum(m) == degree]
    chosen = {(rng.randrange(2), rng.choice(top))}
    while len(chosen) < terms:
        chosen.add((rng.randrange(2), rng.choice(monos)))
    comps: tuple[dict, dict] = ({}, {})
    for comp, mono in sorted(chosen):
        comps[comp][mono] = rng.randrange(2 ** (bits - 1), 2 ** bits) \
            * rng.choice((1, -1))
    return comps


#: (degree, terms, coefficient bits) of the random rungs, two fields each
LARGE_RUNGS = ((6, 8, 3), (8, 10, 3), (10, 12, 3),
               (4, 6, 12), (4, 6, 16), (4, 6, 20), (4, 6, 24))
#: b in the quartic whose y^3 coefficient in dx is 2^b + 1; the rational
#: root search divides by trial up to 2^(b/2), so each step of 4 bits costs
#: about 3-4x.  At the seed b = 36 takes 0.8 s, b = 40 about 3 s, b = 44
#: about 10 s and b >= 48 does not finish in 15 s; the ladder stops at 36
#: to keep a round near 8 s.
QUARTIC_BITS = (28, 32, 36)


def verdict_large(per_rung: int = 2) -> Workload:
    """A few big exact problems along a degree and coefficient-size ladder:
    the same polys layer as verdict-random, but bp_gcd and the rational root
    search dominate, so a change tuned for one shows its cost on the other."""
    ops = []
    for degree, terms, bits in LARGE_RUNGS:
        rng = random.Random(f"{CORPUS_SEED}-{degree}-{terms}-{bits}")
        for k in range(per_rung):
            dx, dy = _random_large_field(rng, degree, terms, bits)
            ops.append(_verdict_op(f"deg{degree}-t{terms}-b{bits}-{k}",
                                   field_text(dx, dy)))
    for bits in QUARTIC_BITS:
        c = 2 ** bits + 1
        text = field_text({(0, 3): c, (3, 1): -1}, {(3, 0): -1, (1, 3): 1})
        ops.append(_verdict_op(f"quartic-2^{bits}+1", text))
    return Workload(
        name="verdict-large",
        command="check-equivalence",
        ok_codes=frozenset({0, 3}),
        deadline_s=30.0,
        warmup=_verdict_op("warmup", QUARTIC),
        ops=tuple(ops))


# ---------------------------------------------------------------------------
# portrait: float ODE integration


ROTATION = "dx = -y; dy = x"
PORTRAIT_FIELDS = (
    ("rotation-w11", ROTATION, "1,1"),
    ("quartic-w12", QUARTIC, "1,2"),
    ("cusp-w35", "dx = y^2 - x^3; dy = -x^5 - y^3", "3,5"),
)


def portrait() -> Workload:
    """Default 48-seed disk portraits at three weights: the only workload
    where trig lookups and ODE integration dominate and the exact layers
    are small."""
    return Workload(
        name="portrait",
        command="portrait",
        ok_codes=frozenset({0}),
        deadline_s=30.0,
        # one trajectory: loads and runs the same code as a full portrait
        # at a small fraction of its cost, which keeps the set-up probes short
        warmup=Op("warmup", ("portrait", "--field", ROTATION, "--weight",
                             "1,1", "--seed", "0,0.5")),
        ops=tuple(_portrait_op(key, text, w) for key, text, w in PORTRAIT_FIELDS))


WORKLOADS = {
    "verdict-random": verdict_random,
    "verdict-large": verdict_large,
    "portrait": portrait,
}
