"""The portrait's DOP853 step loop against scipy's own stepper.

``portrait.solve_ivp`` steps DOP853 on plain floats, with the tableau of
``polyfield.dop853`` and its own port of brentq.  The oracle here is
scipy's public ``DOP853`` solver, stepped one step at a time, with its
``dense_output()`` per step, solve_ivp's event test and scipy's brentq
roots, and ``OdeSolution`` for the samples.  The tableau, brentq and the
sampling of a branch's pieces are compared by the bytes of the floats; the
steps within the bounds that ``test_steps_match_scipys_dop853_bit_for_bit``
states, since the loop's stage sums round differently from scipy's.
"""

import math
import random

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq

from polyfield import dop853, portrait
from polyfield.fields import WeightVector
from polyfield.trig import build_trig


def _scipy_branch(rhs, seed, horizon, tol):
    """One branch on scipy's stepper: the right-hand side's arguments call
    by call, the step ends, one piece per kept step built from
    ``dense_output()``'s F and y_old, the kept interpolants, the number of
    accepted steps and how the branch ended."""
    calls = []

    def fun(t, y):
        args = (t, *y.tolist())
        calls.append(args)
        return rhs(*args)

    solver = DOP853(fun, 0.0, list(seed), horizon, rtol=tol, atol=tol)
    ts, pieces, dense = [0.0], [], []
    g = [seed[1] - level for level in portrait._STOP_LEVELS]
    for steps in range(portrait.MAX_STEPS):
        solver.step()
        if solver.status == "failed":
            return calls, ts, pieces, dense, steps, "failed"
        interpolant = solver.dense_output()
        rows = interpolant.F[::-1]
        piece = [interpolant.t_old, interpolant.h]
        for i in range(2):
            piece += [0.0 + rows[0][i], *rows[1:, i].tolist(),
                      interpolant.y_old[i]]
        pieces.append(tuple(float(v) for v in piece))
        dense.append(interpolant)
        g_new = [solver.y[1] - level for level in portrait._STOP_LEVELS]
        roots = [brentq(lambda s, level=level: interpolant(s)[1] - level,
                        solver.t_old, solver.t, xtol=portrait._ROOT_TOL,
                        rtol=portrait._ROOT_TOL)
                 for a, b, level in zip(g, g_new, portrait._STOP_LEVELS)
                 if a <= 0 <= b or a >= 0 >= b]
        g = g_new
        t = min(roots) if roots else solver.t
        if len(ts) > 1 and ts[-1] == t:
            pieces.pop()
            dense.pop()
        else:
            ts.append(t)
        if roots:
            return calls, ts, pieces, dense, steps + 1, "event"
        if solver.status == "finished":
            return calls, ts, pieces, dense, steps + 1, "finished"
    return calls, ts, pieces, dense, portrait.MAX_STEPS, "step bound"


def _random_terms(rng):
    comp = []
    monos = rng.sample([(i, j, k) for i in range(4) for j in range(4)
                        for k in range(4)], rng.randint(1, 5))
    for i, j, k in monos:
        comp.append((rng.choice((-1, 1)) * rng.uniform(0.1, 9.9)
                     * 10.0 ** rng.randint(-2, 1), i, j, k))
    roll = rng.random()
    if roll < 0.2:
        # a power of r that overflows a float power once r passes ~6
        comp.append((rng.uniform(0.5, 2.0), 0, 0, 400))
    elif roll < 0.3:
        # a rate so large that the first step needs less than ten float
        # spacings of t, and fails
        comp.append((1e300, rng.randint(0, 3), 0, 3))
    return tuple(sorted(comp, key=lambda term: term[1:]))


def _bytes(rows):
    return np.array(rows, dtype=float).tobytes()


#: theta' has an r**400 term, which overflows in two dense-output stages
#: of this branch (sign +1, tolerance 1e-3), so the rows of theta's
#: interpolant over its steps 411 and 412 hold nan.  At their right knots the lower piece gives nan and
#: the upper one its start value: these knots show which piece a sample
#: reads.  Among 1,101 seeded branches with an r**400 term only this one
#: had such a knot; on finite rows both pieces give the same float there.
NAN_ROWS = ((((0.7619274500084605, 0, 0, 400), (9.523377615248565, 1, 1, 1),
              (-3.795939174770328, 3, 3, 3)),
             ((16.80036716583476, 0, 0, 3), (-0.06077162380075942, 1, 2, 0))),
            (2.075193069484559, 0.5943223192467129), 1.0, 1e-3)


def _relative(got, want):
    """The largest deviation of ``got`` from ``want``, relative to
    1 + |want|, over same-shaped rows of floats."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    return float(np.max(np.abs(got - want) / (1 + np.abs(want))))


def test_steps_match_scipys_dop853_bit_for_bit(monkeypatch):
    """The loop's branches against scipy's, within bounds.  Each stage sum
    of the loop runs left to right over the tableau's nonzero entries and
    scipy's in BLAS order, so a stage differs in its last bits, and a
    stiff or chaotic branch magnifies that.  So: every branch ends as
    scipy's does; at least 80 of the 91 branches take as many accepted
    steps as scipy's (85 do), and at least 60 of the 78 with samples agree
    with scipy's within 1e-9 of 1 + |y| at their 241 samples (67 do).
    Both make 2 right-hand-side calls before the first step, 12 per trial
    step and 3 per accepted step's dense output.  ``_sample`` reads
    scipy's own pieces as ``OdeSolution`` does, by the bytes."""
    rng = random.Random(2718)
    table = build_trig(WeightVector(1, 2))
    cases = [((_random_terms(rng), _random_terms(rng)),
              (rng.uniform(-4.0, 4.0), rng.uniform(0.05, 1.0)),
              rng.choice((-1.0, 1.0)), tol)
             for tol in (1e-13, 1e-9, 1e-3) for _ in range(30)]
    brentq_port, roots = portrait._brentq, []

    def brentq_logged(*args):
        roots.append(args)
        return brentq_port(*args)

    monkeypatch.setattr(portrait, "_brentq", brentq_logged)
    endings = {}
    trials = accepted = overflows = split_knots = 0
    same_steps = close = sampled = 0
    for terms, seed, sign, tol in cases + [NAN_ROWS]:
        rhs = portrait._compile_rhs(*terms, table)(sign)
        ours = []

        def logged(t, theta, r):
            ours.append((t, theta, r))
            return rhs(t, theta, r)

        with np.errstate(all="ignore"):
            calls, ts, pieces, dense, steps, ending = _scipy_branch(
                rhs, seed, 2.0, tol)
            values = [rhs(*args) for args in calls]
        roots.clear()
        got_ts, got_pieces, cut = portrait.solve_ivp(
            logged, seed, 2.0, tol, tol, portrait._STOP_LEVELS)
        if ending == "failed" and not pieces:
            ending = "failed first step"
        got_ending = ("finished" if not cut else "event" if roots
                      else "step bound" if len(got_pieces) == portrait.MAX_STEPS
                      else "failed" if got_pieces else "failed first step")
        assert got_ending == ending, (terms, seed, tol)
        assert len(got_pieces) == len(got_ts) - 1
        same_steps += len(got_ts) == len(ts)
        endings[ending] = endings.get(ending, 0) + 1
        for logged_calls, kept in ((ours, len(got_pieces)), (calls, steps)):
            tried, rest = divmod(len(logged_calls) - 2 - 3 * kept, 12)
            assert rest == 0 and tried >= kept
        trials += (len(calls) - 2 - 3 * steps) // 12
        accepted += steps
        if any(k == 400 for comp in terms for *_, k in comp):
            overflows += sum(not np.isfinite(v).all() for v in values)
        if not pieces:
            continue
        # the loop's samples against scipy's, to the end of the shorter
        end = min(ts[-1], got_ts[-1])
        times = [end * i / 240 for i in range(241)]
        with np.errstate(all="ignore"):
            want = OdeSolution(ts, dense)(np.array(times)).T
        sampled += 1
        close += _relative(portrait._sample(got_ts, got_pieces, times),
                           want) <= 1e-9
        # the sampling of scipy's pieces against OdeSolution at the knots,
        # the branch ends and random times
        end = ts[-1]
        times = np.array(sorted(
            ts + [0.0, end] + [rng.uniform(0.0, end) for _ in range(40)]
            + [end * i / 240 for i in range(241)]))
        with np.errstate(all="ignore"):
            want = OdeSolution(ts, dense)(times).T
            got = np.array(portrait._sample(ts, pieces, times.tolist()))
            lower = OdeSolution(ts, dense)(ts)
            upper = OdeSolution(ts, dense, alt_segment=True)(ts)
        assert got.tobytes() == want.tobytes()
        split_knots += lower.tobytes() != upper.tobytes()
    assert same_steps >= 80 and sampled == 78 and close >= 60
    # the data hold rejected steps, overflowing trial stages, a knot where
    # the two pieces give different floats, and every way a branch ends
    assert trials > accepted and overflows > 0 and split_knots > 0
    assert all(endings.get(ending, 0) > 0 for ending in (
        "failed first step", "failed", "step bound", "finished", "event"))


def _scipy_layout():
    """The tableau of ``polyfield.dop853`` laid out as scipy's DOP853 class
    attributes: A, B and A_EXTRA from the rows of A, C and C_EXTRA from the
    16 nodes."""
    full = np.zeros((16, 16))
    for s, row in enumerate(dop853.A, start=1):
        full[s, :s] = row
    nodes = np.array(dop853.C)
    return {"A": full[:12, :12], "B": full[12, :12], "A_EXTRA": full[13:],
            "C": nodes[:12], "C_EXTRA": nodes[13:],
            "E3": np.array(dop853.E3), "E5": np.array(dop853.E5),
            "D": np.array(dop853.D)}


@pytest.mark.parametrize("name", ["A", "C", "A_EXTRA", "C_EXTRA", "B", "E3",
                                  "E5", "D"])
def test_tableau_literals_are_scipys_arrays(name):
    ours, theirs = _scipy_layout()[name], getattr(DOP853, name)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    assert ours.tobytes() == theirs.tobytes()
    # stage 12 is the step's end, at t + h
    assert len(dop853.C) == len(dop853.A) + 1 == 16 and dop853.C[12] == 1.0


def _outcome(solve, f, a, b, **kw):
    """A root by its bits, or the error raised, by type and message."""
    try:
        return solve(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _random_bracket(rng):
    """A function and a bracket around one of its zeros."""
    kind = rng.randrange(6)
    c = rng.uniform(-3.0, 3.0)
    a, b = c - rng.uniform(1e-9, 4.0), c + rng.uniform(1e-9, 4.0)
    if kind == 0:
        # the event form: a degree-7 piece less a level
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(7)]
        t0, h = a, b - a
        level = portrait._horner(rng.random(), *coeffs, 0.0)
        return (lambda s: portrait._horner((s - t0) / h, *coeffs, 0.0)
                - level), a, b
    if kind == 1:
        k = rng.choice((1, 3, 5, 9))
        return lambda x: (x - c) ** k, a, b
    if kind == 2:
        return lambda x: 1e5 * math.atan(x - c), a, b
    if kind == 3:
        # a jump, which brentq narrows down by bisection
        return lambda x: 1.0 if x > c else -1.0, a, b
    if kind == 4:
        return lambda x: math.expm1(x - c) - 1e-3 * (x - c), a, b
    return lambda x: (x - c) * (1.0 + (x - c) ** 2) ** 3, a, b



def test_brentq_matches_scipys_bit_for_bit():
    rng = random.Random(1973)
    tols = [dict(xtol=portrait._ROOT_TOL, rtol=portrait._ROOT_TOL),
            dict(xtol=2e-12, rtol=4 * np.finfo(float).eps),
            dict(xtol=1e-6, rtol=1e-10)]
    cases = []
    for _ in range(1200):
        f, a, b = _random_bracket(rng)
        if rng.random() < 0.5:
            a, b = b, a
        cases.append((f, a, b, rng.choice(tols)))
    # zeros at the ends, one sign, a NaN, and too few iterations
    cases += [(lambda x: x - 0.25, 0.25, 2.0, tols[0]),
              (lambda x: x - 0.25, -1.0, 0.25, tols[0]),
              (lambda x: -0.0 if x < 1 else 1.0, 0.0, 2.0, tols[0]),
              (lambda x: x * x + 1.0, -1.0, 2.0, tols[0]),
              (lambda x: math.nan, -1.0, 2.0, tols[0]),
              (lambda x: x ** 3 - 0.3, 0.0, 1.0, dict(tols[0], maxiter=3)),
              (lambda x: x ** 9 - 0.3, 0.0, 1.0, dict(tols[1], maxiter=5))]
    errors = set()
    for f, a, b, kw in cases:
        want = _outcome(brentq, f, a, b, **kw)
        assert _outcome(portrait._brentq, f, a, b, **kw) == want, (a, b, kw)
        if isinstance(want, tuple):
            errors.add(want[0] + want[1][:6])
    assert errors == {"ValueErrorf(a) a", "ValueErrorThe fu",
                      "RuntimeErrorFailed"}
