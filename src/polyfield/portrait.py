"""Render the Poincare-Lyapunov disk as a deterministic SVG document.

The weighted polar compactification puts infinity at r = 0, so the picture
inverts the radius: a point (theta, r) of the polar field is drawn at plot
radius rho = 1/(1+r) and plot angle 2*pi*theta/T, where T is the period of
the generalized trigonometric pair.  The divisor at infinity is then the
unit circle, the origin of the plane is compressed towards the centre, and
trajectories of the compactified field become curves inside the disk.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .analysis import Analysis, approximate, approximate_text
from .charts import polar_field
from .fields import FieldError, WeightVector
from .trig import build_trig, period

_MARKER_FILL = {
    "Hyperbolic": "#d62728",
    "SemiHyperbolic": "#ff7f0e",
    "Degenerate": "#9467bd",
}

_RADIAL_RING = (0.25, 0.45, 0.65, 0.85)


class PortraitSpec(NamedTuple):
    """Rendering options for the disk portrait.

    Seeds are (theta, r) pairs of the polar field with r in (0, 1]: r = 1 is
    a finite-radius rim well inside the plane and r -> 0 approaches the
    divisor at infinity.  ``seeds=None`` selects the default grid of twelve
    angular positions on four rings.  The portrait is drawn over the
    weight of the ``Analysis`` it renders.
    """

    seeds: Optional[Sequence[tuple[float, float]]] = None
    horizon: float = 8.0
    tolerance: float = 1e-9
    size: int = 640
    markers: bool = True

    def validate(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("integration horizon must be finite and positive")
        # scipy raises an rtol below 100 eps (2.2e-14) to that, with a
        # warning; solve_ivp's step loop has no such clamp and relies on
        # this bound to keep it unreachable
        if not 1e-13 <= self.tolerance <= 1e-3:
            raise ValueError("step tolerance must lie in [1e-13, 1e-3]")
        if self.size < 64:
            raise ValueError("image size must be at least 64 pixels")
        for seed in self.seeds or ():
            theta, r = seed
            if not math.isfinite(theta):
                raise ValueError(f"seed angle {theta!r} is not finite")
            if not 0 < r <= 1:
                raise ValueError(
                    f"seed radius {r!r} outside (0, 1]: r=1 is the finite "
                    "rim, r->0 the divisor")


def default_seeds(period: float) -> tuple[tuple[float, float], ...]:
    out = []
    for i in range(12):
        theta = period * i / 12.0
        for r in _RADIAL_RING:
            out.append((theta, r))
    return tuple(out)


# ---------------------------------------------------------------------------
# singularity markers: chart coordinates -> theta on the divisor


#: per directional chart: the angle of its u = 0, as a fraction of the
#: period, and the direction in which theta moves as u grows
_CHART_ORIGINS = {"Xpos": (0.0, 1.0), "Xneg": (0.5, -1.0),
                  "Ypos": (0.25, -1.0), "Yneg": (0.75, 1.0)}


def marker_theta(w: WeightVector, chart: str, u: float) -> float:
    """The divisor angle of the point with coordinate ``u`` in a chart.

    On the oval beta*Sn**(2*alpha) + alpha*Cs**(2*beta) = alpha the x-charts
    have u = Sn * |Cs|**(-beta/alpha), so s = (beta/alpha) * Sn**(2*alpha) =
    beta*u**(2*alpha) / (alpha + beta*u**(2*alpha)); the y-charts swap
    (Cs, alpha) with (Sn, beta), and there s = Cs**(2*beta).  The angle
    from the chart's u = 0 is then the quarter period times the regularized
    incomplete Beta integral I_s(1/(2a), 1/(2b)), with (a, b) = (alpha,
    beta) in the x-charts and (beta, alpha) in the y-charts; the oval's
    mirror symmetries put the four u = 0 at 0, T/4, T/2 and 3T/4.
    """
    origin, step = _CHART_ORIGINS[chart]
    a, b = w.as_tuple() if chart.startswith("X") else w.as_tuple()[::-1]
    qa, qb = 0.5 / a, 0.5 / b
    # s and 1 - s, in u**(-2a) past |u| = 1, where u**(2a) can overflow;
    # p underflows for large a, so s**qa and rest**qb take |u| out of p
    # on the side where p is a factor of them
    if abs(u) <= 1.0:
        p = abs(u) ** (2 * a)
        s, rest = b * p / (a + b * p), a / (a + b * p)
        sa = abs(u) * (b / (a + b * p)) ** qa
        rest_b = rest ** qb
    else:
        p = abs(u) ** (-2 * a)
        s, rest = b / (a * p + b), a * p / (a * p + b)
        sa = s ** qa
        rest_b = abs(u) ** (-a / b) * (a / (a * p + b)) ** qb
    # past s = 1/2 the complement reads 1 - s from ``rest``, which keeps
    # the digits that s rounds away
    arc = (_betainc(qa, qb, s, sa) if s <= 0.5
           else 1.0 - _betainc(qb, qa, rest, rest_b))
    t = period(w)
    return (origin * t + (step if u > 0 else -step) * t / 4 * arc) % t


def _betainc(a: float, b: float, x: float, xa: float) -> float:
    """The regularized incomplete Beta integral I_x(a, b) for a, b in
    (0, 1/2] and x in [0, 1/2], given ``xa`` = x**a.

    Expanding (1 - t)**(b - 1) under the integral gives the series
    I_x(a, b) = xa / B(a, b) * sum (1 - b)_n x**n / (n! (a + n)) (DLMF
    8.17.7 before the hypergeometric step).  Every term is positive since
    b < 1, and each is less than x <= 1/2 times the one before, so the sum
    stops where a term no longer changes it, after about 55 terms.
    """
    total, coeff, n = 1.0 / a, 1.0, 0
    while True:
        n += 1
        coeff *= (n - b) * x / n
        nxt = total + coeff / (a + n)
        if nxt == total:
            break
        total = nxt
    return xa * math.gamma(a + b) / (math.gamma(a) * math.gamma(b)) * total


class DiskMarker(NamedTuple):
    theta: float
    classification: str
    chart: str
    #: the chart coordinate u to 6 digits, or how it leaves the float range
    chart_position: str


def divisor_markers(a: Analysis) -> tuple[tuple[DiskMarker, ...], bool]:
    """All divisor singularities as (theta, class) markers, one per point.

    Returns the markers sorted by angle together with a flag telling whether
    some chart saw the whole divisor as a curve of singularities.  A point
    off the axes has |u_Y| = |u_X|**(-alpha/beta), so the x-charts draw the
    points with |u| <= 1 and the y-charts those with |u| < 1, each once; a
    nonzero u that underflows is drawn at u = 0.  Distinct points whose
    angles agree to 1e-6 of the period share the first one's marker.
    """
    t = period(a.weight)
    curve = False
    raw: list[DiskMarker] = []
    for chart, recs in a.directional_records.items():
        for rec in recs:
            if rec.is_curve:
                curve = True
                continue
            u = rec.position
            # the sign of |u| - 1, the larger of those of u - 1 and -u - 1
            edge = max(u.sign_of((-1, 1)), u.sign_of((-1, -1)))
            if edge > 0 or edge == 0 and chart.startswith("Y"):
                continue
            theta = marker_theta(a.weight, chart, approximate(u) or 0.0)
            raw.append(DiskMarker(theta, rec.classification, chart,
                                  approximate_text(u, 6)))
    raw.sort(key=lambda m: m.theta)
    out: list[DiskMarker] = []
    for m in raw:
        if out and abs(m.theta - out[-1].theta) < 1e-6 * t:
            continue
        out.append(m)
    # the two ends of [0, T) meet on the circle
    if len(out) > 1 and abs(out[0].theta + t - out[-1].theta) < 1e-6 * t:
        out.pop()
    return tuple(out), curve


# ---------------------------------------------------------------------------
# trajectories


#: accepted solver steps per trajectory branch: a branch that takes this
#: many ends there and its polyline is marked truncated.  The longest branch
#: of the default portraits takes 335 steps (cusp-w35, weight (3,5)).
MAX_STEPS = 2000

#: the plane's origin side (r = 49) and the divisor side (r = 1e-7): a
#: branch that reaches either level ends at it and is marked truncated
_STOP_LEVELS = (49.0, 1e-7)

#: the root tolerance, absolute and relative, that scipy's solve_ivp gives
#: brentq for its events: four machine epsilons
_ROOT_TOL = 4 * math.ulp(1.0)

_RHS_SOURCE = """\
def rhs_for(sign):
    def rhs(t, theta, r):
{lookup}
        try:
{powers}
        except OverflowError:
            # a float power overflowed at a trial stage; take the powers
            # again with numpy's inf there, and the solver rejects the step
{inf_powers}
        return (sign * ({theta}), sign * ({r}))
    return rhs
"""


def _power(x: float, e: int) -> float:
    """``x ** e`` for an integer e >= 1, with numpy's signed inf where the
    float power overflows."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def _terms(comp: dict) -> tuple[tuple[float, int, int, int], ...]:
    # a coefficient beyond the float range raises OverflowError, exit 4
    return tuple((float(c), i, j, k)
                 for (i, j, k), c in sorted(comp.items()))


def _compile_rhs(terms_theta, terms_r, table):
    """The polar field's right-hand side, ``rhs_for(sign)(t, theta, r)``.

    It generates one function for both components: ``table``'s lookup
    (``TrigTable.LOOKUP``) of (cs, sn) at theta, then the same floats, bit
    for bit, as the sum ``0.0 + c * cs**i * sn**j * r**k`` over ``terms``
    taken term by term from the left on numpy's float64.  A power 0 is
    left out (``c * 1.0 == c``), a power 1 is the variable itself, and each
    higher power is one ``**`` shared by every term that uses it.  The sign
    of c is the term's operator and a magnitude 1 is left out, which is
    exact: (-c) * x == -(c * x), 1.0 * x == x and a + (-b) == a - b.
    Where a power overflows, every power is taken again by ``_power``,
    which gives inf as numpy does.  The source holds only the ``repr`` of
    each float coefficient and the integer exponents.
    """
    powers: dict[str, tuple[str, int]] = {}

    def total(terms) -> str:
        text = "0.0"
        for c, *exps in terms:
            c = float(c)
            factors = []
            for var, e in zip(("cs", "sn", "r"), exps):
                e = int(e)
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    name = f"{var}{e}"
                    powers[name] = (var, e)
                    factors.append(name)
            if abs(c) != 1.0 or not factors:
                factors.insert(0, float.__repr__(abs(c)))
            text += (" - " if math.copysign(1.0, c) < 0 else " + ") \
                + " * ".join(factors)
        return text

    theta, r = total(terms_theta), total(terms_r)

    def lines(form: str) -> str:
        return "\n".join(" " * 12 + form.format(name=name, var=var, e=e)
                         for name, (var, e) in powers.items()) \
            or " " * 12 + "pass"

    source = _RHS_SOURCE.format(
        lookup="\n".join(" " * 8 + line
                         for line in table.LOOKUP.splitlines()),
        powers=lines("{name} = {var} ** {e}"),
        inf_powers=lines("{name} = power({var}, {e})"), theta=theta, r=r)
    space = {"power": _power, **table.lookup_names()}
    exec(compile(source, "<polar field>", "exec"), space)
    return space["rhs_for"]


#: DOP853's step-size control (Hairer, Norsett & Wanner, Solving ODEs I,
#: sec. II.4), as scipy sets it: a safety factor and the least and greatest
#: factors by which one step may change the step size
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A zero of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``brentq`` (its C routine and the wrapper's NaN
    test) to Python floats: the same iterates and the same root, bit for
    bit.  Like scipy it raises ValueError where f is NaN or f(a) and f(b)
    share a sign, and RuntimeError after ``maxiter`` steps.
    """
    def call(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or nan here, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve_ivp(rhs, seed, horizon: float, rtol: float, atol: float,
              levels: tuple[float, ...]):
    """One solution of y' = rhs by DOP853 from t = 0 towards ``horizon``.

    This is scipy's ``solve_ivp(..., method="DOP853", dense_output=True)``
    with a terminal event y[1] - level per entry of ``levels``, on plain
    floats in scipy's operation order: its initial step, step-size
    control, event test, event roots (``_brentq`` on the step's dense
    output) and rule of dropping a step's interpolant when t repeats.  Only
    the stage sums of :mod:`polyfield.dop853` round differently from
    scipy's BLAS sums.  Where numpy gives inf or nan, so does the loop.
    ``rhs(t, y0, y1)`` returns the two rates.

    The loop ends after ``MAX_STEPS`` accepted steps, or where a step would
    have to be shorter than ten float spacings of t (scipy's failure), on
    the last accepted step.  Returns the step ends, one piece per kept step
    (``t_old``, ``h``, then per component the interpolant rows in Horner
    order and the value at ``t_old``, as ``trig.TrigTable`` holds them) and
    whether the loop stopped short of the horizon.
    """
    from .dop853 import dense_step, trial_step

    t, t_bound = 0.0, float(horizon)
    th, r = float(seed[0]), float(seed[1])
    f = rhs(t, th, r)

    # select_initial_step, with scipy's RMS norm over the 2 components;
    # each squared norm a * a + b * b overflows as np.linalg.norm's does
    root2 = 2 ** 0.5
    s0, s1 = atol + abs(th) * rtol, atol + abs(r) * rtol
    a, b = th / s0, r / s1
    d0 = math.sqrt(a * a + b * b) / root2
    a, b = f[0] / s0, f[1] / s1
    d1 = math.sqrt(a * a + b * b) / root2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    f1 = rhs(t + h0, th + h0 * f[0], r + h0 * f[1])
    a, b = (f1[0] - f[0]) / s0, (f1[1] - f[1]) / s1
    d2 = math.sqrt(a * a + b * b) / root2
    # h0 is 0 where d1 is inf: numpy's division gives inf, or nan for 0/0
    d2 = d2 / h0 if h0 else math.inf if d2 > 0 else math.nan
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t_bound)

    ts = [0.0]
    pieces: list[tuple[float, ...]] = []
    for _ in range(MAX_STEPS):
        # one accepted step, as RungeKutta._step_impl takes it
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, pieces, True
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y0, y1, fa, fb, e5a, e5b, e3a, e3b, k = trial_step(
                rhs, t, th, r, h, *f)
            # the scale keeps np.maximum's nan, which max() would drop
            m0, m1 = abs(th), abs(y0)
            s0 = atol + (m0 if m0 >= m1 or m0 != m0 else m1) * rtol
            m0, m1 = abs(r), abs(y1)
            s1 = atol + (m0 if m0 >= m1 or m0 != m0 else m1) * rtol
            a, b = e5a / s0, e5b / s1
            n5 = a * a + b * b
            a, b = e3a / s0, e3b / s1
            n3 = a * a + b * b
            if not (math.isfinite(fa) and math.isfinite(fb)):
                # E5 and E3 weigh stage 12 by 0, which numpy's sums turn
                # into nan where that stage is not finite
                error = math.nan
            elif n5 == 0 and n3 == 0:
                error = 0.0
            else:
                # 0/0 where 0.01 * n3 underflows: numpy's nan
                denom = math.sqrt((n5 + 0.01 * n3) * 2)
                error = abs(h) * n5 / denom if denom else math.nan
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** -0.125)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.125)
            rejected = True

        # the step's dense output: three more stages, then the rows F
        piece = dense_step(rhs, t, th, r, h, k, y0, y1)
        pieces.append(piece)
        t_old, r_old = t, r
        t, th, r, f = t_new, y0, y1, (fa, fb)

        # solve_ivp's test for a zero of each event within the step; the
        # earliest root ends the branch there
        hit, stop = False, t
        for level in levels:
            before, after = r_old - level, r - level
            if before <= 0 <= after or before >= 0 >= after:
                root = _brentq(
                    lambda s: _horner((s - t_old) / h, *piece[10:]) - level,
                    t_old, t, _ROOT_TOL, _ROOT_TOL)
                if not hit or root < stop:
                    hit, stop = True, root
        if len(ts) > 1 and ts[-1] == stop:
            pieces.pop()
        else:
            ts.append(stop)
        if hit or t - t_bound >= 0:
            return ts, pieces, hit
    return ts, pieces, True


def _horner(x, c6, c5, c4, c3, c2, c1, c0, c):
    """A piece's component at x = (t - t_old) / h, in the operation order
    of ``Dop853DenseOutput``: from 0.0 + F[6] (``c6``) it multiplies by x
    and 1 - x in turn and ends on the value at t_old."""
    u = 1 - x
    return ((((((c6 * x + c5) * u + c4) * x + c3) * u + c2) * x + c1)
            * u + c0) * x + c


def _sample(ts, pieces, times):
    """The branch at ascending ``times``, as (theta, r) pairs: each time
    reads the piece that ``OdeSolution`` reads, the lower one at a knot
    (the first or the last piece outside the knots)."""
    out, k, n = [], 0, len(times)
    for end, (t_old, h, c6, c5, c4, c3, c2, c1, c0, c,
              s6, s5, s4, s3, s2, s1, s0, s) in zip(ts[1:-1] + [math.inf],
                                                    pieces):
        while k < n and times[k] <= end:
            x = (times[k] - t_old) / h
            u = 1 - x
            out.append((((((((c6 * x + c5) * u + c4) * x + c3) * u + c2) * x
                           + c1) * u + c0) * x + c,
                        ((((((s6 * x + s5) * u + s4) * x + s3) * u + s2) * x
                          + s1) * u + s0) * x + s))
            k += 1
    return out


def _trajectory(rhs_for, seed, horizon: float, tol: float,
                sign: float) -> tuple[list[tuple[float, float]], bool]:
    """Integrate one branch of an orbit; returns its 241 samples at
    ``end * i / 240`` and a truncation flag.  A trial stage may overflow
    to inf or nan; the solver rejects that step, and a sample may read
    such a piece, as scipy's would."""
    ts, pieces, cut = solve_ivp(rhs_for(sign), seed, horizon, tol, tol,
                                _STOP_LEVELS)
    end = ts[-1]
    if end <= 0.0:
        return [tuple(seed)], cut
    steps = 240
    return _sample(ts, pieces, [end * i / steps for i in range(steps + 1)]), cut


# ---------------------------------------------------------------------------
# SVG assembly


def _disk_xy(theta: float, r: float, period: float, centre: float,
             radius: float) -> tuple[float, float]:
    rho = 1.0 / (1.0 + max(r, 0.0))
    phi = 2.0 * math.pi * theta / period
    return (centre + radius * rho * math.cos(phi),
            centre - radius * rho * math.sin(phi))


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _points(pts, period: float, centre: float, radius: float) -> str:
    """A polyline's points attribute: ``_disk_xy`` and ``_fmt`` of every
    sample, in one pass over the samples, one ``%`` over their
    coordinates and one pass over the text."""
    tau = 2.0 * math.pi
    cos, sin = math.cos, math.sin
    xy = []
    push = xy.append
    for theta, r in pts:
        # radius * rho and 2*pi*theta/period, as _disk_xy orders them
        scale = radius * (1.0 / (1.0 + (0.0 if r < 0.0 else r)))
        phi = tau * theta / period
        push(centre + scale * cos(phi))
        push(centre - scale * sin(phi))
    text = " ".join(["%.3f,%.3f"] * len(pts)) % tuple(xy)
    return text.replace("-0.000", "0.000")


def render_portrait(a: Analysis, spec: PortraitSpec) -> str:
    """The phase portrait of the analysed field, over its weight, as an
    SVG 1.1 document."""
    spec.validate()
    if a.field.is_zero:
        raise FieldError("empty support: the zero field has no portrait")
    pf = polar_field(a.field, a.weight)
    table = build_trig(a.weight)
    period = table.period
    rhs_for = _compile_rhs(_terms(pf.theta), _terms(pf.r), table)

    seeds = tuple(spec.seeds) if spec.seeds is not None \
        else default_seeds(period)
    centre = spec.size / 2.0
    radius = spec.size / 2.0 - 12.0

    paths = []
    for seed in seeds:
        theta0 = seed[0] % period
        back, cut_b = _trajectory(rhs_for, (theta0, seed[1]), spec.horizon,
                                  spec.tolerance, -1.0)
        fore, cut_f = _trajectory(rhs_for, (theta0, seed[1]), spec.horizon,
                                  spec.tolerance, 1.0)
        coords = _points(list(reversed(back)) + fore[1:], period, centre,
                         radius)
        cls = "trajectory truncated" if (cut_b or cut_f) else "trajectory"
        paths.append(f'    <polyline class="{cls}" points="{coords}"/>')

    marker_elems = []
    curve = False
    if spec.markers:
        markers, curve = divisor_markers(a)
        for m in markers:
            x, y = _disk_xy(m.theta, 0.0, period, centre, radius)
            fill = _MARKER_FILL.get(m.classification, "#333333")
            marker_elems.append(
                f'    <circle class="singularity" cx="{_fmt(x)}" '
                f'cy="{_fmt(y)}" r="4" fill="{fill}">'
                f'<title>{m.classification} ({m.chart} chart, '
                f'u={m.chart_position})</title></circle>')

    divisor_stroke = "#b22222" if curve else "#222222"
    alpha, beta = a.weight.as_tuple()
    note = (f"Poincare-Lyapunov disk for weight ({alpha},{beta}): plot "
            f"radius rho = 1/(1+r), so the unit circle is the divisor at "
            f"infinity (r=0); plot angle is 2*pi*theta/T with "
            f"T={period:.12g}; marker colours: red Hyperbolic, orange "
            f"SemiHyperbolic, purple Degenerate"
            + ("; red rim: curve of singularities" if curve else ""))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.size}" height="{spec.size}" '
        f'viewBox="0 0 {spec.size} {spec.size}">',
        f'  <metadata>{note}</metadata>',
        f'  <rect width="{spec.size}" height="{spec.size}" fill="#ffffff"/>',
        f'  <circle class="divisor" cx="{_fmt(centre)}" cy="{_fmt(centre)}" '
        f'r="{_fmt(radius)}" fill="none" stroke="{divisor_stroke}" '
        f'stroke-width="1.5"/>',
        '  <g fill="none" stroke="#1f77b4" stroke-width="1.1" '
        'stroke-linejoin="round">',
        *paths,
        '  </g>',
        '  <g class="markers" stroke="none">',
        *marker_elems,
        '  </g>',
        '</svg>',
    ]
    return "\n".join(lines) + "\n"
