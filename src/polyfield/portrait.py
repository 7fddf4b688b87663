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
from dataclasses import dataclass
from typing import Optional, Sequence

from .analysis import Analysis, approximate, approximate_text
from .charts import polar_field
from .fields import FieldError, WeightVector
from .trig import TrigTable, build_trig, period

_MARKER_FILL = {
    "Hyperbolic": "#d62728",
    "SemiHyperbolic": "#ff7f0e",
    "Degenerate": "#9467bd",
}

_RADIAL_RING = (0.25, 0.45, 0.65, 0.85)


@dataclass(frozen=True)
class PortraitSpec:
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
        # scipy raises an rtol below 100 eps (2.2e-14), with a warning
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
    from scipy.special import betainc

    origin, step = _CHART_ORIGINS[chart]
    a, b = w.as_tuple() if chart.startswith("X") else w.as_tuple()[::-1]
    # s and 1 - s, in u**(-2a) past |u| = 1, where u**(2a) can overflow
    if abs(u) <= 1.0:
        p = abs(u) ** (2 * a)
        s, rest = b * p / (a + b * p), a / (a + b * p)
    else:
        p = abs(u) ** (-2 * a)
        s, rest = b / (a * p + b), a * p / (a * p + b)
    qa, qb = 0.5 / a, 0.5 / b
    # past s = 1/2 the complement reads 1 - s from ``rest``, which keeps
    # the digits that s rounds away
    arc = betainc(qa, qb, s) if s <= 0.5 else 1.0 - betainc(qb, qa, rest)
    t = period(w)
    return (origin * t + (step if u > 0 else -step) * t / 4 * float(arc)) % t


@dataclass(frozen=True)
class DiskMarker:
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


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first integration."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _compiled_terms(comp: dict) -> tuple[tuple[float, int, int, int], ...]:
    # a coefficient beyond the float range raises OverflowError, exit 4
    return tuple((float(c), i, j, k)
                 for (i, j, k), c in sorted(comp.items()))


def _trajectory(terms_theta, terms_r, table: TrigTable, seed, horizon: float,
                tol: float, sign: float) -> tuple[list[tuple[float, float]], bool]:
    """Integrate one branch of an orbit; returns samples and a truncation flag."""

    trig = table.eval

    def rates(cs, sn, r):
        td = 0.0
        for c, i, j, k in terms_theta:
            td += c * cs ** i * sn ** j * r ** k
        rd = 0.0
        for c, i, j, k in terms_r:
            rd += c * cs ** i * sn ** j * r ** k
        return (sign * td, sign * rd)

    def rhs(t, y):
        theta, r = y.tolist()
        cs, sn = trig(theta)
        try:
            return rates(cs, sn, r)
        except OverflowError:
            # a float power overflowed at a trial stage; numpy's power gives
            # inf there instead, and the solver rejects the step
            from numpy import float64

            return rates(cs, sn, float64(r))

    def hit_centre(t, y):
        return y[1] - 49.0

    hit_centre.terminal = True

    def hit_divisor(t, y):
        return y[1] - 1e-7

    hit_divisor.terminal = True

    sol = solve_ivp(rhs, (0.0, horizon), list(seed), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True,
                    events=[hit_centre, hit_divisor])
    end = float(sol.t[-1])
    if end <= 0.0:
        return [tuple(seed)], sol.status != 0
    steps = 240
    th, r = sol.sol([end * i / steps for i in range(steps + 1)]).tolist()
    return list(zip(th, r)), sol.status != 0


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


def render_portrait(a: Analysis, spec: PortraitSpec) -> str:
    """The phase portrait of the analysed field, over its weight, as an
    SVG 1.1 document."""
    spec.validate()
    if a.field.is_zero:
        raise FieldError("empty support: the zero field has no portrait")
    pf = polar_field(a.field, a.weight)
    table = build_trig(a.weight)
    period = table.period
    terms_theta = _compiled_terms(pf.theta)
    terms_r = _compiled_terms(pf.r)

    seeds = tuple(spec.seeds) if spec.seeds is not None \
        else default_seeds(period)
    centre = spec.size / 2.0
    radius = spec.size / 2.0 - 12.0

    paths = []
    for seed in seeds:
        theta0 = seed[0] % period
        back, cut_b = _trajectory(terms_theta, terms_r, table,
                                  (theta0, seed[1]), spec.horizon,
                                  spec.tolerance, -1.0)
        fore, cut_f = _trajectory(terms_theta, terms_r, table,
                                  (theta0, seed[1]), spec.horizon,
                                  spec.tolerance, 1.0)
        pts = list(reversed(back)) + fore[1:]
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}"
            for x, y in (_disk_xy(th, r, period, centre, radius)
                         for th, r in pts))
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
