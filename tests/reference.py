"""Scalar reference formulas and the row-by-row trace CSV: the oracles of the
parity tests.

Every operation of the package is written once, as an array kernel, and its
scalar H1Point form is a one-row call into that kernel.  This module keeps an
independent second writing of each formula in plain Python on H1Points and
floats, for the tests to compare the kernels against.  It imports no *_array
kernel and does not read a gauge's segment table: the piecewise k and g are
looked up here from the gauge's breakpoints and values, with bisect and
math.hypot where the package uses np.searchsorted and np.hypot.
"""

import bisect
import math
from functools import lru_cache

from h1gauge.gauges import PiecewiseLinearGauge, g_eval, linear_gauge
from h1gauge.heisenberg import H1Point

_LINEAR_G = linear_gauge().g_closed


def point_diff(p: H1Point, q: H1Point) -> float:
    """Max componentwise absolute difference."""
    return max(abs(p.x1 - q.x1), abs(p.x2 - q.x2), abs(p.xbar - q.xbar))


def point_scale(*points: H1Point) -> float:
    """Normalization max(1, |components|) for scaled comparisons."""
    mags = [1.0]
    for p in points:
        mags.extend((abs(p.x1), abs(p.x2), abs(p.xbar)))
    return max(mags)


def point_close(p: H1Point, q: H1Point, tol: float) -> bool:
    return point_diff(p, q) <= tol * point_scale(p, q)


def violation_scale(*values: float) -> float:
    """Normalization max(1, |values|) for mixed absolute/relative comparisons."""
    return max((1.0, *(abs(v) for v in values)))


def _sgn(x: float) -> float:
    return float((x > 0.0) - (x < 0.0))


# --- the gauge profile ------------------------------------------------------------


@lru_cache(maxsize=None)
def _table(breakpoints, values):
    """(knots, k at the knots, G at the knots, slope of k from each knot on,
    m/2 + b from each knot on) of a piecewise-linear k."""
    knots, kvals = (0.0, *breakpoints), (0.0, *values)
    slopes = [(kvals[i + 1] - kvals[i]) / (knots[i + 1] - knots[i]) for i in range(len(values))]
    slopes.append(slopes[-1])
    gvals = [v + b * b for b, v in zip(knots, kvals)]
    halfb = [0.5 * m + b for b, m in zip(knots, slopes)]
    return knots, kvals, gvals, slopes, halfb


def _piecewise(gauge):
    pwl = gauge.k
    if isinstance(pwl, PiecewiseLinearGauge) and gauge.g_closed == pwl.g:
        return _table(pwl.breakpoints, pwl.values)
    return None


def k(gauge, t: float) -> float:
    table = _piecewise(gauge)
    if table is None:
        return gauge.k(t)
    if t <= 0.0:
        return 0.0
    knots, kvals, _, slopes, _ = table
    i = bisect.bisect_right(knots, t) - 1
    return kvals[i] + slopes[i] * (t - knots[i])


def G(gauge, t: float) -> float:
    """The profile k(t) + t^2."""
    return k(gauge, t) + t * t


def g(gauge, s: float) -> float:
    """The profile inverse: the segment lookup and cancellation-free root for
    piecewise gauges, the closed form 2s/(1 + sqrt(1 + 4s)) for the linear
    one, and g_eval (a raw closed form, or bisection) for any other gauge."""
    table = _piecewise(gauge)
    if table is not None:
        knots, _, gvals, _, halfb = table
        i = bisect.bisect_right(gvals, s) - 1
        d = s - gvals[i]
        h = halfb[i]
        return knots[i] + d / (h + math.hypot(h, math.sqrt(d)))
    if gauge.g_closed is _LINEAR_G:
        return 2.0 * s / (1.0 + math.sqrt(1.0 + 4.0 * s))
    return g_eval(gauge, s)


# --- group law, dilatations and flattening -----------------------------------------


def mul(p: H1Point, q: H1Point) -> H1Point:
    return H1Point(p.x1 + q.x1, p.x2 + q.x2, p.xbar + q.xbar + 2.0 * (p.x1 * q.x2 - p.x2 * q.x1))


def inv(p: H1Point) -> H1Point:
    return H1Point(-p.x1, -p.x2, -p.xbar)


def dilate(eps: float, p: H1Point) -> H1Point:
    return H1Point(eps * p.x1, eps * p.x2, eps * eps * p.xbar)


def euclidean_dilate(eps: float, p: H1Point) -> H1Point:
    return H1Point(eps * p.x1, eps * p.x2, eps * p.xbar)


def gauge_dilate(gauge, eps: float, p: H1Point) -> H1Point:
    vert = 0.0
    if p.xbar != 0.0:
        vert = _sgn(p.xbar) * G(gauge, eps * g(gauge, abs(p.xbar)))
    return H1Point(eps * p.x1, eps * p.x2, vert)


def rescaled_product(gauge, eps: float, p: H1Point, q: H1Point) -> H1Point:
    product = mul(gauge_dilate(gauge, eps, p), gauge_dilate(gauge, eps, q))
    return gauge_dilate(gauge, 1.0 / eps, product)


def flatten(gauge, p: H1Point) -> H1Point:
    vert = 0.0 if p.xbar == 0.0 else _sgn(p.xbar) * g(gauge, abs(p.xbar))
    return H1Point(p.x1, p.x2, vert)


def unflatten(gauge, p: H1Point) -> H1Point:
    vert = 0.0 if p.xbar == 0.0 else _sgn(p.xbar) * G(gauge, abs(p.xbar))
    return H1Point(p.x1, p.x2, vert)


def transported_mul(gauge, p: H1Point, q: H1Point) -> H1Point:
    return flatten(gauge, mul(unflatten(gauge, p), unflatten(gauge, q)))


# --- norms, distances and the scalar response --------------------------------------


def intrinsic_norm(p: H1Point) -> float:
    return max(math.hypot(p.x1, p.x2), math.sqrt(abs(p.xbar)))


def gauge_norm(gauge, p: H1Point) -> float:
    return max(math.hypot(p.x1, p.x2), g(gauge, abs(p.xbar)))


def flat_norm(p: H1Point) -> float:
    return max(math.hypot(p.x1, p.x2), abs(p.xbar))


def gauge_dist(gauge, p: H1Point, q: H1Point) -> float:
    return gauge_norm(gauge, mul(inv(p), q))


def vertical_response(gauge, eps: float, ubar: float) -> float:
    return g(gauge, eps * eps * abs(ubar)) / eps


# --- trace output -----------------------------------------------------------------


def trace_csv(trace) -> str:
    """A trace's CSV written row by row, one repr per cell, with the scales
    recomputed from the grid's fields: the oracle of ConvergenceTrace.to_csv."""
    grid = trace.grid
    point_valued = isinstance(trace.values[0], H1Point)
    lines = ["epsilon,x1,x2,xbar" if point_valued else "epsilon,value"]
    for j, v in enumerate(trace.values):
        row = (grid.eps0 * grid.ratio**j, *(v.as_tuple() if point_valued else (v,)))
        lines.append(",".join(repr(c) for c in row))
    return "\n".join(lines) + "\n"
