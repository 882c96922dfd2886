"""Convex gauge functions and the deformed vertical profile.

A gauge is a convex, strictly increasing k on [0, inf) with k(0) = 0.  It
induces the profile G(t) = k(t) + t^2, whose inverse g drives the deformed
distance and the gauge dilatations.  g is evaluated through a closed form
when one is attached: the linear gauge and every piecewise-linear gauge
(oscillatory included) carry an exact formula.  Only raw callables without
one fall back to bracketed bisection on [0, sqrt(s)] (the bracket is valid
because G(t) >= t^2 forces g(s) <= sqrt(s)), run on every element of an
array at once.

k_array, g_inverse_array and g_array evaluate k, G and g on float arrays;
_array_path is the one place that picks how (segment-table lookup, the
linear closed form, or a raw k with its g_closed or the lockstep bisection),
and it runs once per Gauge, when the Gauge is built.  Each public kernel is
its >= 0 guard and check_finite around an unchecked body (_k, _G, _g) that
composites call.  The guard and, on a self-similar table, the test whether
every row is at or above the table each read the least argument as the entry
at its argmin (the first NaN, if there is one), which costs less per call
than a ufunc reduction.
g_eval is one element of g_array.  g_inverse_eval is one element of the
profile on arrays.  invert_g stays scalar: it is the bisection reference that
the closed forms and the lockstep bisection are checked against.

A raw k, and a raw g_closed, is called on a 1-d float array and must return
one of the same length.  Raw evaluables are accepted but stay unverified:
the metric and dilatation layers reject a gauge until its contract has been
established, either by construction (piecewise-linear data is slope-checked,
the linear gauge is analytic) or by passing check_gauge.  check_gauge
records each worst violation as a Python float, whatever number type a raw k
returns, and each check's verdict follows from it (see report.PropertyCheck).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .heisenberg import _read_only, check_finite
from .report import TOL_ALGEBRA, PropertyCheck, VerificationReport, worst_check

INV_TOL = 1e-13  # mixed abs/rel contract tolerance for g/G round-trips
_BISECT_CAP = 2000  # never reached; bisection exhausts binary64 long before


class GaugeConstructionError(ValueError):
    """Gauge data failed the convexity / monotonicity invariants."""


@dataclass(frozen=True, eq=False)
class Gauge:
    """A gauge k plus evaluation metadata.

    g_closed, when present, short-circuits the numeric inversion.  verified
    marks gauges whose contract is established; use verified_gauge (or the
    provided constructors) rather than setting the flag by hand.  The array
    path (see _array_path) is picked once, here.
    """

    k: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    g_closed: Callable[[np.ndarray], np.ndarray] | None = None
    verified: bool = False
    spec: dict | None = None  # from the constructors: the spec that rebuilds it
    _path: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "_path", _array_path(self))


def require_verified(gauge: Gauge) -> None:
    if not gauge.verified:
        raise ValueError(
            f"gauge {gauge.label!r} is unverified; pass it through verified_gauge/check_gauge first"
        )


@dataclass(frozen=True)
class PiecewiseLinearGauge:
    """Piecewise-linear k through the origin, given by ascending breakpoints.

    The graph runs from (0, 0) to the first breakpoint, interpolates through
    (breakpoints[i], values[i]), and extends past the last breakpoint with the
    final slope.  Construction verifies that successive secant slopes (origin
    segment included) are positive and nondecreasing, which is equivalent to
    convexity plus strict increase; evaluation is continuous by construction.

    With a period q in (0, 1), k continues below the first breakpoint by the
    scaling law k(q t) = q^2 k(t), so g(q^2 s) = q g(s), instead of the origin
    segment.  The data must obey that law and span two periods.

    Construction also builds one segment table over the knots (0, b_1, ...,
    b_n), as arrays: the value of k and of the profile G(t) = k(t) + t^2 at
    each knot, the slope m of k on the segment starting there (the last
    segment is the extension past b_n), m/2 + b for g, and the knot that
    ends the segment (inf for the last).  k_array reads the table directly;
    G is quadratic on each segment, so g = G^-1 is exact (see g_array).
    With a period it also keeps k at b_1 and g at G(b_1), the table's
    bottom, where the scaling law takes over: v_1 and b_1, as floats.
    __call__ is a one-element call into k_array.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    period: float | None = None
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False, default=())
    _bottoms: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        bp, vv, q = self.breakpoints, self.values, self.period
        if len(bp) == 0 or len(bp) != len(vv):
            raise GaugeConstructionError(
                "need equally many breakpoints and values, at least one of each"
            )
        # Each check is one pass over a whole tuple in C (map over math and
        # operator functions; NaN fails isfinite before min reads it), and
        # each table column one array operation.
        if not (all(map(math.isfinite, bp)) and min(bp) > 0.0
                and all(map(math.isfinite, vv)) and min(vv) > 0.0):
            raise GaugeConstructionError("breakpoints and values must be finite and positive")
        if not all(map(operator.lt, bp, bp[1:])):
            raise GaugeConstructionError("breakpoints must be strictly ascending")
        if q is not None and not (0.0 < q < 1.0 and bp[0] <= bp[-1] * q * q):
            raise GaugeConstructionError(f"period {q!r} must lie in (0, 1) and span two periods")
        # Secant slopes, origin segment first: positive (strict increase) and
        # finite, which the quotient of two finite floats need not be (it can
        # underflow to 0 or overflow to inf), and nondecreasing (convexity).
        knots, kvals = (0.0, *bp), (0.0, *vv)
        slopes = tuple(map(operator.truediv, map(operator.sub, vv, kvals),
                           map(operator.sub, bp, knots)))
        if not (0.0 < min(slopes) and max(slopes) < math.inf
                and all(map(operator.le, slopes, slopes[1:]))):
            _raise_first_bad_slope(slopes)
        knots, kvals, slopes = np.array(knots), np.array(kvals), np.array((*slopes, slopes[-1]))
        with np.errstate(over="ignore"):  # G, or m/2 + b, may overflow to inf as in Python
            gvals, halfb = kvals + knots * knots, 0.5 * slopes + knots
        object.__setattr__(self, "_arrays", (knots, kvals, gvals, slopes, halfb,
                                             np.concatenate((knots[1:], (math.inf,)))))
        if q is not None:  # only the scaling law reads the table's bottom
            # (first, table(first)) for k and g, exactly: the table's row at
            # b_1 gives k(b_1) = v_1 + m * 0.0 and g(G(b_1)) = b_1 + 0 / (2h)
            object.__setattr__(self, "_bottoms", ((bp[0], vv[0]), (gvals[1].item(), bp[0])))

    def __call__(self, t: float) -> float:
        """k(t): one element of k_array, and 0 for t <= 0."""
        return 0.0 if t <= 0.0 else check_finite(self.k_array(np.array([t])))[0].item()

    def k_array(self, t: np.ndarray) -> np.ndarray:
        """k on an array of t >= 0, by np.searchsorted in the segment table."""
        return self._scaled(self._k_table, t, 0, 1, 2)

    def g_array(self, s: np.ndarray) -> np.ndarray:
        """Exact profile inverse g on an array of s >= 0.

        On the segment starting at knot b with profile value G(b) and slope m,
        G(b + x) = G(b) + B x + x^2 with B = m + 2b.  The segment is the last
        one whose G(b) <= s, and x >= 0 solves x^2 + B x = d, d = s - G(b).
        The root is taken in the cancellation-free form
        2d / (B + sqrt(B^2 + 4d)) = d / (h + hypot(h, sqrt(d))), h = B/2;
        hypot keeps large B or d from overflowing the square.  The root is
        capped at the segment's upper knot: just below a profile knot G(b')
        it can round one float above b', and g would fall across the knot.
        """
        return self._scaled(self._g_table, s, 1, 2, 1)

    def _k_table(self, t: np.ndarray) -> np.ndarray:
        knots, kvals, _, slopes, _, _ = self._arrays
        i = knots.searchsorted(t, side="right") - 1
        return kvals[i] + slopes[i] * (t - knots[i])

    def _g_table(self, s: np.ndarray) -> np.ndarray:
        knots, _, gvals, _, halfb, upper = self._arrays
        i = gvals.searchsorted(s, side="right") - 1
        d = s - gvals[i]
        h = halfb[i]
        return np.minimum(knots[i] + d / (h + np.hypot(h, np.sqrt(d))), upper[i])

    def _scaled(self, table, x: np.ndarray, which: int, arg: int, value: int) -> np.ndarray:
        """table(x), continued by the scaling law: with a period q, a row
        0 < x < first (b_1 for k, which = 0; G(b_1) for g, which = 1) is
        divided by q^(arg n) for the least n lifting it to first (a
        logarithm, corrected once exactly), and its value is scaled by
        q^(value n), capped at the period above's bottom so it cannot fall."""
        q = self.period
        if q is None or _min(x) >= self._bottoms[which][0]:
            return table(x)  # every row is at or above the table
        first, bottom = self._bottoms[which]
        low = (x > 0) & (x < first)
        if not np.count_nonzero(low):
            return table(x)  # or exactly 0
        xl = x[low]
        n = np.ceil((np.log(xl) - math.log(first)) / (arg * math.log(q)))
        n += xl / q ** (arg * n) < first
        x = x.copy()
        x[low] = xl / q ** (arg * n)
        out = table(x)
        out[low] = np.minimum(out[low] * q ** (value * n), bottom * q ** (value * (n - 1)))
        return out


def _raise_first_bad_slope(slopes: tuple[float, ...]) -> None:
    """Name the first secant slope that is not positive and finite, or that
    falls below the one before it."""
    for i, m in enumerate(slopes):
        if not 0.0 < m < math.inf:
            raise GaugeConstructionError(
                f"secant slopes must be positive and finite: segment {i} has slope {m!r}"
            )
        if i and m < slopes[i - 1]:
            raise GaugeConstructionError(
                f"secant slopes must be nondecreasing: segment {i - 1} has slope "
                f"{slopes[i - 1]!r}, segment {i} has slope {m!r}"
            )


def _linear_k(t):
    return t


def _linear_g_array(s: np.ndarray) -> np.ndarray:
    return s / (0.5 + np.sqrt(0.25 + s))


def linear_gauge() -> Gauge:
    """k(t) = t.  The profile t + t^2 inverts in closed form; the expression
    s/(0.5 + sqrt(0.25 + s)) is the cancellation-free equivalent of
    sqrt(0.25 + s) - 0.5; it rounds as 2s/(1 + sqrt(1 + 4s)) does, but
    cannot overflow."""
    return Gauge(k=_linear_k, label="linear", g_closed=_linear_g_array, verified=True,
                 spec={"type": "linear"})


def piecewise_gauge(breakpoints, values, label: str = "piecewise") -> Gauge:
    """Gauge from slope-verified piecewise-linear data (ascending order)."""
    pwl = PiecewiseLinearGauge(tuple(map(float, breakpoints)), tuple(map(float, values)))
    spec = {"type": "piecewise", "breakpoints": list(pwl.breakpoints), "values": list(pwl.values)}
    return Gauge(k=pwl, label=label, g_closed=pwl.g_array, verified=True, spec=spec)


def oscillatory_gauge(M: float = 10.0, r: float = 1e-3) -> Gauge:
    """The infinite self-similar ladder: a piecewise-linear gauge whose ratio
    k(t)/t^2 alternates between M and 1/M, a function of (M, r) alone.

    At breakpoint r^n the value is M*r^(2n) for even n and r^(2n)/M for odd
    n.  Levels 1..8 are tabulated, and below r^8 k continues with period r^2.
    The secant slopes are nondecreasing exactly when r*M^2*(1 + r) - r^3 <= 1
    (the slope down from an odd level must not exceed the slope up from it);
    that is checked first, and the table's slope check stays as a backstop.
    """
    if not (math.isfinite(M) and M > 1.0):
        raise GaugeConstructionError(f"M must exceed 1, got {M!r}")
    if not (math.isfinite(r) and 0.0 < r < 1.0 and r * M * M * (1.0 + r) - r**3 <= 1.0):
        raise GaugeConstructionError(
            f"M={M!r}, r={r!r}: the ladder is convex only for 0 < r < 1 with "
            f"r*M^2*(1 + r) - r^3 <= 1"
        )
    ns = range(8, 0, -1)
    bs = [r**n for n in ns]
    vs = [(M if n % 2 == 0 else 1.0 / M) * b * b for n, b in zip(ns, bs)]
    pwl = PiecewiseLinearGauge(tuple(bs), tuple(vs), period=r * r)
    return Gauge(k=pwl, label=f"oscillatory(M={M!r},r={r!r})", g_closed=pwl.g_array,
                 verified=True, spec={"type": "oscillatory", "M": M, "r": r})


def g_inverse_eval(gauge: Gauge, t: float) -> float:
    """Profile G(t) = k(t) + t^2, the inverse of g, at one t.  k is the
    gauge's unchecked k on arrays, called on the one-element array [t], as it
    is called everywhere else; it rounds as k on the float t would."""
    if t < 0.0:
        raise ValueError(f"profile argument must be >= 0, got {t!r}")
    return _k(gauge, np.array([float(t)])).item() + t * t


def invert_g(gauge: Gauge, s: float) -> float:
    """Numeric g(s) by bisection on [0, sqrt(s)], run to float exhaustion.

    The scalar reference that the closed forms and the lockstep bisection
    behind g_array (_bisect_g) are checked against.  Exhaustion (midpoint
    hits an endpoint) lands within an ulp of the root, well inside the
    INV_TOL round-trip contract; of the two final endpoints the one with the
    smaller profile residual is returned.
    """
    if s < 0.0:
        raise ValueError(f"g argument must be >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    if math.isnan(s):  # no bisection step narrows a NaN
        return s
    lo, hi = 0.0, math.sqrt(s)
    if g_inverse_eval(gauge, hi) <= s:
        return hi
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g_inverse_eval(gauge, mid) < s:
            lo = mid
        else:
            hi = mid
    if s - g_inverse_eval(gauge, lo) <= g_inverse_eval(gauge, hi) - s:
        return lo
    return hi


def _bisect_g(G: Callable[[np.ndarray], np.ndarray], s: np.ndarray) -> np.ndarray:
    """invert_g run on every element of s at once, G the profile on arrays:
    the same bracket, steps, exits and final pick, so the same bits.  s = 0
    and NaN are finished at once, and so is G(sqrt s) <= s; an element leaves
    when its midpoint meets an endpoint.  G sees only elements with s > 0,
    and is not called when there are none."""
    out = np.sqrt(s + 0.0)  # + 0.0 turns -0.0 into the 0.0 invert_g returns
    i = np.flatnonzero(s > 0.0)
    if i.size:
        i = i[~(G(out[i]) <= s[i])]
    lo, hi, left = np.zeros(i.size), out[i], []
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        leave = (mid <= lo) | (mid >= hi)
        if leave.any():
            left.append((i[leave], lo[leave], hi[leave]))
            on = ~leave
            i, lo, hi, mid = i[on], lo[on], hi[on], mid[on]
        if not i.size:
            break
        below = G(mid) < s[i]
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    i, lo, hi = (np.concatenate(c) for c in zip((i, lo, hi), *left))
    if i.size:
        t, ends = s[i], G(np.concatenate((lo, hi)))
        out[i] = np.where(t - ends[:i.size] <= ends[i.size:] - t, lo, hi)
    return out


def g_eval(gauge: Gauge, s: float) -> float:
    """g(s): one element of g_array."""
    return g_array(gauge, np.array([s], dtype=float))[0].item()


def _array_path(gauge: Gauge):
    """(k, g, G) for the gauge's kind, each called as f(x) on a 1-d float
    array x >= 0, G the profile k(t) + t^2.  Gauge.__post_init__ calls this
    once and keeps the triple; the kernels read it from there.

    - The linear gauge uses its closed forms; its k is a copy of t, so
      k_array never returns its input, and its profile t + t^2 adds to t
      without that copy.
    - A piecewise-linear k (every piecewise and oscillatory gauge) looks up
      its segment table with np.searchsorted.
    - Any other k is the raw callable itself.  g is the gauge's g_closed,
      and without one the lockstep bisection _bisect_g on G.
    """
    k, g = gauge.k, gauge.g_closed
    if k is _linear_k and g is _linear_g_array:
        return np.ndarray.copy, g, lambda t: t + t * t
    if isinstance(k, PiecewiseLinearGauge):
        k = k.k_array

    def G(t):
        return k(t) + t * t

    return k, partial(_bisect_g, G) if g is None else g, G


def _min(x: np.ndarray) -> float:
    """The minimum of a 1-d x (inf when x is empty), read at argmin, which
    finds the first NaN, so a NaN makes the minimum NaN."""
    return x[x.argmin()] if x.size else math.inf


def _nonneg(x: np.ndarray, what: str) -> np.ndarray:
    """x, once x >= 0 is checked on _min(x).  Only when the minimum is NaN
    does a second pass look for the most negative argument beside it, which
    the error names."""
    least = _min(x)
    worst = np.fmin.reduce(x) if math.isnan(least) else least
    if worst < 0.0:
        raise ValueError(f"{what} argument must be >= 0, got {float(worst)!r}")
    return x


# The unchecked bodies of k_array, g_inverse_array and g_array, for entries
# >= 0 (or NaN).
def _k(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    return gauge._path[0](t)


def _G(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    return gauge._path[2](t)


def _g(gauge: Gauge, s: np.ndarray) -> np.ndarray:
    return gauge._path[1](s)


def k_array(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    """k on a 1-d array of t >= 0."""
    return check_finite(_k(gauge, _nonneg(t, "k")))


def g_inverse_array(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    """The profile G(t) = k(t) + t^2 on a 1-d array of t >= 0."""
    return check_finite(_G(gauge, _nonneg(t, "profile")))


def g_array(gauge: Gauge, s: np.ndarray) -> np.ndarray:
    """g on a 1-d array of s >= 0."""
    return check_finite(_g(gauge, _nonneg(s, "g")))


def default_check_grid() -> tuple[float, ...]:
    """Geometric grid for check_gauge, 12 points per decade over [1e-9, 1e6]."""
    return tuple(10.0 ** (-9.0 + i / 12.0) for i in range(15 * 12 + 1))


def _check_arrays(grid) -> tuple[np.ndarray, ...]:
    """check_gauge's inputs on a grid, once it is validated: 0 followed by
    the grid, the pairs i < j of the grid's every third point (row by row),
    their midpoints, and max(1, t) on the grid."""
    pts = np.array(grid, dtype=float)
    if pts.ndim != 1 or len(pts) < 4 or not (pts > 0.0).all() or (np.diff(pts) < 0.0).any():
        raise ValueError("check grid must be >= 4 positive ascending points")
    sub = pts[::3]
    a, b = np.triu_indices(len(sub), k=1)
    return np.concatenate(([0.0], pts)), a, b, 0.5 * (sub[a] + sub[b]), np.maximum(1.0, pts)


# check_gauge's default inputs, built and validated once
_CHECK_ARRAYS = tuple(map(_read_only, _check_arrays(default_check_grid())))


def check_gauge(gauge: Gauge, grid=None) -> VerificationReport:
    """Verify the gauge contract on a grid.

    Checks: k(0) = 0; strict increase between consecutive grid points;
    midpoint convexity on sampled pairs; g/G round-trips within INV_TOL
    (mixed absolute/relative).  Witnesses reproduce the worst violations.
    """
    ts, a, b, mids, scale = _CHECK_ARRAYS if grid is None else _check_arrays(grid)
    pts = ts[1:]
    report = VerificationReport(f"gauge-check: {gauge.label}")

    kt = _k(gauge, ts)  # k at 0 and on the grid, in one call
    ks = check_finite(kt[1:])
    report.add(PropertyCheck("origin", float(abs(kt[0])), TOL_ALGEBRA, witness=0.0))

    # -gap <= -ulp(0) = -5e-324 exactly when gap > 0: a flat step fails
    report.add(worst_check("strict-increase", -np.diff(kt), -math.ulp(0.0),
                           lambda i: [float(ts[i]), float(ts[i + 1])]))

    sub, subk = pts[::3], ks[::3]
    ka, kb = subk[a], subk[b]
    mid = (k_array(gauge, mids) - 0.5 * (ka + kb)) / np.maximum(
        1.0, np.maximum(np.abs(ka), np.abs(kb))
    )
    report.add(worst_check("midpoint-convexity", mid, TOL_ALGEBRA,
                           lambda i: [float(sub[a[i]]), float(sub[b[i]])]))

    rt = np.empty(2 * len(pts))  # per t: g(G(t)) first, then G(g(s))
    rt[0::2] = np.abs(g_array(gauge, g_inverse_array(gauge, pts)) - pts) / scale
    rt[1::2] = np.abs(g_inverse_array(gauge, g_array(gauge, pts)) - pts) / scale
    report.add(worst_check("round-trip", rt, INV_TOL,
                           lambda i: [("g(G(t))", "G(g(s))")[i % 2], float(pts[i // 2])]))
    return report


def verified_gauge(
    k: Callable[[np.ndarray], np.ndarray],
    label: str = "custom",
    g_closed: Callable[[np.ndarray], np.ndarray] | None = None,
    grid=None,
) -> Gauge:
    """Wrap a raw evaluable, run check_gauge, and return a verified Gauge.

    Raises GaugeConstructionError when any check fails.
    """
    candidate = Gauge(k=k, label=label, g_closed=g_closed)
    rep = check_gauge(candidate, grid)
    if not rep.passed:
        failed = ", ".join(c.name for c in rep.checks if not c.passed)
        raise GaugeConstructionError(f"gauge {label!r} failed checks: {failed}")
    return replace(candidate, verified=True)


# ---------------------------------------------------------------------------
# gauge spec files: {"type": "linear"} |
#   {"type": "piecewise", "breakpoints": [...], "values": [...]} |
#   {"type": "oscillatory", "M": ..., "r": ...}, where an old "levels" has no effect


def gauge_from_spec(spec: dict) -> Gauge:
    """Build a gauge from the documented plain-JSON schema."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("gauge spec must be an object with a 'type' key")
    kind = spec["type"]
    if not isinstance(kind, str):
        raise ValueError(f"'type' must be a string, got {kind!r}")
    known = {
        "linear": {"type"},
        "piecewise": {"type", "breakpoints", "values"},
        "oscillatory": {"type", "M", "r", "levels"},
    }
    if kind not in known:
        raise ValueError(f"unknown gauge type {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise ValueError(f"unknown keys in gauge spec: {sorted(extra)}")
    if kind == "linear":
        return linear_gauge()
    if kind == "piecewise":
        data = {}
        for key in ("breakpoints", "values"):
            if key not in spec:
                raise ValueError(f"piecewise gauge spec needs {key!r}")
            if not isinstance(spec[key], list):
                raise ValueError(f"{key!r} must be an array of numbers, got {spec[key]!r}")
            data[key] = _spec_floats(key, spec[key])
        return piecewise_gauge(data["breakpoints"], data["values"])
    levels = spec.get("levels", 8)
    if isinstance(levels, bool) or not isinstance(levels, int) or levels < 4:
        raise ValueError(f"'levels' must be an integer >= 4, got {levels!r}")
    return oscillatory_gauge(
        M=_spec_float("M", spec.get("M", 10.0)), r=_spec_float("r", spec.get("r", 1e-3))
    )


def _spec_float(key: str, x) -> float:
    """A JSON number from a spec as a float.  Booleans, strings and integers
    beyond binary64 range are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{key!r} must hold numbers, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{key!r} holds an integer beyond binary64 range") from None


def _spec_floats(key: str, xs: list) -> list[float]:
    """_spec_float of every element of a spec array.  An array of plain ints
    and floats within binary64 range converts in one pass; any other falls
    back to the element loop, which names the first offender."""
    if set(map(type, xs)) <= {int, float}:  # a bool's type is bool
        try:
            return list(map(float, xs))
        except OverflowError:
            pass
    return [_spec_float(key, x) for x in xs]


def gauge_to_spec(gauge: Gauge) -> dict:
    """Inverse of gauge_from_spec for the gauges its constructors build."""
    if gauge.spec is None:
        raise ValueError(f"gauge {gauge.label!r} has no spec representation")
    return json.loads(json.dumps(gauge.spec))  # a copy the caller may change


def load_gauge(source: str) -> Gauge:
    """Accept inline JSON or a path to a JSON gauge spec file.  JSON nested
    too deeply for the decoder is a ValueError, as any other bad spec is."""
    text = source
    if not source.lstrip().startswith("{"):
        text = Path(source).read_text()
    try:
        spec = json.loads(text)
    except RecursionError:
        raise ValueError("gauge spec is nested too deeply") from None
    return gauge_from_spec(spec)
