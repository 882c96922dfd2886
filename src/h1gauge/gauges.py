"""Convex gauge functions and the deformed vertical profile.

A gauge is a convex, strictly increasing k on [0, inf) with k(0) = 0.  It
induces the profile G(t) = k(t) + t^2, whose inverse g drives the deformed
distance and the gauge dilatations.  g is evaluated through a closed form
when one is attached: the linear gauge and every piecewise-linear gauge
(oscillatory included) carry an exact formula.  Only raw callables without
one fall back to bracketed bisection on [0, sqrt(s)] (the bracket is valid
because G(t) >= t^2 forces g(s) <= sqrt(s)).

Raw user-supplied evaluables are accepted but stay unverified: the metric and
dilatation layers reject a gauge until its contract has been established,
either by construction (piecewise-linear data is slope-checked, the linear
gauge is analytic) or by passing check_gauge.
"""

from __future__ import annotations

import bisect as _bisect
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from .report import PropertyCheck, VerificationReport, violation_scale

INV_TOL = 1e-13  # mixed abs/rel contract tolerance for g/G round-trips
_MIDPOINT_TOL = 1e-12
_ORIGIN_TOL = 1e-12
_BISECT_CAP = 2000  # never reached; bisection exhausts binary64 long before


class GaugeConstructionError(ValueError):
    """Gauge data failed the convexity / monotonicity invariants."""


@dataclass(frozen=True, eq=False)
class Gauge:
    """A gauge k plus evaluation metadata.

    g_closed, when present, short-circuits the numeric inversion.  verified
    marks gauges whose contract is established; use verified_gauge (or the
    provided constructors) rather than setting the flag by hand.
    """

    k: Callable[[float], float]
    label: str = "custom"
    g_closed: Callable[[float], float] | None = None
    inv_tol: float = INV_TOL
    verified: bool = False


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

    Construction also builds one segment table over the knots (0, b_1, ...,
    b_n): the value of k and of the profile G(t) = k(t) + t^2 at each knot,
    the slope m of k on the segment starting there (the last segment is the
    extension past b_n) and m/2 + b for g.  k reads the table directly; G is
    quadratic on each segment, so g = G^-1 is exact (see g).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _knots: tuple[float, ...] = field(init=False, repr=False, compare=False, default=())
    _kvals: tuple[float, ...] = field(init=False, repr=False, compare=False, default=())
    _gvals: tuple[float, ...] = field(init=False, repr=False, compare=False, default=())
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False, default=())
    _halfb: tuple[float, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        bp, vv = self.breakpoints, self.values
        if len(bp) == 0 or len(bp) != len(vv):
            raise GaugeConstructionError(
                "need equally many breakpoints and values, at least one of each"
            )
        if any(not (math.isfinite(b) and b > 0.0) for b in bp) or any(
            not (math.isfinite(v) and v > 0.0) for v in vv
        ):
            raise GaugeConstructionError("breakpoints and values must be finite and positive")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise GaugeConstructionError("breakpoints must be strictly ascending")
        # Secant slopes, origin segment first.  Positive values and ascending
        # breakpoints make the first one positive, so nondecreasing implies
        # all positive (strict increase).
        knots, kvals = (0.0, *bp), (0.0, *vv)
        slopes = tuple(
            (kvals[i + 1] - kvals[i]) / (knots[i + 1] - knots[i]) for i in range(len(bp))
        )
        for i in range(1, len(slopes)):
            if slopes[i] < slopes[i - 1]:
                raise GaugeConstructionError(
                    f"secant slopes must be nondecreasing: segment {i - 1} has slope "
                    f"{slopes[i - 1]!r}, segment {i} has slope {slopes[i]!r}"
                )
        table_slopes = (*slopes, slopes[-1])
        setattr_ = object.__setattr__
        setattr_(self, "_knots", knots)
        setattr_(self, "_kvals", kvals)
        setattr_(self, "_gvals", tuple(v + b * b for b, v in zip(knots, kvals)))
        setattr_(self, "_slopes", table_slopes)
        setattr_(self, "_halfb", tuple(0.5 * m + b for b, m in zip(knots, table_slopes)))

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        i = _bisect.bisect_right(self._knots, t) - 1
        return self._kvals[i] + self._slopes[i] * (t - self._knots[i])

    def g(self, s: float) -> float:
        """Exact profile inverse g(s) for s >= 0.

        On the segment starting at knot b with profile value G(b) and slope m,
        G(b + x) = G(b) + B x + x^2 with B = m + 2b.  The segment is the last
        one whose G(b) <= s, and x >= 0 solves x^2 + B x = d, d = s - G(b).
        The root is taken in the cancellation-free form
        2d / (B + sqrt(B^2 + 4d)) = d / (h + hypot(h, sqrt(d))), h = B/2;
        hypot keeps large B or d from overflowing the square.
        """
        i = _bisect.bisect_right(self._gvals, s) - 1
        d = s - self._gvals[i]
        h = self._halfb[i]
        return self._knots[i] + d / (h + math.hypot(h, math.sqrt(d)))


def linear_gauge() -> Gauge:
    """k(t) = t.  The profile t + t^2 inverts in closed form; the expression
    2s/(1 + sqrt(1 + 4s)) is the cancellation-free equivalent of
    (sqrt(1 + 4s) - 1)/2."""
    return Gauge(
        k=lambda t: t,
        label="linear",
        g_closed=lambda s: 2.0 * s / (1.0 + math.sqrt(1.0 + 4.0 * s)),
        verified=True,
    )


def piecewise_gauge(breakpoints, values, label: str = "piecewise") -> Gauge:
    """Gauge from slope-verified piecewise-linear data (ascending order)."""
    pwl = PiecewiseLinearGauge(
        tuple(float(b) for b in breakpoints), tuple(float(v) for v in values)
    )
    return Gauge(k=pwl, label=label, g_closed=pwl.g, verified=True)


def oscillatory_gauge(M: float = 10.0, r: float = 1e-3, levels: int = 8) -> Gauge:
    """Piecewise-linear gauge whose ratio k(t)/t^2 alternates between M and 1/M.

    Breakpoints are r^n for n = 1..levels; at even n the value is M*r^(2n), at
    odd n it is r^(2n)/M.  r < 1/M^2 is what keeps the secant slopes
    nondecreasing (worst adjacent ratio is r*M^2); construction re-verifies
    them, so a violation cannot slip through.
    """
    if not isinstance(levels, int) or levels < 4:
        raise GaugeConstructionError(f"levels must be an integer >= 4, got {levels!r}")
    if not (math.isfinite(M) and M > 1.0):
        raise GaugeConstructionError(f"M must exceed 1, got {M!r}")
    if not (math.isfinite(r) and 0.0 < r < 1.0 / (M * M)):
        raise GaugeConstructionError(
            f"r must lie in (0, 1/M^2) = (0, {1.0 / (M * M)!r}), got {r!r}"
        )
    ns = range(1, levels + 1)
    bs = [r**n for n in ns]
    vs = [(M if n % 2 == 0 else 1.0 / M) * b * b for n, b in zip(ns, bs)]
    return piecewise_gauge(
        reversed(bs),
        reversed(vs),
        label=f"oscillatory(M={M!r},r={r!r},levels={levels})",
    )


def g_inverse_eval(gauge: Gauge, t: float) -> float:
    """Profile G(t) = k(t) + t^2, the inverse of g."""
    if t < 0.0:
        raise ValueError(f"profile argument must be >= 0, got {t!r}")
    return gauge.k(t) + t * t


def invert_g(gauge: Gauge, s: float) -> float:
    """Numeric g(s) by bisection on [0, sqrt(s)], run to float exhaustion.

    g_eval uses this only for gauges without a closed form, i.e. raw callables
    wrapped by Gauge or verified_gauge; it is also the reference the closed
    forms are cross-checked against.  Exhaustion (midpoint hits an endpoint)
    lands within an ulp of the root, well inside the inv_tol round-trip
    contract; of the two final endpoints the one with the smaller profile
    residual is returned.
    """
    if s < 0.0:
        raise ValueError(f"g argument must be >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
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


def g_eval(gauge: Gauge, s: float) -> float:
    """g(s), via the closed form when the gauge carries one."""
    if s < 0.0:
        raise ValueError(f"g argument must be >= 0, got {s!r}")
    if gauge.g_closed is not None:
        return gauge.g_closed(s)
    return invert_g(gauge, s)


def default_check_grid() -> tuple[float, ...]:
    """Geometric grid for check_gauge, 12 points per decade over [1e-9, 1e6]."""
    return tuple(10.0 ** (-9.0 + i / 12.0) for i in range(15 * 12 + 1))


def check_gauge(gauge: Gauge, grid=None) -> VerificationReport:
    """Verify the gauge contract on a grid.

    Checks: k(0) = 0; strict increase between consecutive grid points;
    midpoint convexity on sampled pairs; g/G round-trips within inv_tol
    (mixed absolute/relative).  Witnesses reproduce the worst violations.
    """
    pts = tuple(grid) if grid is not None else default_check_grid()
    if len(pts) < 4 or any(t <= 0 for t in pts) or list(pts) != sorted(pts):
        raise ValueError("check grid must be >= 4 positive ascending points")
    report = VerificationReport(f"gauge-check: {gauge.label}")

    k0 = gauge.k(0.0)
    report.add(
        PropertyCheck(
            name="origin",
            passed=abs(k0) <= _ORIGIN_TOL,
            worst_violation=abs(k0),
            tolerance=_ORIGIN_TOL,
            witness=0.0,
        )
    )

    ks = [gauge.k(t) for t in pts]
    worst_gap = math.inf
    witness_inc = None
    prev_t, prev_k = 0.0, k0
    for t, kt in zip(pts, ks):
        gap = kt - prev_k
        if gap < worst_gap:
            worst_gap = gap
            witness_inc = (prev_t, t)
        prev_t, prev_k = t, kt
    report.add(
        PropertyCheck(
            name="strict-increase",
            passed=worst_gap > 0.0,
            worst_violation=-worst_gap,  # positive means a flat or falling step
            tolerance=0.0,
            witness=list(witness_inc),
        )
    )

    sub = pts[::3]
    subk = ks[::3]
    worst_mid = -math.inf
    witness_mid = None
    for i in range(len(sub)):
        for j in range(i + 1, len(sub)):
            m = 0.5 * (sub[i] + sub[j])
            viol = (gauge.k(m) - 0.5 * (subk[i] + subk[j])) / violation_scale(
                subk[i], subk[j]
            )
            if viol > worst_mid:
                worst_mid = viol
                witness_mid = (sub[i], sub[j])
    report.add(
        PropertyCheck(
            name="midpoint-convexity",
            passed=worst_mid <= _MIDPOINT_TOL,
            worst_violation=worst_mid,
            tolerance=_MIDPOINT_TOL,
            witness=list(witness_mid),
        )
    )

    worst_rt = -math.inf
    witness_rt = None
    for t in pts:
        s = g_inverse_eval(gauge, t)
        err = abs(g_eval(gauge, s) - t) / violation_scale(t)
        if err > worst_rt:
            worst_rt, witness_rt = err, ("g(G(t))", t)
        back = abs(g_inverse_eval(gauge, g_eval(gauge, t)) - t) / violation_scale(t)
        if back > worst_rt:
            worst_rt, witness_rt = back, ("G(g(s))", t)
    report.add(
        PropertyCheck(
            name="round-trip",
            passed=worst_rt <= gauge.inv_tol,
            worst_violation=worst_rt,
            tolerance=gauge.inv_tol,
            witness=list(witness_rt),
        )
    )
    return report


def verified_gauge(
    k: Callable[[float], float],
    label: str = "custom",
    g_closed: Callable[[float], float] | None = None,
    inv_tol: float = INV_TOL,
    grid=None,
) -> Gauge:
    """Wrap a raw evaluable, run check_gauge, and return a verified Gauge.

    Raises GaugeConstructionError when any check fails.
    """
    candidate = Gauge(k=k, label=label, g_closed=g_closed, inv_tol=inv_tol)
    rep = check_gauge(candidate, grid)
    if not rep.passed:
        failed = ", ".join(c.name for c in rep.checks if not c.passed)
        raise GaugeConstructionError(f"gauge {label!r} failed checks: {failed}")
    return replace(candidate, verified=True)


# ---------------------------------------------------------------------------
# gauge spec files: {"type": "linear"} |
#   {"type": "piecewise", "breakpoints": [...], "values": [...]} |
#   {"type": "oscillatory", "M": ..., "r": ..., "levels": ...}


def gauge_from_spec(spec: dict) -> Gauge:
    """Build a gauge from the documented plain-JSON schema."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("gauge spec must be an object with a 'type' key")
    kind = spec["type"]
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
            data[key] = [_spec_float(key, x) for x in spec[key]]
        return piecewise_gauge(data["breakpoints"], data["values"])
    levels = spec.get("levels", 8)
    if isinstance(levels, bool) or not isinstance(levels, int):
        raise ValueError(f"'levels' must be an integer, got {levels!r}")
    return oscillatory_gauge(
        M=_spec_float("M", spec.get("M", 10.0)),
        r=_spec_float("r", spec.get("r", 1e-3)),
        levels=levels,
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


def gauge_to_spec(gauge: Gauge) -> dict:
    """Inverse of gauge_from_spec for the representable gauges."""
    if isinstance(gauge.k, PiecewiseLinearGauge):
        return {
            "type": "piecewise",
            "breakpoints": list(gauge.k.breakpoints),
            "values": list(gauge.k.values),
        }
    if gauge.label == "linear" and gauge.g_closed is not None:
        return {"type": "linear"}
    raise ValueError(f"gauge {gauge.label!r} has no spec representation")


def load_gauge(source: str) -> Gauge:
    """Accept inline JSON or a path to a JSON gauge spec file."""
    text = source
    if not source.lstrip().startswith("{"):
        text = Path(source).read_text()
    return gauge_from_spec(json.loads(text))
