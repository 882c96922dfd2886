"""Geometric eps-grids, tail classification of traces, and the limit probes.

Every probe walks a geometric grid eps_j = eps0 * ratio^j and records a trace;
classification looks only at the tail (the last two windows of length
`window`).  A trace is *diverging* when some tail value escapes the bound,
*converged* when the last window is flat within atol and the shift between
the two window means is explained by the previous window's own spread (this
admits traces still descending linearly toward their limit while rejecting
level shifts), and *oscillating* otherwise — oscillation observed in one
window alone never suffices, it must leave its mark on both.  liminf/limsup
estimates are the tail min/max; the reported limit is the last window's mean.

One response decides every limit question: R(delta) = g(delta^2)/delta.  As
g(eps^2 |ubar|)/eps = sqrt|ubar| * R(eps sqrt|ubar|) exactly, probe a is
sqrt|ubar| * R, a metric-diff direction v is max(|v_h|, sqrt|vbar| * R), and
the vertical part of derivability at ubar, or of beta on a horizontal pair
with ubar = 2 * area, is sgn(ubar) * G(sqrt|ubar| * R).  These traces take
their kind from R on the user's grid read as a delta-grid (_response) and
report R's limit or band mapped, so a verdict does not depend on the input's
scale; where a trace is constant (ubar = 0, area 0) or no map of R (beta
operands with a vertical part) the tail rule decides alone.  The horizontal
part of a point trace, constant by the group law, converges to its last
window's mean.

A verdict is computed by the type that reports it, from its own numbers: a
ConvergenceTrace classifies its values, or R, when it is built, a
MetricDiffReport derives its verdict, eta and witness from R, and a
PointClassification derives its kind and limit from its three components.

The probes: the scalar vertical response, the rescaled product of two points,
derivability of the identity map between the intrinsic and gauge dilatation
structures, and the metric-differentiability test of the identity map at a
base point.  Each evaluates its whole eps-grid at once on the (n, 3) array
kernels, one grid point per row; metric_diff_probe makes one g_array call, a
row per distinct |vbar| of its directions (0, 1/2, 1 and 2), whose |vbar| = 1
row is R, and its report maps R to every direction in one array pass
(_direction_verdict).  The counterexample's metric-diff stage applies that
map to the a trace's R at ubar = 1, the same R on the same grid.

Traces are written as CSV by one renderer: a trace as its own table, and a
metric-diff report's array as one table, a column per direction.
The renderer calls repr once per distinct value of a table (distinct by bit
pattern, so -0.0 is not 0.0) and writes the bytes that one repr per cell
would.  The epsilon column, like the scales, is computed once per (eps0,
ratio, count) in a process: a long-lived caller renders it once per distinct
grid, and a one-shot CLI run once, as before.  The classifier reads a trace as
one float array: one NaN test over all of it, and only the tail as Python
floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .dilatations import _rescaled_product, dilate_array, gauge_dilate_array
from .gauges import Gauge, g_array, g_inverse_array, require_verified
from .heisenberg import (
    H1Point,
    _read_only,
    _rows,
    _split,
    identity,
    point_diff_array,
    point_scale_array,
    points_array,
    symplectic_area,
    to_row,
)
from .report import TOL_GAUGE

DEFAULT_EPS0 = 1.0
DEFAULT_RATIO = 0.5
DEFAULT_COUNT = 24
DEFAULT_WINDOW = 6
DEFAULT_ATOL = 1e-4
DEFAULT_DIVERGENCE_BOUND = 1e6

# Squared scales fed to g must stay clear of the subnormal range.
UNDERFLOW_FLOOR = 1e3 * sys.float_info.min

_GRID_CACHE_SIZE = 64  # distinct (eps0, ratio, count) whose scales are kept


class ScaleOverflowError(ValueError):
    """eps0 is so large that eps0^2 times a probe's vertical magnitude overflows."""


@dataclass(frozen=True)
class EpsGrid:
    """Geometric scale grid eps_j = eps0 * ratio^j, j = 0..count-1, and the
    tail rule every trace on it is classified by: the last two windows of
    `window` values, flat within `atol`.

    eps0, ratio and atol are stored as Python floats.  The scales, their repr
    column and their read-only array are computed on first use and shared by
    every grid of the same (eps0, ratio, count) in the process (_grid_scales).
    """

    eps0: float = DEFAULT_EPS0
    ratio: float = DEFAULT_RATIO
    count: int = DEFAULT_COUNT
    window: int = DEFAULT_WINDOW
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        for f in fields(self):  # bool is an int, and so a number, to Python
            if isinstance(getattr(self, f.name), bool):
                raise ValueError(f"{f.name} must be a number, got {getattr(self, f.name)!r}")
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0!r}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if not isinstance(self.count, int) or self.count < 2:
            raise ValueError(f"count must be an integer >= 2, got {self.count!r}")
        smallest = self.eps0 * self.ratio ** (self.count - 1)
        if smallest * smallest < UNDERFLOW_FLOOR:
            raise ValueError(
                f"grid underflow: eps[{self.count - 1}] = {smallest!r} has square "
                f"below the floor {UNDERFLOW_FLOOR!r}"
            )
        if not isinstance(self.window, int) or self.window < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")
        if self.count < 2 * self.window:
            raise ValueError(
                f"count must be at least 2*window = {2 * self.window} "
                f"to classify a trace, got {self.count!r}"
            )
        if not (math.isfinite(self.atol) and self.atol > 0.0):
            raise ValueError(f"--atol must be positive and finite, got {self.atol!r}")
        for name in ("eps0", "ratio", "atol"):  # a numpy scalar's repr is not a float's
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def _shared(self) -> tuple[tuple[float, ...], tuple[str, ...], np.ndarray]:
        return _grid_scales(self.eps0, self.ratio, self.count)

    def values(self) -> tuple[float, ...]:
        return self._shared[0]

    @property
    def eps_column(self) -> tuple[str, ...]:
        """repr of each scale: the epsilon column of every trace CSV."""
        return self._shared[1]

    def array(self) -> np.ndarray:
        """The scales as one read-only float array."""
        return self._shared[2]


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid_scales(eps0: float, ratio: float, count: int) -> tuple[tuple, tuple, np.ndarray]:
    """eps0 * ratio**j for j < count, their reprs, and their read-only array."""
    scales = tuple(eps0 * ratio**j for j in range(count))
    return scales, tuple(map(repr, scales)), _read_only(np.array(scales))


DEFAULT_GRID = EpsGrid()


@dataclass(frozen=True)
class Classification:
    kind: str  # "converged" | "oscillating" | "diverging"
    limit: float | None = None
    liminf: float | None = None
    limsup: float | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "limit": self.limit,
            "liminf": self.liminf,
            "limsup": self.limsup,
        }


@dataclass(frozen=True)
class PointClassification:
    """Componentwise classification of a point-valued trace, built from the
    three component classifications alone."""

    components: tuple[Classification, Classification, Classification]

    @cached_property
    def kind(self) -> str:
        """diverging if any component diverges, converged only if all three
        are, oscillating otherwise."""
        kinds = [c.kind for c in self.components]
        if "diverging" in kinds:
            return "diverging"
        return "converged" if kinds.count("converged") == 3 else "oscillating"

    @cached_property
    def limit(self) -> H1Point | None:
        """The point of the component limits when converged, else None."""
        return H1Point(*(c.limit for c in self.components)) if self.kind == "converged" else None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "limit": None if self.limit is None else list(self.limit.as_tuple()),
            "components": [c.to_dict() for c in self.components],
        }


def _fmean(values: list[float]) -> float:
    """statistics.fmean of a nonempty list, fsum / len, without importing
    statistics (which pulls in fractions and decimal)."""
    return math.fsum(values) / len(values)


def classify_limit(
    values,
    window: int = DEFAULT_WINDOW,
    atol: float = DEFAULT_ATOL,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> Classification:
    """Classify the tail (last 2*window values) of a scalar trace.

    values is a 1-d array, read as floats, or any iterable of numbers, each
    converted by float().  The whole trace is tested for NaN once; only the
    tail is read as Python floats.

    Scale-equivariant: multiplying values, atol and divergence_bound by c > 0
    classifies identically with limit estimates scaled by c.
    """
    vals = np.asarray(values if isinstance(values, np.ndarray) else [float(v) for v in values],
                      dtype=float)
    if vals.ndim != 1:
        raise TypeError(f"a trace is 1-d, got an array of shape {vals.shape}")
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValueError(f"window must be an integer >= 1, got {window!r}")
    if len(vals) < 2 * window:
        raise ValueError(
            f"need at least {2 * window} trace values to classify, got {len(vals)}"
        )
    if not (atol > 0.0 and divergence_bound > 0.0):
        raise ValueError("atol and divergence_bound must be positive")
    if np.isnan(vals).any():
        raise ValueError("cannot classify a trace holding NaN")
    tail = vals[-2 * window :].tolist()
    if any(abs(v) > divergence_bound for v in tail):
        return Classification("diverging")
    prev, last = tail[:window], tail[window:]
    spread_last = max(last) - min(last)
    spread_prev = max(prev) - min(prev)
    if spread_last <= atol and abs(_fmean(last) - _fmean(prev)) <= max(atol, spread_prev):
        return Classification("converged", limit=_fmean(last))
    return Classification("oscillating", liminf=min(tail), limsup=max(tail))


def classify_point_trace(
    points,
    window: int = DEFAULT_WINDOW,
    atol: float = DEFAULT_ATOL,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> PointClassification:
    """Classify a trace of H1Points componentwise."""
    values = np.array([p.as_tuple() for p in points]).reshape(-1, 3)
    return PointClassification(tuple(classify_limit(c, window, atol, divergence_bound)
                                     for c in values.T))


def _columns(values: np.ndarray) -> np.ndarray:
    """The columns of a (count,) or (count, 3) trace, one row each."""
    return np.atleast_2d(values.T)


def _mapped(r: Classification, to_trace: Callable[[np.ndarray], np.ndarray]) -> Classification:
    """R's classification r carried by the monotone map to_trace (on float
    arrays) to a trace column: r's kind, and r's limit or band mapped, the
    band's ends in order (a decreasing map swaps them).  A band that the map
    collapses to one value converges there."""
    if r.kind == "converged":
        return Classification("converged", limit=to_trace(np.array([r.limit])).item())
    if r.kind == "oscillating":
        liminf, limsup = sorted(to_trace(np.array([r.liminf, r.limsup])).tolist())
        if liminf == limsup:
            return Classification("converged", limit=liminf)
        return Classification("oscillating", liminf=liminf, limsup=limsup)
    return r


def _csv(header: str, grid: EpsGrid, values: np.ndarray) -> str:
    """The one CSV renderer: the header, then one line per scale, the grid's
    shared epsilon column joined with that scale's row of values, a float
    array of shape (count,) or (count, k), every float rendered by repr.

    repr runs once per distinct value: the values are told apart by their
    64-bit patterns (so 0.0 and -0.0 stay apart), and each cell is looked up
    by its index among them.  The bytes are those of one repr per cell.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    cells = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    table = np.empty((len(values), values.size // len(values) + 1), dtype=object)
    table[:, 0] = grid.eps_column
    table[:, 1:] = cells[inverse.reshape(len(values), -1)]  # flat on numpy 1.x
    return "\n".join((header, *map(",".join, table.tolist()), ""))


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """A probe trace over an eps-grid together with its classification.

    Building one makes values read-only (in place) and classifies them, never
    passed in: the last column by the grid's tail rule or, in a trace that
    holds `response`, R on the grid, and `response_map`, the monotone map of
    R to its last column, by R's kind and R's limit or band mapped.  The
    horizontal part of a point trace, constant by the group law, converges to
    its last window's mean.
    """

    name: str
    grid: EpsGrid
    values: np.ndarray  # one row per scale: (count,), or (count, 3) for points
    classification: Classification | PointClassification = field(init=False)
    meta: dict = field(default_factory=dict)
    response: np.ndarray | None = None
    response_map: Callable[[np.ndarray], np.ndarray] | None = None
    response_classification: Classification | None = field(init=False)  # None: the tail rule

    def __post_init__(self):
        values, window, atol = _read_only(self.values), self.grid.window, self.grid.atol
        r = None if self.response is None else classify_limit(
            _read_only(self.response), window, atol)
        cls = (classify_limit(_columns(values)[-1], window, atol) if r is None
               else _mapped(r, self.response_map))
        if values.ndim == 2:
            cls = PointClassification((*(Classification("converged", limit=_fmean(c))
                                         for c in values[-window:, :2].T.tolist()), cls))
        object.__setattr__(self, "response_classification", r)
        object.__setattr__(self, "classification", cls)

    def header(self) -> str:
        return "epsilon,x1,x2,xbar" if self.values.ndim == 2 else "epsilon,value"

    def rows(self):
        """(eps, value) or (eps, x1, x2, xbar) per scale, as Python floats."""
        return zip(self.grid.values(), *_columns(self.values).tolist())

    def to_csv(self) -> str:
        return _csv(self.header(), self.grid, self.values)

    def summary(self) -> dict:
        r = self.response_classification
        return {
            "gauge": self.meta.get("gauge"),
            "probe": self.name,
            "classification": self.classification.to_dict(),
            "response": None if r is None else r.to_dict(),
            "parameters": {
                "eps0": self.grid.eps0,
                "ratio": self.grid.ratio,
                "count": self.grid.count,
                "window": self.grid.window,
                "atol": self.grid.atol,
                "divergence_bound": DEFAULT_DIVERGENCE_BOUND,
                **{k: v for k, v in self.meta.items() if k != "gauge"},
            },
        }


def _scale_check(grid: EpsGrid, magnitude: float) -> None:
    """Keep eps^2 * magnitude inside the normal float range on the whole grid.

    The largest scale must not overflow (eps0^2 alone must be finite too, so
    a zero magnitude is no exemption) and the smallest must not underflow.
    """
    top = grid.eps0 * grid.eps0 * magnitude
    if not math.isfinite(top):
        raise ScaleOverflowError(
            f"eps0 = {grid.eps0!r} drives eps0^2 * {magnitude!r} to {top!r}; "
            "lower eps0 or rescale"
        )
    if magnitude == 0.0:
        return
    eps_min = grid.eps0 * grid.ratio ** (grid.count - 1)
    if eps_min * eps_min * magnitude < UNDERFLOW_FLOOR:
        raise ValueError(
            f"eps = {eps_min!r} drives eps^2 * {magnitude!r} below the underflow "
            f"floor {UNDERFLOW_FLOOR!r}; shorten the grid or rescale"
        )


def _response(gauge: Gauge, eps: np.ndarray, s: np.ndarray = np.empty(0)):
    """g(s), and the paper's response R(delta) = g(delta^2)/delta on the
    scales eps read as delta (ubar = 1), from one g_array call.  Whether R
    converges as delta -> 0 decides every limit question here."""
    gs = g_array(gauge, _rows(s, eps * eps))
    return gs[: s.size], gs[s.size :] / eps


def _vertical_map(gauge: Gauge, c: float):
    """The map x -> sgn(c) * G(sqrt|c| * x) of R to the vertical part of a
    derivability trace at ubar = c, or of a beta trace of area c/2."""
    root, sign = math.sqrt(abs(c)), math.copysign(1.0, c)
    return lambda x: sign * g_inverse_array(gauge, root * x)


def vertical_limit_probe(
    gauge: Gauge,
    ubar: float,
    grid: EpsGrid = DEFAULT_GRID,
) -> ConvergenceTrace:
    """Trace eps -> g(eps^2 |ubar|)/eps = sqrt|ubar| * R(eps sqrt|ubar|), the
    scalar limit behind both the derivability of the identity map and the
    metric differential."""
    require_verified(gauge)
    if not math.isfinite(ubar):
        raise ValueError(f"ubar must be finite, got {ubar!r}")
    _scale_check(grid, abs(ubar))
    eps = grid.array()
    gs, response = _response(gauge, eps, eps * eps * abs(ubar))
    root = math.sqrt(abs(ubar))
    return ConvergenceTrace("vertical-limit", grid, gs / eps, {"gauge": gauge.label, "ubar": ubar},
                            *((response, lambda x: root * x) if ubar else ()))


def rescaled_product_probe(
    gauge: Gauge,
    p: H1Point,
    q: H1Point,
    grid: EpsGrid = DEFAULT_GRID,
) -> ConvergenceTrace:
    """Trace eps -> rescaled_product(eps, p, q), classified componentwise.
    On a horizontal pair of nonzero area the vertical part is the map of R
    at ubar = 2 * area."""
    require_verified(gauge)
    area = symplectic_area(p.horizontal, q.horizontal)
    _scale_check(grid, max(abs(p.xbar), abs(q.xbar), 2.0 * abs(area)))
    eps = grid.array()
    pq = np.repeat(_rows(to_row(p), to_row(q)), len(eps), axis=0)
    rows = _rescaled_product(gauge, eps, pq)
    twisted = area != 0.0 and p.xbar == q.xbar == 0.0
    return ConvergenceTrace("rescaled-product", grid, rows,
                            {"gauge": gauge.label, "p": list(p.as_tuple()),
                             "q": list(q.as_tuple())},
                            *((_response(gauge, eps)[1], _vertical_map(gauge, 2.0 * area))
                              if twisted else ()))


def _first_over(eps: np.ndarray, residual: np.ndarray, what: str) -> None:
    """Raise ArithmeticError naming the first eps whose residual exceeds
    TOL_GAUGE."""
    bad = np.flatnonzero(residual > TOL_GAUGE)
    if bad.size:
        j = int(bad[0])
        raise ArithmeticError(
            f"derivability trace at eps={float(eps[j])!r} {what} "
            f"by {float(residual[j])!r} (> {TOL_GAUGE!r})"
        )


def id_derivability_probe(
    gauge: Gauge,
    u: H1Point,
    grid: EpsGrid = DEFAULT_GRID,
) -> ConvergenceTrace:
    """Trace eps -> gauge_dilate(1/eps, dilate(eps, u)).

    Whether this converges is exactly derivability of the identity map from
    the intrinsic to the gauge dilatation structure.  Every trace point is
    cross-checked against the closed form (u_h, sgn(ubar) * G(g(eps^2
    |ubar|)/eps)) — agreement is an algebraic identity through one profile
    round-trip, enforced at TOL_GAUGE (the first eps of the grid that
    exceeds it is named); the max residual is recorded in
    meta["closed_form_residual"].  Both sides apply the same g, so a wrong g
    passes that check; each trace point's t = g(s), s = eps^2 |ubar|, is
    therefore also held to the profile round trip
    |G(t) - s| <= TOL_GAUGE * s + (G(t⁺) - G(t)), t⁺ the next float
    above t (skipped when ubar = 0), again naming the first offending eps.
    The one-ulp term is the conditioning of G at t: even an exact g returns t
    rounded to a float, which moves G by up to that step, and on a steep
    segment just past a knot the step can exceed TOL_GAUGE * s.  G is
    convex and increasing, so the step up from t also bounds the step down.
    """
    require_verified(gauge)
    _scale_check(grid, abs(u.xbar))
    eps = grid.array()
    rows = gauge_dilate_array(gauge, 1.0 / eps, dilate_array(eps, to_row(u)))
    s = eps * eps * abs(u.xbar)
    gs, response = _response(gauge, eps, s)
    closed, profile, profile_up = _split(
        g_inverse_array(gauge, _rows(gs / eps, gs, np.nextafter(gs, np.inf))), 3)
    ref = points_array(np.full_like(eps, u.x1), np.full_like(eps, u.x2),
                       np.sign(u.xbar) * closed)
    residual = point_diff_array(rows, ref) / point_scale_array(rows, ref)
    _first_over(eps, residual, "deviates from its closed form")
    if u.xbar != 0.0:
        _first_over(eps, (np.abs(profile - s) - (profile_up - profile)) / s,
                    "fails the profile round trip G(g(s)) = s, beyond one ulp of g(s),")
    return ConvergenceTrace("id-derivability", grid, rows,
                            {"gauge": gauge.label, "u": list(u.as_tuple()),
                             "closed_form_residual": float(residual.max())},
                            *((response, _vertical_map(gauge, u.xbar)) if u.xbar else ()))


# The directions of the differentiability test, built once: horizontal,
# vertical and mixed points.
_DIRECTIONS = tuple(H1Point(*row) for row in (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (-1.0, 0.0, 0.0),
    (0.5, -0.5, 0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0),
    (0.0, 0.0, 2.0),
    (0.0, 0.0, -0.5),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, -1.0),
    (0.25, 0.25, 2.0),
    (-0.5, 0.5, 1.0),
    (2.0, 0.0, 0.5),
))
_DIRECTION_ROWS = _read_only(np.array([v.as_tuple() for v in _DIRECTIONS]))
# The distinct |vbar| of the directions and 1 (R's), ascending, and the index
# among them of each direction's |vbar|, then of R's: g is needed only there.
_MAGNITUDES, _MAGNITUDE_OF = map(_read_only, np.unique(
    np.append(np.abs(_DIRECTION_ROWS[:, 2]), 1.0), return_inverse=True))


def default_direction_grid() -> tuple[H1Point, ...]:
    """Compact direction set for the differentiability test: horizontal,
    vertical, and mixed points (one tuple, built at import)."""
    return _DIRECTIONS


def _direction_verdict(r: Classification, directions: tuple[H1Point, ...]):
    """R's classification r carried to every direction v by the map x ->
    max(|v_h|, sqrt|vbar| x), in one array pass: (per_direction, the verdict
    that every direction converges, eta (the mapped limits, None unless the
    verdict holds), the witness (the first direction of widest mapped band,
    None if it holds)).  Each entry of per_direction is _mapped(r, v's map),
    bit for bit: r's kind, its limit or band mapped, and a band that the map
    collapses to one value converges there."""
    if r.kind == "diverging":
        per_dir, widths = (r,) * len(directions), [math.inf] * len(directions)
    else:
        d = np.array([v.as_tuple() for v in directions]).reshape(-1, 3)
        h, root = np.hypot(d[:, 0], d[:, 1]), np.sqrt(np.abs(d[:, 2]))
        ends = (r.limit,) * 2 if r.kind == "converged" else (r.liminf, r.limsup)
        lo, hi = (np.maximum(h, root * x) for x in ends)
        per_dir = tuple(Classification("converged", limit=a) if a == b else
                        Classification("oscillating", liminf=a, limsup=b)
                        for a, b in zip(lo.tolist(), hi.tolist()))
        widths = hi - lo
    ok = all(c.kind == "converged" for c in per_dir)
    return (per_dir, ok, tuple(c.limit for c in per_dir) if ok else None,
            None if ok else directions[int(np.argmax(widths))])


@dataclass(frozen=True, eq=False)
class MetricDiffReport:
    """Outcome of the metric-differentiability test of the identity map.

    values[NN] is the trace of directions[NN] on grid, written by to_csv as
    column vNN of one table, and response is R on grid.  Building one makes
    both read-only (in place) and derives the rest from R, never passed in:
    R's classification by the grid's tail rule and, through each direction's
    map x -> max(|v_h|, sqrt|vbar| x) (_direction_verdict), per_direction,
    the verdict (every direction converges), eta (the mapped limits) and the
    witness (the first direction of widest mapped band).

    eta is a seminorm by theorem.  G(t) >= t^2 gives g(s) <= sqrt(s), so
    0 <= R <= 1 and R's limit L lies in [0, 1]; eta(x) = max(|x_h|, L sqrt|xbar|)
    is exactly homogeneous, eta(dilate(lam, x)) = lam eta(x), and subadditive:
    with a = eta(v), b = eta(w), |vbar| <= a^2/L^2, |wbar| <= b^2/L^2 and the
    area term |2(v1 w2 - v2 w1)| <= 2ab, so the vertical part of v * w is at
    most (a^2 + b^2)/L^2 + 2ab in absolute value, and L sqrt|.| <=
    sqrt(a^2 + b^2 + 2ab L^2) <= a + b, as is |v_h + w_h|.
    """

    base: H1Point
    directions: tuple[H1Point, ...]
    grid: EpsGrid
    values: np.ndarray  # (len(directions), grid.count)
    response: np.ndarray  # (grid.count,)
    response_classification: Classification = field(init=False)
    per_direction: tuple[Classification, ...] = field(init=False)
    differentiable: bool = field(init=False)
    eta: tuple[float, ...] | None = field(init=False)
    witness: H1Point | None = field(init=False)

    def __post_init__(self):
        grid = self.grid
        if self.values.shape != (len(self.directions), grid.count):
            raise ValueError(f"values must be (directions, count), got shape {self.values.shape}")
        if self.response.shape != (grid.count,):
            raise ValueError(f"response must be (count,), got shape {self.response.shape}")
        _read_only(self.values)
        r = classify_limit(_read_only(self.response), grid.window, grid.atol)
        derived = zip(("response_classification", "per_direction", "differentiable", "eta",
                       "witness"), (r, *_direction_verdict(r, self.directions)))
        for name, value in derived:
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "base": list(self.base.as_tuple()),
            "differentiable": self.differentiable,
            "directions": [list(v.as_tuple()) for v in self.directions],
            "eta": None if self.eta is None else list(self.eta),
            "witness": None if self.witness is None else list(self.witness.as_tuple()),
            "response": self.response_classification.to_dict(),
            "per_direction": [c.to_dict() for c in self.per_direction],
        }

    def to_csv(self) -> str:
        header = ",".join(("epsilon", *(f"v{i:02d}" for i in range(len(self.directions)))))
        return _csv(header, self.grid, self.values.T)


def metric_diff_probe(
    gauge: Gauge,
    base: H1Point = identity(),
    grid: EpsGrid = DEFAULT_GRID,
) -> MetricDiffReport:
    """Differentiability test: for each direction v of default_direction_grid
    trace the rescaled gauge distance (1/eps) * gauge_dist(base, base *
    dilate(eps, v)); the verdict is R's, mapped (MetricDiffReport).

    By left invariance the trace is the exact increment max(hypot(eps v1,
    eps v2), g(|vbar| eps^2)) / eps.  g is evaluated in one g_array call on a
    row per distinct |vbar| (4 * count arguments); the |vbar| = 1 row over
    eps is R.  The product b * dilate(eps, v) would round to b once eps * |v|
    is small next to |b|, so base is only reported, never asserted against.
    """
    require_verified(gauge)
    _scale_check(grid, _MAGNITUDES[-1].item())
    eps = grid.array()
    gs = g_array(gauge, (_MAGNITUDES[:, None] * (eps * eps)).ravel()).reshape(-1, len(eps))
    d = _DIRECTION_ROWS
    values = np.maximum(np.hypot(eps * d[:, :1], eps * d[:, 1:2]), gs[_MAGNITUDE_OF[:-1]]) / eps
    return MetricDiffReport(base, _DIRECTIONS, grid, values, gs[_MAGNITUDE_OF[-1]] / eps)
