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
A verdict is computed by the type that reports it, from its own numbers: a
ConvergenceTrace classifies its values on its grid when it is built, and a
PointClassification derives its kind and limit from its three components.

The probes themselves: the scalar vertical response g(eps^2 |ubar|)/eps
(_vertical_response_array), the rescaled product of two points, derivability
of the identity map between the intrinsic and gauge dilatation structures,
and the metric-differentiability test of the identity map at a base point.
Each probe evaluates its whole eps-grid at once on the (n, 3) array kernels,
one grid point per row (the rescaled product is dilatations._rescaled_product
on the grid); metric_diff_probe stacks all its directions into one array and
evaluates it SAMPLE_CHUNK rows at a time.

Traces are written as CSV by one renderer: a trace as its own table, and a
metric-diff report's direction traces as one table, a column per direction.
The renderer calls repr once per distinct value of a table (distinct by bit
pattern, so -0.0 is not 0.0) and writes the bytes that one repr per cell
would.  The classifier reads a trace as one float array: one NaN test over
all of it, and only the tail as Python floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .dilatations import _rescaled_product, dilate_array, gauge_dilate_array
from .gauges import Gauge, g_array, g_inverse_array, require_verified
from .heisenberg import (
    H1Point,
    _read_only,
    _rows,
    _split,
    identity,
    mul_array,
    point_diff_array,
    point_scale_array,
    points_array,
    symplectic_area,
    to_row,
)
from .metrics import SAMPLE_CHUNK, gauge_norm_array, scaled_excess
from .report import TOL_GAUGE, PropertyCheck, VerificationReport, worst_check

DEFAULT_EPS0 = 1.0
DEFAULT_RATIO = 0.5
DEFAULT_COUNT = 24
DEFAULT_WINDOW = 6
DEFAULT_ATOL = 1e-4
DEFAULT_DIVERGENCE_BOUND = 1e6
SEMINORM_SCALES = (0.5, 0.25, 2.0)  # lam in the check eta(dilate(lam, v)) = lam * eta(v)

# Squared scales fed to g must stay clear of the subnormal range.
UNDERFLOW_FLOOR = 1e3 * sys.float_info.min


class NonConvergentLimitError(ArithmeticError):
    """A limit value was requested from a trace that does not converge."""


class ScaleOverflowError(ValueError):
    """eps0 is so large that eps0^2 times a probe's vertical magnitude overflows."""


@dataclass(frozen=True)
class EpsGrid:
    """Geometric scale grid eps_j = eps0 * ratio^j, j = 0..count-1, and the
    tail rule every trace on it is classified by: the last two windows of
    `window` values, flat within `atol`.

    The scales and their repr column are computed once per grid, on first
    use, and cached on the instance: every trace on the grid shares them.
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

    def values(self) -> tuple[float, ...]:
        return self._scales

    @cached_property
    def _scales(self) -> tuple[float, ...]:
        return tuple(self.eps0 * self.ratio**j for j in range(self.count))

    @cached_property
    def eps_column(self) -> tuple[str, ...]:
        """repr of each scale: the epsilon column of every trace CSV."""
        return tuple(map(repr, self.values()))


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
    return _classify(values, window, atol, divergence_bound)


def _columns(values: np.ndarray) -> np.ndarray:
    """The columns of a (count,) or (count, 3) trace, one row each."""
    return np.atleast_2d(values.T)


def _classify(values: np.ndarray, window, atol, divergence_bound=DEFAULT_DIVERGENCE_BOUND):
    """classify_limit of a (count,) trace, the PointClassification of a (count, 3) one."""
    comps = tuple(classify_limit(c, window, atol, divergence_bound) for c in _columns(values))
    return comps[0] if values.ndim == 1 else PointClassification(comps)


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
    """A probe trace over an eps-grid together with its tail classification.

    Building one makes values read-only (in place) and classifies them by the
    grid's tail rule; the classification is never passed in.
    """

    name: str
    grid: EpsGrid
    values: np.ndarray  # one row per scale: (count,), or (count, 3) for points
    classification: Classification | PointClassification = field(init=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "classification", _classify(
            _read_only(self.values), self.grid.window, self.grid.atol))

    def header(self) -> str:
        return "epsilon,x1,x2,xbar" if self.values.ndim == 2 else "epsilon,value"

    def rows(self):
        """(eps, value) or (eps, x1, x2, xbar) per scale, as Python floats."""
        return zip(self.grid.values(), *_columns(self.values).tolist())

    def to_csv(self) -> str:
        return _csv(self.header(), self.grid, self.values)

    def summary(self) -> dict:
        return {
            "gauge": self.meta.get("gauge"),
            "probe": self.name,
            "classification": self.classification.to_dict(),
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


def _vertical_response_array(gauge: Gauge, eps: np.ndarray, ubar: float) -> np.ndarray:
    """The paper's scalar response g(eps^2 * |ubar|) / eps at every scale of
    eps: the gauge distance from the identity to the intrinsic dilatation of
    the vertical point (0, 0, ubar), divided by eps.  Whether it converges as
    eps -> 0 decides every limit question here."""
    return g_array(gauge, eps * eps * abs(ubar)) / eps


def vertical_limit_probe(
    gauge: Gauge,
    ubar: float,
    grid: EpsGrid = DEFAULT_GRID,
) -> ConvergenceTrace:
    """Trace eps -> g(eps^2 |ubar|)/eps, the scalar limit behind both the
    derivability of the identity map and the metric differential."""
    require_verified(gauge)
    if not math.isfinite(ubar):
        raise ValueError(f"ubar must be finite, got {ubar!r}")
    _scale_check(grid, abs(ubar))
    values = _vertical_response_array(gauge, np.array(grid.values()), ubar)
    return ConvergenceTrace("vertical-limit", grid, values, {"gauge": gauge.label, "ubar": ubar})


def rescaled_product_probe(
    gauge: Gauge,
    p: H1Point,
    q: H1Point,
    grid: EpsGrid = DEFAULT_GRID,
) -> ConvergenceTrace:
    """Trace eps -> rescaled_product(eps, p, q), classified componentwise."""
    require_verified(gauge)
    area = symplectic_area(p.horizontal, q.horizontal)
    _scale_check(grid, max(abs(p.xbar), abs(q.xbar), 2.0 * abs(area)))
    eps = np.array(grid.values())
    pq = np.repeat(_rows(to_row(p), to_row(q)), len(eps), axis=0)
    rows = _rescaled_product(gauge, eps, pq)
    return ConvergenceTrace("rescaled-product", grid, rows,
                            {"gauge": gauge.label, "p": p.as_tuple(), "q": q.as_tuple()})


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
    eps = np.array(grid.values())
    rows = gauge_dilate_array(gauge, 1.0 / eps, dilate_array(eps, to_row(u)))
    s = eps * eps * abs(u.xbar)
    gs = g_array(gauge, s)
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
                            {"gauge": gauge.label, "u": u.as_tuple(),
                             "closed_form_residual": float(residual.max())})


def metric_differential(
    gauge: Gauge,
    v: H1Point,
    grid: EpsGrid = DEFAULT_GRID,
) -> float:
    """The paper's metric differential of the identity map at v:
    max(horizontal norm, vertical limit), the limit of the rescaled gauge
    distance (1/eps) * gauge_dist(e, dilate(eps, v)).  Defined only when the
    vertical limit exists; raises NonConvergentLimitError otherwise."""
    c = vertical_limit_probe(gauge, v.xbar, grid).classification
    if c.kind != "converged":
        raise NonConvergentLimitError(
            f"vertical limit at ubar={v.xbar!r} is {c.kind}; the metric "
            f"differential does not exist for gauge {gauge.label!r}"
        )
    return max(v.horizontal_norm(), c.limit)


def _tail_means(values: np.ndarray, window: int) -> list[float]:
    """Mean of the last window of each row, by _fmean on Python floats (numpy's
    mean rounds differently)."""
    return [_fmean(row) for row in values[:, -window:].tolist()]


def _sup_deviation(values: np.ndarray, grid: EpsGrid):
    """Tail spreads, tail means, the classified sup-deviation trace and its
    excess, for scalar traces on grid, one trace per row of values.

    A trace's spread is max - min over its last 2*window values and its tail
    mean the mean of its last window.  The sup-deviation trace is
    eps_j -> max over traces |value_j - tail mean|, and its excess is |limit|
    when it converges, inf otherwise; the traces converge uniformly when the
    excess is <= atol.
    """
    tail = values[:, -2 * grid.window :]
    spreads = (tail.max(axis=1) - tail.min(axis=1)).tolist()
    means = _tail_means(values, grid.window)
    sup_trace = np.abs(values - np.array(means)[:, None]).max(axis=0)
    sup_cls = classify_limit(sup_trace, grid.window, grid.atol)
    excess = abs(sup_cls.limit) if sup_cls.kind == "converged" else math.inf
    return spreads, means, sup_cls, excess


def uniform_probe(
    probe,
    points,
    grid: EpsGrid = DEFAULT_GRID,
) -> VerificationReport:
    """Uniform convergence of a pointwise probe over a finite sample of a
    compact set: the paper asks the scaling limits to converge uniformly on
    compacts, not only pointwise.

    probe(point, grid) must return a scalar-valued ConvergenceTrace.  Two
    checks: every pointwise trace converges, and the sup over points of the
    deviation |trace - tail mean| converges (to ~0) as well.
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one probe point")
    traces = [probe(pt, grid) for pt in points]
    if any(tr.values.ndim != 1 for tr in traces):
        raise ValueError("the probe must be scalar-valued; it returned a point-valued trace")
    report = VerificationReport("uniform-probe")

    values = np.array([tr.values for tr in traces], dtype=float)
    spreads, _, sup_cls, excess = _sup_deviation(values, grid)

    def witness(i):
        return points[i].as_tuple() if isinstance(points[i], H1Point) else points[i]

    unconverged = np.array([tr.classification.kind != "converged" for tr in traces], dtype=float)
    report.add(worst_check("pointwise-convergence", unconverged, 0.0, witness,
                           f"{len(points)} probe points; violation is 1 where a trace "
                           "did not converge"))

    report.add(PropertyCheck("uniform-sup-convergence", excess, grid.atol,
                             witness(max(range(len(points)), key=spreads.__getitem__)),
                             f"sup-deviation trace classified {sup_cls.kind}"))
    return report


def default_direction_grid() -> tuple[H1Point, ...]:
    """Compact direction set for the differentiability test: horizontal,
    vertical, and mixed points."""
    data = [
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
    ]
    return tuple(H1Point(*row) for row in data)


@dataclass
class MetricDiffReport:
    """Outcome of the metric-differentiability test of the identity map.

    traces[NN] is the trace of directions[NN], all on one grid; to_csv
    writes them as one table, its column vNN that trace.
    """

    base: H1Point
    directions: tuple[H1Point, ...]
    differentiable: bool
    eta: tuple[float, ...] | None  # seminorm estimates, aligned with directions
    witness: H1Point | None  # a non-converging direction when not differentiable
    sup_classification: Classification
    per_direction: tuple[Classification, ...]
    seminorm_checks: list[PropertyCheck]
    traces: tuple[ConvergenceTrace, ...]

    def to_dict(self) -> dict:
        return {
            "base": list(self.base.as_tuple()),
            "differentiable": self.differentiable,
            "directions": [list(v.as_tuple()) for v in self.directions],
            "eta": None if self.eta is None else list(self.eta),
            "witness": None if self.witness is None else list(self.witness.as_tuple()),
            "sup_classification": self.sup_classification.to_dict(),
            "per_direction": [c.to_dict() for c in self.per_direction],
            "seminorm_checks": [c.to_dict() for c in self.seminorm_checks],
        }

    def to_csv(self) -> str:
        header = ",".join(("epsilon", *(f"v{i:02d}" for i in range(len(self.traces)))))
        return _csv(header, self.traces[0].grid, np.column_stack([tr.values for tr in self.traces]))


def _rescaled_distances(gauge: Gauge, dirs: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(1/eps) * gauge_norm(dilate(eps, v)) for each direction row v of dirs
    (one output row) and each scale of eps (one column).

    By left invariance this is (1/eps) * gauge_dist(b, b * dilate(eps, v))
    at every base b.  It is evaluated as the exact increment: the product
    b * dilate(eps, v) would round to b once eps * |v| is small next to |b|.
    The direction-by-scale rows are evaluated SAMPLE_CHUNK at a time, so
    memory stays flat however many directions and scales there are.
    """
    n = len(eps)
    out = np.empty(len(dirs) * n)
    for start in range(0, out.size, SAMPLE_CHUNK):
        idx = np.arange(start, min(out.size, start + SAMPLE_CHUNK))
        e = eps[idx % n]
        out[idx] = gauge_norm_array(gauge, dilate_array(e, dirs[idx // n])) / e
    return out.reshape(len(dirs), n)


def metric_diff_probe(
    gauge: Gauge,
    base: H1Point = identity(),
    grid: EpsGrid = DEFAULT_GRID,
) -> MetricDiffReport:
    """Differentiability test: for each direction v of default_direction_grid
    trace the rescaled gauge distance (1/eps) * gauge_dist(base, base *
    dilate(eps, v)).

    Differentiable iff every direction's trace converges and the sup over
    directions of deviations from the per-direction tail means converges.
    The trace is independent of base by left invariance, so it is evaluated
    as the exact increment (1/eps) * gauge_norm(dilate(eps, v)); base is
    accepted and reported, never asserted against.  On success eta(v) is the
    tail mean and the seminorm laws are verified on the direction set:
    scaling equivariance eta(dilate(lam, v)) = lam * eta(v) and subadditivity
    eta(v * w) <= eta(v) + eta(w), both within atol (scaled).  Each check
    reports its first worst violation.
    """
    require_verified(gauge)
    dirs = default_direction_grid()
    _scale_check(grid, max(abs(v.xbar) for v in dirs))

    eps = np.array(grid.values())
    d = np.array([v.as_tuple() for v in dirs])
    values = _rescaled_distances(gauge, d, eps)
    traces = tuple(
        ConvergenceTrace("metric-diff", grid, row,
                         {"gauge": gauge.label, "base": base.as_tuple(), "direction": v.as_tuple()})
        for v, row in zip(dirs, values)
    )
    per_dir = tuple(tr.classification for tr in traces)

    spreads, tail_means, sup_cls, excess = _sup_deviation(values, grid)
    differentiable = excess <= grid.atol and all(c.kind == "converged" for c in per_dir)
    eta = tuple(tail_means) if differentiable else None
    witness = None if differentiable else dirs[int(np.argmax(spreads))]

    seminorm_checks: list[PropertyCheck] = []
    if differentiable:
        # eta of every dilated direction (SEMINORM_SCALES within each
        # direction) and of every pairwise product (pairs i < j in row-major
        # order); only their tail means are needed, so only the last window
        # of scales is evaluated and no trace is built.
        n_lam = len(SEMINORM_SCALES)
        lams = np.tile(SEMINORM_SCALES, len(dirs))
        left, right = np.triu_indices(len(dirs), 1)
        extra = np.concatenate((dilate_array(lams, np.repeat(d, n_lam, axis=0)),
                                mul_array(d[left], d[right])))
        tail = _rescaled_distances(gauge, extra, eps[-grid.window :])
        etas = np.array(_tail_means(tail, grid.window))
        means = np.array(tail_means)
        scaling = np.abs(scaled_excess(etas[: lams.size], lams * np.repeat(means, n_lam)))
        subadd = scaled_excess(etas[lams.size :], means[left] + means[right])
        seminorm_checks = [
            worst_check("seminorm-scaling", scaling, grid.atol,
                        lambda i: (SEMINORM_SCALES[i % n_lam], list(dirs[i // n_lam].as_tuple()))),
            worst_check("seminorm-subadditivity", subadd, grid.atol,
                        lambda j: (list(dirs[left[j]].as_tuple()),
                                   list(dirs[right[j]].as_tuple()))),
        ]

    return MetricDiffReport(
        base=base,
        directions=dirs,
        differentiable=differentiable,
        eta=eta,
        witness=witness,
        sup_classification=sup_cls,
        per_direction=per_dir,
        seminorm_checks=seminorm_checks,
        traces=traces,
    )


def limit_equivalence_check(
    gauge: Gauge,
    samples,
    grid: EpsGrid = DEFAULT_GRID,
) -> VerificationReport:
    """Agreement between rescaled-product convergence and the scalar vertical
    limit on purely horizontal pairs.

    For p = (x, 0), q = (y, 0) the rescaled product's vertical trace is the
    profile transport of the scalar response at ubar = area/2 (any positive
    multiple classifies identically, since the response at c^2*u equals c
    times the response at u evaluated at c*eps).  Disagreements are reported
    as findings, not raised.
    """
    return _equivalence_report(samples, lambda p, q: rescaled_product_probe(gauge, p, q, grid),
                               lambda ubar: vertical_limit_probe(gauge, ubar, grid))


def _equivalence_report(samples, product, scalar) -> VerificationReport:
    """limit_equivalence_check on the traces product(p, q) and scalar(ubar)
    give, each called once per pair, in that order.  A caller that already
    holds some of those traces passes probes that return them."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    report = VerificationReport("limit-equivalence")
    for i, (p, q) in enumerate(samples):
        if p.xbar != 0.0 or q.xbar != 0.0:
            raise ValueError(
                f"sample {i}: pairs must be horizontal (zero vertical part), "
                f"got {p.as_tuple()}, {q.as_tuple()}"
            )
        area = symplectic_area(p.horizontal, q.horizontal)
        if area == 0.0:
            raise ValueError(f"sample {i}: symplectic area is zero; pair carries no twist")
        prod_kind = product(p, q).classification.kind
        scalar_kind = scalar(0.5 * area).classification.kind
        agree = (prod_kind == "converged") == (scalar_kind == "converged")
        report.add(
            PropertyCheck(
                name=f"agreement[{i}]",
                worst_violation=0.0 if agree else 1.0,
                tolerance=0.0,
                witness={
                    "p": list(p.as_tuple()),
                    "q": list(q.as_tuple()),
                    "rescaled_product": prod_kind,
                    "scalar_vertical": scalar_kind,
                },
            )
        )
    return report
