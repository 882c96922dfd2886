"""Scalar reference formulas, the row-by-row trace CSV, and the unstacked
sampler and probe compositions: the oracles of the parity tests.

Every operation of the package is written once, as an array kernel.  This
module keeps an independent second writing of each formula in plain Python on
H1Points and floats, for the tests to compare the kernels against.  Those formulas use no
*_array kernel and do not read a gauge's segment table: the piecewise k and g
are looked up here from the gauge's breakpoints, values and period, with
bisect, math.hypot and a plain loop over periods where the package uses
np.searchsorted, np.hypot and a logarithm.

The last section is the exception.  The samplers, two probes and
transported_mul_array call each kernel once on row-stacked independent
inputs, and the samplers draw the box points of a chunk in one call; the
oracles there compose the same kernels one call per input and draw once per
input, as the package did before stacking, so the two must agree bit for bit.
Its sample_battery threads one generator, seeded once, through the samplers
in report order, as the package's does.
"""

import bisect
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from h1gauge.dilatations import (
    dilate_array,
    euclidean_dilate_array,
    flatten_array,
    gauge_dilate_array,
    unflatten_array,
)
from h1gauge.gauges import PiecewiseLinearGauge, g_array, g_inverse_array, invert_g, linear_gauge
from h1gauge.heisenberg import (
    H1Point,
    check_finite,
    inv_array,
    mul_array,
    point_diff_array,
    point_scale_array,
    points_array,
    to_row,
)
from h1gauge.limits import Classification
from h1gauge.metrics import (
    _IDENTITY,
    SAMPLE_CHUNK,
    SampleBox,
    _gap,
    _run_rows,
    dyadic_scales,
    flat_norm_array,
    gauge_dist_array,
    gauge_norm_array,
    intrinsic_dist_array,
    scaled_excess,
)
from h1gauge.report import TOL_ALGEBRA, TOL_GAUGE, PropertyCheck, worst_check

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


def point_diff_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The row maxima behind point_diff_array, unguarded, in the form
    .max(axis=1) that reduces each row in turn."""
    return np.abs(p - q).max(axis=1)


def point_scale_rows(*points: np.ndarray) -> np.ndarray:
    """The row maxima behind point_scale_array, unguarded, in the form
    max(1, .max(axis=1))."""
    return np.maximum(1.0, np.abs(np.concatenate(points, axis=1)).max(axis=1))


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
    """The segment table and the period of a piecewise gauge, else None."""
    pwl = gauge.k
    if isinstance(pwl, PiecewiseLinearGauge) and gauge.g_closed == pwl.g_array:
        return _table(pwl.breakpoints, pwl.values), pwl.period
    return None


def _reduce(x: float, first: float, period, arg: int):
    """x lifted into the table of a self-similar gauge, one period at a time:
    (x / period^(arg n), period^n) for the least n with x / period^(arg n) >= first."""
    c = 1.0
    if period is not None and x > 0.0:
        while x < first:
            x /= period**arg
            c *= period
    return x, c


def k(gauge, t: float) -> float:
    piecewise = _piecewise(gauge)
    if piecewise is None:
        return gauge.k(t)
    if t <= 0.0:
        return 0.0
    (knots, kvals, _, slopes, _), period = piecewise
    t, c = _reduce(t, knots[1], period, 1)
    i = bisect.bisect_right(knots, t) - 1
    return c * c * (kvals[i] + slopes[i] * (t - knots[i]))


def G(gauge, t: float) -> float:
    """The profile k(t) + t^2."""
    return k(gauge, t) + t * t


def g(gauge, s: float) -> float:
    """The profile inverse: the segment lookup and cancellation-free root for
    piecewise gauges, the closed form 2s/(1 + sqrt(1 + 4s)) for the linear
    one, and the scalar bisection invert_g, which shares no code with the
    lockstep bisection behind g_array, memoized, for any other gauge.
    Self-similar gauges are first lifted into their table by a plain loop."""
    piecewise = _piecewise(gauge)
    if piecewise is not None:
        (knots, _, gvals, _, halfb), period = piecewise
        s, c = _reduce(s, gvals[1], period, 2)
        i = bisect.bisect_right(gvals, s) - 1
        d = s - gvals[i]
        h = halfb[i]
        return c * (knots[i] + d / (h + math.hypot(h, math.sqrt(d))))
    if gauge.g_closed is _LINEAR_G:
        return 2.0 * s / (1.0 + math.sqrt(1.0 + 4.0 * s))
    return _invert_g(gauge, s)


@lru_cache(maxsize=None)
def _invert_g(gauge, s: float) -> float:
    """invert_g, once per (gauge, s): a probe trace asks for the same s at many
    grid points and directions, and each call is a full bisection.  A Gauge
    hashes by identity; invert_g gives 0.0 for both signed zeros."""
    return invert_g(gauge, s)


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


# --- R's classification mapped ----------------------------------------------------


def mapped(r, to_trace):
    """R's classification r carried by the monotone map to_trace (on float
    arrays) to one trace column, one map call per column: r's kind, and r's
    limit or band mapped, the band's ends in order (a decreasing map swaps
    them).  A band that the map collapses to one value converges there.  The
    oracle of Response.mapped."""
    if r.kind == "converged":
        return Classification("converged", limit=to_trace(np.array([r.limit])).item())
    if r.kind == "oscillating":
        liminf, limsup = sorted(to_trace(np.array([r.liminf, r.limsup])).tolist())
        if liminf == limsup:
            return Classification("converged", limit=liminf)
        return Classification("oscillating", liminf=liminf, limsup=limsup)
    return r


def direction_map(v: H1Point):
    """The map x -> max(|v_h|, sqrt|vbar| x) of R to the trace of v, built
    for one direction."""
    horizontal, root = v.horizontal_norm(), math.sqrt(abs(v.xbar))
    return lambda x: np.maximum(horizontal, root * x)


def direction_verdict(r, directions):
    """(per_direction, differentiable, eta, witness) of R's classification r
    mapped direction by direction through mapped, the widths compared as
    Python floats: the oracle of limits._direction_verdict."""
    per_dir = tuple(mapped(r, direction_map(v)) for v in directions)
    ok = all(c.kind == "converged" for c in per_dir)
    widths = [0.0 if c.kind == "converged" else
              c.limsup - c.liminf if c.kind == "oscillating" else math.inf for c in per_dir]
    return (per_dir, ok, tuple(c.limit for c in per_dir) if ok else None,
            None if ok else directions[widths.index(max(widths))])


# --- trace output -----------------------------------------------------------------


def table_csv(header: str, grid, rows) -> str:
    """A CSV table written row by row, one repr per cell: the header, then
    scale j of the grid, recomputed from its fields, before row j of rows."""
    lines = [header]
    for j, row in enumerate(rows):
        lines.append(",".join(repr(c) for c in (grid.eps0 * grid.ratio**j, *row)))
    return "\n".join(lines) + "\n"


def trace_csv(trace) -> str:
    """A trace's CSV by table_csv: the oracle of ConvergenceTrace.to_csv."""
    point_valued = trace.values.ndim == 2
    return table_csv("epsilon,x1,x2,xbar" if point_valued else "epsilon,value", trace.grid,
                     trace.values.reshape(len(trace.values), -1).tolist())


# --- unstacked sampler and probe compositions --------------------------------------
#
# Each sampler below draws the same numbers as the battery row of its name,
# one box.draw per input, and scans them chunk by chunk with _worst, which
# shares no code with the package's runner; its violation calls each kernel
# once per input.


def _worst(name: str, n: int, tolerance: float, draw, violation) -> PropertyCheck:
    """Worst scaled violation over n >= 1 samples, SAMPLE_CHUNK at a time.

    draw(start, size) returns the inputs of samples start .. start + size - 1
    as arrays, one row per sample; violation maps them to one number per
    sample.  Violations are scaled by max(1, magnitudes) of the compared
    quantities, so tolerance is a flat number.  Each chunk is one worst_check,
    and the first worst across chunks is kept.  The witness holds the inputs
    of the first worst sample as plain floats; evaluating violation on them
    (as one-row arrays) reproduces worst_violation exactly.
    """
    if n < 1:
        raise ValueError(f"{name}: need at least one sample, got {n!r}")
    worst = None
    for start in range(0, n, SAMPLE_CHUNK):
        inputs = draw(start, min(SAMPLE_CHUNK, n - start))
        check = worst_check(name, check_finite(violation(*inputs)), tolerance,
                            lambda i: [x[i].tolist() for x in inputs], f"{n} samples")
        if worst is None or check.worst_violation > worst.worst_violation:
            worst = check
    return worst


def chunk_inputs(row, n, rng, box):
    """The inputs the package's runner hands row's violation on n samples
    (at least row.min_samples) drawn from rng, one tuple per chunk."""
    seen = []

    def keep(gauge, *inputs):
        seen.append(inputs)
        return np.zeros(len(inputs[0]))

    _run_rows((replace(row, violation=keep),), None, n, rng, box)
    return seen


def _points(rng, box, count):
    """draw for samples of count box points: count consecutive box.draw calls."""
    return lambda start, size: tuple(box.draw(rng, size) for _ in range(count))


def _scaled_points(rng, box, count, low, high):
    """draw for samples of one scale 10^u and count box points, each drawn by
    its own call."""
    return lambda start, size: (
        10.0 ** rng.uniform(low, high, size=size),
        *(box.draw(rng, size) for _ in range(count)),
    )


def transported_mul_rows(gauge, p, q):
    """The transported product with each operand unflattened by its own
    call."""
    return flatten_array(gauge, mul_array(unflatten_array(gauge, p), unflatten_array(gauge, q)))


def _flat_dist_rows(gauge, p, q):
    return flat_norm_array(transported_mul_rows(gauge, inv_array(p), q))


def sample_triangle(dist, name, n, seed, box=SampleBox()):
    def violation(p, q, r):
        return scaled_excess(dist(p, r), dist(p, q) + dist(q, r))

    return _worst(name, n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 3), violation)


def sample_lipschitz_id(gauge, n, seed, box=SampleBox()):
    def violation(p, q):
        return scaled_excess(gauge_dist_array(gauge, p, q), intrinsic_dist_array(p, q))

    return _worst(
        "lipschitz-id", n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 2), violation
    )


def sample_left_invariance(gauge, n, seed, box=SampleBox()):
    def violation(z, p, q):
        return _gap(
            gauge_dist_array(gauge, mul_array(z, p), mul_array(z, q)),
            gauge_dist_array(gauge, p, q),
        )

    return _worst(
        "left-invariance", n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 3), violation
    )


def sample_isometry(gauge, n, seed, box=SampleBox()):
    def violation(p, q):
        return _gap(
            _flat_dist_rows(gauge, flatten_array(gauge, p), flatten_array(gauge, q)),
            gauge_dist_array(gauge, p, q),
        )

    return _worst(
        "flatten-isometry", n, TOL_GAUGE, _points(np.random.default_rng(seed), box, 2), violation
    )


def _assoc_violation(prod):
    def violation(p, q, r):
        a, b = prod(prod(p, q), r), prod(p, prod(q, r))
        return point_diff_array(a, b) / point_scale_array(a, b)

    return violation


def sample_group_axioms(n, seed, box=SampleBox()):
    rng = np.random.default_rng(seed)
    e = _IDENTITY

    def identity_violation(p):
        v = np.maximum(
            point_diff_array(mul_array(p, e), p), point_diff_array(mul_array(e, p), p)
        )
        return v / point_scale_array(p)

    def inverse_violation(p):
        v = np.maximum(
            point_diff_array(mul_array(p, inv_array(p)), e),
            point_diff_array(mul_array(inv_array(p), p), e),
        )
        return v / point_scale_array(p)

    return [
        _worst("group-associativity", n, TOL_ALGEBRA, _points(rng, box, 3),
               _assoc_violation(mul_array)),
        _worst("group-identity", n, TOL_ALGEBRA, _points(rng, box, 1), identity_violation),
        _worst("group-inverse", n, TOL_ALGEBRA, _points(rng, box, 1), inverse_violation),
    ]


def sample_semigroup(gauge, n, seed, box=SampleBox()):
    rng = np.random.default_rng(seed)
    scales = np.array(dyadic_scales())
    pairs = len(scales) ** 2

    def draw(start, size):
        i = np.arange(start, start + size) % pairs
        return scales[i // len(scales)], scales[i % len(scales)], box.draw(rng, size)

    def violation(eps, mu, p):
        a = gauge_dilate_array(gauge, eps, gauge_dilate_array(gauge, mu, p))
        b = gauge_dilate_array(gauge, eps * mu, p)
        return point_diff_array(a, b) / point_scale_array(a, b)

    return _worst("dilatation-semigroup", max(n, pairs), TOL_GAUGE, draw, violation)


def sample_homogeneity(gauge, n, seed, box=SampleBox()):
    def violation(eps, p):
        return _gap(
            gauge_norm_array(gauge, gauge_dilate_array(gauge, eps, p)),
            eps * gauge_norm_array(gauge, p),
        )

    draw = _scaled_points(np.random.default_rng(seed), box, 1, -6.0, 3.0)
    return _worst("dilatation-homogeneity", n, TOL_GAUGE, draw, violation)


def sample_rescale_identity(gauge, n, seed, box=SampleBox()):
    def violation(eps, p, q):
        dp, dq = gauge_dilate_array(gauge, eps, p), gauge_dilate_array(gauge, eps, q)
        a = gauge_dist_array(gauge, dp, dq) / eps
        product = mul_array(gauge_dilate_array(gauge, eps, inv_array(p)), dq)
        b = gauge_norm_array(gauge, gauge_dilate_array(gauge, 1.0 / eps, product))
        return _gap(a, b)

    rng = np.random.default_rng(seed)
    scales = np.array([2.0**j for j in range(0, -21, -4)])

    def draw(start, size):
        eps = scales[np.arange(start, start + size) % len(scales)]
        return eps, box.draw(rng, size), box.draw(rng, size)

    return _worst("rescaled-distance-identity", n, TOL_GAUGE, draw, violation)


def sample_conjugation(gauge, n, seed, box=SampleBox()):
    def violation(eps, p):
        direct = gauge_dilate_array(gauge, eps, p)
        conjugated = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, p)))
        return point_diff_array(direct, conjugated) / point_scale_array(direct, p)

    draw = _scaled_points(np.random.default_rng(seed), box, 1, -6.0, 3.0)
    return _worst("conjugation", n, TOL_GAUGE, draw, violation)


def sample_flatten_homomorphism(gauge, n, seed, box=SampleBox()):
    def violation(p, q):
        a = flatten_array(gauge, mul_array(p, q))
        b = transported_mul_rows(gauge, flatten_array(gauge, p), flatten_array(gauge, q))
        return point_diff_array(a, b) / point_scale_array(a, b)

    draw = _points(np.random.default_rng(seed), box, 2)
    return _worst("flatten-homomorphism", n, TOL_GAUGE, draw, violation)


def sample_transported_axioms(gauge, n, seed, box=SampleBox()):
    rng = np.random.default_rng(seed)
    e = _IDENTITY

    def product(p, q):
        return transported_mul_rows(gauge, p, q)

    def unit_inverse_violation(p):
        v = np.maximum(
            np.maximum(
                point_diff_array(product(p, e), p), point_diff_array(product(e, p), p)
            ),
            point_diff_array(product(p, inv_array(p)), e),
        )
        return v / point_scale_array(p)

    def norm_homogeneity_violation(eps, p):
        return _gap(flat_norm_array(euclidean_dilate_array(eps, p)), eps * flat_norm_array(p))

    return [
        _worst("transported-associativity", n, TOL_GAUGE, _points(rng, box, 3),
               _assoc_violation(product)),
        _worst("transported-unit-inverse", n, TOL_GAUGE, _points(rng, box, 1),
               unit_inverse_violation),
        _worst("transported-norm-homogeneity", n, TOL_ALGEBRA,
               _scaled_points(rng, box, 1, -3.0, 3.0), norm_homogeneity_violation),
    ]


def sample_intrinsic_dilation(n, seed, box=SampleBox()):
    def violation(eps, p, q):
        return _gap(
            intrinsic_dist_array(dilate_array(eps, p), dilate_array(eps, q)),
            eps * intrinsic_dist_array(p, q),
        )

    draw = _scaled_points(np.random.default_rng(seed), box, 2, -3.0, 3.0)
    return _worst("intrinsic-dilation-scaling", n, TOL_ALGEBRA, draw, violation)


def sample_battery(gauge, n, seed, box=SampleBox()):
    """The verify battery of the samplers above: its order, report names and
    one generator, seeded once with seed and drawn from by each stage in
    turn, written out a second time."""
    rng = np.random.default_rng(seed)
    reports = [*sample_group_axioms(n, rng, box), sample_intrinsic_dilation(n, rng, box)]
    dists = {"triangle-intrinsic": intrinsic_dist_array,
             "triangle-gauge": lambda p, q: gauge_dist_array(gauge, p, q),
             "triangle-transported": lambda p, q: _flat_dist_rows(gauge, p, q)}
    for name, dist in dists.items():
        reports.append(sample_triangle(dist, name, n, rng, box))
    samplers = (sample_lipschitz_id, sample_left_invariance, sample_isometry, sample_semigroup,
                sample_homogeneity, sample_rescale_identity, sample_conjugation,
                sample_flatten_homomorphism)
    for sample in samplers:
        reports.append(sample(gauge, n, rng, box))
    return reports + sample_transported_axioms(gauge, n, rng, box)


def rescaled_product_rows(gauge, p: H1Point, q: H1Point, eps: np.ndarray) -> np.ndarray:
    """The trace rows of rescaled_product_probe, each point dilated on its own."""
    product = mul_array(gauge_dilate_array(gauge, eps, to_row(p)),
                        gauge_dilate_array(gauge, eps, to_row(q)))
    return gauge_dilate_array(gauge, 1.0 / eps, product)


def derivability_rows(gauge, u: H1Point, eps: np.ndarray):
    """The trace rows of id_derivability_probe and their residual against the
    closed form, whose profile is evaluated by its own call."""
    rows = gauge_dilate_array(gauge, 1.0 / eps, dilate_array(eps, to_row(u)))
    gs = g_array(gauge, eps * eps * abs(u.xbar))
    ref_vert = np.sign(u.xbar) * g_inverse_array(gauge, gs / eps)
    ref = points_array(np.full_like(eps, u.x1), np.full_like(eps, u.x2), ref_vert)
    return rows, point_diff_array(rows, ref) / point_scale_array(rows, ref)
