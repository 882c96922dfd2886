"""Distances on H(1) and the verify battery.

Three left-invariant distances: the intrinsic max-distance
max(|x|, sqrt(|xbar|)), the gauge-deformed distance max(|x|, g(|xbar|)), and
the flat distance max(|x|, |xbar|) taken in the transported group.  Each norm
is written once, as an array kernel on (n, 3) point arrays; the scalar norm on
H1Point is a one-row call into it, and each scalar distance composes its norm
with the group law.

The verify battery is one table, BATTERY, built at import: one Row per
check, in report order, holding its name, its tolerance, the layout of a
sample's inputs (box points, after a log-uniform scale or a cycled scale
table) and its violation function.  The checks are the triangle inequality,
1-Lipschitzness of the identity, left invariance, the flattening isometry,
and the group and dilatation identities.  sample_battery runs the rows on
seeded draws from a box, each reporting its worst-case violation, all drawing
in turn from one generator; each row runs SAMPLE_CHUNK samples at a time, so
memory stays bounded for any sample count.

Where a violation applies one kernel to independent inputs, it makes one call
on the inputs stacked row-wise (_rows) and splits the result (_split).  Every
kernel is row by row, so the numbers are those of the separate calls: stacking
cuts only the per-call dispatch cost, which dominates at small sample counts.
The draws are merged the same way: the box points a chunk needs come from one
draw of their count times the rows, split in order (Row._draw).  The
generator yields its doubles in sequence, so those are the points of separate
draws.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dilatations import (
    _transported_mul,
    dilate_array,
    euclidean_dilate_array,
    flatten_array,
    gauge_dilate_array,
    transported_mul,
    transported_mul_array,
    unflatten_array,
)
from .gauges import Gauge, _g, require_verified
from .heisenberg import (
    H1Point,
    _mul,
    _rows,
    _split,
    check_finite,
    inv,
    inv_array,
    mul,
    mul_array,
    point_diff_array,
    point_scale_array,
    to_row,
)
from .report import TOL_ALGEBRA, TOL_GAUGE, PropertyCheck, worst_check

SAMPLE_CHUNK = 4096  # samples drawn and evaluated per array pass


def intrinsic_norm(p: H1Point) -> float:
    """One row of intrinsic_norm_array."""
    return intrinsic_norm_array(to_row(p))[0].item()


def intrinsic_dist(p: H1Point, q: H1Point) -> float:
    return intrinsic_norm(mul(inv(p), q))


def gauge_norm(gauge: Gauge, p: H1Point) -> float:
    """One row of gauge_norm_array."""
    return gauge_norm_array(gauge, to_row(p))[0].item()


def gauge_dist(gauge: Gauge, p: H1Point, q: H1Point) -> float:
    return gauge_norm(gauge, mul(inv(p), q))


def flat_norm(p: H1Point) -> float:
    """One row of flat_norm_array."""
    return flat_norm_array(to_row(p))[0].item()


def flat_dist(gauge: Gauge, p: H1Point, q: H1Point) -> float:
    """Distance in the transported group; isometric image of gauge_dist.
    The transported inverse is the plain one, (-x, -xbar)."""
    return flat_norm(transported_mul(gauge, inv(p), q))


# --- (n, 3) arrays, one point per row ---------------------------------------
# A distance is the norm of the unchecked group step _mul(-p, q): a NaN or an
# infinity in the step reaches the norm, whose check is the only one.


def _max_with_horizontal(p: np.ndarray, vertical: np.ndarray) -> np.ndarray:
    return check_finite(np.maximum(np.hypot(p[:, 0], p[:, 1]), vertical))


def intrinsic_norm_array(p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and the square root of the vertical part,
    row by row."""
    return _max_with_horizontal(p, np.sqrt(np.abs(p[:, 2])))


def gauge_norm_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and g of the vertical part, row by row."""
    require_verified(gauge)
    return _max_with_horizontal(p, _g(gauge, np.abs(p[:, 2])))


def flat_norm_array(p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and the plain vertical magnitude, row by
    row."""
    return _max_with_horizontal(p, np.abs(p[:, 2]))


def intrinsic_dist_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return intrinsic_norm_array(_mul(-p, q))


def gauge_dist_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return gauge_norm_array(gauge, _mul(-p, q))


def flat_dist_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    require_verified(gauge)
    return flat_norm_array(_transported_mul(gauge, -p, q))


# Largest admitted box half-width: products of sampled coordinates stay
# far from float overflow.
MAX_HALF_WIDTH = 1e100


@dataclass(frozen=True)
class SampleBox:
    """Sampling domain: horizontal components uniform in [-horizontal,
    horizontal], vertical uniform in [-vertical, vertical]."""

    horizontal: float = 2.0
    vertical: float = 4.0

    def __post_init__(self):
        for half in (self.horizontal, self.vertical):
            if not math.isfinite(half):
                raise ValueError(f"non-finite box half-width {half!r}")
            if not 0 < half <= MAX_HALF_WIDTH:
                raise ValueError(
                    f"box half-widths must lie in (0, {MAX_HALF_WIDTH!r}], got {half!r}"
                )

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points from the box as an (n, 3) array, finite with no check:
        no coordinate exceeds a half-width, at most MAX_HALF_WIDTH."""
        half = (self.horizontal, self.horizontal, self.vertical)
        return rng.uniform(-1.0, 1.0, size=(n, 3)) * half


def scaled_excess(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b scaled by max(1, |a|, |b|)."""
    return (a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| scaled by max(1, |a|, |b|)."""
    return np.abs(scaled_excess(a, b))


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_IDENTITY = _read_only(np.zeros((1, 3)))


def dyadic_scales(low: int = -10, high: int = 10) -> tuple[float, ...]:
    return tuple(2.0**j for j in range(low, high + 1))


@dataclass(frozen=True)
class Row:
    """One check of the verify battery: its report name and tolerance, the
    layout of one sample's inputs, and violation(gauge, *inputs), which maps
    the inputs of a chunk of samples to one number per sample.

    A sample's inputs are `points` box points, after either one scale 10^u,
    u uniform in `log_scale` and drawn before the points, or one entry of each
    column of `table`, whose rows are cycled in sample order.  The check runs
    on at least `min_samples` samples.
    """

    name: str
    tolerance: float
    points: int
    violation: Callable
    log_scale: tuple[float, float] | None = None
    table: tuple[np.ndarray, ...] = ()
    min_samples: int = 0

    def _draw(self, rng: np.random.Generator, box: SampleBox, start: int, size: int):
        """The inputs of samples start .. start + size - 1; the box points come
        from one draw of points times size rows, split in order."""
        scales = ()
        if self.log_scale is not None:
            scales = (10.0 ** rng.uniform(*self.log_scale, size=size),)
        elif self.table:
            i = np.arange(start, start + size) % len(self.table[0])
            scales = tuple(column[i] for column in self.table)
        return (*scales, *_split(box.draw(rng, self.points * size), self.points))

    def _run(self, gauge: Gauge, n: int, rng: np.random.Generator, box: SampleBox):
        """The check on n samples (at least min_samples) drawn from rng."""
        return _worst(self.name, max(n, self.min_samples), self.tolerance,
                      partial(self._draw, rng, box), partial(self.violation, gauge))


_DYADIC = np.array(dyadic_scales())
# the 441 (eps, mu) pairs of the dyadic grid, eps-major
_DYADIC_PAIRS = (_read_only(np.repeat(_DYADIC, len(_DYADIC))),
                 _read_only(np.tile(_DYADIC, len(_DYADIC))))
_RESCALE_SCALES = (_read_only(np.array([2.0**j for j in range(0, -21, -4)])),)


# --- violations, one per check: violation(gauge, *inputs) ---------------------------
# Each looks its kernels up when it runs, so a kernel rebound on the module
# (as a tracer or a test does) is the one called.


def _triangle(dist, p, q, r):
    """dist(p,r) <= dist(p,q) + dist(q,r); dist maps two (n, 3) point arrays to
    n distances, row by row."""
    pr, pq, qr = _split(dist(_rows(p, p, q), _rows(r, q, r)), 3)
    return scaled_excess(pr, pq + qr)


def _associativity(prod, p, q, r):
    pq, qr = _split(prod(_rows(p, q), _rows(q, r)), 2)
    a, b = _split(prod(_rows(pq, p), _rows(r, qr)), 2)
    return point_diff_array(a, b) / point_scale_array(a, b)


def _group_identity(gauge, p):
    e = np.zeros_like(p)
    d = point_diff_array(mul_array(_rows(p, e), _rows(e, p)), _rows(p, p))
    return np.maximum(*_split(d, 2)) / point_scale_array(p)


def _group_inverse(gauge, p):
    ip = inv_array(p)
    d = point_diff_array(mul_array(_rows(p, ip), _rows(ip, p)), _IDENTITY)
    return np.maximum(*_split(d, 2)) / point_scale_array(p)


def _intrinsic_dilation(gauge, eps, p, q):
    """The intrinsic dilatation is a group automorphism scaling intrinsic_dist."""
    dp, dq = _split(dilate_array(_rows(eps, eps), _rows(p, q)), 2)
    a, b = _split(intrinsic_dist_array(_rows(dp, p), _rows(dq, q)), 2)
    return _gap(a, eps * b)


def _lipschitz_id(gauge, p, q):
    """The identity map is 1-Lipschitz from the intrinsic to the gauge distance."""
    step = mul_array(inv_array(p), q)
    return scaled_excess(gauge_norm_array(gauge, step), intrinsic_norm_array(step))


def _left_invariance(gauge, z, p, q):
    zp, zq = _split(mul_array(_rows(z, z), _rows(p, q)), 2)
    return _gap(*_split(gauge_dist_array(gauge, _rows(zp, p), _rows(zq, q)), 2))


def _isometry(gauge, p, q):
    """flat_dist(flatten(p), flatten(q)) equals gauge_dist(p, q)."""
    fp, fq = _split(flatten_array(gauge, _rows(p, q)), 2)
    return _gap(flat_dist_array(gauge, fp, fq), gauge_dist_array(gauge, p, q))


def _semigroup(gauge, eps, mu, p):
    """gauge_dilate(eps) o gauge_dilate(mu) = gauge_dilate(eps * mu)."""
    inner, b = _split(gauge_dilate_array(gauge, _rows(mu, eps * mu), _rows(p, p)), 2)
    a = gauge_dilate_array(gauge, eps, inner)
    return point_diff_array(a, b) / point_scale_array(a, b)


def _homogeneity(gauge, eps, p):
    """gauge_norm(gauge_dilate(eps, p)) = eps * gauge_norm(p)."""
    a, b = _split(gauge_norm_array(gauge, _rows(gauge_dilate_array(gauge, eps, p), p)), 2)
    return _gap(a, eps * b)


def _rescale_identity(gauge, eps, p, q):
    """(1/eps) * gauge_dist(gauge_dilate(eps,p), gauge_dilate(eps,q)) equals
    gauge_norm(rescaled_product(eps, inv(p), q))."""
    dp, dq, dip = _split(
        gauge_dilate_array(gauge, _rows(eps, eps, eps), _rows(p, q, inv_array(p))), 3
    )
    # gauge_dist(dp, dq) is the norm of inv(dp) * dq
    step, product = _split(mul_array(_rows(inv_array(dp), dip), _rows(dq, dq)), 2)
    undilated = gauge_dilate_array(gauge, 1.0 / eps, product)
    a, b = _split(gauge_norm_array(gauge, _rows(step, undilated)), 2)
    return _gap(a / eps, b)


def _conjugation(gauge, eps, p):
    """Residual of gauge_dilate = unflatten o euclidean_dilate o flatten."""
    direct = gauge_dilate_array(gauge, eps, p)
    conjugated = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, p)))
    return point_diff_array(direct, conjugated) / point_scale_array(direct, p)


def _flatten_homomorphism(gauge, p, q):
    """flatten(p * q) equals the transported product of the flattened points."""
    a, fp, fq = _split(flatten_array(gauge, _rows(mul_array(p, q), p, q)), 3)
    b = transported_mul_array(gauge, fp, fq)
    return point_diff_array(a, b) / point_scale_array(a, b)


def _transported_unit_inverse(gauge, p):
    """Identity and inverse of the transported product, whose inverse is the
    plain one, (-x, -xbar)."""
    e = np.zeros_like(p)
    d = point_diff_array(transported_mul_array(gauge, _rows(p, e, p), _rows(e, p, inv_array(p))),
                         _rows(p, p, e))
    right, left, inverse = _split(d, 3)
    return np.maximum(np.maximum(right, left), inverse) / point_scale_array(p)


def _transported_norm_homogeneity(gauge, eps, p):
    """Homogeneity of the transported norm under the euclidean dilatation.

    The euclidean dilatation is deliberately NOT checked as an automorphism
    of the transported product: it is not one.  Conjugating that claim back
    through the flattening map would make the gauge dilatation an
    automorphism of the group itself, which already fails for the linear
    gauge on horizontal points (and would force the rescaled product to
    collapse to the plain product, emptying the whole limit question).  What
    does hold exactly is norm homogeneity, checked here.
    """
    a, b = _split(flat_norm_array(_rows(euclidean_dilate_array(eps, p), p)), 2)
    return _gap(a, eps * b)


# The verify battery in report order, built once.
BATTERY = (
    Row("group-associativity", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _associativity(mul_array, p, q, r)),
    Row("group-identity", TOL_ALGEBRA, 1, _group_identity),
    Row("group-inverse", TOL_ALGEBRA, 1, _group_inverse),
    Row("intrinsic-dilation-scaling", TOL_ALGEBRA, 2, _intrinsic_dilation, log_scale=(-3.0, 3.0)),
    Row("triangle-intrinsic", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(intrinsic_dist_array, p, q, r)),
    Row("triangle-gauge", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(partial(gauge_dist_array, gauge), p, q, r)),
    Row("triangle-transported", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(partial(flat_dist_array, gauge), p, q, r)),
    Row("lipschitz-id", TOL_ALGEBRA, 2, _lipschitz_id),
    Row("left-invariance", TOL_ALGEBRA, 3, _left_invariance),
    Row("flatten-isometry", TOL_GAUGE, 2, _isometry),
    # every (eps, mu) pair of the dyadic grid 2^-10 .. 2^10, so few samples
    # still cover it
    Row("dilatation-semigroup", TOL_GAUGE, 1, _semigroup,
        table=_DYADIC_PAIRS, min_samples=len(_DYADIC_PAIRS[0])),
    Row("dilatation-homogeneity", TOL_GAUGE, 1, _homogeneity, log_scale=(-6.0, 3.0)),
    Row("rescaled-distance-identity", TOL_GAUGE, 2, _rescale_identity, table=_RESCALE_SCALES),
    Row("conjugation", TOL_GAUGE, 1, _conjugation, log_scale=(-6.0, 3.0)),
    Row("flatten-homomorphism", TOL_GAUGE, 2, _flatten_homomorphism),
    Row("transported-associativity", TOL_GAUGE, 3,
        lambda gauge, p, q, r: _associativity(partial(transported_mul_array, gauge), p, q, r)),
    Row("transported-unit-inverse", TOL_GAUGE, 1, _transported_unit_inverse),
    Row("transported-norm-homogeneity", TOL_ALGEBRA, 1, _transported_norm_homogeneity,
        log_scale=(-3.0, 3.0)),
)


def sample_battery(gauge: Gauge, n: int, seed: int,
                   box: SampleBox = SampleBox()) -> list[PropertyCheck]:
    """The verify battery on a verified gauge: each row of BATTERY on n samples
    from box, in report order, all drawing in turn from one generator seeded
    with seed."""
    rng = np.random.default_rng(seed)
    return [row._run(gauge, n, rng, box) for row in BATTERY]
