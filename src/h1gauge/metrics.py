"""Distances on H(1) and the verify battery.

Three left-invariant distances: the intrinsic max-distance
max(|x|, sqrt(|xbar|)), the gauge-deformed distance max(|x|, g(|xbar|)), and
the flat distance max(|x|, |xbar|) taken in the transported group.  Each norm
is written once, as the unchecked body of an array kernel on (n, 3) point
arrays, and each distance composes its norm with the group law; the public
*_array kernel is check_finite around its body, and each distance on two
H1Points is one row of its *_dist_array kernel.

The verify battery is one table, BATTERY, built at import: one Row per
check, in report order, holding its name, its tolerance, the layout of a
sample's inputs (box points, after a log-uniform scale or a cycled scale
table) and its violation function.  The checks are the triangle inequality,
1-Lipschitzness of the identity, left invariance, the flattening isometry,
and the group and dilatation identities.  sample_battery runs the rows on
seeded draws from a box, each reporting its worst-case violation; each row
runs SAMPLE_CHUNK samples at a time, so memory stays bounded for any sample
count.

Each row is one unguarded pass from its draw to its one check.  A violation
composes the private bodies of the kernels (_mul, _gauge_dilate, _gauge_dist,
...), never a public *_array kernel, so the runner's finiteness check of the
violations is the row's only guard; sample_battery checks the gauge once,
and a row that takes scales checks them once.  Where a violation applies one
body to independent inputs, it makes one call on the inputs stacked row-wise
(_rows) and splits the result (_split).  Every kernel is row by row, so the
numbers are those of the separate calls: stacking cuts only the per-call
dispatch cost, which dominates at small sample counts.

One runner, _run_rows, draws and scans the rows.  A battery makes one
generator from its seed; the runner cuts the rows' samples into chunks, in
report order, and draws consecutive whole chunks in one call of at most
DRAW_BLOCK doubles: one draw for a battery of a few samples.  It maps a draw
to box points once per offset (mod 3) at which a chunk's points start, each
chunk reads its inputs as views into the draw, and one finiteness check
covers a draw's violations.  The generator yields its doubles in sequence
whatever the call sizes, and each mapping rounds as the Generator.uniform
call it stands for, so the inputs are those of one draw per input.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dilatations import (
    _check_eps,
    _dilate,
    _euclidean_dilate,
    _flatten,
    _gauge_dilate,
    _transported_mul,
    _unflatten,
)
from .gauges import Gauge, _g, require_verified
from .heisenberg import (
    H1Point,
    _inv,
    _mul,
    _point_diff,
    _point_scale,
    _read_only,
    _rows,
    _split,
    check_finite,
    to_row,
)
from .report import TOL_ALGEBRA, TOL_GAUGE, PropertyCheck

SAMPLE_CHUNK = 4096  # samples drawn and evaluated per array pass


def intrinsic_dist(p: H1Point, q: H1Point) -> float:
    """One row of intrinsic_dist_array."""
    return intrinsic_dist_array(to_row(p), to_row(q))[0].item()


def gauge_dist(gauge: Gauge, p: H1Point, q: H1Point) -> float:
    """One row of gauge_dist_array."""
    return gauge_dist_array(gauge, to_row(p), to_row(q))[0].item()


def flat_dist(gauge: Gauge, p: H1Point, q: H1Point) -> float:
    """Distance in the transported group, the isometric image of gauge_dist:
    one row of flat_dist_array."""
    return flat_dist_array(gauge, to_row(p), to_row(q))[0].item()


# --- (n, 3) arrays, one point per row ---------------------------------------
# Each public kernel is check_finite (and require_verified) around a private
# unchecked body.  A distance is the norm of the unchecked group step
# _mul(-p, q): a NaN or an infinity in the step reaches the norm, whose check
# is the only one.


def _max_with_horizontal(p: np.ndarray, vertical: np.ndarray) -> np.ndarray:
    return np.maximum(np.hypot(p[:, 0], p[:, 1]), vertical)


def _intrinsic_norm(p: np.ndarray) -> np.ndarray:
    return _max_with_horizontal(p, np.sqrt(np.abs(p[:, 2])))


def _gauge_norm(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    return _max_with_horizontal(p, _g(gauge, np.abs(p[:, 2])))


def _flat_norm(p: np.ndarray) -> np.ndarray:
    return _max_with_horizontal(p, np.abs(p[:, 2]))


def _intrinsic_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _intrinsic_norm(_mul(_inv(p), q))


def _gauge_dist(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _gauge_norm(gauge, _mul(_inv(p), q))


def _flat_dist(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _flat_norm(_transported_mul(gauge, _inv(p), q))


def intrinsic_norm_array(p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and the square root of the vertical part,
    row by row."""
    return check_finite(_intrinsic_norm(p))


def gauge_norm_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and g of the vertical part, row by row."""
    require_verified(gauge)
    return check_finite(_gauge_norm(gauge, p))


def flat_norm_array(p: np.ndarray) -> np.ndarray:
    """max of the horizontal norm and the plain vertical magnitude, row by
    row."""
    return check_finite(_flat_norm(p))


def intrinsic_dist_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return check_finite(_intrinsic_dist(p, q))


def gauge_dist_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    require_verified(gauge)
    return check_finite(_gauge_dist(gauge, p, q))


def flat_dist_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    require_verified(gauge)
    return check_finite(_flat_dist(gauge, p, q))


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
        widths = np.array((self.horizontal, self.horizontal, self.vertical)) * 2.0
        object.__setattr__(self, "_widths", _read_only(widths))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points from the box as an (n, 3) array, finite with no check:
        no coordinate exceeds a half-width, at most MAX_HALF_WIDTH."""
        return self._points(rng.random(3 * n))

    def _points(self, u: np.ndarray) -> np.ndarray:
        """The box points of the doubles u from Generator.random, three per
        point: (u - 0.5) times the box's full widths.  Those doubles are
        multiples of 2^-53, so u - 0.5 and doubling a half-width are exact,
        and the product is the one rounding of (2u - 1) * half that
        Generator.uniform(-1, 1) times the half-width also makes."""
        return (u.reshape(-1, 3) - 0.5) * self._widths


def scaled_excess(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b scaled by max(1, |a|, |b|)."""
    return (a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| scaled by max(1, |a|, |b|)."""
    return np.abs(scaled_excess(a, b))


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

    def _doubles(self, size: int) -> int:
        """The doubles that size samples draw: three per box point and one per
        log-uniform scale."""
        return size * (3 * self.points + (self.log_scale is not None))

    def _run(self, gauge: Gauge, n: int, rng: np.random.Generator, box: SampleBox):
        """The check on n samples (at least min_samples) drawn from rng."""
        return _run_rows((self,), gauge, n, rng, box)[0]


_DYADIC = np.array(dyadic_scales())
# the 441 (eps, mu) pairs of the dyadic grid, eps-major
_DYADIC_PAIRS = (_read_only(np.repeat(_DYADIC, len(_DYADIC))),
                 _read_only(np.tile(_DYADIC, len(_DYADIC))))
_RESCALE_SCALES = (_read_only(np.array([2.0**j for j in range(0, -21, -4)])),)


# --- violations, one per check: violation(gauge, *inputs) ---------------------------
# Each composes the unchecked kernel bodies, so the runner's check of the
# violations is the row's one finiteness guard: a NaN or an infinity in
# an input or an overflow on the way reaches that array.  A row that takes
# scales checks them first, as the dilatation kernels do.  Each looks its
# bodies up when it runs, so a body rebound on the module (as a test does) is
# the one called.


def _triangle(dist, p, q, r):
    """dist(p,r) <= dist(p,q) + dist(q,r); dist maps two (n, 3) point arrays to
    n distances, row by row."""
    pr, pq, qr = _split(dist(_rows(p, p, q), _rows(r, q, r)), 3)
    return scaled_excess(pr, pq + qr)


def _associativity(prod, p, q, r):
    pq, qr = _split(prod(_rows(p, q), _rows(q, r)), 2)
    a, b = _split(prod(_rows(pq, p), _rows(r, qr)), 2)
    return _point_diff(a, b) / _point_scale(a, b)


def _group_identity(gauge, p):
    e = np.zeros_like(p)
    d = _point_diff(_mul(_rows(p, e), _rows(e, p)), _rows(p, p))
    return np.maximum(*_split(d, 2)) / _point_scale(p)


def _group_inverse(gauge, p):
    ip = _inv(p)
    d = _point_diff(_mul(_rows(p, ip), _rows(ip, p)), _IDENTITY)
    return np.maximum(*_split(d, 2)) / _point_scale(p)


def _intrinsic_dilation(gauge, eps, p, q):
    """The intrinsic dilatation is a group automorphism scaling intrinsic_dist."""
    _check_eps(eps)
    dp, dq = _split(_dilate(_rows(eps, eps), _rows(p, q)), 2)
    a, b = _split(_intrinsic_dist(_rows(dp, p), _rows(dq, q)), 2)
    return _gap(a, eps * b)


def _lipschitz_id(gauge, p, q):
    """The identity map is 1-Lipschitz from the intrinsic to the gauge distance."""
    step = _mul(_inv(p), q)
    return scaled_excess(_gauge_norm(gauge, step), _intrinsic_norm(step))


def _left_invariance(gauge, z, p, q):
    zp, zq = _split(_mul(_rows(z, z), _rows(p, q)), 2)
    return _gap(*_split(_gauge_dist(gauge, _rows(zp, p), _rows(zq, q)), 2))


def _isometry(gauge, p, q):
    """flat_dist(flatten(p), flatten(q)) equals gauge_dist(p, q)."""
    fp, fq = _split(_flatten(gauge, _rows(p, q)), 2)
    return _gap(_flat_dist(gauge, fp, fq), _gauge_dist(gauge, p, q))


def _semigroup(gauge, eps, mu, p):
    """gauge_dilate(eps) o gauge_dilate(mu) = gauge_dilate(eps * mu)."""
    scales = _rows(mu, eps * mu)
    _check_eps(_rows(eps, scales))
    inner, b = _split(_gauge_dilate(gauge, scales, _rows(p, p)), 2)
    a = _gauge_dilate(gauge, eps, inner)
    return _point_diff(a, b) / _point_scale(a, b)


def _homogeneity(gauge, eps, p):
    """gauge_norm(gauge_dilate(eps, p)) = eps * gauge_norm(p)."""
    _check_eps(eps)
    a, b = _split(_gauge_norm(gauge, _rows(_gauge_dilate(gauge, eps, p), p)), 2)
    return _gap(a, eps * b)


def _rescale_identity(gauge, eps, p, q):
    """(1/eps) * gauge_dist(gauge_dilate(eps,p), gauge_dilate(eps,q)) equals
    gauge_norm(rescaled_product(eps, inv(p), q))."""
    undo = 1.0 / eps
    _check_eps(_rows(eps, undo))
    dp, dq, dip = _split(_gauge_dilate(gauge, _rows(eps, eps, eps), _rows(p, q, _inv(p))), 3)
    # gauge_dist(dp, dq) is the norm of inv(dp) * dq
    step, product = _split(_mul(_rows(_inv(dp), dip), _rows(dq, dq)), 2)
    undilated = _gauge_dilate(gauge, undo, product)
    a, b = _split(_gauge_norm(gauge, _rows(step, undilated)), 2)
    return _gap(a / eps, b)


def _conjugation(gauge, eps, p):
    """Residual of gauge_dilate = unflatten o euclidean_dilate o flatten."""
    _check_eps(eps)
    direct = _gauge_dilate(gauge, eps, p)
    conjugated = _unflatten(gauge, _euclidean_dilate(eps, _flatten(gauge, p)))
    return _point_diff(direct, conjugated) / _point_scale(direct, p)


def _flatten_homomorphism(gauge, p, q):
    """flatten(p * q) equals the transported product of the flattened points."""
    a, fp, fq = _split(_flatten(gauge, _rows(_mul(p, q), p, q)), 3)
    b = _transported_mul(gauge, fp, fq)
    return _point_diff(a, b) / _point_scale(a, b)


def _transported_unit_inverse(gauge, p):
    """Identity and inverse of the transported product, whose inverse is the
    plain one, (-x, -xbar)."""
    e = np.zeros_like(p)
    d = _point_diff(_transported_mul(gauge, _rows(p, e, p), _rows(e, p, _inv(p))),
                    _rows(p, p, e))
    right, left, inverse = _split(d, 3)
    return np.maximum(np.maximum(right, left), inverse) / _point_scale(p)


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
    _check_eps(eps)
    a, b = _split(_flat_norm(_rows(_euclidean_dilate(eps, p), p)), 2)
    return _gap(a, eps * b)


# The verify battery in report order, built once.
BATTERY = (
    Row("group-associativity", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _associativity(_mul, p, q, r)),
    Row("group-identity", TOL_ALGEBRA, 1, _group_identity),
    Row("group-inverse", TOL_ALGEBRA, 1, _group_inverse),
    Row("intrinsic-dilation-scaling", TOL_ALGEBRA, 2, _intrinsic_dilation, log_scale=(-3.0, 3.0)),
    Row("triangle-intrinsic", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(_intrinsic_dist, p, q, r)),
    Row("triangle-gauge", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(partial(_gauge_dist, gauge), p, q, r)),
    Row("triangle-transported", TOL_ALGEBRA, 3,
        lambda gauge, p, q, r: _triangle(partial(_flat_dist, gauge), p, q, r)),
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
        lambda gauge, p, q, r: _associativity(partial(_transported_mul, gauge), p, q, r)),
    Row("transported-unit-inverse", TOL_GAUGE, 1, _transported_unit_inverse),
    Row("transported-norm-homogeneity", TOL_ALGEBRA, 1, _transported_norm_homogeneity,
        log_scale=(-3.0, 3.0)),
)


# Doubles drawn from the generator per call: all a battery needs at small
# sample counts, and a bound on the memory a draw holds at large ones.  A
# chunk takes at most 10 doubles a sample, so one always fits.
DRAW_BLOCK = 1 << 16


def _run_rows(rows, gauge: Gauge, n: int, rng: np.random.Generator,
              box: SampleBox) -> list[PropertyCheck]:
    """Each row's check on n samples (at least its min_samples), the rows
    drawing from rng in turn, SAMPLE_CHUNK samples at a time.  Violations are
    scaled by max(1, magnitudes), so a tolerance is a flat number.  A row
    keeps its first worst sample across its chunks; the witness holds that
    sample's inputs as plain floats, on which (as one-row arrays) the
    violation reproduces worst_violation exactly."""
    draws, chunks, total = [], [], 0  # a draw: its chunks and its doubles
    for k, row in enumerate(rows):
        count = max(n, row.min_samples)
        if count < 1:
            raise ValueError(f"{row.name}: need at least one sample, got {count!r}")
        for start in range(0, count, SAMPLE_CHUNK):
            size = min(SAMPLE_CHUNK, count - start)
            doubles = row._doubles(size)
            if chunks and total + doubles > DRAW_BLOCK:
                draws.append((chunks, total))
                chunks, total = [], 0
            chunks.append((k, row, start, size, total))
            total += doubles
    draws.append((chunks, total))
    worst = [None] * len(rows)  # each row's (worst violation, witness)
    for chunks, total in draws:
        u, mapped, ran = rng.random(total), {}, []
        for k, row, start, size, at in chunks:
            scales = ()
            if row.log_scale is not None:
                low, high = row.log_scale
                scales, at = (10.0 ** (low + (high - low) * u[at:at + size]),), at + size
            elif row.table:
                i = np.arange(start, start + size) % len(row.table[0])
                scales = tuple(column[i] for column in row.table)
            r = at % 3
            if r not in mapped:
                mapped[r] = box._points(u[r:total - (total - r) % 3])
            m, first = mapped[r], at // 3
            points = [m[j:j + size] for j in range(first, first + size * row.points, size)]
            inputs = (*scales, *points)
            ran.append((k, inputs, row.violation(gauge, *inputs)))
        check_finite(np.concatenate([v for _, _, v in ran]))
        for k, inputs, v in ran:
            i = int(v.argmax())
            if worst[k] is None or v[i] > worst[k][0]:
                worst[k] = float(v[i]), [x[i].tolist() for x in inputs]
    return [PropertyCheck(row.name, value, row.tolerance, witness,
                          f"{max(n, row.min_samples)} samples")
            for row, (value, witness) in zip(rows, worst)]


def sample_battery(gauge: Gauge, n: int, seed: int,
                   box: SampleBox = SampleBox()) -> list[PropertyCheck]:
    """The verify battery on a verified gauge: each row of BATTERY on n samples
    from box, in report order, all drawing in turn from one generator seeded
    with seed."""
    require_verified(gauge)
    return _run_rows(BATTERY, gauge, n, np.random.default_rng(seed), box)
