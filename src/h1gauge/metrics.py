"""Distances on H(1) and the randomized property samplers.

Three left-invariant distances: the intrinsic max-distance
max(|x|, sqrt(|xbar|)), the gauge-deformed distance max(|x|, g(|xbar|)), and
the flat distance max(|x|, |xbar|) taken in the transported group.  Each norm
is written once, as an array kernel on (n, 3) point arrays; the scalar norm on
H1Point is a one-row call into it, and each scalar distance composes its norm
with the group law.  The samplers draw seeded points from a box and report
worst-case violations of the triangle inequality, 1-Lipschitzness of the
identity, left invariance, the flattening isometry, and the dilatation
identities.  They run on arrays, SAMPLE_CHUNK samples at a time, so memory
stays bounded for any sample count.

Each sampler draws from np.random.default_rng(seed), so its seed may be an
int or a Generator, which default_rng hands back unchanged.  sample_battery
seeds one generator per run and passes it to every sampler in report order:
a generator built from an int costs far more than its draws at small sample
counts.  The seed annotations say int alone: a module-level alias for
int | np.random.Generator would import numpy.random with the package (about
13 ms), which only the samplers need.

Where a sampler applies one kernel to independent inputs, it makes one call
on the inputs stacked row-wise (_rows) and splits the result (_split).  Every
kernel is row by row, so the numbers are those of the separate calls: stacking
cuts only the per-call dispatch cost, which dominates at small sample counts.
The draws are merged the same way: the count box arrays a chunk needs come
from one draw of count times the rows, split in order (_points).  The
generator yields its doubles in sequence, so those are the points of count
separate draws.
"""

from __future__ import annotations

import math
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
    check_finite,
    inv,
    inv_array,
    mul,
    mul_array,
    point_diff_array,
    point_scale_array,
    to_row,
)
from .report import TOL_ALGEBRA, TOL_GAUGE, PropertyCheck

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
    """Worst scaled violation over n samples, SAMPLE_CHUNK at a time.

    draw(start, size) returns the inputs of samples start .. start + size - 1
    as arrays, one row per sample; violation maps them to one number per
    sample.  Violations are scaled by max(1, magnitudes) of the compared
    quantities, so tolerance is a flat number.  The witness holds the inputs
    of the first worst sample as plain floats; evaluating violation on them
    (as one-row arrays) reproduces worst_violation exactly.
    """
    worst, witness = -math.inf, None
    for start in range(0, n, SAMPLE_CHUNK):
        inputs = draw(start, min(SAMPLE_CHUNK, n - start))
        v = check_finite(violation(*inputs))
        i = int(v.argmax())
        if v[i] > worst:
            worst, witness = float(v[i]), [x[i].tolist() for x in inputs]
    return PropertyCheck(name, worst <= tolerance, worst, tolerance, witness, f"{n} samples")


def _rows(*arrays: np.ndarray) -> np.ndarray:
    """The arrays stacked row-wise, for one kernel call on all of them."""
    return np.concatenate(arrays)


def _split(a: np.ndarray, k: int) -> np.ndarray:
    """a cut into k equally long row blocks (a view): undoes _rows."""
    return a.reshape(k, -1, *a.shape[1:])


def _points(rng: np.random.Generator, box: SampleBox, count: int):
    """draw for samples of count independent box points, taken from one draw
    of count times the rows."""
    return lambda start, size: tuple(_split(box.draw(rng, count * size), count))


def _scaled_points(rng: np.random.Generator, box: SampleBox, count: int, low: float, high: float):
    """draw for samples of one scale 10^u, u uniform in [low, high], and count
    box points."""
    points = _points(rng, box, count)
    return lambda start, size: (10.0 ** rng.uniform(low, high, size=size), *points(start, size))


_IDENTITY = np.zeros((1, 3))
_IDENTITY.flags.writeable = False


def sample_triangle(dist, name: str, n: int, seed: int, box: SampleBox = SampleBox()):
    """Triangle inequality dist(p,r) <= dist(p,q) + dist(q,r) on random triples.
    dist maps two (n, 3) point arrays to n distances, row by row."""

    def violation(p, q, r):
        pr, pq, qr = _split(dist(_rows(p, p, q), _rows(r, q, r)), 3)
        return scaled_excess(pr, pq + qr)

    return _worst(name, n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 3), violation)


def sample_lipschitz_id(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """The identity map is 1-Lipschitz from the intrinsic to the gauge distance."""

    def violation(p, q):
        step = mul_array(inv_array(p), q)
        return scaled_excess(gauge_norm_array(gauge, step), intrinsic_norm_array(step))

    return _worst(
        "lipschitz-id", n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 2), violation
    )


def sample_left_invariance(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    def violation(z, p, q):
        zp, zq = _split(mul_array(_rows(z, z), _rows(p, q)), 2)
        return _gap(*_split(gauge_dist_array(gauge, _rows(zp, p), _rows(zq, q)), 2))

    return _worst(
        "left-invariance", n, TOL_ALGEBRA, _points(np.random.default_rng(seed), box, 3), violation
    )


def sample_isometry(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """flat_dist(flatten(p), flatten(q)) equals gauge_dist(p, q)."""

    def violation(p, q):
        fp, fq = _split(flatten_array(gauge, _rows(p, q)), 2)
        return _gap(flat_dist_array(gauge, fp, fq), gauge_dist_array(gauge, p, q))

    return _worst(
        "flatten-isometry", n, TOL_GAUGE, _points(np.random.default_rng(seed), box, 2), violation
    )


def _assoc_violation(prod):
    def violation(p, q, r):
        pq, qr = _split(prod(_rows(p, q), _rows(q, r)), 2)
        a, b = _split(prod(_rows(pq, p), _rows(r, qr)), 2)
        return point_diff_array(a, b) / point_scale_array(a, b)

    return violation


def sample_group_axioms(n: int, seed: int, box: SampleBox = SampleBox()):
    """Associativity, identity, inverse on random triples; three reports."""
    rng = np.random.default_rng(seed)

    def identity_violation(p):
        e = np.zeros_like(p)
        d = point_diff_array(mul_array(_rows(p, e), _rows(e, p)), _rows(p, p))
        return np.maximum(*_split(d, 2)) / point_scale_array(p)

    def inverse_violation(p):
        ip = inv_array(p)
        d = point_diff_array(mul_array(_rows(p, ip), _rows(ip, p)), _IDENTITY)
        return np.maximum(*_split(d, 2)) / point_scale_array(p)

    return [
        _worst("group-associativity", n, TOL_ALGEBRA, _points(rng, box, 3),
               _assoc_violation(mul_array)),
        _worst("group-identity", n, TOL_ALGEBRA, _points(rng, box, 1), identity_violation),
        _worst("group-inverse", n, TOL_ALGEBRA, _points(rng, box, 1), inverse_violation),
    ]


def dyadic_scales(low: int = -10, high: int = 10) -> tuple[float, ...]:
    return tuple(2.0**j for j in range(low, high + 1))


def sample_semigroup(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """gauge_dilate(eps) o gauge_dilate(mu) = gauge_dilate(eps * mu) over the
    dyadic scale grid 2^-10 .. 2^10, cycling scale pairs across n samples
    (at least one full cycle)."""
    rng = np.random.default_rng(seed)
    scales = np.array(dyadic_scales())
    pairs = len(scales) ** 2

    def draw(start, size):
        i = np.arange(start, start + size) % pairs
        return scales[i // len(scales)], scales[i % len(scales)], box.draw(rng, size)

    def violation(eps, mu, p):
        inner, b = _split(gauge_dilate_array(gauge, _rows(mu, eps * mu), _rows(p, p)), 2)
        a = gauge_dilate_array(gauge, eps, inner)
        return point_diff_array(a, b) / point_scale_array(a, b)

    return _worst("dilatation-semigroup", max(n, pairs), TOL_GAUGE, draw, violation)


def sample_homogeneity(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """gauge_norm(gauge_dilate(eps, p)) = eps * gauge_norm(p), eps in [1e-6, 1e3]."""

    def violation(eps, p):
        a, b = _split(gauge_norm_array(gauge, _rows(gauge_dilate_array(gauge, eps, p), p)), 2)
        return _gap(a, eps * b)

    draw = _scaled_points(np.random.default_rng(seed), box, 1, -6.0, 3.0)
    return _worst("dilatation-homogeneity", n, TOL_GAUGE, draw, violation)


def sample_rescale_identity(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """(1/eps) * gauge_dist(gauge_dilate(eps,p), gauge_dilate(eps,q)) equals
    gauge_norm(rescaled_product(eps, inv(p), q)); eps cycles over 2^0..2^-20."""

    def violation(eps, p, q):
        dp, dq, dip = _split(
            gauge_dilate_array(gauge, _rows(eps, eps, eps), _rows(p, q, inv_array(p))), 3
        )
        # gauge_dist(dp, dq) is the norm of inv(dp) * dq
        step, product = _split(mul_array(_rows(inv_array(dp), dip), _rows(dq, dq)), 2)
        undilated = gauge_dilate_array(gauge, 1.0 / eps, product)
        a, b = _split(gauge_norm_array(gauge, _rows(step, undilated)), 2)
        return _gap(a / eps, b)

    rng = np.random.default_rng(seed)
    scales = np.array([2.0**j for j in range(0, -21, -4)])

    points = _points(rng, box, 2)

    def draw(start, size):
        return scales[np.arange(start, start + size) % len(scales)], *points(start, size)

    return _worst("rescaled-distance-identity", n, TOL_GAUGE, draw, violation)


def sample_conjugation(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """Residual of gauge_dilate = unflatten o euclidean_dilate o flatten."""

    def violation(eps, p):
        direct = gauge_dilate_array(gauge, eps, p)
        conjugated = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, p)))
        return point_diff_array(direct, conjugated) / point_scale_array(direct, p)

    draw = _scaled_points(np.random.default_rng(seed), box, 1, -6.0, 3.0)
    return _worst("conjugation", n, TOL_GAUGE, draw, violation)


def sample_flatten_homomorphism(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """flatten(p * q) equals the transported product of the flattened points."""

    def violation(p, q):
        a, fp, fq = _split(flatten_array(gauge, _rows(mul_array(p, q), p, q)), 3)
        b = transported_mul_array(gauge, fp, fq)
        return point_diff_array(a, b) / point_scale_array(a, b)

    draw = _points(np.random.default_rng(seed), box, 2)
    return _worst("flatten-homomorphism", n, TOL_GAUGE, draw, violation)


def sample_transported_axioms(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """Associativity / identity / inverse for the transported product, plus
    homogeneity of the transported norm under the euclidean dilatation.

    The euclidean dilatation is deliberately NOT checked as an automorphism
    of the transported product: it is not one.  Conjugating that claim back
    through the flattening map would make the gauge dilatation an
    automorphism of the group itself, which already fails for the linear
    gauge on horizontal points (and would force the rescaled product to
    collapse to the plain product, emptying the whole limit question).  What
    does hold exactly is norm homogeneity, checked here.  The transported
    inverse is the plain one, (-x, -xbar).
    """
    rng = np.random.default_rng(seed)

    def product(p, q):
        return transported_mul_array(gauge, p, q)

    def unit_inverse_violation(p):
        e = np.zeros_like(p)
        d = point_diff_array(product(_rows(p, e, p), _rows(e, p, inv_array(p))), _rows(p, p, e))
        right, left, inverse = _split(d, 3)
        return np.maximum(np.maximum(right, left), inverse) / point_scale_array(p)

    def norm_homogeneity_violation(eps, p):
        a, b = _split(flat_norm_array(_rows(euclidean_dilate_array(eps, p), p)), 2)
        return _gap(a, eps * b)

    return [
        _worst("transported-associativity", n, TOL_GAUGE, _points(rng, box, 3),
               _assoc_violation(product)),
        _worst("transported-unit-inverse", n, TOL_GAUGE, _points(rng, box, 1),
               unit_inverse_violation),
        _worst("transported-norm-homogeneity", n, TOL_ALGEBRA,
               _scaled_points(rng, box, 1, -3.0, 3.0), norm_homogeneity_violation),
    ]


def sample_intrinsic_dilation(n: int, seed: int, box: SampleBox = SampleBox()):
    """The intrinsic dilatation is a group automorphism scaling intrinsic_dist."""

    def violation(eps, p, q):
        dp, dq = _split(dilate_array(_rows(eps, eps), _rows(p, q)), 2)
        a, b = _split(intrinsic_dist_array(_rows(dp, p), _rows(dq, q)), 2)
        return _gap(a, eps * b)

    draw = _scaled_points(np.random.default_rng(seed), box, 2, -3.0, 3.0)
    return _worst("intrinsic-dilation-scaling", n, TOL_ALGEBRA, draw, violation)


def sample_battery(gauge: Gauge, n: int, seed: int, box: SampleBox = SampleBox()):
    """The verify battery: each sampler above on n samples from box, in report
    order, all drawing in turn from one generator seeded with seed, on a
    verified gauge."""
    rng = np.random.default_rng(seed)
    return [
        *sample_group_axioms(n, rng, box),
        sample_intrinsic_dilation(n, rng, box),
        sample_triangle(intrinsic_dist_array, "triangle-intrinsic", n, rng, box),
        sample_triangle(partial(gauge_dist_array, gauge), "triangle-gauge", n, rng, box),
        sample_triangle(partial(flat_dist_array, gauge), "triangle-transported", n, rng, box),
        sample_lipschitz_id(gauge, n, rng, box),
        sample_left_invariance(gauge, n, rng, box),
        sample_isometry(gauge, n, rng, box),
        sample_semigroup(gauge, n, rng, box),
        sample_homogeneity(gauge, n, rng, box),
        sample_rescale_identity(gauge, n, rng, box),
        sample_conjugation(gauge, n, rng, box),
        sample_flatten_homomorphism(gauge, n, rng, box),
        *sample_transported_axioms(gauge, n, rng, box),
    ]
