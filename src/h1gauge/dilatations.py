"""Dilatation families on H(1), the rescaled product, and the flattening map.

Three one-parameter families act on the group: the intrinsic dilatation
(horizontal by eps, vertical by eps^2), the gauge dilatation (vertical moves
along the gauge profile), and the euclidean dilatation (every component by
eps).  The flattening map reparametrizes the vertical axis by g, conjugating
the gauge dilatation into the euclidean one and transporting the group law.

The *_array functions hold the formulas and act on (n, 3) point arrays; eps
may be one scale or one scale per row.  dilate, euclidean_dilate,
gauge_dilate, flatten, unflatten and transported_mul are one-row calls into
them; gauge_dilate_at and rescaled_product compose those.
"""

from __future__ import annotations

import numpy as np

from .gauges import Gauge, g_array, g_inverse_array, require_verified
from .heisenberg import H1Point, from_row, inv, mul, mul_array, points_array, to_row


def dilate(eps: float, p: H1Point) -> H1Point:
    """Intrinsic dilatation: one row of dilate_array."""
    return from_row(dilate_array(eps, to_row(p)))


def euclidean_dilate(eps: float, p: H1Point) -> H1Point:
    """Euclidean dilatation: one row of euclidean_dilate_array."""
    return from_row(euclidean_dilate_array(eps, to_row(p)))


def gauge_dilate(gauge: Gauge, eps: float, p: H1Point) -> H1Point:
    """Gauge dilatation: one row of gauge_dilate_array."""
    return from_row(gauge_dilate_array(gauge, eps, to_row(p)))


def gauge_dilate_at(gauge: Gauge, eps: float, base: H1Point, q: H1Point) -> H1Point:
    """The gauge dilatation of scale eps centered at base: the paper's
    dilatation family based at an arbitrary point, obtained from the one at
    the identity by conjugating with the left translation by base."""
    return mul(base, gauge_dilate(gauge, eps, mul(inv(base), q)))


def rescaled_product(gauge: Gauge, eps: float, p: H1Point, q: H1Point) -> H1Point:
    """Dilate both points by eps, multiply, undilate the product by 1/eps."""
    product = mul(gauge_dilate(gauge, eps, p), gauge_dilate(gauge, eps, q))
    return gauge_dilate(gauge, 1.0 / eps, product)


def flatten(gauge: Gauge, p: H1Point) -> H1Point:
    """The flattening map: one row of flatten_array."""
    return from_row(flatten_array(gauge, to_row(p)))


def unflatten(gauge: Gauge, p: H1Point) -> H1Point:
    """The inverse of the flattening map: one row of unflatten_array."""
    return from_row(unflatten_array(gauge, to_row(p)))


def transported_mul(gauge: Gauge, p: H1Point, q: H1Point) -> H1Point:
    """The transported group product: one row of transported_mul_array."""
    return from_row(transported_mul_array(gauge, to_row(p), to_row(q)))


# --- (n, 3) arrays, one point per row ---------------------------------------


def _check_eps_array(eps) -> None:
    eps = np.asarray(eps)
    if not (np.isfinite(eps) & (eps > 0.0)).all():
        raise ValueError("dilatation scales must be positive and finite")


def dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """Intrinsic dilatation (eps * x, eps^2 * xbar), row by row.  A group
    automorphism."""
    _check_eps_array(eps)
    return points_array(eps * p[:, 0], eps * p[:, 1], eps * eps * p[:, 2])


def euclidean_dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """Componentwise scaling (eps * x, eps * xbar), row by row."""
    _check_eps_array(eps)
    return points_array(eps * p[:, 0], eps * p[:, 1], eps * p[:, 2])


def gauge_dilate_array(gauge: Gauge, eps, p: np.ndarray) -> np.ndarray:
    """Gauge dilatation, row by row: horizontal part scaled by eps, vertical
    part sgn(xbar) * G(eps * g(|xbar|)) with sgn(0) = 0."""
    _check_eps_array(eps)
    require_verified(gauge)
    xbar = p[:, 2]
    vert = np.sign(xbar) * g_inverse_array(gauge, eps * g_array(gauge, np.abs(xbar)))
    return points_array(eps * p[:, 0], eps * p[:, 1], vert)


def flatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """Vertical reparametrization (x, xbar) -> (x, sgn(xbar) * g(|xbar|)),
    row by row."""
    require_verified(gauge)
    xbar = p[:, 2]
    return points_array(p[:, 0], p[:, 1], np.sign(xbar) * g_array(gauge, np.abs(xbar)))


def unflatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """Inverse reparametrization (x, t) -> (x, sgn(t) * (t^2 + k(|t|))), row
    by row."""
    require_verified(gauge)
    t = p[:, 2]
    return points_array(p[:, 0], p[:, 1], np.sign(t) * g_inverse_array(gauge, np.abs(t)))


def transported_mul_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product transported through the flattening map, row by row; a
    (1, 3) operand broadcasts."""
    return flatten_array(gauge, mul_array(unflatten_array(gauge, p), unflatten_array(gauge, q)))
