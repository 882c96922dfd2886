"""Dilatation families on H(1), the rescaled product, and the flattening map.

Three one-parameter families act on the group: the intrinsic dilatation
(horizontal by eps, vertical by eps^2), the gauge dilatation (vertical moves
along the gauge profile), and the euclidean dilatation (every component by
eps).  The flattening map reparametrizes the vertical axis by g, conjugating
the gauge dilatation into the euclidean one and transporting the group law.

The *_array functions are the same maps on (n, 3) point arrays; eps may be
one scale or one scale per row.
"""

from __future__ import annotations

import math

import numpy as np

from .gauges import (
    Gauge,
    g_array,
    g_eval,
    g_inverse_array,
    g_inverse_eval,
    require_verified,
)
from .heisenberg import H1Point, inv, mul, mul_array, points_array


def sgn(x: float) -> float:
    """Sign with sgn(0) = 0."""
    return float((x > 0.0) - (x < 0.0))


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"dilatation scale must be positive and finite, got {eps!r}")


def dilate(eps: float, p: H1Point) -> H1Point:
    """Intrinsic dilatation: (eps * x, eps^2 * xbar).  A group automorphism."""
    _check_eps(eps)
    return H1Point(eps * p.x1, eps * p.x2, eps * eps * p.xbar)


def euclidean_dilate(eps: float, p: H1Point) -> H1Point:
    """Componentwise scaling (eps * x, eps * xbar)."""
    _check_eps(eps)
    return H1Point(eps * p.x1, eps * p.x2, eps * p.xbar)


def gauge_dilate(gauge: Gauge, eps: float, p: H1Point) -> H1Point:
    """Gauge dilatation: vertical part sgn(xbar) * G(eps * g(|xbar|))."""
    _check_eps(eps)
    require_verified(gauge)
    if p.xbar == 0.0:
        vert = 0.0
    else:
        vert = sgn(p.xbar) * g_inverse_eval(gauge, eps * g_eval(gauge, abs(p.xbar)))
    return H1Point(eps * p.x1, eps * p.x2, vert)


def gauge_dilate_at(gauge: Gauge, eps: float, base: H1Point, q: H1Point) -> H1Point:
    """Gauge dilatation centered at base, conjugated by left translation."""
    return mul(base, gauge_dilate(gauge, eps, mul(inv(base), q)))


def rescaled_product(gauge: Gauge, eps: float, p: H1Point, q: H1Point) -> H1Point:
    """Dilate both points by eps, multiply, undilate the product by 1/eps."""
    _check_eps(eps)
    return gauge_dilate(
        gauge, 1.0 / eps, mul(gauge_dilate(gauge, eps, p), gauge_dilate(gauge, eps, q))
    )


def flatten(gauge: Gauge, p: H1Point) -> H1Point:
    """Vertical reparametrization (x, xbar) -> (x, sgn(xbar) * g(|xbar|))."""
    require_verified(gauge)
    if p.xbar == 0.0:
        return H1Point(p.x1, p.x2, 0.0)
    return H1Point(p.x1, p.x2, sgn(p.xbar) * g_eval(gauge, abs(p.xbar)))


def unflatten(gauge: Gauge, p: H1Point) -> H1Point:
    """Inverse reparametrization (x, t) -> (x, sgn(t) * (t^2 + k(|t|)))."""
    require_verified(gauge)
    if p.xbar == 0.0:
        return H1Point(p.x1, p.x2, 0.0)
    return H1Point(p.x1, p.x2, sgn(p.xbar) * g_inverse_eval(gauge, abs(p.xbar)))


def transported_mul(gauge: Gauge, p: H1Point, q: H1Point) -> H1Point:
    """Group product transported through the flattening map."""
    return flatten(gauge, mul(unflatten(gauge, p), unflatten(gauge, q)))


def conjugation_residual(gauge: Gauge, eps: float, p: H1Point) -> float:
    """Max componentwise gap between the gauge dilatation and its conjugated
    form unflatten(euclidean_dilate(flatten(p)))."""
    direct = gauge_dilate(gauge, eps, p)
    conjugated = unflatten(gauge, euclidean_dilate(eps, flatten(gauge, p)))
    return max(
        abs(direct.x1 - conjugated.x1),
        abs(direct.x2 - conjugated.x2),
        abs(direct.xbar - conjugated.xbar),
    )


# --- (n, 3) arrays, one point per row ---------------------------------------


def _check_eps_array(eps) -> None:
    eps = np.asarray(eps)
    if not (np.isfinite(eps) & (eps > 0.0)).all():
        raise ValueError("dilatation scales must be positive and finite")


def dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """dilate row by row."""
    _check_eps_array(eps)
    return points_array(eps * p[:, 0], eps * p[:, 1], eps * eps * p[:, 2])


def euclidean_dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """euclidean_dilate row by row."""
    _check_eps_array(eps)
    return points_array(eps * p[:, 0], eps * p[:, 1], eps * p[:, 2])


def gauge_dilate_array(gauge: Gauge, eps, p: np.ndarray) -> np.ndarray:
    """gauge_dilate row by row."""
    _check_eps_array(eps)
    require_verified(gauge)
    xbar = p[:, 2]
    vert = np.sign(xbar) * g_inverse_array(gauge, eps * g_array(gauge, np.abs(xbar)))
    return points_array(eps * p[:, 0], eps * p[:, 1], vert)


def flatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """flatten row by row."""
    require_verified(gauge)
    xbar = p[:, 2]
    return points_array(p[:, 0], p[:, 1], np.sign(xbar) * g_array(gauge, np.abs(xbar)))


def unflatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """unflatten row by row."""
    require_verified(gauge)
    t = p[:, 2]
    return points_array(p[:, 0], p[:, 1], np.sign(t) * g_inverse_array(gauge, np.abs(t)))


def transported_mul_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """transported_mul row by row; a (1, 3) operand broadcasts."""
    return flatten_array(gauge, mul_array(unflatten_array(gauge, p), unflatten_array(gauge, q)))
