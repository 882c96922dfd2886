"""Dilatation families on H(1), the rescaled product, and the flattening map.

Three one-parameter families act on the group: the intrinsic dilatation
(horizontal by eps, vertical by eps^2), the gauge dilatation (vertical moves
along the gauge profile), and the euclidean dilatation (every component by
eps).  The flattening map reparametrizes the vertical axis by g, conjugating
the gauge dilatation into the euclidean one and transporting the group law.

The *_array functions hold the formulas and act on (n, 3) point arrays; eps
may be one scale or one scale per row.  dilate, euclidean_dilate,
gauge_dilate, flatten, unflatten and transported_mul are one-row calls into
them; gauge_dilate_at and rescaled_product compose those.  Each *_array
kernel is its scale check (_check_eps), require_verified and check_finite
around a private unchecked body (_dilate, _euclidean_dilate, _gauge_dilate,
_flatten, _unflatten, _transported_mul) that holds its formula; the
composites and the verify battery's violations call the bodies and check only
their own result, once.
"""

from __future__ import annotations

import numpy as np

from .gauges import Gauge, _g, _G, require_verified
from .heisenberg import (
    H1Point, _mul, _rows, _split, check_finite, from_row, inv, mul, to_row,
)


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


def _check_eps(eps) -> None:
    """Raise ValueError unless every scale of eps (one, or one per row) is
    positive and finite: the least and the greatest scale are tested, read at
    argmin and argmax, which both find the first NaN.  An empty eps passes."""
    flat = np.asarray(eps).ravel()
    if flat.size and not (flat[flat.argmin()] > 0.0 and flat[flat.argmax()] < np.inf):
        raise ValueError("dilatation scales must be positive and finite")


# The unchecked bodies of the dilatation kernels: eps is one scale or one per
# row, and each public kernel is its scale check and check_finite around one.
def _dilate(eps, p: np.ndarray) -> np.ndarray:
    e = np.asarray(eps)[..., None]
    return p * np.concatenate((e, e, e * e), axis=-1)


def _euclidean_dilate(eps, p: np.ndarray) -> np.ndarray:
    return p * np.asarray(eps)[..., None]


def _gauge_dilate(gauge: Gauge, eps, p: np.ndarray) -> np.ndarray:
    # the horizontal part scales as the euclidean dilatation's does
    xbar = p[:, 2]
    out = _euclidean_dilate(eps, p)
    out[:, 2] = np.sign(xbar) * _G(gauge, eps * _g(gauge, np.abs(xbar)))
    return out


def dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """Intrinsic dilatation (eps * x, eps^2 * xbar), row by row.  A group
    automorphism."""
    _check_eps(eps)
    return check_finite(_dilate(eps, p))


def euclidean_dilate_array(eps, p: np.ndarray) -> np.ndarray:
    """Componentwise scaling (eps * x, eps * xbar), row by row."""
    _check_eps(eps)
    return check_finite(_euclidean_dilate(eps, p))


def gauge_dilate_array(gauge: Gauge, eps, p: np.ndarray) -> np.ndarray:
    """Gauge dilatation, row by row: horizontal part scaled by eps, vertical
    part sgn(xbar) * G(eps * g(|xbar|)) with sgn(0) = 0."""
    _check_eps(eps)
    require_verified(gauge)
    return check_finite(_gauge_dilate(gauge, eps, p))


def _flatten(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    out = p.copy()
    xbar = p[:, 2]
    out[:, 2] = np.sign(xbar) * _g(gauge, np.abs(xbar))
    return out


def _unflatten(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    out = p.copy()
    t = p[:, 2]
    out[:, 2] = np.sign(t) * _G(gauge, np.abs(t))
    return out


def flatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """Vertical reparametrization (x, xbar) -> (x, sgn(xbar) * g(|xbar|)),
    row by row."""
    require_verified(gauge)
    return check_finite(_flatten(gauge, p))


def unflatten_array(gauge: Gauge, p: np.ndarray) -> np.ndarray:
    """Inverse reparametrization (x, t) -> (x, sgn(t) * (t^2 + k(|t|))), row
    by row."""
    require_verified(gauge)
    return check_finite(_unflatten(gauge, p))


def _transported_mul(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if len(p) != len(q):  # a (1, 3) operand is repeated to the other's length
        p, q = np.broadcast_arrays(p, q)
    return _flatten(gauge, _mul(*_split(_unflatten(gauge, _rows(p, q)), 2)))


def transported_mul_array(gauge: Gauge, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product transported through the flattening map, row by row; a
    (1, 3) operand broadcasts.  Both operands are unflattened in one call on
    their rows stacked."""
    require_verified(gauge)
    return check_finite(_transported_mul(gauge, p, q))
