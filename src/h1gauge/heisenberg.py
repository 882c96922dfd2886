"""The first Heisenberg group: points, symplectic area, group law.

H1Point is the validated value type at the API boundary.  The *_array
functions are the same operations on (n, 3) float arrays, one point per row;
every array they return passes check_finite, the array form of the H1Point
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class H1Point:
    """Group element with horizontal part (x1, x2) and vertical part xbar."""

    x1: float
    x2: float
    xbar: float

    def __post_init__(self):
        # no NaN/infinity admitted into any operation
        for c in (self.x1, self.x2, self.xbar):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component {c!r} in H1Point")

    @property
    def horizontal(self) -> tuple[float, float]:
        return (self.x1, self.x2)

    def horizontal_norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.xbar)


IDENTITY = H1Point(0.0, 0.0, 0.0)


def identity() -> H1Point:
    return IDENTITY


def point(x1: float, x2: float, xbar: float) -> H1Point:
    return H1Point(float(x1), float(x2), float(xbar))


def symplectic_area(a, b) -> float:
    """Signed area a1*b2 - a2*b1 of two planar vectors."""
    return a[0] * b[1] - a[1] * b[0]


def mul(p: H1Point, q: H1Point) -> H1Point:
    """Group product: horizontals add, verticals add plus twice the symplectic area."""
    return H1Point(
        p.x1 + q.x1,
        p.x2 + q.x2,
        p.xbar + q.xbar + 2.0 * symplectic_area(p.horizontal, q.horizontal),
    )


def inv(p: H1Point) -> H1Point:
    return H1Point(-p.x1, -p.x2, -p.xbar)


def point_diff(p: H1Point, q: H1Point) -> float:
    """Max componentwise absolute difference."""
    return max(abs(p.x1 - q.x1), abs(p.x2 - q.x2), abs(p.xbar - q.xbar))


def point_scale(*points: H1Point) -> float:
    """Normalization max(1, |components|) for scaled comparisons."""
    mags = [1.0]
    for p in points:
        mags.extend((abs(p.x1), abs(p.x2), abs(p.xbar)))
    return max(mags)


def point_close(p: H1Point, q: H1Point, tol: float) -> bool:
    return point_diff(p, q) <= tol * point_scale(p, q)


# --- (n, 3) arrays, one point per row ---------------------------------------


def check_finite(a: np.ndarray) -> np.ndarray:
    """Return a unchanged; raise ValueError if it holds a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise ValueError("non-finite value in array")
    return a


def points_array(x1: np.ndarray, x2: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """The (n, 3) array with columns x1, x2, xbar (equally long, checked)."""
    return check_finite(np.array((x1, x2, xbar)).T)


def mul_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """mul row by row; a (1, 3) operand broadcasts against (n, 3)."""
    x1, x2, xbar = p.T
    y1, y2, ybar = q.T
    return points_array(x1 + y1, x2 + y2, xbar + ybar + 2.0 * (x1 * y2 - x2 * y1))


def inv_array(p: np.ndarray) -> np.ndarray:
    return check_finite(-p)


def point_diff_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """point_diff row by row."""
    return check_finite(np.abs(p - q).max(axis=1))


def point_scale_array(*points: np.ndarray) -> np.ndarray:
    """point_scale row by row over equally long point arrays."""
    return check_finite(np.maximum(1.0, np.abs(np.concatenate(points, axis=1)).max(axis=1)))
