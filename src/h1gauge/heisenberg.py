"""The first Heisenberg group: points, symplectic area, group law.

H1Point is the validated value type at the API boundary: the type of a
probe's or the CLI's point arguments.  The *_array functions hold the
formulas and act on (n, 3) float arrays, one point per row; every array they
return passes check_finite, the array form of the H1Point invariant.  to_row
and from_row carry a point to a (1, 3) array and back; mul, the one group
operation on H1Points, is one row of mul_array.

Guard policy: a public kernel checks its result, not its inputs, once, with
one finiteness test (check_finite: np.isfinite, then np.count_nonzero against
the size, which costs less per call than a ufunc reduction).  A NaN or an
infinity in an input, and an overflow on the way, all reach the result, so
each raises the same ValueError there.  Each public kernel is that check
around a private unchecked body (_points, _mul, _inv, _point_diff,
_point_scale) that holds its formula; composite kernels and the verify
battery's violations call the bodies and check only their own result.

A row maximum (point_diff_array, point_scale_array) is a reduction over the
leading axis of the transposed, contiguous copy: numpy takes it as a few
elementwise maxima of whole columns, where .max(axis=1) would reduce each
3- or 6-wide row in turn.  max is exact and a NaN propagates either way, so
the result is bit-identical.
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
        # np.hypot, as in the array norms, so both round alike
        return float(np.hypot(self.x1, self.x2))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.xbar)


IDENTITY = H1Point(0.0, 0.0, 0.0)


def identity() -> H1Point:
    return IDENTITY


def point(x1: float, x2: float, xbar: float) -> H1Point:
    return H1Point(float(x1), float(x2), float(xbar))


def symplectic_area(a, b):
    """Signed area a1*b2 - a2*b1 of two planar vectors (or of two columns of
    vectors, one per entry)."""
    return a[0] * b[1] - a[1] * b[0]


def mul(p: H1Point, q: H1Point) -> H1Point:
    """Group product: one row of mul_array."""
    return from_row(mul_array(to_row(p), to_row(q)))


# --- (n, 3) arrays, one point per row ---------------------------------------


def to_row(p: H1Point) -> np.ndarray:
    """p as a (1, 3) point array."""
    return np.array([p.as_tuple()])


def from_row(a: np.ndarray) -> H1Point:
    """The point in the first row of a."""
    return H1Point(*a[0].tolist())


def check_finite(a: np.ndarray) -> np.ndarray:
    """Return a unchanged; raise ValueError if it holds a NaN or an infinity."""
    finite = np.isfinite(a)
    if np.count_nonzero(finite) != finite.size:
        raise ValueError("non-finite value in array")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """Return a, made read-only in place."""
    a.flags.writeable = False
    return a


def _points(x1: np.ndarray, x2: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    return np.array((x1, x2, xbar)).T


def points_array(x1: np.ndarray, x2: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """The (n, 3) array with columns x1, x2, xbar (equally long, checked)."""
    return check_finite(_points(x1, x2, xbar))


def _rows(*arrays: np.ndarray) -> np.ndarray:
    """The arrays stacked row-wise, for one kernel call on all of them."""
    return np.concatenate(arrays)


def _split(a: np.ndarray, k: int) -> np.ndarray:
    """a cut into k equally long row blocks (a view): undoes _rows."""
    return a.reshape(k, -1, *a.shape[1:])


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = p + q
    vertical = out[:, 2]
    vertical += 2.0 * symplectic_area(p.T, q.T)
    return out


def mul_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product row by row: horizontals add, verticals add plus twice
    the symplectic area.  A (1, 3) operand broadcasts against (n, 3)."""
    return check_finite(_mul(p, q))


def _inv(p: np.ndarray) -> np.ndarray:
    return -p


def inv_array(p: np.ndarray) -> np.ndarray:
    return check_finite(_inv(p))


def _point_diff(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.abs(p - q).T.copy(), axis=0)


def point_diff_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Max componentwise absolute difference, row by row."""
    return check_finite(_point_diff(p, q))


def _point_scale(*points: np.ndarray) -> np.ndarray:
    rows = np.abs(np.concatenate(points, axis=1))
    return np.maximum.reduce(rows.T.copy(), axis=0, initial=1.0)


def point_scale_array(*points: np.ndarray) -> np.ndarray:
    """Normalization max(1, |components|) for scaled comparisons, row by row
    over equally long point arrays."""
    return check_finite(_point_scale(*points))
