import math

import pytest
from hypothesis import given, strategies as st

from h1gauge.heisenberg import (
    IDENTITY, H1Point, from_row, identity, inv_array, mul, mul_array, point, symplectic_area, to_row,
)
from reference import point_close, point_diff

coord = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
points = st.builds(H1Point, coord, coord, coord)


def test_frozen_oracle_product():
    # (1,2,3)(4,5,6): horizontal (5,7); vertical 3+6+2*(1*5-2*4) = 3
    assert mul(point(1, 2, 3), point(4, 5, 6)) == point(5, 7, 3)


def test_identity_and_inverse_are_exact():
    p = point(0.3, -1.7, 2.9)
    ip = from_row(inv_array(to_row(p)))
    assert mul(p, IDENTITY) == p
    assert mul(IDENTITY, p) == p
    assert mul(p, ip) == identity()
    assert mul(ip, p) == identity()


@given(points, points, points)
def test_associativity(p, q, r):
    a = mul(mul(p, q), r)
    b = mul(p, mul(q, r))
    assert point_diff(a, b) <= 1e-12 * max(
        1.0, *(abs(c) for c in a.as_tuple()), *(abs(c) for c in b.as_tuple())
    )


@given(points, points)
def test_inverse_of_product(p, q):
    p, q = to_row(p), to_row(q)
    a = inv_array(mul_array(p, q))
    b = mul_array(inv_array(q), inv_array(p))
    assert point_close(from_row(a), from_row(b), 1e-12)


@given(st.tuples(coord, coord), st.tuples(coord, coord))
def test_symplectic_antisymmetry_is_exact(a, b):
    assert symplectic_area(a, b) == -symplectic_area(b, a)


def test_symplectic_standard_basis():
    assert symplectic_area((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert symplectic_area((1.0, 0.0), (1.0, 0.0)) == 0.0


def test_horizontal_norm():
    assert point(3, 4, 99).horizontal_norm() == 5.0
    assert identity().horizontal_norm() == 0.0


def test_vertical_commutator():
    # purely horizontal points generate vertical displacement: the group is
    # nonabelian exactly through the symplectic area
    p, q = point(1, 0, 0), point(0, 1, 0)
    assert mul(p, q) == point(1, 1, 2)
    assert mul(q, p) == point(1, 1, -2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_coordinates_rejected(bad):
    with pytest.raises(ValueError):
        H1Point(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        H1Point(0.0, 0.0, bad)


def test_as_tuple_and_horizontal():
    p = point(1.5, -2.5, 3.5)
    assert p.as_tuple() == (1.5, -2.5, 3.5)
    assert p.horizontal == (1.5, -2.5)
