"""Dilatation families, the rescaled product, and the flattening conjugation,
on the array kernels at one or a few points, each a (1, 3) row."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from h1gauge.dilatations import (
    dilate_array,
    euclidean_dilate_array,
    flatten_array,
    gauge_dilate_array,
    rescaled_product,
    transported_mul_array,
    unflatten_array,
)
from h1gauge.gauges import linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import identity, inv_array, mul, mul_array, point, to_row
from reference import point_close, point_diff_rows, point_scale_rows

LIN = linear_gauge()
OSC = oscillatory_gauge()
E = to_row(identity())

coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
points = st.builds(point, coord, coord, coord)
rows = points.map(to_row)
eps_values = st.floats(min_value=1e-4, max_value=1e2)


def row(x1, x2, xbar):
    return to_row(point(x1, x2, xbar))


def close(a, b, tol):
    """The rows a and b agree within tol, scaled by max(1, |components|)."""
    return point_diff_rows(a, b)[0] <= tol * point_scale_rows(a, b)[0]


def test_sgn_convention():
    # the vertical maps are odd with sgn(0) = 0, which keeps every dilatation
    # family continuous at xbar = 0
    for vertical_map in (lambda p: gauge_dilate_array(LIN, 0.5, p),
                         lambda p: flatten_array(LIN, p), lambda p: unflatten_array(LIN, p)):
        assert vertical_map(row(1, 0, 3.5))[0, 2] > 0.0
        assert vertical_map(row(1, 0, -0.2))[0, 2] < 0.0
        assert vertical_map(row(1, 0, 0.0))[0, 2] == 0.0


def test_intrinsic_dilate_frozen_example():
    assert dilate_array(0.5, row(2, 0, 4)).tolist() == [[1, 0, 1]]
    assert dilate_array(1.0, row(2, 0, 4)).tolist() == [[2, 0, 4]]


def test_gauge_dilate_frozen_example():
    # g(6)=2, halve to 1, profile back: G(1)=2
    assert gauge_dilate_array(LIN, 0.5, row(2, 0, 6)).tolist() == [[1, 0, 2]]
    assert gauge_dilate_array(LIN, 1.0, row(2, 0, 6)).tolist() == [[2, 0, 6]]
    assert gauge_dilate_array(LIN, 0.5, E).tolist() == E.tolist()


def test_euclidean_dilate_frozen_example():
    assert euclidean_dilate_array(0.5, row(2, 0, 6)).tolist() == [[1, 0, 3]]


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_eps_rejected(eps):
    p = row(1, 1, 1)
    with pytest.raises(ValueError):
        dilate_array(eps, p)
    with pytest.raises(ValueError):
        gauge_dilate_array(LIN, eps, p)
    with pytest.raises(ValueError):
        euclidean_dilate_array(eps, p)


@given(rows, rows, eps_values)
def test_intrinsic_dilate_is_automorphism(p, q, eps):
    a = dilate_array(eps, mul_array(p, q))
    b = mul_array(dilate_array(eps, p), dilate_array(eps, q))
    assert close(a, b, 1e-12)


@given(rows, eps_values, eps_values)
def test_gauge_dilate_semigroup(p, e1, e2):
    a = gauge_dilate_array(LIN, e1, gauge_dilate_array(LIN, e2, p))
    b = gauge_dilate_array(LIN, e1 * e2, p)
    assert close(a, b, 1e-9)


def gauge_dilate_at(gauge, eps, base, q):
    """The gauge dilatation of scale eps centered at base: the paper's
    dilatation family based at an arbitrary point, obtained from the one at
    the identity by conjugating with the left translation by base."""
    return mul_array(base, gauge_dilate_array(gauge, eps, mul_array(inv_array(base), q)))


def test_gauge_dilate_at_frozen_example():
    # base-relative dilatation: shift to the base, dilate, shift back
    got = gauge_dilate_at(LIN, 0.5, row(1, 0, 0), row(1, 0, 6))
    assert close(got, row(1, 0, 2), 1e-12)


def test_gauge_dilate_at_fixes_base():
    base = row(0.3, -0.4, 1.7)
    assert close(gauge_dilate_at(OSC, 0.25, base, base), base, 1e-12)


@given(rows, rows)
def test_gauge_dilate_at_left_equivariance(b, q):
    z = row(0.5, -1.5, 2.0)
    a = mul_array(z, gauge_dilate_at(LIN, 0.5, b, q))
    c = gauge_dilate_at(LIN, 0.5, mul_array(z, b), mul_array(z, q))
    assert close(a, c, 1e-9)


def test_rescaled_product_at_eps_one_is_mul():
    p, q = point(1, 2, 3), point(-0.5, 0.25, -2)
    assert point_close(rescaled_product(LIN, 1.0, p, q), mul(p, q), 1e-12)
    assert point_close(rescaled_product(OSC, 1.0, p, q), mul(p, q), 1e-9)


def test_rescaled_product_frozen_example():
    # halve both factors, multiply, double back: vertical is G(2*g(0.5))
    got = rescaled_product(LIN, 0.5, point(1, 0, 0), point(0, 1, 0))
    g_half = 2.0 * 0.5 / (1.0 + math.sqrt(3.0))
    want_vert = 2.0 * g_half + (2.0 * g_half) ** 2
    assert got.x1 == 1.0 and got.x2 == 1.0
    assert got.xbar == pytest.approx(want_vert, abs=1e-12)
    assert got.xbar == pytest.approx(1.2679492, abs=1e-6)


def test_rescaled_product_of_identities():
    assert rescaled_product(OSC, 0.125, identity(), identity()) == identity()


# --- flattening map and the transported group ---------------------------------

def test_flatten_frozen_values():
    assert flatten_array(LIN, row(1, 0, 6)).tolist() == [[1, 0, 2]]
    assert unflatten_array(LIN, row(1, 0, 2)).tolist() == [[1, 0, 6]]
    assert flatten_array(LIN, E).tolist() == E.tolist()
    assert flatten_array(LIN, row(0, 0, -6)).tolist() == [[0, 0, -2]]  # odd in the vertical


@given(rows)
def test_flatten_round_trip(p):
    back = unflatten_array(LIN, flatten_array(LIN, p))
    assert close(back, p, 1e-9)


@settings(max_examples=50)
@given(rows)
def test_flatten_round_trip_oscillatory(p):
    back = unflatten_array(OSC, flatten_array(OSC, p))
    assert close(back, p, 1e-9)


def test_transported_mul_frozen_example():
    # untransported product of the two unit horizontals has vertical 2; g(2)=1
    got = transported_mul_array(LIN, row(1, 0, 0), row(0, 1, 0))
    assert close(got, row(1, 1, 1), 1e-12)


def test_transported_inverse_is_negation():
    # the plain inverse (-x, -xbar) is also the transported group inverse
    p = row(3, 4, 5)
    assert inv_array(p).tolist() == [[-3, -4, -5]]
    prod = transported_mul_array(LIN, p, inv_array(p))
    assert close(prod, E, 1e-9)


def _conjugation_residual(gauge, eps, p):
    """Max componentwise gap between the gauge dilatation and its conjugated
    form unflatten(euclidean_dilate(flatten(p)))."""
    conjugated = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, p)))
    return point_diff_rows(gauge_dilate_array(gauge, eps, p), conjugated)[0]


@given(rows, eps_values)
def test_conjugation_identity(p, eps):
    # gauge dilatation = unflatten . euclidean . flatten, pointwise
    assert _conjugation_residual(LIN, eps, p) <= 1e-9 * point_scale_rows(p)[0]


def test_conjugation_at_eps_one_is_tight():
    p = row(0.7, -0.2, 3.3)
    assert _conjugation_residual(LIN, 1.0, p) <= 1e-12
    assert _conjugation_residual(OSC, 1.0, p) <= 1e-12
