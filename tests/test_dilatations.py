"""Dilatation families, the rescaled product, and the flattening conjugation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from h1gauge.dilatations import (
    conjugation_residual,
    dilate,
    euclidean_dilate,
    flatten,
    gauge_dilate,
    gauge_dilate_at,
    rescaled_product,
    sgn,
    transported_mul,
    unflatten,
)
from h1gauge.gauges import linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import identity, inv, mul, point, point_close, point_diff, point_scale

LIN = linear_gauge()
OSC = oscillatory_gauge()

coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
points = st.builds(point, coord, coord, coord)
eps_values = st.floats(min_value=1e-4, max_value=1e2)


def test_sgn_convention():
    assert sgn(3.5) == 1.0
    assert sgn(-0.2) == -1.0
    assert sgn(0.0) == 0.0  # keeps every dilatation family continuous at xbar=0


def test_intrinsic_dilate_frozen_example():
    assert dilate(0.5, point(2, 0, 4)) == point(1, 0, 1)
    assert dilate(1.0, point(2, 0, 4)) == point(2, 0, 4)


def test_gauge_dilate_frozen_example():
    # g(6)=2, halve to 1, profile back: G(1)=2
    assert gauge_dilate(LIN, 0.5, point(2, 0, 6)) == point(1, 0, 2)
    assert gauge_dilate(LIN, 1.0, point(2, 0, 6)) == point(2, 0, 6)
    assert gauge_dilate(LIN, 0.5, identity()) == identity()


def test_euclidean_dilate_frozen_example():
    assert euclidean_dilate(0.5, point(2, 0, 6)) == point(1, 0, 3)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_eps_rejected(eps):
    p = point(1, 1, 1)
    with pytest.raises(ValueError):
        dilate(eps, p)
    with pytest.raises(ValueError):
        gauge_dilate(LIN, eps, p)
    with pytest.raises(ValueError):
        euclidean_dilate(eps, p)


@given(points, points, eps_values)
def test_intrinsic_dilate_is_automorphism(p, q, eps):
    a = dilate(eps, mul(p, q))
    b = mul(dilate(eps, p), dilate(eps, q))
    assert point_diff(a, b) <= 1e-12 * point_scale(a, b)


@given(points, eps_values, eps_values)
def test_gauge_dilate_semigroup(p, e1, e2):
    a = gauge_dilate(LIN, e1, gauge_dilate(LIN, e2, p))
    b = gauge_dilate(LIN, e1 * e2, p)
    assert point_diff(a, b) <= 1e-9 * point_scale(a, b)


def test_gauge_dilate_at_frozen_example():
    # base-relative dilatation: shift to the base, dilate, shift back
    got = gauge_dilate_at(LIN, 0.5, point(1, 0, 0), point(1, 0, 6))
    assert point_close(got, point(1, 0, 2), 1e-12)


def test_gauge_dilate_at_fixes_base():
    base = point(0.3, -0.4, 1.7)
    assert point_close(gauge_dilate_at(OSC, 0.25, base, base), base, 1e-12)


@given(points, points)
def test_gauge_dilate_at_left_equivariance(b, q):
    z = point(0.5, -1.5, 2.0)
    a = mul(z, gauge_dilate_at(LIN, 0.5, b, q))
    c = gauge_dilate_at(LIN, 0.5, mul(z, b), mul(z, q))
    assert point_diff(a, c) <= 1e-9 * point_scale(a, c)


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
    assert flatten(LIN, point(1, 0, 6)) == point(1, 0, 2)
    assert unflatten(LIN, point(1, 0, 2)) == point(1, 0, 6)
    assert flatten(LIN, identity()) == identity()
    assert flatten(LIN, point(0, 0, -6)) == point(0, 0, -2)  # odd in the vertical


@given(points)
def test_flatten_round_trip(p):
    back = unflatten(LIN, flatten(LIN, p))
    assert point_diff(back, p) <= 1e-9 * point_scale(back, p)


@settings(max_examples=50)
@given(points)
def test_flatten_round_trip_oscillatory(p):
    back = unflatten(OSC, flatten(OSC, p))
    assert point_diff(back, p) <= 1e-9 * point_scale(back, p)


def test_transported_mul_frozen_example():
    # untransported product of the two unit horizontals has vertical 2; g(2)=1
    got = transported_mul(LIN, point(1, 0, 0), point(0, 1, 0))
    assert point_close(got, point(1, 1, 1), 1e-12)


def test_transported_inverse_is_negation():
    # the plain inverse (-x, -xbar) is also the transported group inverse
    assert inv(point(3, 4, 5)) == point(-3, -4, -5)
    p = point(3, 4, 5)
    prod = transported_mul(LIN, p, inv(p))
    assert point_close(prod, identity(), 1e-9)


@given(points, eps_values)
def test_conjugation_identity(p, eps):
    # gauge dilatation = unflatten . euclidean . flatten, pointwise
    assert conjugation_residual(LIN, eps, p) <= 1e-9 * point_scale(p)


def test_conjugation_at_eps_one_is_tight():
    p = point(0.7, -0.2, 3.3)
    assert conjugation_residual(LIN, 1.0, p) <= 1e-12
    assert conjugation_residual(OSC, 1.0, p) <= 1e-12
