import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1gauge.dilatations import flatten
from h1gauge.gauges import Gauge, linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import identity, point
from h1gauge.metrics import (
    SampleBox,
    flat_dist,
    flat_norm,
    gauge_dist,
    gauge_norm,
    intrinsic_dist,
    intrinsic_dist_array,
    intrinsic_norm,
    sample_battery,
    sample_isometry,
    sample_semigroup,
    sample_triangle,
)

LIN = linear_gauge()
OSC = oscillatory_gauge()

coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
points = st.builds(point, coord, coord, coord)


def test_norm_values():
    assert intrinsic_norm(point(3, 4, 25)) == 5.0
    assert intrinsic_norm(point(0, 0, 36)) == 6.0
    assert gauge_norm(LIN, point(0, 0, 6)) == 2.0
    assert gauge_norm(LIN, point(3, 4, 0)) == 5.0
    assert flat_norm(point(3, 4, 5)) == 5.0
    assert flat_norm(point(0, 0, -7)) == 7.0


def test_norms_vanish_only_at_identity():
    assert intrinsic_norm(identity()) == 0.0
    assert gauge_norm(LIN, identity()) == 0.0
    assert flat_norm(identity()) == 0.0
    assert intrinsic_norm(point(0, 0, 1e-12)) > 0.0


def test_gauge_norm_requires_verified_gauge():
    raw = Gauge(k=lambda t: t)
    with pytest.raises(ValueError, match="unverified"):
        gauge_norm(raw, point(1, 0, 0))


@given(points, points)
def test_gauge_never_exceeds_intrinsic(p, q):
    # g(s) <= sqrt(s) because the profile dominates t^2
    assert gauge_dist(LIN, p, q) <= intrinsic_dist(p, q) + 1e-12


@settings(max_examples=60)
@given(points, points)
def test_flatten_is_isometric(p, q):
    a = flat_dist(OSC, flatten(OSC, p), flatten(OSC, q))
    b = gauge_dist(OSC, p, q)
    assert abs(a - b) <= 1e-9 * max(1.0, a, b)


def test_sample_box_validation_and_bounds():
    with pytest.raises(ValueError):
        SampleBox(horizontal=0.0)
    with pytest.raises(ValueError):
        SampleBox(vertical=-1.0)
    for bad in (math.inf, math.nan, 1e200):
        with pytest.raises(ValueError):
            SampleBox(horizontal=bad)
        with pytest.raises(ValueError):
            SampleBox(vertical=bad)
    assert SampleBox(1e100, 1e100).vertical == 1e100
    box = SampleBox(1.0, 2.0)
    rng = np.random.default_rng(7)
    pts = box.draw(rng, 100)
    assert pts.shape == (100, 3)
    assert (np.abs(pts[:, :2]) <= 1.0).all() and (np.abs(pts[:, 2]) <= 2.0).all()


def test_triangle_sampler_catches_broken_distance():
    # squared distance violates the triangle inequality on collinear triples
    broken = lambda p, q: intrinsic_dist_array(p, q) ** 2
    report = sample_triangle(broken, "broken", 300, seed=5)
    assert not report.passed
    assert report.witness is not None


def test_a_sampler_needs_a_sample():
    # zero samples have no worst violation to report
    with pytest.raises(ValueError, match="triangle: need at least one sample, got 0"):
        sample_triangle(intrinsic_dist_array, "triangle", 0, seed=5)


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_sampler_battery_passes(gauge):
    failures = [r.name for r in sample_battery(gauge, 250, 42) if not r.passed]
    assert not failures, f"failed samplers: {failures}"


def test_samplers_are_deterministic():
    a = sample_isometry(LIN, 200, seed=11)
    b = sample_isometry(LIN, 200, seed=11)
    assert a == b
    c = sample_isometry(LIN, 200, seed=12)
    assert c.worst_violation != a.worst_violation or c.witness != a.witness


def test_semigroup_sampler_covers_dyadic_grid():
    # the scale pairs cycle a fixed dyadic grid, so few samples still cover it
    report = sample_semigroup(LIN, 441, seed=3)
    assert report.details == "441 samples"
    assert report.passed
