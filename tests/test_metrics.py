import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1gauge import metrics
from h1gauge.dilatations import flatten
from h1gauge.gauges import Gauge, linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import identity, point
from h1gauge.metrics import (
    BATTERY,
    SampleBox,
    flat_dist,
    flat_norm,
    gauge_dist,
    gauge_norm,
    intrinsic_dist,
    intrinsic_norm,
    sample_battery,
)

LIN = linear_gauge()
OSC = oscillatory_gauge()

ROWS = {row.name: row for row in BATTERY}


def run_row(name, gauge, n, seed):
    """One battery row on n samples drawn from a generator seeded with seed."""
    return ROWS[name]._run(gauge, n, np.random.default_rng(seed), SampleBox())


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


def test_triangle_sampler_catches_broken_distance(monkeypatch):
    # squared distance violates the triangle inequality on collinear triples;
    # a row looks its kernel bodies up when it runs, so it sees the rebinding
    body = metrics._intrinsic_dist
    monkeypatch.setattr(metrics, "_intrinsic_dist", lambda p, q: body(p, q) ** 2)
    report = run_row("triangle-intrinsic", LIN, 300, 5)
    assert not report.passed
    assert report.witness is not None


def test_a_sampler_needs_a_sample():
    # zero samples have no worst violation to report
    with pytest.raises(ValueError, match="triangle-intrinsic: need at least one sample, got 0"):
        run_row("triangle-intrinsic", LIN, 0, 5)


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_sampler_battery_passes(gauge):
    failures = [r.name for r in sample_battery(gauge, 250, 42) if not r.passed]
    assert not failures, f"failed samplers: {failures}"


BATTERY_SHAPE = [
    ("group-associativity", 1e-12),
    ("group-identity", 1e-12),
    ("group-inverse", 1e-12),
    ("intrinsic-dilation-scaling", 1e-12),
    ("triangle-intrinsic", 1e-12),
    ("triangle-gauge", 1e-12),
    ("triangle-transported", 1e-12),
    ("lipschitz-id", 1e-12),
    ("left-invariance", 1e-12),
    ("flatten-isometry", 1e-9),
    ("dilatation-semigroup", 1e-9),
    ("dilatation-homogeneity", 1e-9),
    ("rescaled-distance-identity", 1e-9),
    ("conjugation", 1e-9),
    ("flatten-homomorphism", 1e-9),
    ("transported-associativity", 1e-9),
    ("transported-unit-inverse", 1e-9),
    ("transported-norm-homogeneity", 1e-12),
]


@pytest.mark.parametrize("n", [1, 2, 440, 441, 500])
def test_battery_shape(n, monkeypatch):
    # the 18 checks in report order with their tolerances, each on n samples
    # but the semigroup, which covers its 441 scale pairs at least once
    assert [(row.name, row.tolerance) for row in BATTERY] == BATTERY_SHAPE
    reports = sample_battery(OSC, n, 1)
    assert [(c.name, c.tolerance) for c in reports] == BATTERY_SHAPE
    for c in reports:
        count = max(n, 441) if c.name == "dilatation-semigroup" else n
        assert c.details == f"{count} samples", c.name

    # the table is built once, at import: a run constructs no row
    def no_row(*args, **kwargs):
        raise AssertionError("a battery run built a table row")

    monkeypatch.setattr(metrics.Row, "__init__", no_row)
    assert sample_battery(OSC, n, 1) == reports


@pytest.mark.parametrize("n", [7, metrics.SAMPLE_CHUNK + 3])
@pytest.mark.parametrize("name", [row.name for row in BATTERY])
def test_row_draws_what_its_layout_declares(name, n):
    # a sample takes 3 doubles per box point and one for a log-uniform scale;
    # a scale table takes none, and the row runs at least min_samples samples
    row = ROWS[name]
    ran, skipped = np.random.default_rng(11), np.random.default_rng(11)
    row._run(OSC, n, ran, SampleBox())
    skipped.random(max(n, row.min_samples) * (3 * row.points + (row.log_scale is not None)))
    assert ran.random() == skipped.random()


def test_samplers_are_deterministic():
    a = run_row("flatten-isometry", LIN, 200, 11)
    b = run_row("flatten-isometry", LIN, 200, 11)
    assert a == b
    c = run_row("flatten-isometry", LIN, 200, 12)
    assert c.worst_violation != a.worst_violation or c.witness != a.witness
    assert sample_battery(OSC, 7, 11) == sample_battery(OSC, 7, 11)


def test_semigroup_sampler_covers_dyadic_grid():
    # the scale pairs cycle a fixed dyadic grid, so few samples still cover it
    report = run_row("dilatation-semigroup", LIN, 441, 3)
    assert report.details == "441 samples"
    assert report.passed
    assert run_row("dilatation-semigroup", LIN, 1, 3) == report
