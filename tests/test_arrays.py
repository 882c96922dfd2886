"""Array kernels against the scalar H1Point reference.

The scalar functions are the reference: every array kernel runs the same
formulas row by row, so each row must match its scalar result within
TOL_ALGEBRA (scaled by max(1, |value|)).  The gauges cover the three array
paths: the segment table (oscillatory and random piecewise gauges), the
linear closed form, and the element-by-element fallback for a raw callable.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import h1gauge.metrics as metrics
from h1gauge.dilatations import (
    dilate,
    dilate_array,
    euclidean_dilate,
    euclidean_dilate_array,
    flatten,
    flatten_array,
    gauge_dilate,
    gauge_dilate_array,
    transported_mul,
    transported_mul_array,
    unflatten,
    unflatten_array,
)
from h1gauge.gauges import (
    Gauge,
    PiecewiseLinearGauge,
    check_gauge,
    g_array,
    g_eval,
    g_inverse_array,
    g_inverse_eval,
    k_array,
    linear_gauge,
    oscillatory_gauge,
    piecewise_gauge,
    verified_gauge,
)
from h1gauge.heisenberg import (
    inv,
    inv_array,
    mul,
    mul_array,
    point,
    point_diff,
    point_diff_array,
    point_scale,
    point_scale_array,
)
from h1gauge.metrics import (
    SampleBox,
    flat_norm,
    flat_norm_array,
    gauge_dist_array,
    gauge_norm,
    gauge_norm_array,
    intrinsic_norm,
    intrinsic_norm_array,
    sample_conjugation,
    sample_homogeneity,
    sample_semigroup,
    sample_transported_axioms,
    sample_triangle,
)
from h1gauge.report import TOL_ALGEBRA


def _random_piecewise(seed, n):
    """A seeded convex, strictly increasing piecewise-linear gauge."""
    rng = random.Random(seed)
    bps = sorted(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n))
    slope, vals, prev_b, prev_v = 10.0 ** rng.uniform(-3.0, 1.0), [], 0.0, 0.0
    for b in bps:
        prev_v += slope * (b - prev_b)
        vals.append(prev_v)
        prev_b = b
        slope *= 1.0 + 10.0 ** rng.uniform(-6.0, 1.0)
    return piecewise_gauge(bps, vals, label=f"random{seed}")


LIN = linear_gauge()
OSC = oscillatory_gauge()
SQUARE = verified_gauge(lambda t: t * t, label="square")  # raw callable: scalar fallback
GAUGES = [LIN, OSC, _random_piecewise(1, 3), _random_piecewise(2, 30), SQUARE]


def _special_args(gauge):
    """0, and for piecewise gauges every knot b_i and profile knot G(b_i)
    with their nextafter neighbours."""
    args = [0.0]
    if isinstance(gauge.k, PiecewiseLinearGauge):
        for b, v in zip(gauge.k.breakpoints, gauge.k.values):
            for x in (b, v + b * b):
                args += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return args


def _args(gauge):
    return st.lists(
        st.one_of(st.sampled_from(_special_args(gauge)), st.floats(0.0, 1e6)),
        min_size=1,
        max_size=12,
    )


coord = st.floats(min_value=-4.0, max_value=4.0)
scales = st.floats(min_value=1e-6, max_value=1e3)


def _points(gauge):
    """Points whose vertical parts also hit the special arguments, either sign."""
    special = [x for x in _special_args(gauge) if x <= 4.0]
    vertical = st.one_of(coord, st.sampled_from(special + [-x for x in special]))
    return st.tuples(coord, coord, vertical).map(lambda c: point(*c))


def _arr(points):
    return np.array([p.as_tuple() for p in points])


def _assert_close(got, want):
    """Elementwise |got - want| <= TOL_ALGEBRA * max(1, |want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= TOL_ALGEBRA * np.maximum(1.0, np.abs(want))).all(), (got, want)


@settings(max_examples=60)
@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8), st.data())
def test_group_kernels_match_scalar(rows, data):
    ps = [point(*r) for r in rows]
    qs = data.draw(st.lists(st.builds(point, coord, coord, coord),
                            min_size=len(ps), max_size=len(ps)))
    p, q = _arr(ps), _arr(qs)
    _assert_close(mul_array(p, q), _arr([mul(a, b) for a, b in zip(ps, qs)]))
    _assert_close(inv_array(p), _arr([inv(a) for a in ps]))
    _assert_close(point_diff_array(p, q), [point_diff(a, b) for a, b in zip(ps, qs)])
    _assert_close(point_scale_array(p, q), [point_scale(a, b) for a, b in zip(ps, qs)])
    _assert_close(intrinsic_norm_array(p), [intrinsic_norm(a) for a in ps])
    _assert_close(flat_norm_array(p), [flat_norm(a) for a in ps])


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gauge_kernels_match_scalar(gauge, data):
    xs = data.draw(_args(gauge))
    x = np.array(xs)
    _assert_close(k_array(gauge, x), [gauge.k(v) for v in xs])
    _assert_close(g_inverse_array(gauge, x), [g_inverse_eval(gauge, v) for v in xs])
    _assert_close(g_array(gauge, x), [g_eval(gauge, v) for v in xs])


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.label)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dilatation_kernels_match_scalar(gauge, data):
    ps = data.draw(st.lists(_points(gauge), min_size=1, max_size=8))
    qs = data.draw(st.lists(_points(gauge), min_size=len(ps), max_size=len(ps)))
    eps = data.draw(scales)
    p, q = _arr(ps), _arr(qs)
    _assert_close(dilate_array(eps, p), _arr([dilate(eps, a) for a in ps]))
    _assert_close(euclidean_dilate_array(eps, p), _arr([euclidean_dilate(eps, a) for a in ps]))
    _assert_close(
        gauge_dilate_array(gauge, eps, p), _arr([gauge_dilate(gauge, eps, a) for a in ps])
    )
    _assert_close(flatten_array(gauge, p), _arr([flatten(gauge, a) for a in ps]))
    _assert_close(unflatten_array(gauge, p), _arr([unflatten(gauge, a) for a in ps]))
    _assert_close(
        transported_mul_array(gauge, p, q),
        _arr([transported_mul(gauge, a, b) for a, b in zip(ps, qs)]),
    )
    _assert_close(gauge_norm_array(gauge, p), [gauge_norm(gauge, a) for a in ps])
    # one scale per row
    per_row = np.array([eps * 2.0**-j for j in range(len(ps))])
    _assert_close(
        gauge_dilate_array(gauge, per_row, p),
        _arr([gauge_dilate(gauge, e, a) for e, a in zip(per_row.tolist(), ps)]),
    )


def test_piecewise_kernels_at_knots():
    # at a profile knot G(b_i) the table lookup returns the knot itself
    pwl = OSC.k
    knots = np.array([v + b * b for b, v in zip(pwl.breakpoints, pwl.values)])
    _assert_close(g_array(OSC, knots), pwl.breakpoints)
    assert g_array(OSC, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert k_array(OSC, np.array(pwl.breakpoints)).tolist() == [pwl(b) for b in pwl.breakpoints]


def test_gauge_kernels_reject_negative_arguments():
    for fn in (k_array, g_array, g_inverse_array):
        with pytest.raises(ValueError, match=">= 0"):
            fn(OSC, np.array([1.0, -1e-300]))


# --- the finiteness guard -----------------------------------------------------------

@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("gauge", [LIN, OSC], ids=lambda g: g.label)
def test_overflowing_dilatation_raises_like_scalar(gauge):
    box_point = point(1.5, -0.5, 3.0)
    with pytest.raises(ValueError):
        gauge_dilate(gauge, 1e300, box_point)
    with pytest.raises(ValueError, match="non-finite"):
        gauge_dilate_array(gauge, 1e300, _arr([point(0.1, 0.2, 0.3), box_point]))
    with pytest.raises(ValueError):
        dilate(1e300, box_point)
    with pytest.raises(ValueError, match="non-finite"):
        dilate_array(1e300, _arr([box_point]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernels_reject_non_finite_points():
    bad = np.array([[0.0, 1.0, 2.0], [math.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        mul_array(bad, bad)
    with pytest.raises(ValueError, match="non-finite"):
        flatten_array(LIN, bad)
    huge = np.array([[1e308, 1e308, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        mul_array(huge, huge)
    with pytest.raises(ValueError):
        gauge_dilate_array(LIN, np.array([1.0, math.inf]), np.zeros((2, 3)))


def test_sample_box_rejects_infinite_half_width():
    with pytest.raises(ValueError, match="non-finite"):
        SampleBox(math.inf, 1.0).draw(np.random.default_rng(0), 4)


# --- witnesses ----------------------------------------------------------------------

def _one(point_row):
    return np.array([point_row])


def _scaled_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("gauge", [LIN, OSC, SQUARE], ids=lambda g: g.label)
def test_witness_reproduces_worst_violation(gauge, monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_CHUNK", 64)  # several chunks per sampler
    n, seed = 300, 21

    dist = lambda p, q: gauge_dist_array(gauge, p, q)
    tri = sample_triangle(dist, "tri", n, seed)
    p, q, r = map(_one, tri.witness)
    direct, via = float(dist(p, r)[0]), float((dist(p, q) + dist(q, r))[0])
    assert (direct - via) / max(1.0, abs(direct), abs(via)) == tri.worst_violation

    semi = sample_semigroup(gauge, n, seed)
    eps, mu, p = semi.witness
    a = gauge_dilate_array(gauge, eps, gauge_dilate_array(gauge, mu, _one(p)))
    b = gauge_dilate_array(gauge, eps * mu, _one(p))
    assert float((point_diff_array(a, b) / point_scale_array(a, b))[0]) == semi.worst_violation

    homo = sample_homogeneity(gauge, n, seed)
    eps, p = homo.witness
    a = float(gauge_norm_array(gauge, gauge_dilate_array(gauge, eps, _one(p)))[0])
    b = eps * float(gauge_norm_array(gauge, _one(p))[0])
    assert _scaled_gap(a, b) == homo.worst_violation

    conj = sample_conjugation(gauge, n, seed)
    eps, p = conj.witness
    direct = gauge_dilate_array(gauge, eps, _one(p))
    back = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, _one(p))))
    v = point_diff_array(direct, back) / point_scale_array(direct, _one(p))
    assert float(v[0]) == conj.worst_violation

    assoc = sample_transported_axioms(gauge, n, seed)[0]
    p, q, r = map(_one, assoc.witness)
    tm = lambda x, y: transported_mul_array(gauge, x, y)
    a, b = tm(tm(p, q), r), tm(p, tm(q, r))
    assert float((point_diff_array(a, b) / point_scale_array(a, b))[0]) == assoc.worst_violation

    for check in (tri, semi, homo, conj, assoc):
        assert type(check.worst_violation) is float
        assert "np." not in repr(check.witness)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chunked_scan_keeps_the_first_global_worst(monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_CHUNK", 7)
    seen = []

    def draw(start, size):
        seen.append(size)
        return (np.arange(start, start + size, dtype=float),)

    # the worst sample sits in the fifth chunk; ties keep the first one
    check = metrics._worst("peak", 50, 0.5, draw, lambda x: -np.abs(x - 30.0))
    assert seen == [7] * 7 + [1]
    assert (check.worst_violation, check.witness, check.details) == (-0.0, [30.0], "50 samples")
    assert check.passed
    flat = metrics._worst("flat", 50, 0.5, draw, lambda x: np.ones_like(x))
    assert flat.witness == [0.0] and not flat.passed
    with pytest.raises(ValueError, match="non-finite"):
        metrics._worst("nan", 3, 0.5, draw, lambda x: x / 0.0)


# --- check_gauge against the scalar loop it replaced ---------------------------------

def _check_gauge_loop(gauge, pts):
    """The element-by-element check_gauge, as reference: (name, worst, witness)."""
    out = [("origin", abs(gauge.k(0.0)), 0.0)]
    ks = [gauge.k(t) for t in pts]
    worst, wit, prev_t, prev_k = math.inf, None, 0.0, gauge.k(0.0)
    for t, kt in zip(pts, ks):
        if kt - prev_k < worst:
            worst, wit = kt - prev_k, [prev_t, t]
        prev_t, prev_k = t, kt
    out.append(("strict-increase", -worst, wit))
    sub, subk = pts[::3], ks[::3]
    worst, wit = -math.inf, None
    for i in range(len(sub)):
        for j in range(i + 1, len(sub)):
            v = (gauge.k(0.5 * (sub[i] + sub[j])) - 0.5 * (subk[i] + subk[j])) / max(
                1.0, abs(subk[i]), abs(subk[j])
            )
            if v > worst:
                worst, wit = v, [sub[i], sub[j]]
    out.append(("midpoint-convexity", worst, wit))
    worst, wit = -math.inf, None
    for t in pts:
        there = abs(g_eval(gauge, g_inverse_eval(gauge, t)) - t) / max(1.0, t)
        back = abs(g_inverse_eval(gauge, g_eval(gauge, t)) - t) / max(1.0, t)
        for v, label in ((there, "g(G(t))"), (back, "G(g(s))")):
            if v > worst:
                worst, wit = v, [label, t]
    out.append(("round-trip", worst, wit))
    return out


# its smallest increase is the first step, from the origin to the grid
QUARTIC = Gauge(k=lambda t: t**4, label="quartic")


@pytest.mark.parametrize("gauge", GAUGES + [QUARTIC], ids=lambda g: g.label)
def test_check_gauge_matches_scalar_loop(gauge):
    pts = [10.0 ** (-9.0 + i / 12.0) for i in range(15 * 12 + 1)]
    got = [(c.name, c.worst_violation, c.witness) for c in check_gauge(gauge).checks]
    want = _check_gauge_loop(gauge, pts)
    assert [g[0] for g in got] == [w[0] for w in want]
    for (_, gv, gw), (_, wv, ww) in zip(got, want):
        assert abs(gv - wv) <= TOL_ALGEBRA * max(1.0, abs(wv))
        if gauge in (LIN, SQUARE, QUARTIC):  # same arithmetic: same worst sample
            assert gw == ww
