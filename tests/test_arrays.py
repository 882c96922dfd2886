"""Array kernels and the limit probes against the scalar reference formulas.

Each operation of the package is written once, as an array kernel; the few
public names that compute at one point (mul, the distances, rescaled_product,
g_eval and a piecewise k) are one row or one element of a kernel, and must
equal it bit for bit.  The oracle for the kernels themselves is
tests/reference.py, an independent plain-Python writing of every formula on
H1Points: each kernel row, and each probe trace at each grid point, must match
it within TOL_ALGEBRA (scaled by max(1, |value|)).  The gauges cover the three
array paths: the segment table (oscillatory and random piecewise gauges), the
linear closed form, and the lockstep bisection for a raw callable.
"""

import math
import random
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import h1gauge
import h1gauge.metrics as metrics
import reference as ref
from h1gauge.dilatations import (
    _rescaled_product,
    dilate_array,
    euclidean_dilate_array,
    flatten_array,
    gauge_dilate_array,
    rescaled_product,
    transported_mul_array,
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
    invert_g,
    k_array,
    linear_gauge,
    oscillatory_gauge,
    piecewise_gauge,
    verified_gauge,
)
from h1gauge.heisenberg import (
    H1Point,
    _rows,
    inv_array,
    mul,
    mul_array,
    point,
    point_diff_array,
    point_scale_array,
)
from h1gauge.limits import (
    DEFAULT_ATOL,
    EpsGrid,
    classify_limit,
    classify_point_trace,
    default_direction_grid,
    id_derivability_probe,
    metric_diff_probe,
    rescaled_product_probe,
    vertical_limit_probe,
)
from h1gauge.metrics import (
    SampleBox,
    flat_dist,
    flat_dist_array,
    flat_norm_array,
    gauge_dist,
    gauge_dist_array,
    gauge_norm_array,
    intrinsic_dist,
    intrinsic_dist_array,
    intrinsic_norm_array,
    sample_battery,
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
SQUARE = verified_gauge(lambda t: t * t, label="square")  # raw callable: lockstep bisection
GAUGES = [LIN, OSC, _random_piecewise(1, 3), _random_piecewise(2, 30), SQUARE]


def _gauge_id(gauge):
    """The gauge's label as the test id; the default ladder keeps the id it
    had when its label also spelled its tabulated depth, 8 levels."""
    return "oscillatory(M=10.0,r=0.001,levels=8)" if gauge is OSC else gauge.label


def _special_args(gauge):
    """0, and for piecewise gauges every knot b_i and profile knot G(b_i)
    with their nextafter neighbours; for self-similar ones also their images
    one and three periods lower, which reach below the table."""
    args = [0.0]
    pwl = gauge.k
    if isinstance(pwl, PiecewiseLinearGauge):
        q = pwl.period
        for b, v in zip(pwl.breakpoints, pwl.values):
            for x, scale in ((b, q), (v + b * b, None if q is None else q * q)):
                images = [x] if scale is None else [x, x * scale, x * scale**3]
                for y in images:
                    args += [y, math.nextafter(y, 0.0), math.nextafter(y, math.inf)]
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
    """An (n, 3) array of points given as H1Points or already as an array."""
    if isinstance(points, np.ndarray):
        return points
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
    _assert_close(mul_array(p, q), _arr([ref.mul(a, b) for a, b in zip(ps, qs)]))
    _assert_close(inv_array(p), _arr([ref.inv(a) for a in ps]))
    _assert_close(point_diff_array(p, q), [ref.point_diff(a, b) for a, b in zip(ps, qs)])
    _assert_close(point_scale_array(p, q), [ref.point_scale(a, b) for a, b in zip(ps, qs)])
    _assert_close(intrinsic_norm_array(p), [ref.intrinsic_norm(a) for a in ps])
    _assert_close(flat_norm_array(p), [ref.flat_norm(a) for a in ps])


@pytest.mark.parametrize("gauge", GAUGES, ids=_gauge_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gauge_kernels_match_scalar(gauge, data):
    xs = data.draw(_args(gauge))
    x = np.array(xs)
    _assert_close(k_array(gauge, x), [ref.k(gauge, v) for v in xs])
    _assert_close(g_inverse_array(gauge, x), [ref.G(gauge, v) for v in xs])
    _assert_close(g_array(gauge, x), [ref.g(gauge, v) for v in xs])


@pytest.mark.parametrize("gauge", GAUGES, ids=_gauge_id)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dilatation_kernels_match_scalar(gauge, data):
    ps = data.draw(st.lists(_points(gauge), min_size=1, max_size=8))
    qs = data.draw(st.lists(_points(gauge), min_size=len(ps), max_size=len(ps)))
    eps = data.draw(scales)
    p, q = _arr(ps), _arr(qs)
    _assert_close(dilate_array(eps, p), _arr([ref.dilate(eps, a) for a in ps]))
    _assert_close(euclidean_dilate_array(eps, p), _arr([ref.euclidean_dilate(eps, a) for a in ps]))
    _assert_close(
        gauge_dilate_array(gauge, eps, p), _arr([ref.gauge_dilate(gauge, eps, a) for a in ps])
    )
    _assert_close(flatten_array(gauge, p), _arr([ref.flatten(gauge, a) for a in ps]))
    _assert_close(unflatten_array(gauge, p), _arr([ref.unflatten(gauge, a) for a in ps]))
    _assert_close(
        transported_mul_array(gauge, p, q),
        _arr([ref.transported_mul(gauge, a, b) for a, b in zip(ps, qs)]),
    )
    _assert_close(gauge_norm_array(gauge, p), [ref.gauge_norm(gauge, a) for a in ps])
    # one scale per row
    per_row = np.array([eps * 2.0**-j for j in range(len(ps))])
    _assert_close(
        gauge_dilate_array(gauge, per_row, p),
        _arr([ref.gauge_dilate(gauge, e, a) for e, a in zip(per_row.tolist(), ps)]),
    )


def test_piecewise_kernels_at_knots():
    # at a profile knot G(b_i) the table lookup returns the knot itself
    pwl = OSC.k
    knots = np.array([v + b * b for b, v in zip(pwl.breakpoints, pwl.values)])
    _assert_close(g_array(OSC, knots), pwl.breakpoints)
    assert g_array(OSC, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert k_array(OSC, np.array(pwl.breakpoints)).tolist() == [
        ref.k(OSC, b) for b in pwl.breakpoints]


def test_gauge_kernels_reject_negative_arguments():
    for fn in (k_array, g_array, g_inverse_array):
        with pytest.raises(ValueError, match=">= 0"):
            fn(OSC, np.array([1.0, -1e-300]))


# --- one-point names are rows of the kernels ----------------------------------------

def _assert_same_bits(single, row):
    """single (an H1Point or a float) equals the kernel row bit for bit."""
    values = single.as_tuple() if isinstance(single, H1Point) else (single,)
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [v.hex() for v in np.atleast_1d(row).tolist()]


def _assert_single_points_are_rows(gauge, p, q, eps, s):
    a, b, e, x = _arr([p]), _arr([q]), np.array([eps]), np.array([s])
    pairs = [
        (mul(p, q), mul_array(a, b)[0]),
        (intrinsic_dist(p, q), intrinsic_dist_array(a, b)[0]),
        (gauge_dist(gauge, p, q), gauge_dist_array(gauge, a, b)[0]),
        (flat_dist(gauge, p, q), flat_dist_array(gauge, a, b)[0]),
        (rescaled_product(gauge, eps, p, q), _rescaled_product(gauge, e, _rows(a, b))[0]),
        (g_eval(gauge, s), g_array(gauge, x)[0]),
    ]
    if isinstance(gauge.k, PiecewiseLinearGauge):
        pairs.append((gauge.k(s), k_array(gauge, x)[0]))
    for single, row in pairs:
        _assert_same_bits(single, row)


@pytest.mark.parametrize("gauge", GAUGES, ids=_gauge_id)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_single_points_are_rows_of_the_kernels(gauge, data):
    p, q = data.draw(_points(gauge)), data.draw(_points(gauge))
    s = data.draw(st.one_of(st.sampled_from(_special_args(gauge)), st.floats(0.0, 1e6)))
    _assert_single_points_are_rows(gauge, p, q, data.draw(scales), s)


def test_single_points_are_rows_where_hypot_rounds_apart():
    # math.hypot and np.hypot round these apart in the last bit: the horizontal
    # norm of p, and the root inside the piecewise g at s
    _assert_single_points_are_rows(
        GAUGES[3], point(-3.376, -0.933, -2.681), point(0.719, -1.179, -3.123), 0.5, 1.574
    )


def test_public_names_resolve():
    assert len(set(h1gauge.__all__)) == len(h1gauge.__all__)
    assert [name for name in h1gauge.__all__ if not hasattr(h1gauge, name)] == []


# --- the finiteness guard -----------------------------------------------------------

@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("gauge", [LIN, OSC], ids=_gauge_id)
def test_overflowing_dilatation_raises_like_scalar(gauge):
    # one row alone, and beside a finite row
    box_point = point(1.5, -0.5, 3.0)
    with pytest.raises(ValueError, match="non-finite"):
        gauge_dilate_array(gauge, 1e300, _arr([box_point]))
    with pytest.raises(ValueError, match="non-finite"):
        gauge_dilate_array(gauge, 1e300, _arr([point(0.1, 0.2, 0.3), box_point]))
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

ROWS = {row.name: row for row in metrics.BATTERY}


def _one(point_row):
    return np.array([point_row])


def _scaled_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("gauge", [LIN, OSC, SQUARE], ids=_gauge_id)
def test_witness_reproduces_worst_violation(gauge, monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_CHUNK", 64)  # several chunks per check
    n, seed = 300, 21
    battery = {check.name: check for check in sample_battery(gauge, n, seed)}
    for row in metrics.BATTERY:  # each witness, as one-row inputs, gives its worst
        check = battery[row.name]
        v = row.violation(gauge, *(np.array([x]) for x in check.witness))
        assert float(v[0]) == check.worst_violation, row.name

    def run(name):
        return ROWS[name]._run(gauge, n, np.random.default_rng(seed), SampleBox())

    dist = lambda p, q: gauge_dist_array(gauge, p, q)
    tri = run("triangle-gauge")
    p, q, r = map(_one, tri.witness)
    direct, via = float(dist(p, r)[0]), float((dist(p, q) + dist(q, r))[0])
    assert (direct - via) / max(1.0, abs(direct), abs(via)) == tri.worst_violation

    semi = run("dilatation-semigroup")
    eps, mu, p = semi.witness
    a = gauge_dilate_array(gauge, eps, gauge_dilate_array(gauge, mu, _one(p)))
    b = gauge_dilate_array(gauge, eps * mu, _one(p))
    assert float((point_diff_array(a, b) / point_scale_array(a, b))[0]) == semi.worst_violation

    homo = run("dilatation-homogeneity")
    eps, p = homo.witness
    a = float(gauge_norm_array(gauge, gauge_dilate_array(gauge, eps, _one(p)))[0])
    b = eps * float(gauge_norm_array(gauge, _one(p))[0])
    assert _scaled_gap(a, b) == homo.worst_violation

    conj = run("conjugation")
    eps, p = conj.witness
    direct = gauge_dilate_array(gauge, eps, _one(p))
    back = unflatten_array(gauge, euclidean_dilate_array(eps, flatten_array(gauge, _one(p))))
    v = point_diff_array(direct, back) / point_scale_array(direct, _one(p))
    assert float(v[0]) == conj.worst_violation

    assoc = run("transported-associativity")
    p, q, r = map(_one, assoc.witness)
    tm = lambda x, y: transported_mul_array(gauge, x, y)
    a, b = tm(tm(p, q), r), tm(p, tm(q, r))
    assert float((point_diff_array(a, b) / point_scale_array(a, b))[0]) == assoc.worst_violation

    for check in battery.values():
        assert type(check.worst_violation) is float
        assert "np." not in repr(check.witness)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chunked_scan_keeps_the_first_global_worst(monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_CHUNK", 7)
    seen = []

    def run(name, n, violation):
        # one table column and no box points: sample j's input is the number j
        def scan(gauge, x):
            seen.append(len(x))
            return violation(x)

        row = metrics.Row(name, 0.5, 0, scan, table=(np.arange(50.0),))
        return metrics._run_rows((row,), LIN, n, np.random.default_rng(0), SampleBox())[0]

    # the worst sample sits in the fifth chunk; ties keep the first one
    check = run("peak", 50, lambda x: -np.abs(x - 30.0))
    assert seen == [7] * 7 + [1]
    assert (check.worst_violation, check.witness, check.details) == (-0.0, [30.0], "50 samples")
    assert check.passed
    flat = run("flat", 50, lambda x: np.ones_like(x))
    assert flat.witness == [0.0] and not flat.passed
    with pytest.raises(ValueError, match="non-finite"):
        run("nan", 3, lambda x: x / 0.0)


# --- check_gauge against the scalar loop it replaced ---------------------------------

def _check_gauge_loop(gauge, pts):
    """The element-by-element check_gauge on the reference k, G and g:
    (name, worst, witness)."""
    out = [("origin", abs(ref.k(gauge, 0.0)), 0.0)]
    ks = [ref.k(gauge, t) for t in pts]
    worst, wit, prev_t, prev_k = math.inf, None, 0.0, ref.k(gauge, 0.0)
    for t, kt in zip(pts, ks):
        if kt - prev_k < worst:
            worst, wit = kt - prev_k, [prev_t, t]
        prev_t, prev_k = t, kt
    out.append(("strict-increase", -worst, wit))
    sub, subk = pts[::3], ks[::3]
    worst, wit = -math.inf, None
    for i in range(len(sub)):
        for j in range(i + 1, len(sub)):
            v = (ref.k(gauge, 0.5 * (sub[i] + sub[j])) - 0.5 * (subk[i] + subk[j])) / max(
                1.0, abs(subk[i]), abs(subk[j])
            )
            if v > worst:
                worst, wit = v, [sub[i], sub[j]]
    out.append(("midpoint-convexity", worst, wit))
    worst, wit = -math.inf, None
    for t in pts:
        there = abs(ref.g(gauge, ref.G(gauge, t)) - t) / max(1.0, t)
        back = abs(ref.G(gauge, ref.g(gauge, t)) - t) / max(1.0, t)
        for v, label in ((there, "g(G(t))"), (back, "G(g(s))")):
            if v > worst:
                worst, wit = v, [label, t]
    out.append(("round-trip", worst, wit))
    return out


# its smallest increase is the first step, from the origin to the grid; t**4
# would round apart on arrays (numpy's power) and on floats (Python's pow)
QUARTIC = Gauge(k=lambda t: (t * t) * (t * t), label="quartic")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("gauge", GAUGES + [QUARTIC], ids=_gauge_id)
def test_scalar_profile_keeps_the_bits_of_k_on_floats(gauge):
    # g_inverse_eval calls k on a one-element array; every gauge gives the
    # bits of k called on the float, k(t) + t^2, so invert_g bisects on the
    # same profile values
    ts = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 1e-3, 0.25, 0.5, 1.0, 1.0 + 2**-52, 3.0,
          1e6, 1e150, 1e200]
    if isinstance(gauge.k, PiecewiseLinearGauge):
        ts += [b * f for b in gauge.k.breakpoints for f in (1.0 - 2**-53, 1.0, 1.0 + 2**-52)]
    for t in ts:
        got = g_inverse_eval(gauge, t)
        assert type(got) is float
        assert got.hex() == float(gauge.k(t) + t * t).hex(), t
    for s in (1e-12, 0.5, 7.0, 1e9):
        t = invert_g(gauge, s)
        assert type(t) is float and abs(g_inverse_eval(gauge, t) - s) <= 1e-13 * s


@pytest.mark.parametrize("gauge", GAUGES + [QUARTIC], ids=_gauge_id)
def test_check_gauge_matches_scalar_loop(gauge):
    pts = [10.0 ** (-9.0 + i / 12.0) for i in range(15 * 12 + 1)]
    got = [(c.name, c.worst_violation, c.witness) for c in check_gauge(gauge).checks]
    want = _check_gauge_loop(gauge, pts)
    assert [g[0] for g in got] == [w[0] for w in want]
    for (_, gv, gw), (_, wv, ww) in zip(got, want):
        assert abs(gv - wv) <= TOL_ALGEBRA * max(1.0, abs(wv))
        if gauge in (LIN, SQUARE, QUARTIC):  # same arithmetic: same worst sample
            assert gw == ww


# --- limit probes against their scalar formulas -------------------------------------
#
# Each probe's array trace is checked against the H1Point formula it
# evaluates, from tests/reference.py; the reference verdicts come from the
# same classifier applied to the reference values.

PROBE_GAUGES = [LIN, OSC, _random_piecewise(3, 12), SQUARE]
# (ubar, p, q, u, base) for probes a, beta, derivability and metric-diff
PROBE_SITES = {
    "identity": (1.0, point(1, 0, 0), point(0, 1, 0), point(1, 0, 1), point(0, 0, 0)),
    "nonzero": (0.5, point(0.3, -0.2, 0.5), point(-0.1, 0.4, -0.9),
                point(0.3, -0.2, 0.5), point(0.3, -0.2, 0.5)),
}


def _scalar_metric_diff(gauge, grid):
    """metric_diff_probe's verdicts computed point by point through H1Point,
    from the exact increment gauge_norm(dilate(e, v)) / e: by left invariance
    the rescaled distance from every base."""
    eps, window, atol = grid.values(), grid.window, grid.atol

    def trace(v):
        return [ref.gauge_norm(gauge, ref.dilate(e, v)) / e for e in eps]

    def eta_of(v):
        return fmean(trace(v)[-window:])

    dirs = default_direction_grid()
    traces = [trace(v) for v in dirs]
    kinds = [classify_limit(t, window, atol).kind for t in traces]
    means = [fmean(t[-window:]) for t in traces]
    spreads = [max(t[-2 * window:]) - min(t[-2 * window:]) for t in traces]
    sup = classify_limit(
        [max(abs(t[j] - m) for t, m in zip(traces, means)) for j in range(len(eps))],
        window, atol,
    )
    out = {"kinds": kinds, "sup": sup.kind, "traces": traces}
    if not (set(kinds) == {"converged"} and sup.kind == "converged" and abs(sup.limit) <= atol):
        out.update(eta=None, witness=dirs[spreads.index(max(spreads))], checks=[])
        return out
    def excess(got, bound):
        return (got - bound) / ref.violation_scale(got, bound)

    scaling = max(
        abs(excess(eta_of(ref.dilate(lam, v)), lam * ev))
        for v, ev in zip(dirs, means) for lam in (0.5, 0.25, 2.0)
    )
    sub = max(
        excess(eta_of(ref.mul(dirs[i], dirs[j])), means[i] + means[j])
        for i in range(len(dirs)) for j in range(i + 1, len(dirs))
    )
    out.update(eta=means, witness=None, checks=[("seminorm-scaling", scaling),
                                                ("seminorm-subadditivity", sub)])
    return out


@pytest.mark.parametrize("count", [24, 58, 160])
@pytest.mark.parametrize("site", sorted(PROBE_SITES))
@pytest.mark.parametrize("gauge", PROBE_GAUGES, ids=_gauge_id)
def test_probes_match_scalar_formulas(gauge, site, count):
    ubar, p, q, u, base = PROBE_SITES[site]
    grid = EpsGrid(count=count)
    eps = grid.values()

    tr = vertical_limit_probe(gauge, ubar, grid)
    want = [ref.vertical_response(gauge, e, ubar) for e in eps]
    _assert_close(tr.values, want)
    assert tr.classification.kind == classify_limit(want).kind

    for tr, want in (
        (rescaled_product_probe(gauge, p, q, grid),
         [ref.rescaled_product(gauge, e, p, q) for e in eps]),
        (id_derivability_probe(gauge, u, grid),
         [ref.gauge_dilate(gauge, 1.0 / e, ref.dilate(e, u)) for e in eps]),
    ):
        _assert_close(_arr(tr.values), _arr(want))
        want_cls = classify_point_trace(want)
        assert tr.classification.kind == want_cls.kind
        assert [c.kind for c in tr.classification.components] == [
            c.kind for c in want_cls.components]

    rep = metric_diff_probe(gauge, base, grid)
    want = _scalar_metric_diff(gauge, grid)
    _assert_close([tr.values for tr in rep.traces], want["traces"])
    assert [c.kind for c in rep.per_direction] == want["kinds"]
    assert rep.sup_classification.kind == want["sup"]
    assert rep.witness == want["witness"]
    assert [(c.name, c.passed) for c in rep.seminorm_checks] == [
        (name, worst <= DEFAULT_ATOL) for name, worst in want["checks"]]
    for c, (_, worst) in zip(rep.seminorm_checks, want["checks"]):
        assert abs(c.worst_violation - worst) <= 1e-12, c.name
    if want["eta"] is None:
        assert rep.eta is None
    else:
        assert np.allclose(rep.eta, want["eta"], rtol=0.0, atol=1e-12)


# --- stacked samplers and probe sites against their unstacked compositions ----------
#
# The samplers, rescaled_product_probe and id_derivability_probe call each
# kernel once on row-stacked independent inputs.  Every kernel is row by row,
# so each report and trace must equal, bit for bit, the one-call-per-input
# composition kept in tests/reference.py.

STACKED_GAUGES = [LIN, OSC, _random_piecewise(4, 9)]


# 601 and 602 samples: the battery's doubles in one draw and in two; 4096 and
# 4097: every row in one chunk and in two
@pytest.mark.parametrize("n", [1, 7, 601, 602, metrics.SAMPLE_CHUNK, metrics.SAMPLE_CHUNK + 1,
                               metrics.SAMPLE_CHUNK + 3])
@pytest.mark.parametrize("gauge", STACKED_GAUGES, ids=_gauge_id)
def test_stacked_samplers_match_unstacked(gauge, n):
    box = SampleBox(3.0, 5.0)
    got, want = metrics.sample_battery(gauge, n, 5, box), ref.sample_battery(gauge, n, 5, box)
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert g == w, g.name  # passed, worst_violation, witness and details included


@pytest.mark.parametrize("n", [1, 7, metrics.SAMPLE_CHUNK + 3])
@pytest.mark.parametrize("gauge", STACKED_GAUGES, ids=_gauge_id)
def test_battery_draws_from_one_generator(gauge, n, monkeypatch):
    # one generator, made once from the int seed, every row drawing from it in
    # turn: the reports are those of the rows run in report order on one
    # generator, which ends where a fresh one that drew all their doubles does
    made, default_rng = [], np.random.default_rng

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    box = SampleBox(3.0, 5.0)
    reports = sample_battery(gauge, n, 5, box)
    [rng] = made
    doubles = sum(max(n, row.min_samples) * ((row.log_scale is not None) + 3 * row.points)
                  for row in metrics.BATTERY)
    fresh = default_rng(5)
    fresh.random(doubles)
    assert rng.random() == fresh.random()
    shared = default_rng(5)
    assert [row._run(gauge, n, shared, box) for row in metrics.BATTERY] == reports


class _CountedGenerator:
    """A generator that records the size of each random and uniform call."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def uniform(self, *args, **kwargs):
        self.calls.append(("uniform", kwargs.get("size")))
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("n", [1, 7, 16, 601, 602, metrics.SAMPLE_CHUNK + 3])
def test_battery_draws_its_doubles_in_blocks(n, monkeypatch):
    # a battery at a few samples is one draw of every double its rows take;
    # at many, draws of at most DRAW_BLOCK doubles, all of them together
    want = sample_battery(OSC, n, 5)
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountedGenerator(default_rng(seed))) or made[-1])
    assert sample_battery(OSC, n, 5) == want
    [rng] = made
    total = sum(row._doubles(max(n, row.min_samples)) for row in metrics.BATTERY)
    if total <= metrics.DRAW_BLOCK:
        assert rng.calls == [("random", total)]
    else:
        assert {kind for kind, _ in rng.calls} == {"random"}
        assert max(size for _, size in rng.calls) <= metrics.DRAW_BLOCK
        assert sum(size for _, size in rng.calls) == total


@pytest.mark.parametrize("count", [24, 160])
@pytest.mark.parametrize("site", sorted(PROBE_SITES))
@pytest.mark.parametrize("gauge", PROBE_GAUGES, ids=_gauge_id)
def test_stacked_probe_sites_match_unstacked(gauge, site, count):
    _, p, q, u, _ = PROBE_SITES[site]
    for grid in (EpsGrid(count=count), EpsGrid(eps0=0.9, ratio=0.7, count=count)):
        eps = np.array(grid.values())
        tr = rescaled_product_probe(gauge, p, q, grid)
        assert _arr(tr.values).tobytes() == ref.rescaled_product_rows(gauge, p, q, eps).tobytes()
        for v in (u, point(u.x1, u.x2, 0.0)):
            tr = id_derivability_probe(gauge, v, grid)
            rows, residual = ref.derivability_rows(gauge, v, eps)
            assert _arr(tr.values).tobytes() == rows.tobytes()
            assert tr.meta["closed_form_residual"] == float(residual.max())


@pytest.mark.parametrize("n", [1, 7, metrics.SAMPLE_CHUNK + 3])
@pytest.mark.parametrize("gauge", STACKED_GAUGES, ids=_gauge_id)
def test_stacked_transported_mul_matches_unstacked(gauge, n):
    # transported_mul_array unflattens both operands in one call
    rng = np.random.default_rng(n)
    p, q = SampleBox().draw(rng, n), SampleBox().draw(rng, n)
    special = [x for x in _special_args(gauge) if x <= 4.0]
    p[:len(special), 2] = special[:n]
    q[:len(special), 2] = [-x for x in special[:n]]
    for a, b in ((p, q), (q, p), (p[:1], q), (p, q[:1])):  # (1, 3) operands broadcast
        got = transported_mul_array(gauge, a, b)
        assert got.tobytes() == ref.transported_mul_rows(gauge, a, b).tobytes()


@pytest.mark.parametrize("n", [1, 7, metrics.SAMPLE_CHUNK + 3])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_merged_draws_match_consecutive_draws(count, n):
    # a chunk's inputs are views into one draw, split in order
    box = SampleBox(3.0, 5.0)
    for name, args in (("_points", ()), ("_scaled_points", (-3.0, 3.0))):
        rngs = [np.random.default_rng(n), np.random.default_rng(n)]
        row = metrics.Row(name, 0.0, count, None, log_scale=args or None)
        draw = getattr(ref, name)(rngs[1], box, count, *args)
        chunks = ref.chunk_inputs(row, n, rngs[0], box)
        assert len(chunks) == len(range(0, n, metrics.SAMPLE_CHUNK))
        for start, got in zip(range(0, n, metrics.SAMPLE_CHUNK), chunks):
            want = draw(start, min(metrics.SAMPLE_CHUNK, n - start))
            assert len(got) == len(want) == count + bool(args)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert rngs[0].random() == rngs[1].random()  # the same doubles consumed
