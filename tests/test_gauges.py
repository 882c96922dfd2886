import functools
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from h1gauge.gauges import (
    Gauge,
    GaugeConstructionError,
    PiecewiseLinearGauge,
    _G,
    check_gauge,
    g_array,
    g_eval,
    g_inverse_array,
    g_inverse_eval,
    gauge_from_spec,
    gauge_to_spec,
    invert_g,
    k_array,
    linear_gauge,
    load_gauge,
    oscillatory_gauge,
    piecewise_gauge,
    require_verified,
    verified_gauge,
)

LIN = linear_gauge()
OSC = oscillatory_gauge()


# --- linear gauge closed form ------------------------------------------------

def test_linear_exact_values():
    # G(t) = t + t^2, so g(2) = 1 and g(6) = 2 exactly
    assert g_eval(LIN, 2.0) == 1.0
    assert g_eval(LIN, 6.0) == 2.0
    assert g_eval(LIN, 0.0) == 0.0
    assert g_inverse_eval(LIN, 1.0) == 2.0


def test_linear_closed_form_matches_naive_expression():
    for s in (1e-8, 1e-3, 0.5, 1.0, 7.0, 123.0, 9.9e3):
        naive = (math.sqrt(1.0 + 4.0 * s) - 1.0) / 2.0
        assert g_eval(LIN, s) == pytest.approx(naive, abs=1e-13, rel=1e-13)


@given(st.floats(min_value=0.0, max_value=1e4))
def test_linear_bisection_agrees_with_closed_form(s):
    assert abs(invert_g(LIN, s) - g_eval(LIN, s)) <= 1e-12


@given(st.floats(min_value=0.0, max_value=4e307))
@example(5e-324)
@example(2.2250738585072014e-308)
def test_linear_closed_form_is_the_doubled_form_to_the_bit(s):
    """s/(0.5 + sqrt(0.25 + s)) is 2s/(1 + sqrt(1 + 4s)) scaled by powers of
    two, so wherever the doubled form is finite both give the same double."""
    assert g_array(LIN, np.array([s]))[0] == 2.0 * s / (1.0 + math.sqrt(1.0 + 4.0 * s))


def test_linear_profile_makes_no_copy():
    # G(t) = t + t^2 on the linear gauge, bit for bit and in a new array,
    # without calling the k path (a copy of t); k_array still copies its input
    gauge, calls = linear_gauge(), []
    k = gauge._path[0]
    object.__setattr__(gauge, "_path", (lambda t: calls.append(t) or k(t), *gauge._path[1:]))
    t = np.array([0.0, 5e-324, 1e-8, 0.5, 1.0, 3.0, 1e150])
    profile = _G(gauge, t)
    assert profile is not t and profile.tobytes() == (t + t * t).tobytes()
    assert calls == []
    kt = k_array(gauge, t)
    assert kt is not t and kt.tobytes() == t.tobytes() and len(calls) == 1


@given(st.floats(min_value=4e307, max_value=1.7976931348623157e308))
@example(4.49e307)
@example(8.99e307)
@example(1.7976931348623157e308)
def test_linear_g_is_finite_up_to_the_float_maximum(s):
    """4s overflows from about 4.49e307, but g(s) is about sqrt(s): the
    closed form agrees with bisection and with the 50-digit root there."""
    closed = g_eval(LIN, s)
    assert closed == g_array(LIN, np.array([s]))[0]
    with mpmath.workdps(50):
        root = float(mpmath.sqrt(mpmath.mpf(s) + mpmath.mpf(0.25)) - mpmath.mpf(0.5))
    assert abs(closed - root) <= 1e-15 * root
    assert abs(closed - invert_g(LIN, s)) <= 1e-15 * root


def test_invert_g_rejects_negative():
    with pytest.raises(ValueError):
        invert_g(LIN, -1.0)
    with pytest.raises(ValueError):
        g_eval(LIN, -0.5)
    with pytest.raises(ValueError):
        g_inverse_eval(LIN, -0.5)


def test_raw_g_of_nan_does_not_bisect():
    # a NaN is returned at once, not bisected to the step cap; the array
    # kernel's result check still rejects it
    calls = []
    raw = Gauge(k=lambda t: calls.append(t) or t * t, label="raw")
    calls.clear()
    with pytest.raises(ValueError, match="non-finite value in array"):
        g_array(raw, np.array([math.nan]))
    assert calls == []
    assert math.isnan(invert_g(raw, math.nan)) and calls == []


def _convex_k(seed):
    """A seeded convex, increasing piecewise-linear k through the origin,
    written as the largest of its segments' lines: a plain callable that maps
    an array to an array (and a float to a float, for invert_g)."""
    rng = random.Random(seed)
    knots = [0.0, *sorted(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(6))]
    slopes = sorted(10.0 ** rng.uniform(-3.0, 2.0) for _ in knots)
    values = [0.0]
    for i in range(1, len(knots)):
        values.append(values[-1] + slopes[i - 1] * (knots[i] - knots[i - 1]))
    lines = list(zip(knots, values, slopes))
    return lambda t: functools.reduce(np.maximum, [v + m * (t - b) for b, v, m in lines])


# (t*t)*(t*t) underflows to 0 at sqrt(s) for s below about 1e-162, where
# G(sqrt s) <= s ends the bisection at once
RAW_KS = {"t": lambda t: t, "t*t": lambda t: t * t, "t+t^3": lambda t: t + t * t * t,
          "t^4": lambda t: (t * t) * (t * t), "convex": _convex_k(7)}
log_uniform = st.floats(-300.0, 12.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("name", sorted(RAW_KS))
@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), log_uniform), min_size=1, max_size=20))
def test_raw_g_array_is_invert_g_to_the_bit(name, s):
    # the lockstep bisection is invert_g run on every element at once
    gauge = Gauge(k=RAW_KS[name], label=name)
    want = np.array([invert_g(gauge, x) for x in s])
    assert g_array(gauge, np.array(s)).tobytes() == want.tobytes()


def test_raw_k_is_called_on_arrays():
    # the lockstep bisection calls k once per step on every element still
    # bisecting, never on one float; a scalar-only k fails at its first call
    calls = []
    raw = Gauge(k=lambda t: calls.append(t) or t * t, label="raw")
    s = np.geomspace(1e-300, 1e12, 500)
    g_array(raw, s)
    assert calls and all(type(t) is np.ndarray for t in calls)
    assert len(calls) < 2000 and max(t.size for t in calls) >= s.size
    with pytest.raises(TypeError):
        check_gauge(Gauge(k=math.sqrt, label="sqrt"))


# --- piecewise construction ---------------------------------------------------

def test_piecewise_interpolation_and_extension():
    pwl = PiecewiseLinearGauge((1.0, 2.0), (1.0, 3.0))
    assert pwl(0.0) == 0.0
    assert pwl(0.5) == 0.5       # origin segment, slope 1
    assert pwl(1.5) == 2.0       # interior interpolation, slope 2
    assert pwl(3.0) == 5.0       # extension with the final slope


def test_piecewise_rejects_decreasing_slopes():
    # slope 1 then slope 0.5: concave kink
    with pytest.raises(GaugeConstructionError, match="slope"):
        PiecewiseLinearGauge((1.0, 2.0), (1.0, 1.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bps,vals,slope",
    [
        ((1e300,), (1e-300,), "0.0"),  # the origin slope underflows
        ((1e-300,), (1e300,), "inf"),  # and overflows
        ((1.0, 1.0 + 2.0**-52), (1.0, 1e300), "inf"),  # a later slope overflows
    ],
    ids=["underflow", "overflow", "later-overflow"],
)
def test_piecewise_rejects_slopes_that_leave_the_floats(bps, vals, slope):
    # finite positive data whose secant slope rounds to 0 or inf: rejected,
    # and without a numpy warning on the way
    with pytest.raises(GaugeConstructionError, match=f"positive and finite: .* slope {slope}$"):
        PiecewiseLinearGauge(bps, vals)


@pytest.mark.filterwarnings("error")
def test_piecewise_with_an_overflowing_profile_knot_builds_quietly():
    # G(b_1) = 1e200 + 1e400 is inf; without a period the table's bottom is
    # never read, so it is not evaluated there
    gauge = piecewise_gauge([1e200], [1e200])
    assert gauge.k(3.0) == 3.0 and g_eval(gauge, 2.0) == 1.0


@pytest.mark.parametrize(
    "bps,vals",
    [
        ((), ()),
        ((1.0,), (1.0, 2.0)),
        ((1.0, 1.0), (1.0, 2.0)),
        ((2.0, 1.0), (1.0, 2.0)),
        ((-1.0, 2.0), (1.0, 2.0)),
        ((1.0, 2.0), (0.0, 2.0)),
    ],
)
def test_piecewise_rejects_malformed_data(bps, vals):
    with pytest.raises(GaugeConstructionError):
        PiecewiseLinearGauge(bps, vals)


def test_oscillatory_breakpoint_values():
    # at breakpoint r^n the ratio k/t^2 is M for even n, 1/M for odd n, on
    # the table (n <= 8) and on its continuation below r^8 alike
    k = OSC.k
    r, M = 1e-3, 10.0
    assert k(r) == pytest.approx(r**2 / M, rel=1e-12)
    assert k(r**2) == pytest.approx(M * r**4, rel=1e-12)
    assert k(r**3) == pytest.approx(r**6 / M, rel=1e-12)
    assert k(r**8) == pytest.approx(M * r**16, rel=1e-12)
    assert k(r**9) == pytest.approx(r**18 / M, rel=1e-12)
    assert k(r**40) == pytest.approx(M * r**80, rel=1e-12)
    assert k(r**41) == pytest.approx(r**82 / M, rel=1e-12)


def test_oscillatory_parameter_validation():
    with pytest.raises(GaugeConstructionError, match="M must exceed 1"):
        oscillatory_gauge(M=1.0)
    with pytest.raises(GaugeConstructionError, match=r"M=10\.0, r=0\.02"):
        oscillatory_gauge(M=10.0, r=0.02)  # r*M^2*(1 + r) - r^3 = 2.04
    # inside the old bound r < 1/M^2 = 0.98 but outside the exact condition
    with pytest.raises(GaugeConstructionError, match=r"M=1\.01, r=0\.9"):
        oscillatory_gauge(M=1.01, r=0.9)
    for levels in (3, 8.0, True, "8"):
        with pytest.raises(ValueError, match="'levels' must be an integer >= 4"):
            gauge_from_spec({"type": "oscillatory", "levels": levels})


def _ladder_data(M, r, levels):
    """The raw ladder: breakpoints r^n, n = levels..1, and their values."""
    ns = range(levels, 0, -1)
    return [r**n for n in ns], [(M if n % 2 == 0 else 1.0 / M) * r ** (2 * n) for n in ns]


def test_ladder_condition_is_exact():
    # the up-front condition accepts exactly the (M, r) whose raw ladder
    # passes the table's slope check; r is drawn around the boundary
    rng = random.Random(11)
    verdicts = set()
    for _ in range(2000):
        M = 10.0 ** rng.uniform(1e-4, 3.0)
        r = min(0.999, 10.0 ** rng.uniform(-3.0, 0.5) / (M * M))
        holds = r * M * M * (1.0 + r) - r**3 <= 1.0
        try:
            oscillatory_gauge(M, r)
            built = True
        except GaugeConstructionError:
            built = False
        try:
            piecewise_gauge(*_ladder_data(M, r, 8))
            raw = True
        except GaugeConstructionError:
            raw = False
        assert built == raw == holds, (M, r)
        verdicts.add(holds)
    assert verdicts == {True, False}


def _knots_and_seams(gauge, depth=1e-150):
    """The knots of the infinite ladder above `depth`, and the seams among
    them: the tabulated breakpoints b_1 < b_2 < ..., and below them the
    images q^j b_1 and q^j b_2 (j >= 1) of the lowest period.  Each q^j b_1,
    b_1 included, is a seam where one period of the continuation meets the
    next, or the table."""
    pwl = gauge.k
    seams, inner = (
        [b * pwl.period**j for j in range(400) if b * pwl.period**j > depth]
        for b in pwl.breakpoints[:2]
    )
    return sorted(seams + inner[1:] + list(pwl.breakpoints[1:])), seams


def _profile(gauge, ts):
    return g_inverse_array(gauge, np.array(ts)).tolist()


def _neighbours(xs):
    return np.array([y for x in xs
                     for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))])


@pytest.mark.parametrize("M, r", [(10.0, 1e-3), (4.0, 0.01), (2.0, 0.1), (1.01, 0.8)])
def test_ladder_is_monotone_and_convex_across_knots_and_seams(M, r):
    gauge = oscillatory_gauge(M, r)
    knots, _ = _knots_and_seams(gauge)
    # one float either side of each knot, and of each knot's profile value:
    # rounding may tie, never fall
    assert (np.diff(k_array(gauge, _neighbours(knots)).reshape(-1, 3)) >= 0.0).all()
    g_knots = g_array(gauge, _neighbours(_profile(gauge, knots)))
    assert (np.diff(g_knots.reshape(-1, 3)) >= 0.0).all()
    # a relative 1e-9 either side: the contract checks, tolerances unchanged
    grid = sorted(x * f for x in knots for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9))
    report = check_gauge(gauge, grid)
    assert report.passed, report.to_text()
    back = g_array(gauge, np.array(_profile(gauge, knots)))
    assert np.allclose(back, knots, rtol=1e-13, atol=0.0)


def _random_ladders(seed, count):
    """count seeded ladders, M log-uniform in [1.1, 100] and r log-uniform in
    [1e-4, 1], redrawn until convex."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        M, r = 10.0 ** rng.uniform(0.05, 2.0), 10.0 ** rng.uniform(-4.0, 0.0)
        if r * M * M * (1.0 + r) - r**3 <= 1.0:
            out.append(oscillatory_gauge(M, r))
    return out


def _falls(gauge, xs):
    """How many x in xs have g fall across nextafter(x, 0), x, nextafter(x, inf)."""
    return int((np.diff(g_array(gauge, _neighbours(xs)).reshape(-1, 3)) < 0.0).any(axis=1).sum())


def test_g_does_not_fall_across_profile_knots():
    # just below a profile knot G(b) the segment's root can round one float
    # above b; g caps it at b, so it cannot fall across any knot
    for gauge in (OSC, *_random_ladders(12, 300)):
        assert _falls(gauge, _profile(gauge, gauge.k.breakpoints)) == 0, gauge.label
    # on the default ladder, nor across the knots' images one and three
    # periods down, in the table and below it
    q2 = OSC.k.period ** 2
    images = [y * f for y in _profile(OSC, OSC.k.breakpoints) for f in (q2, q2**3)]
    assert _falls(OSC, images) == 0


def test_levels_has_no_effect():
    # the ladder is a function of (M, r): every accepted levels builds the
    # same k and g, bit for bit
    gauges = [gauge_from_spec({"type": "oscillatory", "M": 4.0, "r": 0.01, "levels": n})
              for n in (4, 8, 20, 10**6, 10**400)]
    knots, _ = _knots_and_seams(gauges[0], depth=1e-300)
    args = np.concatenate((np.geomspace(1e-300, 1e3, 20001), _neighbours(knots),
                           _neighbours(_profile(gauges[0], knots))))
    want = k_array(gauges[0], args).tobytes(), g_array(gauges[0], args).tobytes()
    for gauge in gauges[1:]:
        assert (k_array(gauge, args).tobytes(), g_array(gauge, args).tobytes()) == want
        assert gauge.label == "oscillatory(M=4.0,r=0.01)"


def test_oscillatory_passes_contract_checks():
    report = check_gauge(OSC)
    assert report.passed, report.to_text()


# --- piecewise closed form against bisection and mpmath -----------------------------

def _random_convex_gauge(rng, n):
    """Ascending breakpoints in [1e-3, 1e3] with positive, increasing slopes."""
    bps = sorted(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n))
    slope, vals, prev_b, prev_v = 10.0 ** rng.uniform(-3.0, 1.0), [], 0.0, 0.0
    for b in bps:
        prev_v += slope * (b - prev_b)
        vals.append(prev_v)
        prev_b = b
        slope *= 1.0 + 10.0 ** rng.uniform(-6.0, 1.0)
    return piecewise_gauge(bps, vals)


CROSS_CHECK_GAUGES = [
    oscillatory_gauge(10.0, 1e-3),
    oscillatory_gauge(2.0, 0.1),
    oscillatory_gauge(30.0, 1e-4),
] + [_random_convex_gauge(random.Random(seed), n) for seed, n in ((1, 1), (2, 5), (3, 40))]


def _mp_root(b, kb, m, s):
    """b + x, where x >= 0 solves x^2 + B x = d, B = m + 2b, d = s - kb - b^2:
    the profile inverse on the segment of slope m from the knot (b, kb).
    The textbook root is polished with Newton steps, which restore the
    digits it loses to cancellation when d << B^2."""
    B, d = m + 2 * b, s - kb - b * b
    x = (mpmath.sqrt(B * B + 4 * d) - B) / 2
    for _ in range(6):
        x -= (x * (x + B) - d) / (2 * x + B)
    return b + x


def _mp_g(bps, vals, s):
    """g(s) at 50 digits from the raw breakpoint data: locate the segment by
    evaluating G at the knots and take its root."""
    with mpmath.workdps(50):
        knots = [mpmath.mpf(0)] + [mpmath.mpf(b) for b in bps]
        kv = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in vals]
        s = mpmath.mpf(s)
        i = max(j for j in range(len(knots)) if kv[j] + knots[j] ** 2 <= s)
        j = min(i + 1, len(knots) - 1)
        lo = i if j > i else i - 1
        return _mp_root(knots[i], kv[i], (kv[j] - kv[lo]) / (knots[j] - knots[lo]), s)


def _mp_ladder_g(M, r, s):
    """g(s) at 50 digits on the infinite ladder built from (M, r) alone:
    knots r^n for every n >= 1 with k(r^n) = M r^(2n) for even n and
    r^(2n) / M for odd n, extended past r with the slope of [r^2, r]."""
    with mpmath.workdps(50):
        M, r, s = mpmath.mpf(M), mpmath.mpf(r), mpmath.mpf(s)

        def knot(n):  # r^n, k(r^n) and G(r^n)
            b = r**n
            kb = (M if n % 2 == 0 else 1 / M) * b * b
            return b, kb, kb + b * b

        n = 1  # the first knot down with G(r^n) <= s
        while knot(n)[2] > s:
            n += 1
        b, kb, _ = knot(n)
        up = knot(2 if n == 1 else n - 1)  # past r, the segment [r^2, r] extends
        return _mp_root(b, kb, (up[1] - kb) / (up[0] - b), s)


def _cross_check_args(pwl, rng):
    args = [10.0 ** rng.uniform(-40.0, 4.0) for _ in range(300)]
    for b, v in zip(pwl.breakpoints, pwl.values):
        knot = v + b * b
        args += [knot, math.nextafter(knot, 0.0), math.nextafter(knot, math.inf)]
    last = pwl.values[-1] + pwl.breakpoints[-1] ** 2
    args += [last * f for f in (1.0 + 1e-9, 1.5, 10.0, 1e3, 1e8)]
    if pwl.period is not None:  # below the table, down to 1e-300, and its seams
        args += [10.0 ** rng.uniform(-300.0, -40.0) for _ in range(100)]
        first = pwl.values[0] + pwl.breakpoints[0] ** 2
        for j in range(4):
            seam = first * pwl.period ** (2 * j)
            args += [seam, math.nextafter(seam, 0.0), math.nextafter(seam, math.inf)]
    return args


@pytest.mark.parametrize("gauge", CROSS_CHECK_GAUGES, ids=lambda g: g.label)
def test_piecewise_closed_form_matches_bisection_and_mpmath(gauge):
    pwl = gauge.k
    assert gauge.g_closed is not None
    args = _cross_check_args(pwl, random.Random(len(pwl.breakpoints)))
    # the bisection runs on the plain-Python k of the reference module, so
    # it shares no code with the segment table behind g_array; the ladders'
    # oracle is built from (M, r), not from the tabulated breakpoints.  A raw
    # k is called on arrays, so the plain-Python k runs element by element
    bisected = Gauge(k=lambda t: np.array([reference.k(gauge, x) for x in t.tolist()]))
    if gauge.spec["type"] == "oscillatory":
        exact_g = functools.partial(_mp_ladder_g, gauge.spec["M"], gauge.spec["r"])
    else:
        exact_g = functools.partial(_mp_g, pwl.breakpoints, pwl.values)
    worst_mp = worst_bisect = 0.0
    for s, closed in zip(args, g_array(gauge, np.array(args)).tolist()):
        exact = exact_g(s)
        worst_mp = max(worst_mp, float(abs(closed - exact) / exact))
        worst_bisect = max(worst_bisect, abs(closed - invert_g(bisected, s)) / closed)
    assert worst_mp <= 1e-12
    assert worst_bisect <= 1e-12


def test_piecewise_constructors_attach_closed_form():
    # a refactor that drops g_closed would fall back to bisection silently
    pw = piecewise_gauge((1.0, 2.0), (1.0, 3.0))
    assert pw.g_closed is not None
    assert OSC.g_closed is not None
    assert gauge_from_spec(gauge_to_spec(pw)).g_closed is not None
    # a closed form no longer tells a piecewise gauge from the linear one
    assert gauge_to_spec(piecewise_gauge((1.0,), (1.0,), label="linear"))["type"] == "piecewise"
    assert gauge_from_spec({"type": "oscillatory"}).g_closed is not None
    assert g_eval(pw, 0.0) == 0.0
    assert g_eval(pw, 2.0) == 1.0     # G(1) = k(1) + 1 = 2
    assert g_eval(pw, 7.0) == 2.0     # G(2) = 3 + 4 = 7
    assert g_eval(pw, 14.0) == 3.0    # extension: G(3) = 5 + 9 = 14


# --- contract checking on raw evaluables ---------------------------------------

def test_concave_gauge_fails_convexity():
    raw = Gauge(k=np.sqrt, label="sqrt")
    report = check_gauge(raw)
    assert not report.passed
    names = {c.name for c in report.checks if not c.passed}
    assert "midpoint-convexity" in names


def test_verified_gauge_accepts_square():
    g = verified_gauge(lambda t: t * t, label="square")
    assert g.verified
    # G(t) = 2 t^2, g(s) = sqrt(s/2)
    assert g_eval(g, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_verified_gauge_rejects_concave():
    with pytest.raises(GaugeConstructionError, match="midpoint-convexity"):
        verified_gauge(np.sqrt, label="sqrt")


def test_require_verified_gates_raw_gauges():
    raw = Gauge(k=lambda t: t)
    with pytest.raises(ValueError, match="unverified"):
        require_verified(raw)
    require_verified(LIN)  # constructors hand out verified gauges


def test_check_grid_validation():
    with pytest.raises(ValueError):
        check_gauge(LIN, grid=(1.0, 2.0))
    with pytest.raises(ValueError):
        check_gauge(LIN, grid=(0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        check_gauge(LIN, grid=(1.0, 3.0, 2.0, 4.0))


@given(st.floats(min_value=1e-9, max_value=1e6))
def test_round_trip_through_profile(t):
    s = g_inverse_eval(OSC, t)
    assert abs(g_eval(OSC, s) - t) <= 1e-13 * max(1.0, t)


# --- spec files -----------------------------------------------------------------

def test_spec_round_trip_linear_and_piecewise():
    assert gauge_to_spec(LIN) == {"type": "linear"}
    pw = piecewise_gauge((1.0, 2.0), (1.0, 3.0))
    spec = gauge_to_spec(pw)
    again = gauge_from_spec(spec)
    assert gauge_to_spec(again) == spec


@pytest.mark.parametrize("M, r", [(10.0, 1e-3), (2.0, 0.1), (1.01, 0.8)])
def test_spec_round_trip_oscillatory(M, r):
    # the ladder's spec is (M, r) itself, not its finite table, so the
    # rebuilt gauge has the same k and g everywhere, the continuation included
    gauge = oscillatory_gauge(M, r)
    spec = gauge_to_spec(gauge)
    assert spec == {"type": "oscillatory", "M": M, "r": r}
    again = gauge_from_spec(json.loads(json.dumps(spec)))
    knots, _ = _knots_and_seams(gauge, depth=1e-300)
    args = np.concatenate((np.geomspace(1e-300, 1e3, 2001), _neighbours(knots),
                           _neighbours(_profile(gauge, knots))))
    for f in (k_array, g_array):
        assert f(again, args).tobytes() == f(gauge, args).tobytes()
    with pytest.raises(ValueError, match="no spec representation"):
        gauge_to_spec(verified_gauge(lambda t: t * t, label="square"))


def test_spec_rejects_unknown_type_and_keys():
    with pytest.raises(ValueError):
        gauge_from_spec({"type": "cubic"})
    with pytest.raises(ValueError):
        gauge_from_spec({"type": "linear", "slope": 2})
    with pytest.raises(ValueError):
        gauge_from_spec({"breakpoints": [1], "values": [1]})


def test_load_gauge_inline_and_file(tmp_path):
    inline = load_gauge('{"type": "oscillatory", "M": 5, "r": 0.01, "levels": 6}')
    assert inline.verified
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps({"type": "linear"}))
    assert load_gauge(str(path)).label == "linear"


def test_oscillatory_defaults_from_spec():
    g = gauge_from_spec({"type": "oscillatory"})
    assert g.label == OSC.label


def test_numpy_valued_raw_gauge_reports_plain_numbers():
    # k returns numpy floats: the origin check still holds a float and a bool
    report = check_gauge(Gauge(k=lambda t: np.float64(t) * 1.0))
    origin = report.checks[0]
    assert type(origin.worst_violation) is float and origin.passed is True
    assert all(type(c.passed) is bool for c in report.checks)
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
    assert "  PASS  origin: worst=0.0 tol=1e-12\n" in report.to_text()
