import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from h1gauge.gauges import (
    Gauge,
    GaugeConstructionError,
    PiecewiseLinearGauge,
    check_gauge,
    g_array,
    g_eval,
    g_inverse_eval,
    gauge_from_spec,
    gauge_to_spec,
    invert_g,
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
    assert abs(invert_g(LIN, s) - LIN.g_closed(s)) <= 1e-12


def test_invert_g_rejects_negative():
    with pytest.raises(ValueError):
        invert_g(LIN, -1.0)
    with pytest.raises(ValueError):
        g_eval(LIN, -0.5)
    with pytest.raises(ValueError):
        g_inverse_eval(LIN, -0.5)


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
    # at breakpoint r^n the ratio k/t^2 is M for even n, 1/M for odd n
    k = OSC.k
    r, M = 1e-3, 10.0
    assert k(r) == pytest.approx(r**2 / M, rel=1e-12)
    assert k(r**2) == pytest.approx(M * r**4, rel=1e-12)
    assert k(r**3) == pytest.approx(r**6 / M, rel=1e-12)
    assert k(r**8) == pytest.approx(M * r**16, rel=1e-12)


def test_oscillatory_parameter_validation():
    with pytest.raises(GaugeConstructionError):
        oscillatory_gauge(levels=3)
    with pytest.raises(GaugeConstructionError):
        oscillatory_gauge(M=1.0)
    with pytest.raises(GaugeConstructionError):
        oscillatory_gauge(M=10.0, r=0.02)  # needs r < 1/M^2 = 0.01
    with pytest.raises(GaugeConstructionError):
        oscillatory_gauge(levels=8.0)  # type: ignore[arg-type]


def test_oscillatory_levels_capped_where_the_ladder_underflows():
    # M r^108 ~ 1e-323 is still a positive subnormal; r^110 / M rounds to 0
    assert oscillatory_gauge(10.0, 1e-3, 54).k.values[0] > 0.0
    with pytest.raises(GaugeConstructionError, match="levels=55 .* at most 54 levels fit"):
        oscillatory_gauge(10.0, 1e-3, 55)
    # the ladder from here still builds where its last slope check passes
    assert len(oscillatory_gauge(3.0, 0.1, 161).k.breakpoints) == 161
    with pytest.raises(GaugeConstructionError, match="at most 162 levels fit"):
        oscillatory_gauge(3.0, 0.1, 163)
    with pytest.raises(GaugeConstructionError, match="levels=1000000 is too large"):
        gauge_from_spec({"type": "oscillatory", "levels": 1000000})
    with pytest.raises(GaugeConstructionError, match="levels"):
        gauge_from_spec({"type": "oscillatory", "levels": 10**400})
    with pytest.raises(GaugeConstructionError, match="no ladder of 4 or more levels fits"):
        oscillatory_gauge(1e100, 1e-201, 4)


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
    oscillatory_gauge(10.0, 1e-3, 8),
    oscillatory_gauge(2.0, 0.1, 20),
    oscillatory_gauge(30.0, 1e-4, 4),
] + [_random_convex_gauge(random.Random(seed), n) for seed, n in ((1, 1), (2, 5), (3, 40))]


def _mp_g(bps, vals, s):
    """g(s) at 50 digits from the raw breakpoint data: locate the segment by
    evaluating G at the knots, take the textbook root of its quadratic
    x^2 + B x = d, and polish it with Newton steps, which restore the digits
    the textbook form loses to cancellation when d << B^2."""
    with mpmath.workdps(50):
        knots = [mpmath.mpf(0)] + [mpmath.mpf(b) for b in bps]
        kv = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in vals]
        s = mpmath.mpf(s)
        i = max(j for j in range(len(knots)) if kv[j] + knots[j] ** 2 <= s)
        j = min(i + 1, len(knots) - 1)
        lo = i if j > i else i - 1
        m = (kv[j] - kv[lo]) / (knots[j] - knots[lo])
        b = knots[i]
        d = s - kv[i] - b * b
        B = m + 2 * b
        x = (mpmath.sqrt(B * B + 4 * d) - B) / 2
        for _ in range(6):
            x -= (x * (x + B) - d) / (2 * x + B)
        return b + x


def _cross_check_args(pwl, rng):
    args = [10.0 ** rng.uniform(-40.0, 4.0) for _ in range(300)]
    for b, v in zip(pwl.breakpoints, pwl.values):
        knot = v + b * b
        args += [knot, math.nextafter(knot, 0.0), math.nextafter(knot, math.inf)]
    last = pwl.values[-1] + pwl.breakpoints[-1] ** 2
    args += [last * f for f in (1.0 + 1e-9, 1.5, 10.0, 1e3, 1e8)]
    return args


@pytest.mark.parametrize("gauge", CROSS_CHECK_GAUGES, ids=lambda g: g.label)
def test_piecewise_closed_form_matches_bisection_and_mpmath(gauge):
    pwl = gauge.k
    assert gauge.g_closed is not None
    args = _cross_check_args(pwl, random.Random(len(pwl.breakpoints)))
    # the bisection runs on the plain-Python k of the reference module, so
    # it shares no code with the segment table behind g_array
    bisected = Gauge(k=lambda t: reference.k(gauge, t))
    worst_mp = worst_bisect = 0.0
    for s, closed in zip(args, g_array(gauge, np.array(args)).tolist()):
        exact = _mp_g(pwl.breakpoints, pwl.values, s)
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
    raw = Gauge(k=math.sqrt, label="sqrt")
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
        verified_gauge(math.sqrt, label="sqrt")


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
