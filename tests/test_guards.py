"""The guard matrix: what every public array kernel does on bad and on empty
input.

Each kernel of heisenberg, gauges, dilatations and metrics is fed a NaN row,
a +inf row, a -inf row, an input whose result overflows, and an empty
(0, 3) or (0,) array; the gauge kernels also get a negative argument and a
NaN beside a negative one, and the dilatations an empty and a bad eps.  The
exception type and its message are pinned exactly, and empty input must give
empty output, so a leaner guard cannot raise anywhere the old one did not, or
say something else when it does.
"""

import math

import numpy as np
import pytest

from h1gauge import dilatations, gauges, heisenberg, metrics
from h1gauge.gauges import linear_gauge, oscillatory_gauge, verified_gauge

LIN = linear_gauge()
OSC = oscillatory_gauge()
SQUARE = verified_gauge(lambda t: t * t, label="square")  # raw callable: scalar fallback
GAUGES = {"linear": LIN, "oscillatory": OSC, "square": SQUARE}

NON_FINITE = "non-finite value in array"
BAD_EPS = "dilatation scales must be positive and finite"

GOOD = [0.1, 0.2, 0.3]
# (n, 3) point inputs; "overflow" is also dilated by 1e300
POINTS = {
    "nan": [GOOD, [math.nan, 0.0, math.nan]],
    "+inf": [GOOD, [math.inf, 0.0, math.inf]],
    "-inf": [GOOD, [-math.inf, 0.0, -math.inf]],
    "overflow": [[1e300, -1e300, 1e300]],
    "empty": np.zeros((0, 3)),
}
# 1-d gauge arguments
ARGS = {
    "nan": [1.0, math.nan],
    "+inf": [1.0, math.inf],
    "-inf": [1.0, -math.inf],
    "overflow": [1e300, 1e308],
    "negative": [1.0, -1e-300],
    "nan-negative": [math.nan, -1.0],
    "empty": np.zeros(0),
}


def _eps(p):
    return 1e300 if len(p) and abs(p[0, 0]) > 1.0 else 0.5


POINT_KERNELS = {
    "check_finite": heisenberg.check_finite,
    "points_array": lambda p: heisenberg.points_array(p[:, 0], p[:, 1], p[:, 2]),
    "mul_array": lambda p: heisenberg.mul_array(p, p),
    "inv_array": heisenberg.inv_array,
    "point_diff_array": lambda p: heisenberg.point_diff_array(p, p),
    "point_scale_array": lambda p: heisenberg.point_scale_array(p, p),
    "dilate_array": lambda p: dilatations.dilate_array(_eps(p), p),
    "euclidean_dilate_array": lambda p: dilatations.euclidean_dilate_array(_eps(p), p),
    "intrinsic_norm_array": metrics.intrinsic_norm_array,
    "flat_norm_array": metrics.flat_norm_array,
    "intrinsic_dist_array": lambda p: metrics.intrinsic_dist_array(p, p),
}
GAUGE_POINT_KERNELS = {
    "gauge_dilate_array": lambda g, p: dilatations.gauge_dilate_array(g, _eps(p), p),
    "flatten_array": dilatations.flatten_array,
    "unflatten_array": dilatations.unflatten_array,
    "transported_mul_array": lambda g, p: dilatations.transported_mul_array(g, p, p),
    "gauge_norm_array": metrics.gauge_norm_array,
    "gauge_dist_array": lambda g, p: metrics.gauge_dist_array(g, p, p),
    "flat_dist_array": lambda g, p: metrics.flat_dist_array(g, p, p),
}
GAUGE_KERNELS = {
    "k_array": ("k", gauges.k_array),
    "g_inverse_array": ("profile", gauges.g_inverse_array),
    "g_array": ("g", gauges.g_array),
}
EPS_KERNELS = {
    "dilate_array": dilatations.dilate_array,
    "euclidean_dilate_array": dilatations.euclidean_dilate_array,
    "gauge_dilate_array": lambda e, p: dilatations.gauge_dilate_array(OSC, e, p),
}

# the overflow inputs whose result is still finite; every other one raises
FINITE_ON_OVERFLOW = {
    "check_finite", "points_array", "inv_array", "point_diff_array", "point_scale_array",
    "intrinsic_norm_array", "flat_norm_array", "flatten_array", "gauge_norm_array",
    ("k_array", "linear"), ("k_array", "oscillatory"),
    ("g_array", "oscillatory"), ("g_array", "square"),
}


def _outcome(call):
    """("ok", shape) for a return, (exception type, message) for a raise."""
    try:
        return "ok", np.shape(call())
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc), str(exc)


def _assert_pinned(call, case, finite_on_overflow, rows, what=None, bad=None):
    got = _outcome(call)
    if case == "empty":
        assert got[0] == "ok" and got[1][0] == 0, got
    elif case in ("negative", "-inf", "nan-negative") and what is not None:
        least = "nan" if case == "nan-negative" else repr(float(min(bad)))
        assert got == (ValueError, f"{what} argument must be >= 0, got {least}")
    elif case == "overflow" and finite_on_overflow:
        assert got[0] == "ok" and got[1][0] == rows, got
    else:
        assert got == (ValueError, NON_FINITE)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(POINTS))
@pytest.mark.parametrize("name", sorted(POINT_KERNELS))
def test_point_kernel_guards(name, case):
    p = np.array(POINTS[case], dtype=float).reshape(-1, 3)
    _assert_pinned(lambda: POINT_KERNELS[name](p), case, name in FINITE_ON_OVERFLOW, len(p))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(POINTS))
@pytest.mark.parametrize("gauge", sorted(GAUGES))
@pytest.mark.parametrize("name", sorted(GAUGE_POINT_KERNELS))
def test_gauge_point_kernel_guards(name, gauge, case):
    p = np.array(POINTS[case], dtype=float).reshape(-1, 3)
    _assert_pinned(lambda: GAUGE_POINT_KERNELS[name](GAUGES[gauge], p), case,
                   name in FINITE_ON_OVERFLOW, len(p))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(ARGS))
@pytest.mark.parametrize("gauge", sorted(GAUGES))
@pytest.mark.parametrize("name", sorted(GAUGE_KERNELS))
def test_gauge_kernel_guards(name, gauge, case):
    what, kernel = GAUGE_KERNELS[name]
    x = np.array(ARGS[case], dtype=float)
    _assert_pinned(lambda: kernel(GAUGES[gauge], x), case,
                   (name, gauge) in FINITE_ON_OVERFLOW, len(x), what, ARGS[case])


@pytest.mark.parametrize("eps", [[math.nan], [math.inf], [-math.inf], [-1.0], [0.0], [-0.0],
                                 [1.0, math.nan], [math.nan, -1.0], [1.0, 5e-324]],
                         ids=repr)
@pytest.mark.parametrize("name", sorted(EPS_KERNELS))
def test_eps_guards(name, eps):
    e = np.array(eps)
    got = _outcome(lambda: EPS_KERNELS[name](e, np.zeros((len(e), 3))))
    assert got == (("ok", (len(e), 3)) if all(0.0 < x < math.inf for x in eps)
                   else (ValueError, BAD_EPS))


@pytest.mark.parametrize("name", sorted(EPS_KERNELS))
def test_empty_eps_gives_empty_points(name):
    for p in (np.zeros((0, 3)), np.ones((1, 3))):
        assert EPS_KERNELS[name](np.array([]), p).shape == (0, 3)
    with pytest.raises(ValueError, match=BAD_EPS):
        EPS_KERNELS[name](math.nan, np.ones((1, 3)))


@pytest.mark.parametrize("gauge", sorted(GAUGES))
@pytest.mark.parametrize("name", sorted(GAUGE_KERNELS))
def test_gauge_kernels_take_integer_arguments(name, gauge):
    _, kernel = GAUGE_KERNELS[name]
    got = kernel(GAUGES[gauge], np.array([0, 1, 3]))
    assert np.array_equal(got, kernel(GAUGES[gauge], np.array([0.0, 1.0, 3.0])))


def test_empty_draw():
    assert metrics.SampleBox().draw(np.random.default_rng(0), 0).shape == (0, 3)
