"""The guard matrix: what every public array kernel does on bad and on empty
input.

Each kernel of heisenberg, gauges, dilatations and metrics is fed a NaN row,
a +inf row, a -inf row, a NaN or an infinity at the first, a middle and the
last position of a finite input, an input whose result overflows, and an
empty (0, 3) or (0,) array; the gauge kernels also get negative arguments
with and without NaNs beside them, the two-operand composites one bad
operand beside a finite one, and the dilatations empty, 0-d and bad
scales.  check_finite itself is fed every position of 0-d, 1-d, (n, 3) and
empty arrays.  The exception type and its message are pinned exactly, and
empty input must give empty output, so a leaner guard cannot raise anywhere
the old one did not, or say something else when it does.  The row maxima of
point_diff_array and point_scale_array are held bit for bit to the
.max(axis=1) form kept in tests/reference.py.

The verify battery's rows compose the unchecked kernel bodies and are guarded
once, by the runner's check of the violations.  Each row is fed a NaN, an
infinity of either sign and an overflowing value at every input position, and
must raise what the unstacked composition of public kernels in
tests/reference.py raises, or return the same violation array bit for bit.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given, settings, strategies as st

from h1gauge import dilatations, gauges, heisenberg, metrics
from h1gauge.gauges import linear_gauge, oscillatory_gauge, piecewise_gauge, verified_gauge

LIN = linear_gauge()
OSC = oscillatory_gauge()
SQUARE = verified_gauge(lambda t: t * t, label="square")  # raw callable: lockstep bisection
GAUGES = {"linear": LIN, "oscillatory": OSC, "square": SQUARE}

NON_FINITE = "non-finite value in array"
BAD_EPS = "dilatation scales must be positive and finite"

GOOD = [0.1, 0.2, 0.3]
PLACES = ("first", "middle", "last")
NON_FINITE_VALUES = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _placed(shape, value, where):
    """An array of 0.25s with value at its first, a middle or its last
    position in row-major order (none when it is empty)."""
    a = np.full(shape, 0.25)
    flat = a.reshape(-1)
    if flat.size:
        flat[{"first": 0, "middle": flat.size // 2, "last": flat.size - 1}[where]] = value
    return a


# one non-finite value at one position of a finite input
PLACED = {f"{name}@{where}": (value, where)
          for name, value in NON_FINITE_VALUES.items() for where in PLACES}
# (n, 3) point inputs; "overflow" is also dilated by 1e300
POINTS = {
    "nan": [GOOD, [math.nan, 0.0, math.nan]],
    "+inf": [GOOD, [math.inf, 0.0, math.inf]],
    "-inf": [GOOD, [-math.inf, 0.0, -math.inf]],
    "overflow": [[1e300, -1e300, 1e300]],
    "empty": np.zeros((0, 3)),
    **{case: _placed((3, 3), *placed) for case, placed in PLACED.items()},
}
# 1-d gauge arguments
ARGS = {
    "nan": [1.0, math.nan],
    "+inf": [1.0, math.inf],
    "-inf": [1.0, -math.inf],
    "overflow": [1e300, 1e308],
    "negative": [1.0, -1e-300],
    "nan-negative": [math.nan, -1.0],
    "negative-nan": [-1.0, math.nan],
    "negatives-nan": [-1.0, math.nan, -2.0],
    "empty": np.zeros(0),
    **{case: _placed((5,), *placed).tolist() for case, placed in PLACED.items()},
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
# the two-operand composites, each a check of its own result on unchecked
# bodies, so each is also fed one bad operand beside a finite one
TWO_OPERAND_KERNELS = {
    "mul_array": heisenberg.mul_array,
    "intrinsic_dist_array": metrics.intrinsic_dist_array,
    **{f"{name}[{g}]": functools.partial(kernel, gauge)
       for name, kernel in (("transported_mul_array", dilatations.transported_mul_array),
                            ("gauge_dist_array", metrics.gauge_dist_array),
                            ("flat_dist_array", metrics.flat_dist_array))
       for g, gauge in GAUGES.items()},
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
    ("g_array", "linear"), ("g_array", "oscillatory"), ("g_array", "square"),
}


def _outcome(call):
    """("ok", shape) for a return, (exception type, message) for a raise."""
    try:
        return "ok", np.shape(call())
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc), str(exc)


def _assert_pinned(call, case, finite_on_overflow, rows, what=None, bad=()):
    got = _outcome(call)
    negative = [x for x in bad if x < 0.0]
    if case == "empty":
        assert got[0] == "ok" and got[1][0] == 0, got
    elif negative and what is not None:
        # the sign guard names the most negative argument, NaNs beside it or not
        assert got == (ValueError, f"{what} argument must be >= 0, got {float(min(negative))!r}")
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


@pytest.mark.parametrize("name", sorted(GAUGE_POINT_KERNELS))
def test_gauge_point_kernels_reject_an_unverified_gauge(name):
    raw = gauges.Gauge(k=lambda t: t * t, label="raw")
    assert _outcome(lambda: GAUGE_POINT_KERNELS[name](raw, np.full((2, 3), 0.25))) == (
        ValueError, "gauge 'raw' is unverified; pass it through verified_gauge/check_gauge first")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("operand", ["p", "q"])
@pytest.mark.parametrize("case", sorted(PLACED))
@pytest.mark.parametrize("name", sorted(TWO_OPERAND_KERNELS))
def test_two_operand_kernels_see_one_bad_operand(name, case, operand):
    """A NaN or an infinity at the first, a middle or the last position of
    one operand, the other finite, raises what the same value in both does."""
    operands = {"p": np.full((3, 3), 0.25), "q": np.full((3, 3), 0.25)}
    operands[operand] = _placed((3, 3), *PLACED[case])
    _assert_pinned(lambda: TWO_OPERAND_KERNELS[name](operands["p"], operands["q"]), case,
                   False, 3)


@pytest.mark.parametrize("where", PLACES)
@pytest.mark.parametrize("value", [*NON_FINITE_VALUES, "finite"])
@pytest.mark.parametrize("shape", [(), (5,), (4, 3), (0,), (0, 3)], ids=repr)
def test_check_finite_sees_every_position(shape, value, where):
    a = _placed(shape, NON_FINITE_VALUES.get(value, 0.5), where)
    if np.isfinite(a).all():
        assert heisenberg.check_finite(a) is a
    else:
        assert _outcome(lambda: heisenberg.check_finite(a)) == (ValueError, NON_FINITE)


# a list is one scale per row; a float is one 0-d scale for every row
@pytest.mark.parametrize("eps", [[math.nan], [math.inf], [-math.inf], [-1.0], [0.0], [-0.0],
                                 [1.0, math.nan], [math.nan, -1.0], [1.0, 5e-324], [5e-324],
                                 [0.5, 0.25, 1.0, math.nan], [0.5, math.inf, 0.25], [],
                                 0.5, 0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf],
                         ids=repr)
@pytest.mark.parametrize("name", sorted(EPS_KERNELS))
def test_eps_guards(name, eps):
    e = np.array(eps)
    rows = e.size if e.ndim else 2
    got = _outcome(lambda: EPS_KERNELS[name](e, np.zeros((rows, 3))))
    assert got == (("ok", (rows, 3)) if all(0.0 < x < math.inf for x in e.ravel().tolist())
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


HALF_WIDTHS = st.floats(0.0, metrics.MAX_HALF_WIDTH, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(horizontal=HALF_WIDTHS, vertical=HALF_WIDTHS, seed=st.integers(0, 2**32 - 1),
       rows=st.integers(0, 300))
@example(horizontal=metrics.MAX_HALF_WIDTH, vertical=metrics.MAX_HALF_WIDTH, seed=0, rows=300)
@example(horizontal=5e-324, vertical=metrics.MAX_HALF_WIDTH, seed=1, rows=1)
def test_draw_is_finite_for_every_admitted_box(horizontal, vertical, seed, rows):
    """SampleBox.draw returns its points unchecked: uniform(-1, 1) times a
    half-width of at most MAX_HALF_WIDTH is finite and no larger than the
    half-width.  Its points are those of Generator.uniform, bit for bit."""
    p = metrics.SampleBox(horizontal, vertical).draw(np.random.default_rng(seed), rows)
    assert p.shape == (rows, 3) and np.isfinite(p).all()
    assert (np.abs(p) <= [horizontal, horizontal, vertical]).all()
    uniform = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, 3))
    assert p.tobytes() == (uniform * (horizontal, horizontal, vertical)).tobytes()


@pytest.mark.parametrize("grid", [[[1.0, 2.0, 3.0, 4.0]], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0],
                                  [1.0, 3.0, 2.0, 4.0], [1.0, 2.0, math.nan, 4.0]], ids=repr)
def test_check_gauge_validates_every_grid_it_is_given(grid):
    for _ in range(2):
        with pytest.raises(ValueError, match="check grid must be >= 4 positive ascending points"):
            gauges.check_gauge(LIN, grid)
    assert gauges.check_gauge(LIN).passed


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 1500), seed=st.integers(0, 2**32 - 1),
       magnitude=st.sampled_from([1e-300, 1.0, 1e300]),
       specials=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4499), st.sampled_from(SPECIAL)),
                         max_size=8))
def test_row_maxima_match_the_rowwise_reduction(rows, seed, magnitude, specials):
    """point_diff_array and point_scale_array take each row's maximum over the
    leading axis; on finite results they equal the .max(axis=1) form bit for
    bit, and wherever that form holds a NaN or an infinity they raise."""
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal((2, rows, 3)) * magnitude
    for which, at, value in specials:
        if rows:
            (p, q)[which].reshape(-1)[at % (3 * rows)] = value
    for kernel, expected in ((lambda: heisenberg.point_diff_array(p, q), ref.point_diff_rows(p, q)),
                             (lambda: heisenberg.point_scale_array(p), ref.point_scale_rows(p)),
                             (lambda: heisenberg.point_scale_array(p, q),
                              ref.point_scale_rows(p, q))):
        if np.isfinite(expected).all():
            got = kernel()
            assert got.shape == (rows,) and got.tobytes() == expected.tobytes()
        else:
            assert _outcome(kernel) == (ValueError, NON_FINITE)


# --- the battery's rows against the public kernels --------------------------------

SCAN_GAUGES = {**GAUGES, "piecewise": piecewise_gauge([1, 2, 4], [1, 3, 9])}
SCAN_VALUES = {**NON_FINITE_VALUES, "overflow": 1e300}


@functools.cache
def _reference_violations(gauge_name):
    """Row name -> the violation of the unstacked composition of public
    kernels in tests/reference.py, taken from its calls to _worst."""
    found = {}

    def keep(name, n, tolerance, draw, violation):
        found[name] = violation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ref, "_worst", keep)
        ref.sample_battery(SCAN_GAUGES[gauge_name], 1, 0)
    return found


def _checked(call):
    """("ok", bytes) for a violation array that passes the runner's guard, else
    (exception type, message)."""
    try:
        return "ok", heisenberg.check_finite(call()).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc), str(exc)


def _scan(gauge_name, row):
    """Every (input, position, value) at which the row's check and the
    reference composition's differ, on three samples from the row's own draw
    with one value placed in the middle sample."""
    gauge, reference = SCAN_GAUGES[gauge_name], _reference_violations(gauge_name)[row.name]
    [base] = ref.chunk_inputs(dataclasses.replace(row, min_samples=0), 3,
                              np.random.default_rng(3), metrics.SampleBox())
    cases = [(None, None, None)] + [
        (k, where, value) for k, x in enumerate(base)
        for where in ([1] if x.ndim == 1 else [(1, c) for c in range(3)])
        for value in SCAN_VALUES]
    differ = []
    for k, where, value in cases:
        inputs = [x.copy() for x in base]
        if k is not None:
            inputs[k][where] = SCAN_VALUES[value]
        got = _checked(lambda: row.violation(gauge, *inputs))
        want = _checked(lambda: reference(*inputs))
        if got != want:
            differ.append((k, where, value, got[0], want[0]))
    return differ


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", [row.name for row in metrics.BATTERY])
@pytest.mark.parametrize("gauge_name", sorted(SCAN_GAUGES))
def test_battery_rows_guard_like_the_public_kernels(gauge_name, name):
    row = next(row for row in metrics.BATTERY if row.name == name)
    assert _scan(gauge_name, row) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_scan_sees_a_dropped_nan(monkeypatch):
    """A norm body that drops a NaN (np.fmax for np.maximum) passes a
    non-finite vertical part where a public kernel before the norm would
    have raised: the scan must report it."""
    monkeypatch.setattr(metrics, "_max_with_horizontal",
                        lambda p, vertical: np.fmax(np.hypot(p[:, 0], p[:, 1]), vertical))
    row = next(row for row in metrics.BATTERY if row.name == "dilatation-homogeneity")
    differ = _scan("linear", row)
    assert differ and all(got == "ok" and want is ValueError for *_, got, want in differ)
