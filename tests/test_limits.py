"""Trace classification and the limit probes.

The frozen oracles here are independent of the probe implementation: profile
values at the oscillatory breakpoints have the closed form 1/sqrt(1+c) with c
the local slope ratio, and the linear-gauge response tends to zero linearly.
"""

import itertools
import math
import random
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1gauge import cli, heisenberg, limits
from h1gauge.dilatations import dilate_array, gauge_dilate_array
from h1gauge.gauges import (
    _bisect_g,
    g_inverse_array,
    g_inverse_eval,
    invert_g,
    linear_gauge,
    oscillatory_gauge,
)
from h1gauge.heisenberg import H1Point, from_row, identity, point, to_row
from h1gauge.limits import (
    _fmean,
    _vertical_response_array,
    Classification,
    ConvergenceTrace,
    EpsGrid,
    NonConvergentLimitError,
    PointClassification,
    ScaleOverflowError,
    classify_limit,
    DEFAULT_GRID,
    classify_point_trace,
    default_direction_grid,
    id_derivability_probe,
    limit_equivalence_check,
    metric_diff_probe,
    metric_differential,
    rescaled_product_probe,
    uniform_probe,
    vertical_limit_probe,
)
from h1gauge.report import TOL_GAUGE
from reference import point_diff, point_scale, table_csv, trace_csv

LIN = linear_gauge()
OSC = oscillatory_gauge()


# --- classifier ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_fmean_is_statistics_fmean(seed):
    # seeded traces from flat to wild, of window lengths up to 37, against
    # statistics.fmean as the oracle
    rng = random.Random(seed)
    for n in (1, 2, 3, 6, 12, 37):
        for scale in (1e-300, 1e-9, 1.0, 1e9, 1e300):
            trace = [scale * rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, 0.0)
                     for _ in range(n)]
            flat = [scale * (1.0 + 1e-15 * rng.random()) for _ in range(n)]
            for values in (trace, flat):
                assert _fmean(values).hex() == statistics.fmean(values).hex()


def test_constant_trace_converges():
    c = classify_limit([1.0] * 12)
    assert c.kind == "converged"
    assert c.limit == 1.0


def test_decaying_trace_converges():
    # geometric decay: last window flat within atol, the mean shift between
    # windows is covered by the previous window's own spread
    vals = [2.0 ** (-j) for j in range(24)]
    c = classify_limit(vals)
    assert c.kind == "converged"
    assert c.limit == pytest.approx(0.0, abs=1e-4)


def test_alternating_trace_oscillates():
    vals = [0.32 if j % 2 else 0.95 for j in range(24)]
    c = classify_limit(vals)
    assert c.kind == "oscillating"
    assert c.liminf == 0.32
    assert c.limsup == 0.95


def test_level_shift_is_not_convergence():
    # two flat plateaus: each window is flat, but the jump between them is
    # unexplained by the (zero) spread of the earlier window
    vals = [0.0] * 18 + [1e-3] * 6
    c = classify_limit(vals)
    assert c.kind == "oscillating"


def test_divergence_detection():
    vals = [float(2**j) for j in range(24)]  # tail reaches 2^23 > 1e6
    assert classify_limit(vals).kind == "diverging"
    assert classify_limit([-float(2**j) for j in range(24)]).kind == "diverging"


def test_classifier_scale_equivariance():
    vals = [0.32 if j % 2 else 0.95 for j in range(24)]
    for c in (2.0**-8, 1.0, 2.0**10):
        scaled = classify_limit(
            [c * v for v in vals], atol=c * 1e-4, divergence_bound=c * 1e6
        )
        assert scaled.kind == "oscillating"
        assert scaled.liminf == c * 0.32
        assert scaled.limsup == c * 0.95


def test_classifier_input_validation():
    with pytest.raises(ValueError):
        classify_limit([1.0] * 11)  # needs 2*window = 12
    with pytest.raises(ValueError):
        classify_limit([1.0] * 12, window=0)
    with pytest.raises(ValueError):
        classify_limit([1.0] * 12, atol=0.0)
    # a window slices the trace, so it must be an integer, as on EpsGrid
    with pytest.raises(ValueError, match="window must be an integer"):
        classify_limit([1.0] * 12, window=3.0)
    with pytest.raises(ValueError, match="window must be an integer"):
        classify_point_trace([point(1.0, 0.0, 0.0)] * 12, window=3.0)
    # a NaN is rejected wherever it sits (an H1Point cannot hold one); an
    # infinity is a value beyond every bound
    for values in ([1.0] * 11 + [math.nan], [math.nan] + [1.0] * 11):
        with pytest.raises(ValueError, match="NaN"):
            classify_limit(values)
    for inf in (math.inf, -math.inf):
        assert classify_limit([1.0] * 11 + [inf]).kind == "diverging"


def test_classifier_rejects_a_bool_window():
    # True is an int to Python, but not a window length
    with pytest.raises(ValueError, match="window must be an integer"):
        classify_limit([1.0] * 4, window=True)


CLASSIFIER_TRACES = {
    "constant-ints": [3] * 12,
    "diverging-ints": [2**j for j in range(24)],
    "alternating": [0.32 if j % 2 else 0.95 for j in range(24)],
    "decaying": [2.0 ** -j for j in range(24)],
    "level-shift": [0.0] * 18 + [1e-3] * 6,
    "signed-zeros": [-0.0, 0.0] * 6,
    "infinite-head": [math.inf] * 6 + [1.0] * 12,
    "huge-int": [2**53 + 1] * 12,  # rounds to 2^53 as float() rounds it
}


@pytest.mark.parametrize("values", CLASSIFIER_TRACES.values(), ids=CLASSIFIER_TRACES.keys())
def test_classifier_reads_any_sequence_of_numbers(values):
    # the classification of a trace is that of its values as Python floats,
    # whatever sequence holds them
    want = classify_limit([float(v) for v in values])
    stacked = np.array([values, values, values], dtype=float).T  # a strided column view
    forms = {
        "list": lambda: list(values),
        "tuple": lambda: tuple(values),
        "generator": lambda: (v for v in values),
        "float-array": lambda: np.array(values, dtype=float),
        "column-view": lambda: stacked[:, 1],
        "read-only": lambda: heisenberg._read_only(np.array(values, dtype=float)),
    }
    if all(isinstance(v, int) and abs(v) < 2**63 for v in values):
        forms["int-array"] = lambda: np.array(values, dtype=np.int64)
    for name, form in forms.items():
        assert classify_limit(form()) == want, name
        assert classify_limit(form(), window=3, atol=1e-3) == classify_limit(
            [float(v) for v in values], window=3, atol=1e-3), name


@pytest.mark.parametrize("form", [list, tuple, iter, np.array], ids=["list", "tuple", "iter", "array"])
def test_classifier_errors_keep_their_order_and_messages(form):
    # window, then length, then atol and divergence_bound, then NaN: each
    # error is raised while the later ones would also apply
    nan = math.nan
    cases = [
        ([nan] * 3, {"window": 0, "atol": 0.0}, "window must be an integer >= 1, got 0"),
        ([nan] * 3, {"window": 2.0, "atol": 0.0}, "window must be an integer >= 1, got 2.0"),
        ([nan] * 3, {"window": 2, "atol": 0.0}, "need at least 4 trace values to classify, got 3"),
        ([nan] * 4, {"window": 2, "atol": 0.0}, "atol and divergence_bound must be positive"),
        ([nan] * 4, {"window": 2, "divergence_bound": -1.0},
         "atol and divergence_bound must be positive"),
        ([1.0] * 3 + [nan], {"window": 2}, "cannot classify a trace holding NaN"),
        ([nan] + [1.0] * 23, {}, "cannot classify a trace holding NaN"),
    ]
    for values, kwargs, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_limit(form(values), **kwargs)
    # a value that is no number fails as float() fails, before any of them
    if form is not np.array:
        with pytest.raises(TypeError):
            classify_limit(form([None] * 3), window=0)


def test_point_trace_combines_componentwise():
    pts = [point(1.0, 2.0 ** (-j), float(2**j)) for j in range(24)]
    c = classify_point_trace(pts)
    assert c.kind == "diverging"
    pts = [point(1.0, 1.0, 0.32 if j % 2 else 0.95) for j in range(24)]
    c = classify_point_trace(pts)
    assert c.kind == "oscillating"
    assert c.limit is None
    pts = [point(1.0, 1.0, 2.0 ** (-j)) for j in range(24)]
    c = classify_point_trace(pts)
    assert c.kind == "converged"
    assert c.limit.x1 == 1.0


# --- grids ----------------------------------------------------------------------

def test_grid_values_are_geometric():
    grid = EpsGrid(eps0=1.0, ratio=0.5, count=4, window=2)
    assert grid.values() == (1.0, 0.5, 0.25, 0.125)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eps0=0.0),
        dict(eps0=-1.0),
        dict(ratio=1.0),
        dict(ratio=0.0),
        dict(count=1),
        dict(count=600),  # 2^-599 squared underflows
        dict(window=0),
        dict(count=11),  # the tail rule needs 2*window = 12 values
        dict(atol=0.0),
        dict(atol=math.inf),
        dict(atol=math.nan),
        dict(window=3.0),  # a window slices the trace, so it must be an integer
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        EpsGrid(**kwargs)


@pytest.mark.parametrize("field", ["eps0", "ratio", "count", "window", "atol"])
@pytest.mark.parametrize("flag", [True, False])
def test_grid_rejects_bools(field, flag):
    # a bool is an int to Python; a grid built from one would report
    # "eps0": true in a probe's parameters
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {flag!r}$"):
        EpsGrid(**{field: flag})


def test_probe_underflow_guard():
    # the guard protects eps^2 * |ubar| from the subnormal range; with the
    # default grid eps_min^2 is ~1.4e-14, so 1e-292 lands below the floor
    with pytest.raises(ValueError, match="underflow"):
        vertical_limit_probe(LIN, 1e-292)
    vertical_limit_probe(LIN, 1e-200)  # comfortably above the floor


def test_probe_overflow_guard():
    # eps0^2 * magnitude must be finite on every probe; a zero magnitude is no
    # exemption, since eps0^2 alone overflows
    big = EpsGrid(eps0=1e160)
    for call in (
        lambda: vertical_limit_probe(LIN, 1.0, big),
        lambda: vertical_limit_probe(OSC, 0.0, big),
        lambda: rescaled_product_probe(LIN, point(1, 0, 0), point(1, 0, 0), big),
        lambda: id_derivability_probe(LIN, point(1, 0, 0), big),
        lambda: metric_diff_probe(LIN, identity(), big),
        lambda: vertical_limit_probe(LIN, 1e20, EpsGrid(eps0=1e150)),
    ):
        with pytest.raises(ScaleOverflowError, match="eps0"):
            call()
    vertical_limit_probe(LIN, 1.0, EpsGrid(eps0=1e150))  # 1e300 is still finite


# --- scalar vertical probe -------------------------------------------------------

def test_linear_vertical_probe_converges_to_zero():
    tr = vertical_limit_probe(LIN, 1.0)
    assert tr.classification.kind == "converged"
    assert abs(tr.classification.limit) <= 1e-4
    # response at eps = 2^-20 is already tiny
    assert abs(tr.values[20]) <= 1e-4


def test_oscillatory_vertical_probe_oscillates():
    tr = vertical_limit_probe(OSC, 1.0)
    c = tr.classification
    assert c.kind == "oscillating"
    assert c.limsup - c.liminf >= 0.5


def test_ladder_verdicts_do_not_depend_on_grid_length():
    # the ladder is infinite, so no grid runs off its end into a linear tail:
    # the a-probe oscillates at every length (a finite 8-level table
    # converged from length 100 on), and so does beta
    p, q = point(1.0, 0.0, 0.0), point(0.0, 1.0, 0.0)
    for count in range(24, 161):
        grid = EpsGrid(count=count)
        assert vertical_limit_probe(OSC, 1.0, grid).classification.kind == "oscillating", count
        assert rescaled_product_probe(OSC, p, q, grid).classification.kind != "converged", count


def test_breakpoint_response_closed_form():
    # at a breakpoint b = r^n the profile is (1+c) b^2 with c the slope ratio,
    # so the response at eps = b sqrt(1+c) is exactly 1/sqrt(1+c)
    r, M = 1e-3, 10.0
    for n, c in ((2, M), (3, 1.0 / M), (4, M), (5, 1.0 / M)):
        b = r**n
        eps = b * math.sqrt(1.0 + c)
        want = 1.0 / math.sqrt(1.0 + c)
        got = _vertical_response_array(OSC, np.array([eps]), 1.0)[0]
        assert got == pytest.approx(want, rel=1e-10), (n, c)


def test_vertical_probe_zero_is_constant():
    tr = vertical_limit_probe(OSC, 0.0)
    assert tr.classification.kind == "converged"
    assert tr.classification.limit == 0.0


def test_trace_serialization():
    tr = vertical_limit_probe(LIN, 1.0)
    assert tr.header() == "epsilon,value"
    csv = tr.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epsilon,value"
    assert len(lines) == 1 + 24
    eps, val = lines[1].split(",")
    assert float(eps) == 1.0
    summary = tr.summary()
    assert summary["probe"] == "vertical-limit"
    assert summary["classification"]["kind"] == "converged"
    assert summary["parameters"]["ubar"] == 1.0


CSV_GRIDS = [EpsGrid(), EpsGrid(eps0=0.9, ratio=0.7, count=160)]


@pytest.mark.parametrize("grid", CSV_GRIDS, ids=["default", "eps0-0.9-ratio-0.7-count-160"])
@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_trace_csv_matches_row_by_row_oracle(grid, gauge):
    md = metric_diff_probe(gauge, point(0.3, -0.2, 0.5), grid)
    traces = [
        vertical_limit_probe(gauge, 1.0, grid),
        vertical_limit_probe(gauge, 0.0, grid),
        rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0), grid),
        id_derivability_probe(gauge, point(1, 0, 1), grid),
        *md.traces,
    ]
    assert len(md.traces) == 13
    for tr in traces:
        assert tr.grid is grid
        assert tr.to_csv().encode() == trace_csv(tr).encode()
    # the metric-diff table: column vNN holds trace NN's own CSV lines, byte for byte
    header, *rows, end = md.to_csv().split("\n")
    assert (header, end) == ("epsilon," + ",".join(f"v{i:02d}" for i in range(13)), "")
    cells = [row.split(",") for row in rows]
    for i, tr in enumerate(md.traces):
        assert [f"{c[0]},{c[i + 1]}" for c in cells] == tr.to_csv().split("\n")[1:-1]


def test_signed_zeros_render_apart(capsys, tmp_path):
    # probe beta --p=-1,-0.0,-0.0 --q=-1,-0.0,0: every row holds -0.0 and 0.0,
    # which compare equal as floats but render apart
    tr = rescaled_product_probe(LIN, point(-1.0, -0.0, -0.0), point(-1.0, -0.0, 0.0))
    csv = tr.to_csv()
    assert csv.encode() == trace_csv(tr).encode()
    rows = csv.split("\n")[1:-1]
    assert len(rows) == DEFAULT_GRID.count
    assert all(row.split(",", 1)[1] == "-2.0,-0.0,0.0" for row in rows)
    code = cli.main(["probe", "beta", "--p=-1,-0.0,-0.0", "--q=-1,-0.0,0", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "probe_beta.csv").read_bytes() == csv.encode()


# Cell values for the renderer: signed zeros, the least subnormal and other
# subnormals, the largest magnitudes, the infinities, NaNs of both signs, and
# ordinary values.
CSV_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan,
            1.0, -2.0, 0.1, 1 / 3, -1e-5, 123456.789)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_renders_each_cell_as_its_repr(data):
    count = data.draw(st.integers(2, 30), "count")
    k = data.draw(st.integers(1, 5), "k")
    pool = CSV_POOL + tuple(data.draw(st.lists(st.floats(), max_size=4), "extra"))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=count * k, max_size=count * k))
    values = np.array(cells, dtype=float).reshape(count, k)
    if data.draw(st.booleans(), "strided"):  # a point trace may be a transposed array
        values = np.array(cells, dtype=float).reshape(k, count).T
    grid = EpsGrid(count=count, window=1)
    assert limits._csv("h", grid, values) == table_csv("h", grid, values.tolist())


def test_metric_diff_table_renders_each_distinct_value_once(monkeypatch):
    # a linear metric-diff table at --count 160 holds 13 * 160 cells, most
    # of them repeats: horizontal directions keep their value over eps
    grid = EpsGrid(count=160)
    md = metric_diff_probe(LIN, identity(), grid)
    values = np.column_stack([tr.values for tr in md.traces])
    distinct = np.unique(values.view(np.int64)).size
    assert distinct < values.size // 2
    assert "eps_column" not in vars(grid)  # the epsilon column is rendered below too
    rendered = []

    def counted_repr(x):
        rendered.append(repr(x))
        return rendered[-1]

    monkeypatch.setattr(limits, "repr", counted_repr, raising=False)
    csv = md.to_csv()
    assert len(rendered) <= distinct + grid.count
    # and every cell came out of a counted call
    assert {c for row in csv.split("\n")[1:-1] for c in row.split(",")} <= set(rendered)
    assert csv == table_csv(csv.split("\n")[0], grid, values.tolist())


def test_grid_scales_are_computed_once_per_instance():
    for grid in CSV_GRIDS:
        values = grid.values()
        assert values == tuple(grid.eps0 * grid.ratio**j for j in range(grid.count))
        assert grid.values() is values
        assert grid.eps_column == tuple(map(repr, values))
        assert grid.eps_column is grid.eps_column
    # cached per instance, not per parameter set: an equal grid builds its own
    twin = EpsGrid(eps0=0.9, ratio=0.7, count=160)
    assert twin == CSV_GRIDS[1] and twin.values() is not CSV_GRIDS[1].values()


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_traces_are_read_only_arrays(gauge, monkeypatch):
    # a point trace is the kernel's (count, 3) array: the probe builds no
    # H1Point per scale, so their number does not grow with the grid
    built = []
    post_init = H1Point.__post_init__
    monkeypatch.setattr(H1Point, "__post_init__", lambda self: built.append(post_init(self)))
    p, q, u = point(1, 0, 0), point(0, 1, 0), point(1, 0, 1)
    calls = {}
    for count in (24, 160):
        grid = EpsGrid(count=count)
        for name, probe, args in (("beta", rescaled_product_probe, (p, q)),
                                  ("derivability", id_derivability_probe, (u,))):
            built.clear()
            tr = probe(gauge, *args, grid)
            calls.setdefault(name, set()).add(len(built))
            assert tr.values.shape == (count, 3) and tr.values.dtype == float
            assert not tr.values.flags.writeable
            rows = list(tr.rows())
            assert len(rows) == count
            assert all(type(r) is tuple and len(r) == 4 for r in rows)
            assert all(type(c) is float for r in rows for c in r)
    assert all(len(n) == 1 and max(n) <= 2 for n in calls.values()), calls
    tr = vertical_limit_probe(gauge, 1.0, EpsGrid(count=160))
    assert tr.values.shape == (160,) and not tr.values.flags.writeable
    assert all(type(e) is float and type(v) is float for e, v in tr.rows())


# --- rescaled product probe -------------------------------------------------------

def test_rescaled_product_probe_linear_converges():
    tr = rescaled_product_probe(LIN, point(1, 0, 0), point(0, 1, 0))
    c = tr.classification
    assert c.kind == "converged"
    assert c.limit.x1 == pytest.approx(1.0, abs=1e-12)
    assert c.limit.x2 == pytest.approx(1.0, abs=1e-12)
    assert c.limit.xbar == pytest.approx(0.0, abs=1e-4)
    assert tr.header() == "epsilon,x1,x2,xbar"


def test_rescaled_product_probe_oscillatory_does_not_converge():
    tr = rescaled_product_probe(OSC, point(1, 0, 0), point(0, 1, 0))
    assert tr.classification.kind != "converged"


# --- derivability probe -------------------------------------------------------------

def test_derivability_probe_linear():
    tr = id_derivability_probe(LIN, point(1, 0, 1))
    c = tr.classification
    assert c.kind == "converged"
    assert c.limit.x1 == 1.0
    assert abs(c.limit.xbar) <= 1e-4
    assert tr.meta["closed_form_residual"] <= 1e-9


def test_derivability_probe_oscillatory_vertical():
    tr = id_derivability_probe(OSC, point(0, 0, 1))
    assert tr.classification.kind == "oscillating"
    assert tr.meta["closed_form_residual"] <= 1e-9


def test_derivability_probe_horizontal_is_exact():
    tr = id_derivability_probe(OSC, point(1, -1, 0))
    assert tr.classification.kind == "converged"
    assert tr.classification.limit == point(1, -1, 0)


def _lumpy_gauge():
    """The linear gauge with k raised by a relative 1e-6 wherever the last
    mantissa bit of t is set, marked verified by hand.

    A wrong g cannot trip the closed-form guard: the trace and its closed form
    apply the same g to the same argument.  Their profile arguments differ
    only in rounding, (1/eps) * g versus g / eps, so a profile that jumps
    between neighbouring floats makes them disagree wherever the two round
    differently.
    """
    def k(t):
        return t * (1.0 + 1e-6 * (t.view(np.uint64) & 1))

    return replace(linear_gauge(), k=k, label="lumpy")


def test_scalar_profile_takes_a_k_written_for_arrays():
    # the lumpy k reads mantissa bits through an array view: the scalar
    # profile and the scalar bisection call it on one-element arrays
    gauge = _lumpy_gauge()
    for t in (0.5, 1.0, 1.0 + 2**-52, 3.0 + 2**-51):
        want = g_inverse_array(gauge, np.array([t]))[0]
        assert g_inverse_eval(gauge, t) == want
    assert g_inverse_eval(gauge, 1.0 + 2**-52) > (1.0 + 2**-52) * (2.0 + 2**-52)  # k raised
    for s in (1e-9, 0.5, 2.0, 1e6):
        assert invert_g(gauge, s) == _bisect_g(gauge._path[2], np.array([s]))[0]


def test_derivability_guard_names_first_offending_eps(capsys, monkeypatch):
    gauge, u = _lumpy_gauge(), point(1, 0, 1)
    grid = EpsGrid(ratio=0.7)

    def residual(e):  # the closed-form check of one grid point, on one-row kernels
        e = np.array([e])
        val = from_row(gauge_dilate_array(gauge, 1.0 / e, dilate_array(e, to_row(u))))
        vert = g_inverse_array(gauge, _vertical_response_array(gauge, e, u.xbar))[0]
        ref = point(u.x1, u.x2, vert)
        return point_diff(val, ref) / point_scale(val, ref)

    first = next(e for e in grid.values() if residual(e) > TOL_GAUGE)
    assert first != grid.eps0  # the grid starts inside the tolerance
    with pytest.raises(ArithmeticError, match=re.escape(f"at eps={first!r} deviates")):
        id_derivability_probe(gauge, u, grid)

    monkeypatch.setattr(cli, "linear_gauge", _lumpy_gauge)
    code = cli.main(["probe", "derivability", "--ratio", "0.7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("property violation: ")
    assert f"at eps={first!r} deviates" in captured.err


def _skewed_g_gauge():
    """The linear gauge with g_closed raised by a relative 1e-6, marked
    verified by hand.  The closed-form check cannot see this (both of its
    sides apply the same g); the profile round trip G(g(s)) = s does."""
    g = linear_gauge().g_closed
    return replace(linear_gauge(), g_closed=lambda s: g(s) * (1.0 + 1e-6),
                   label="skewed-g", verified=True)


def test_derivability_guard_checks_profile_round_trip(capsys, monkeypatch):
    gauge, u = _skewed_g_gauge(), point(1, 0, 1)
    grid = EpsGrid()
    with pytest.raises(ArithmeticError, match=re.escape(
            f"at eps={grid.eps0!r} fails the profile round trip")):
        id_derivability_probe(gauge, u, grid)
    # a horizontal u feeds g only zeros: nothing to round-trip
    assert id_derivability_probe(gauge, point(1, -1, 0), grid).classification.kind == "converged"

    monkeypatch.setattr(cli, "linear_gauge", _skewed_g_gauge)
    code = cli.main(["probe", "derivability"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("property violation: ")
    assert f"at eps={grid.eps0!r} fails the profile round trip" in captured.err


# --- metric differential --------------------------------------------------------------

def test_metric_differential_linear():
    assert metric_differential(LIN, point(3, 4, 2)) == pytest.approx(5.0, abs=1e-12)
    assert metric_differential(LIN, point(0, 0, 1)) == pytest.approx(0.0, abs=1e-4)


def test_metric_differential_raises_without_limit():
    with pytest.raises(NonConvergentLimitError):
        metric_differential(OSC, point(0, 0, 1))


# --- uniform convergence over a compact sample ----------------------------------------

def test_uniform_probe_linear():
    ubars = [0.25, 0.5, 1.0, 2.0, 4.0]
    rep = uniform_probe(lambda ub, grid: vertical_limit_probe(LIN, ub, grid), ubars)
    assert rep.passed, rep.to_text()


def test_uniform_probe_oscillatory_fails():
    ubars = [0.25, 0.5, 1.0, 2.0, 4.0]
    rep = uniform_probe(lambda ub, grid: vertical_limit_probe(OSC, ub, grid), ubars)
    assert not rep.passed


def test_uniform_probe_classifies_pointwise_traces_by_the_grid_rule():
    # the oscillatory response swings by about 0.8, so the default atol calls
    # every trace oscillating; a grid with atol 10 must judge the pointwise
    # traces by that atol as well as the sup-trace
    ubars = [0.25, 0.5, 1.0, 2.0, 4.0]
    grid = EpsGrid(count=30, window=5, atol=10.0)
    traces = []

    def probe(ub, g):
        traces.append(vertical_limit_probe(OSC, ub, g))
        return traces[-1]

    rep = uniform_probe(probe, ubars, grid)
    assert all(tr.grid is grid for tr in traces)
    assert all(tr.classification.kind == "converged" for tr in traces)
    assert [(c.name, c.passed, c.tolerance) for c in rep.checks] == [
        ("pointwise-convergence", True, 0.0), ("uniform-sup-convergence", True, 10.0)]


@pytest.mark.parametrize("ladder_at", [None, 1.0, 2.0])
def test_uniform_probe_checks_pass_by_their_numbers(ladder_at):
    # both checks follow the one pass rule; the pointwise check's violation is
    # 1 for each trace that did not converge, its witness the first such point
    def probe(ub, grid):
        return vertical_limit_probe(OSC if ub == ladder_at else LIN, ub, grid)

    ubars = [0.5, 1.0, 2.0]
    rep = uniform_probe(probe, ubars)
    for c in rep.checks:
        assert c.passed == (c.worst_violation <= c.tolerance), c
    pointwise = rep.checks[0]
    assert pointwise.name == "pointwise-convergence" and pointwise.tolerance == 0.0
    if ladder_at is None:
        assert rep.passed
        assert (pointwise.worst_violation, pointwise.witness) == (0.0, 0.5)
    else:
        assert probe(ladder_at, DEFAULT_GRID).classification.kind == "oscillating"
        assert not pointwise.passed and not rep.passed
        assert (pointwise.worst_violation, pointwise.witness) == (1.0, ladder_at)


def test_uniform_probe_rejects_a_point_valued_probe(monkeypatch):
    # the sup-deviation rule needs one scalar per scale; a point trace is
    # refused with a ValueError before the rule is reached, where it would
    # die on a TypeError
    def sup_deviation(values, grid):
        raise AssertionError("the sup-deviation rule ran on point traces")

    monkeypatch.setattr(limits, "_sup_deviation", sup_deviation)
    points = [point(1, 0, 1), point(0, 1, 2)]
    with pytest.raises(ValueError, match="probe must be scalar-valued"):
        uniform_probe(lambda p, g: id_derivability_probe(LIN, p, g), points)


# --- differentiability report ------------------------------------------------------------

def test_metric_diff_probe_linear_is_differentiable():
    rep = metric_diff_probe(LIN)
    assert rep.differentiable
    assert rep.witness is None
    for v, ev in zip(rep.directions, rep.eta):
        assert ev == pytest.approx(v.horizontal_norm(), abs=1e-3)
    for check in rep.seminorm_checks:
        assert check.passed, check.name


def test_metric_diff_probe_oscillatory_has_witness():
    rep = metric_diff_probe(OSC)
    assert not rep.differentiable
    assert rep.eta is None
    assert rep.witness is not None
    assert rep.witness.xbar != 0.0  # horizontal directions converge trivially
    kinds = {c.kind for c in rep.per_direction}
    assert "oscillating" in kinds
    assert not rep.seminorm_checks  # no seminorm without a limit


@pytest.mark.parametrize("count", [58, 100])
def test_metric_diff_probe_exact_at_nonzero_base(count):
    # b * dilate(eps, v) rounds to b once eps * |v| is small next to |b|;
    # the probe evaluates the exact increment, so the base cannot matter
    rep = metric_diff_probe(LIN, point(0.3, -0.2, 0.5), EpsGrid(count=count))
    assert rep.differentiable
    assert rep.directions[0] == point(1, 0, 0)
    assert rep.eta[0] == pytest.approx(1.0, abs=1e-12)
    assert all(c.passed for c in rep.seminorm_checks)


def test_metric_diff_probe_base_independence():
    at_e = metric_diff_probe(LIN)
    shifted = metric_diff_probe(LIN, base=point(0.5, -0.25, 1.0))
    assert shifted.differentiable
    for a, b in zip(at_e.eta, shifted.eta):
        assert a == pytest.approx(b, abs=1e-9)


def test_default_direction_grid_shape():
    dirs = default_direction_grid()
    assert len(dirs) >= 10
    assert any(v.xbar == 0.0 for v in dirs)
    assert any(v.horizontal_norm() == 0.0 for v in dirs)
    assert any(v.xbar != 0.0 and v.horizontal_norm() > 0.0 for v in dirs)


# --- equivalence of the two limit formulations ----------------------------------------------

HORIZONTAL_PAIRS = [
    (point(1, 0, 0), point(0, 1, 0)),
    (point(2, 0, 0), point(0, 1, 0)),
    (point(0.5, 0, 0), point(0, 1, 0)),
]


def test_equivalence_check_linear():
    rep = limit_equivalence_check(LIN, HORIZONTAL_PAIRS)
    assert rep.passed


def test_equivalence_check_oscillatory_agrees_on_failure():
    # both formulations refuse to converge: that is agreement
    rep = limit_equivalence_check(OSC, HORIZONTAL_PAIRS)
    assert rep.passed


def test_equivalence_check_input_validation():
    with pytest.raises(ValueError, match="horizontal"):
        limit_equivalence_check(LIN, [(point(1, 0, 1), point(0, 1, 0))])
    with pytest.raises(ValueError, match="area"):
        limit_equivalence_check(LIN, [(point(1, 0, 0), point(2, 0, 0))])
    with pytest.raises(ValueError):
        limit_equivalence_check(LIN, [])


# --- verdicts computed from their numbers -----------------------------------------

COMPONENT = {
    "converged": lambda i: Classification("converged", limit=float(i)),
    "oscillating": lambda i: Classification("oscillating", liminf=0.0, limsup=1.0),
    "diverging": lambda i: Classification("diverging"),
}


@pytest.mark.parametrize("kinds", list(itertools.product(COMPONENT, repeat=3)))
def test_point_classification_kind_and_limit_follow_the_components(kinds):
    comps = tuple(COMPONENT[k](i) for i, k in enumerate(kinds))
    c = PointClassification(comps)
    want = ("diverging" if "diverging" in kinds
            else "converged" if kinds == ("converged",) * 3
            else "oscillating")
    assert c.kind == want
    assert c.limit == (H1Point(0.0, 1.0, 2.0) if want == "converged" else None)
    with pytest.raises(TypeError):
        PointClassification(want, comps)


def test_trace_classifies_itself_and_freezes_its_values():
    values = np.linspace(1.0, 2.0, DEFAULT_GRID.count)
    assert values.flags.writeable
    tr = ConvergenceTrace("t", DEFAULT_GRID, values, {"gauge": "none"})
    assert tr.values is values and not values.flags.writeable
    assert tr.classification == classify_limit(values.tolist(), DEFAULT_GRID.window,
                                               DEFAULT_GRID.atol)
    with pytest.raises(TypeError):
        ConvergenceTrace("t", DEFAULT_GRID, values, classification=tr.classification)


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_every_probe_trace_is_classified_by_its_grid(gauge):
    grid = EpsGrid(count=40, window=8)
    traces = [
        vertical_limit_probe(gauge, 1.0, grid),
        rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0), grid),
        id_derivability_probe(gauge, point(1, 0, 1), grid),
        *metric_diff_probe(gauge, grid=grid).traces,
    ]
    for tr in traces:
        assert tr.grid is grid
        assert tr.classification == limits._classify(tr.values, grid.window, grid.atol)
