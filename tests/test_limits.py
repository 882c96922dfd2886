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
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from h1gauge import cli, heisenberg, limits
from h1gauge.dilatations import dilate_array, gauge_dilate_array
from h1gauge.gauges import (
    _bisect_g,
    g_array,
    g_inverse_array,
    g_inverse_eval,
    invert_g,
    linear_gauge,
    oscillatory_gauge,
    piecewise_gauge,
    verified_gauge,
)
from h1gauge.heisenberg import H1Point, from_row, identity, mul, point, symplectic_area, to_row
from h1gauge.limits import (
    _fmean,
    _response,
    Classification,
    ConvergenceTrace,
    EpsGrid,
    MetricDiffReport,
    PointClassification,
    Response,
    ScaleOverflowError,
    classify_limit,
    DEFAULT_GRID,
    classify_point_trace,
    default_direction_grid,
    id_derivability_probe,
    metric_diff_probe,
    rescaled_product_probe,
    vertical_limit_probe,
)
from h1gauge.report import TOL_ALGEBRA, TOL_GAUGE
import reference as ref
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
        got = _response(OSC, EpsGrid(eps0=eps, count=2, window=1))[1].values[0]
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
    # a trace of each metric-diff direction, built here from its row
    per_direction = [ConvergenceTrace("metric-diff", grid, row) for row in md.values]
    traces = [
        vertical_limit_probe(gauge, 1.0, grid),
        vertical_limit_probe(gauge, 0.0, grid),
        rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0), grid),
        id_derivability_probe(gauge, point(1, 0, 1), grid),
        *per_direction,
    ]
    assert md.values.shape == (13, grid.count) and md.grid is grid
    for tr in traces:
        assert tr.grid is grid
        assert tr.to_csv().encode() == trace_csv(tr).encode()
    # the metric-diff table: column vNN holds trace NN's own CSV lines, byte for byte
    header, *rows, end = md.to_csv().split("\n")
    assert (header, end) == ("epsilon," + ",".join(f"v{i:02d}" for i in range(13)), "")
    cells = [row.split(",") for row in rows]
    for i, tr in enumerate(per_direction):
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
    limits._grid_scales.cache_clear()  # so the epsilon column's reprs are counted too
    rendered = []

    def counted_repr(x):
        rendered.append(repr(x))
        return rendered[-1]

    monkeypatch.setattr(limits, "repr", counted_repr, raising=False)
    grid = EpsGrid(count=160)
    md = metric_diff_probe(LIN, identity(), grid)
    values = md.values.T
    distinct = np.unique(values.view(np.int64)).size
    assert distinct < values.size // 2
    csv = md.to_csv()
    assert len(rendered) <= distinct + grid.count
    # and every cell came out of a counted call
    assert {c for row in csv.split("\n")[1:-1] for c in row.split(",")} <= set(rendered)
    assert csv == table_csv(csv.split("\n")[0], grid, values.tolist())


def test_equal_grids_share_one_scale_tuple():
    # the scales, their column and their array are computed once per
    # (eps0, ratio, count) in the process: window and atol do not enter
    for grid in CSV_GRIDS:
        values = grid.values()
        assert values == tuple(grid.eps0 * grid.ratio**j for j in range(grid.count))
        assert grid.eps_column == tuple(map(repr, values))
        assert grid.array().tolist() == list(values) and not grid.array().flags.writeable
        twin = EpsGrid(eps0=grid.eps0, ratio=grid.ratio, count=grid.count)
        assert twin.values() is values
        assert twin.eps_column is grid.eps_column and twin.array() is grid.array()
        other = replace(grid, window=1, atol=2 * grid.atol)
        assert other != grid and other.values() is values and other.eps_column is grid.eps_column
    assert replace(CSV_GRIDS[0], ratio=0.7).values() != CSV_GRIDS[0].values()
    assert limits._grid_scales.cache_info().maxsize == limits._GRID_CACHE_SIZE


GRID_KEYS = st.tuples(st.floats(1e-3, 1e3), st.floats(0.05, 0.95), st.integers(2, 60))


@settings(max_examples=100, deadline=None)
@given(st.lists(GRID_KEYS, min_size=1, max_size=4).flatmap(
    lambda keys: st.lists(st.sampled_from(keys), min_size=1, max_size=12)))
def test_shared_scales_are_each_grids_own(keys):
    # grids drawn in any order, equal keys repeating, each read the scales
    # of their own fields, to the bit, and the repr column of those scales
    for eps0, ratio, count in keys:
        grid = EpsGrid(eps0=eps0, ratio=ratio, count=count, window=1)
        want = [eps0 * ratio**j for j in range(count)]
        assert [x.hex() for x in grid.values()] == [x.hex() for x in want]
        assert grid.eps_column == tuple(map(repr, want))
        assert grid.array().tolist() == want


def test_numpy_scalar_grid_writes_the_float_grids_bytes():
    # eps0, ratio and atol are stored as Python floats, so a grid built from
    # numpy scalars writes no np.float64(...) cell on numpy 2
    grid = EpsGrid(eps0=np.float64(1.0), ratio=np.float64(0.5), count=12, atol=np.float64(1e-4))
    plain = EpsGrid(count=12)
    csv = vertical_limit_probe(LIN, 1.0, grid).to_csv()
    assert csv == vertical_limit_probe(LIN, 1.0, plain).to_csv()
    assert csv.split("\n")[1].startswith("1.0,")
    assert grid == plain and all(type(getattr(grid, f)) is float for f in ("eps0", "ratio", "atol"))


def test_numpy_integer_grid_writes_the_int_grids_bytes():
    # count and window are read through operator.index and stored as Python
    # ints: any integer type is accepted, a bool or a float never
    grid = EpsGrid(count=np.int64(24), window=np.int32(6))
    plain = EpsGrid(count=24, window=6)
    assert type(grid.count) is int and type(grid.window) is int and grid == plain
    assert grid.values() is plain.values() and grid.eps_column is plain.eps_column
    assert vertical_limit_probe(OSC, 1.0, grid).to_csv() == vertical_limit_probe(
        OSC, 1.0, plain).to_csv()
    trace = np.linspace(0.0, 1.0, 12)
    assert classify_limit(trace, window=np.int64(6)) == classify_limit(trace, window=6)
    for kwargs in (dict(count=24.0), dict(count=np.float64(24.0)), dict(window=np.True_)):
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            EpsGrid(**kwargs)


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
        vert = g_inverse_array(gauge, g_array(gauge, e * e * abs(u.xbar)) / e)[0]
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


# --- the metric differential and uniform convergence, as maps of R --------------------

def test_metric_differential_is_the_a_probe_limit_mapped():
    # max(|v_h|, the a-probe's limit at v's vertical part), where that converges
    for v, want, tol in ((point(3, 4, 2), 5.0, 1e-12), (point(0, 0, 1), 0.0, 1e-4)):
        c = vertical_limit_probe(LIN, v.xbar).classification
        assert max(v.horizontal_norm(), c.limit) == pytest.approx(want, abs=tol)
    assert vertical_limit_probe(OSC, 1.0).classification.limit is None


@pytest.mark.parametrize("gauge, kind", [(LIN, "converged"), (OSC, "oscillating")],
                         ids=["linear", "oscillatory"])
def test_a_probe_converges_uniformly_on_a_compact_exactly_when_r_does(gauge, kind):
    # on ubar in [a, b] every trace is sqrt(ubar) R(eps sqrt(ubar)): one kind,
    # R's, and on the linear gauge the sup deviation from the mapped limits
    # over the last window stays within atol
    ubars = [0.25, 0.5, 1.0, 2.0, 4.0]
    traces = [vertical_limit_probe(gauge, ub) for ub in ubars]
    assert {tr.classification.kind for tr in traces} == {kind}
    assert all(tr.response.classification.kind == kind for tr in traces)
    if kind == "converged":
        window = DEFAULT_GRID.window
        sup = max(np.abs(tr.values[-window:] - tr.classification.limit).max() for tr in traces)
        assert sup <= DEFAULT_GRID.atol


# --- differentiability report ------------------------------------------------------------

def test_metric_diff_probe_linear_is_differentiable():
    rep = metric_diff_probe(LIN)
    assert rep.differentiable
    assert rep.witness is None
    for v, ev in zip(rep.directions, rep.eta):
        assert ev == pytest.approx(v.horizontal_norm(), abs=1e-3)


def test_metric_diff_probe_oscillatory_has_witness():
    rep = metric_diff_probe(OSC)
    assert not rep.differentiable
    assert rep.eta is None
    assert rep.witness is not None
    assert rep.witness.xbar != 0.0  # horizontal directions converge trivially
    kinds = {c.kind for c in rep.per_direction}
    assert "oscillating" in kinds


@pytest.mark.parametrize("count", [58, 100])
def test_metric_diff_probe_exact_at_nonzero_base(count):
    # b * dilate(eps, v) rounds to b once eps * |v| is small next to |b|;
    # the probe evaluates the exact increment, so the base cannot matter
    rep = metric_diff_probe(LIN, point(0.3, -0.2, 0.5), EpsGrid(count=count))
    assert rep.differentiable
    assert rep.directions[0] == point(1, 0, 0)
    assert rep.eta[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("count, index", [(24, 11), (126, 10)])
def test_metric_diff_direction_oscillates_where_r_s_band_passes_its_horizontal_norm(count, index):
    # on the ladder, R's tail band reaches above |v_h| / sqrt|vbar| for
    # (-0.5, 0.5, 1) on the default grid ([0.0203, 0.8165] against 0.7071)
    # and for (0.25, 0.25, 2) at count 126 (sqrt(2) * 0.4164 = 0.589 against
    # 0.354): the trace moves with R there, so the direction oscillates
    rep = metric_diff_probe(OSC, identity(), EpsGrid(count=count))
    v, c, r = rep.directions[index], rep.per_direction[index], rep.response.classification
    root = math.sqrt(abs(v.xbar))
    assert v.horizontal_norm() < root * r.limsup
    assert (c.kind, c.liminf, c.limsup) == (
        "oscillating", max(v.horizontal_norm(), root * r.liminf), root * r.limsup)


def _hand_made_report(response, values=None):
    n, count = len(default_direction_grid()), DEFAULT_GRID.count
    values = np.ones((n, count)) if values is None else values
    return MetricDiffReport(identity(), default_direction_grid(), values,
                            Response(DEFAULT_GRID, response))


def test_metric_diff_report_derives_its_verdict_from_r():
    dirs, count = default_direction_grid(), DEFAULT_GRID.count
    # R flat at L: every direction converges to max(|v_h|, sqrt|vbar| L)
    flat = _hand_made_report(np.full(count, 0.25))
    want = tuple(max(v.horizontal_norm(), math.sqrt(abs(v.xbar)) * 0.25) for v in dirs)
    assert flat.response.classification == Classification("converged", limit=0.25)
    assert flat.differentiable and flat.witness is None
    assert flat.eta == want
    assert [c.limit for c in flat.per_direction] == list(want)

    # R alternating between 0.1 and 0.9: a band [0.1 root, 0.9 root] per
    # direction, cut from below at |v_h|; a band the cut closes converges
    r = 0.1 + 0.8 * (np.arange(count) % 2)
    rep = _hand_made_report(r)
    assert rep.response.classification == Classification("oscillating", liminf=0.1, limsup=0.9)
    assert not rep.differentiable and rep.eta is None
    for v, c in zip(dirs, rep.per_direction):
        h, root = v.horizontal_norm(), math.sqrt(abs(v.xbar))
        if h >= 0.9 * root:
            assert c == Classification("converged", limit=h)
        else:
            assert c == Classification("oscillating", liminf=max(h, 0.1 * root),
                                       limsup=0.9 * root)
    # the widest band is (0, 0, 2)'s, 0.8 sqrt(2)
    assert rep.witness == point(0, 0, 2) == dirs[6]

    # the values are the traces, written to the CSV; the verdict is R's
    assert _hand_made_report(r, np.zeros((len(dirs), count))).per_direction == rep.per_direction


def test_metric_diff_witness_is_the_first_widest_band():
    # directions (0, 0, 1) and (0, 0, -1) map R alike: the first is the witness
    dirs = [point(1, 0, 0), point(0, 0, 1), point(0, 0, -1), point(0, 0, 0.5)]
    r = 0.1 + 0.8 * (np.arange(DEFAULT_GRID.count) % 2)
    rep = MetricDiffReport(identity(), tuple(dirs), np.ones((len(dirs), DEFAULT_GRID.count)),
                           Response(DEFAULT_GRID, r))
    assert [c.kind for c in rep.per_direction] == ["converged", *["oscillating"] * 3]
    assert rep.witness is dirs[1]


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_metric_diff_probe_report_is_its_arrays(gauge):
    rep = metric_diff_probe(gauge)
    again = _hand_made_report(rep.response.values, rep.values)
    assert again.response.classification == rep.response.classification
    for name in ("per_direction", "differentiable", "eta", "witness"):
        assert getattr(again, name) == getattr(rep, name), name
    # R on the grid is the response of probe a at ubar = 1
    assert rep.response.values.tobytes() == vertical_limit_probe(gauge, 1.0).values.tobytes()


@pytest.mark.parametrize("name", ["differentiable", "eta", "witness", "per_direction", "grid"])
def test_metric_diff_report_refuses_its_derived_fields(name):
    # the grid is the response's: a report has four settable fields
    values = np.ones((len(default_direction_grid()), DEFAULT_GRID.count))
    response = Response(DEFAULT_GRID, np.ones(DEFAULT_GRID.count))
    assert [f.name for f in fields(MetricDiffReport) if f.init] == [
        "base", "directions", "values", "response"]
    with pytest.raises(TypeError):
        MetricDiffReport(identity(), default_direction_grid(), values, response, **{name: None})


def test_metric_diff_report_freezes_its_arrays():
    values = np.ones((len(default_direction_grid()), DEFAULT_GRID.count))
    response = np.ones(DEFAULT_GRID.count)
    assert values.flags.writeable and response.flags.writeable
    rep = _hand_made_report(response, values)
    assert rep.values is values and not values.flags.writeable
    assert rep.response.values is response and not response.flags.writeable
    with pytest.raises(ValueError):
        rep.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        rep.response.values[0] = 2.0
    for obj, name in ((rep, "differentiable"), (rep, "grid"), (rep.response, "classification")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
    # one row per direction and one column per scale, nothing else; R one
    # value per scale
    with pytest.raises(ValueError, match="must be \\(directions, count\\)"):
        _hand_made_report(response,
                          np.ones((DEFAULT_GRID.count, len(default_direction_grid()))))
    with pytest.raises(ValueError, match="must be \\(count,\\)"):
        _hand_made_report(np.ones(DEFAULT_GRID.count - 1))


def _eta(L, x):
    """The seminorm the metric differential is when R converges to L."""
    return max(math.hypot(x.x1, x.x2), L * math.sqrt(abs(x.xbar)))


# points away from the subnormal range, so that dyadic scaling is exact
COORD = st.one_of(st.just(0.0), st.builds(lambda e, sign: sign * 10.0**e, st.floats(-6.0, 6.0),
                                          st.sampled_from((-1.0, 1.0))))
POINTS = st.builds(point, COORD, COORD, COORD)


def _r_classes(ends):
    return (st.builds(lambda x: Classification("converged", limit=x), ends)
            | st.builds(lambda a, b: Classification("oscillating", liminf=min(a, b),
                                                    limsup=max(a, b)), ends, ends)
            | st.just(Classification("diverging")))


R_ENDS = st.floats(0.0, 1.0) | st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1e-300))
R_CLASSES = _r_classes(R_ENDS)
# R lies in [0, 1] (MetricDiffReport's docstring), where every map of it is defined
UNIT_R_CLASSES = _r_classes(st.floats(0.0, 1.0) | st.sampled_from((0.0, 1e-300, 0.5)))


def _response_classified_as(r):
    """A Response whose classification is set to r: mapped reads nothing
    else, and the tail rule on values cannot reach every r drawn here."""
    response = Response(DEFAULT_GRID, np.zeros(DEFAULT_GRID.count))
    object.__setattr__(response, "classification", r)
    return response


# maps of R to one trace column: probe a, derivability at a negative ubar and
# beta of negative area (decreasing), and a direction whose |v_h| collapses
# every band below it
ONE_COLUMN_MAPS = {
    "a": lambda x: math.sqrt(3.5) * x,
    "derivability-negative-ubar": limits._vertical_map(OSC, -4.0),
    "beta-negative-area": limits._vertical_map(
        OSC, 2.0 * symplectic_area(point(0, 1, 0).horizontal, point(1, 0, 0).horizontal)),
    "derivability-linear": limits._vertical_map(LIN, 3.0),
    "collapsing-direction": ref.direction_map(point(0.5, 0, 1)),
}


@pytest.mark.parametrize("name", ONE_COLUMN_MAPS)
@settings(max_examples=100)
@given(r=UNIT_R_CLASSES)
def test_mapped_is_the_scalar_rule_on_one_column(name, r):
    # the bits of the scalar rule, one map call per column, and the width of
    # its band: 0 where it converges, inf where R diverges
    to_trace = ONE_COLUMN_MAPS[name]
    (got,), (width,) = _response_classified_as(r).mapped(to_trace)
    want = ref.mapped(r, to_trace)
    assert repr(got) == repr(want)
    assert width == (math.inf if want.kind == "diverging" else
                     0.0 if want.kind == "converged" else want.limsup - want.liminf)


@settings(max_examples=300)
@given(r=R_CLASSES, extra=st.lists(POINTS, max_size=4))
def test_direction_verdict_is_each_direction_mapped(r, extra):
    # mapped on every direction at once gives the bits of the scalar rule
    # applied one direction at a time, with its collapse rule, and the first
    # direction of widest band
    for dirs in (default_direction_grid(), (*default_direction_grid(), *extra), tuple(extra)):
        got = limits._direction_verdict(_response_classified_as(r), dirs)
        want = ref.direction_verdict(r, dirs)
        assert repr(got) == repr(want)
        assert got[3] is want[3]


def test_mapped_is_the_scalar_rule_on_the_probes():
    # on the ladder R oscillates: derivability at a negative ubar and beta of
    # negative area swap the band's ends, and the horizontal norm of a
    # direction collapses some bands to one value, which converges there
    trace_a = vertical_limit_probe(OSC, -3.5)
    r = trace_a.response.classification
    assert r.kind == "oscillating"
    assert repr(trace_a.classification) == repr(ref.mapped(r, trace_a.response_map))
    for tr in (id_derivability_probe(OSC, point(1, 0, -4)),
               id_derivability_probe(OSC, point(0, 0, 4)),
               rescaled_product_probe(OSC, point(0, 1, 0), point(1, 0, 0)),
               rescaled_product_probe(OSC, point(1, 0, 0), point(0, 1, 0))):
        assert tr.response.classification == r
        assert repr(tr.classification.components[2]) == repr(ref.mapped(r, tr.response_map))
    swapped = id_derivability_probe(OSC, point(0, 0, -4)).classification.components[2]
    assert swapped.limsup == -g_inverse_array(OSC, np.array([2.0 * r.liminf]))[0]
    md = metric_diff_probe(OSC)
    assert repr(limits._direction_verdict(md.response, md.directions)) == repr(
        ref.direction_verdict(r, md.directions))
    collapsed = [c for c in md.per_direction if c.kind == "converged"]
    assert len(collapsed) > 4 and md.witness is not None  # the 4 horizontal and (2, 0, 0.5)


def test_a_diverging_response_maps_to_diverging_columns():
    response = Response(DEFAULT_GRID, np.full(DEFAULT_GRID.count, 2e6))
    assert response.classification == Classification("diverging")
    assert response.mapped(lambda x: 2.0 * x) == ((Classification("diverging"),), (math.inf,))
    dirs = default_direction_grid()
    got = limits._direction_verdict(response, dirs)
    assert got == ((Classification("diverging"),) * len(dirs), False, None, dirs[0])
    assert repr(got) == repr(ref.direction_verdict(response.classification, dirs))


@settings(max_examples=300)
@given(L=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), v=POINTS, w=POINTS,
       k=st.integers(-20, 20))
def test_eta_is_a_homogeneous_subadditive_seminorm(L, v, w, k):
    # the seminorm laws the metric-diff report no longer checks at run time
    # (MetricDiffReport's docstring proves them for L in [0, 1])
    lam = 2.0**k
    assert _eta(L, ref.dilate(lam, v)) == lam * _eta(L, v)
    a, b = _eta(L, v), _eta(L, w)
    assert _eta(L, mul(v, w)) - (a + b) <= TOL_ALGEBRA * max(1.0, a + b)


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


# the ladder's R swings by about 0.8: the default atol calls it oscillating,
# an atol of 10 converged, and every probe follows its grid's atol
@pytest.mark.parametrize("grid", [EpsGrid(count=40, window=8),
                                  EpsGrid(count=30, window=5, atol=10.0)], ids=["window-8", "atol-10"])
@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_every_probe_trace_is_classified_by_its_grid(gauge, grid):
    traces = [
        vertical_limit_probe(gauge, 1.0, grid),
        rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0), grid),
        id_derivability_probe(gauge, point(1, 0, 1), grid),
    ]
    # each holds R, so its kind is R's by the grid's tail rule, its vertical
    # limit or band R's mapped, and its horizontal part the last window's mean
    r = _response(gauge, grid)[1].classification
    for tr in traces:
        assert tr.grid is grid and tr.response.classification == r
        mapped = ref.mapped(r, tr.response_map)
        if tr.values.ndim == 1:
            assert tr.classification == mapped
        else:
            horizontal = [Classification("converged", limit=_fmean(c))
                          for c in tr.values[-grid.window:, :2].T.tolist()]
            assert tr.classification.components == (*horizontal, mapped)
    md = metric_diff_probe(gauge, grid=grid)
    assert md.grid is grid and md.response.classification == r
    assert repr(md.per_direction) == repr(tuple(ref.mapped(r, ref.direction_map(v))
                                                for v in md.directions))


# --- one response R behind every probe ------------------------------------------------

R_GAUGES = {
    "linear": LIN,
    "ladder": OSC,
    "piecewise": piecewise_gauge([1, 2, 4], [1, 3, 9]),
    "square": verified_gauge(lambda t: t * t, label="square"),  # raw: lockstep bisection
}
# log-uniform over [1e-12, 1e12], either sign
MAGNITUDES = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-12.0, 12.0),
                       st.sampled_from((-1.0, 1.0)))
ULPS = 8


def _mapped_r(gauge, c):
    """sqrt|c| * R(eps sqrt|c|) on the default grid, R evaluated on its own."""
    root = math.sqrt(abs(c))
    d = np.array(DEFAULT_GRID.values()) * root
    return root * (g_array(gauge, d * d) / d)


def _assert_ulps(got, want):
    assert np.all(np.abs(got - want) <= ULPS * np.spacing(np.maximum(abs(got), abs(want)))), (
        got, want)


def _assert_vertical_maps_r(gauge, vertical, c):
    # vertical is sgn(c) * G(sqrt|c| * R(eps sqrt|c|)); G amplifies the
    # rounding of its argument by its condition number, so the identity is
    # compared in R's coordinates, through g, which does not
    assert np.all(np.sign(vertical) == math.copysign(1.0, c))
    _assert_ulps(g_array(gauge, np.abs(vertical)), _mapped_r(gauge, c))


@pytest.mark.parametrize("gauge", R_GAUGES.values(), ids=R_GAUGES.keys())
@settings(max_examples=40, deadline=None)
@given(ubar=MAGNITUDES, p=st.tuples(MAGNITUDES, MAGNITUDES), q=st.tuples(MAGNITUDES, MAGNITUDES))
def test_every_probe_is_a_map_of_one_response(gauge, ubar, p, q):
    # g(eps^2 |c|)/eps = sqrt|c| R(eps sqrt|c|) exactly: each trace equals its
    # map of R to a few ulps, and its kind is R's at every scale of the input
    kind = vertical_limit_probe(gauge, 1.0).classification.kind
    a = vertical_limit_probe(gauge, ubar)
    _assert_ulps(a.values, _mapped_r(gauge, ubar))

    u = point(*p, ubar)
    derivability = id_derivability_probe(gauge, u)
    assert np.all(derivability.values[:, :2] == p)
    _assert_vertical_maps_r(gauge, derivability.values[:, 2], ubar)

    pp, qq = point(*p, 0.0), point(*q, 0.0)
    c = 2.0 * symplectic_area(pp.horizontal, qq.horizontal)
    assume(c != 0.0)
    beta = rescaled_product_probe(gauge, pp, qq)
    assert np.all(beta.values[:, :2] == np.add(p, q))
    _assert_vertical_maps_r(gauge, beta.values[:, 2], c)

    for tr in (a, derivability, beta):
        assert tr.classification.kind == tr.response.classification.kind == kind


@pytest.mark.parametrize("gauge", [LIN, OSC], ids=["linear", "oscillatory"])
def test_each_probe_classifies_r_once(gauge, monkeypatch):
    # R is classified when its Response is built, and nowhere else: a trace
    # or report that holds it maps it; a probe without R classifies its column
    seen = []
    classify = limits.classify_limit
    monkeypatch.setattr(limits, "classify_limit", lambda v, *a: seen.append(v) or classify(v, *a))
    for probe in (lambda: vertical_limit_probe(gauge, 2.0),
                  lambda: rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0)),
                  lambda: id_derivability_probe(gauge, point(1, 0, -1)),
                  lambda: metric_diff_probe(gauge)):
        seen.clear()
        response = probe().response
        assert [v is response.values for v in seen] == [True]
    seen.clear()
    trace = vertical_limit_probe(gauge, 0.0)
    assert trace.response is None and [v.base is trace.values for v in seen] == [True]


def test_a_trace_refuses_a_response_on_another_grid():
    response = _response(OSC, DEFAULT_GRID)[1]
    values = np.ones(DEFAULT_GRID.count)
    equal = EpsGrid(count=DEFAULT_GRID.count)
    assert ConvergenceTrace("t", equal, values, {}, response, lambda x: x).classification == (
        response.classification)
    for grid in (EpsGrid(count=DEFAULT_GRID.count, atol=1.0), EpsGrid(eps0=0.5)):
        with pytest.raises(ValueError, match="the response is on"):
            ConvergenceTrace("t", grid, values, {}, response, lambda x: x)


def test_a_report_refuses_values_off_its_response_grid():
    # one row per direction, one column per scale of the response's grid
    n, count = len(default_direction_grid()), DEFAULT_GRID.count
    response = Response(DEFAULT_GRID, np.ones(count))
    for shape in ((n, count + 1), (n - 1, count), (count, n), (n * count,)):
        with pytest.raises(ValueError, match="must be \\(directions, count\\)"):
            MetricDiffReport(identity(), default_direction_grid(), np.ones(shape), response)
    with pytest.raises(ValueError, match="response must be \\(count,\\)"):
        Response(EpsGrid(count=30), np.ones(count))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_decreasing_map_swaps_the_band(sign):
    # derivability at ubar < 0 is -G(sqrt|ubar| R): R's liminf maps to limsup
    r = vertical_limit_probe(OSC, 1.0).classification
    c = id_derivability_probe(OSC, point(0, 0, sign * 4.0)).classification.components[2]
    ends = [sign * g_inverse_array(OSC, np.array([2.0 * x]))[0] for x in (r.liminf, r.limsup)]
    assert c.kind == "oscillating" and [c.liminf, c.limsup] == sorted(ends)


def test_the_tail_rule_decides_where_the_trace_is_not_a_map_of_r():
    # ubar = 0, area 0 and a beta operand with a vertical part hold no R
    traces = [vertical_limit_probe(OSC, 0.0), id_derivability_probe(OSC, point(1, 0, 0)),
              rescaled_product_probe(OSC, point(1, 0, 0), point(2, 0, 0)),
              rescaled_product_probe(OSC, point(1, 0, 0), point(0, 1, 1))]
    window, atol = DEFAULT_GRID.window, DEFAULT_GRID.atol
    for tr in traces:
        assert tr.response is None
        assert tr.summary()["response"] is None
        if tr.values.ndim == 1:
            assert tr.classification == classify_limit(tr.values, window, atol)
        else:  # the horizontal part is constant by the group law
            vertical = classify_limit(tr.values[:, 2], window, atol)
            horizontal = [Classification("converged", limit=_fmean(c))
                          for c in tr.values[-window:, :2].T.tolist()]
            assert tr.classification.components == (*horizontal, vertical)


@pytest.mark.parametrize("argv", [["beta", "--p=1e7,0,0", "--q=2e7,0,0"],
                                  ["derivability", "--u=2e6,0,0"]], ids=["beta", "derivability"])
def test_constant_horizontals_never_read_diverging(capsys, argv):
    # both traces are constant, their horizontal part beyond the divergence
    # bound 1e6: the tail rule decides only the vertical part, here 0
    assert cli.main(["probe", *argv]) == 0
    assert "classification: converged" in capsys.readouterr().out.splitlines()
