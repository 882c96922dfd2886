"""Trace classification and the limit probes.

The frozen oracles here are independent of the probe implementation: profile
values at the oscillatory breakpoints have the closed form 1/sqrt(1+c) with c
the local slope ratio, and the linear-gauge response tends to zero linearly.
"""

import math
import random
import re
import statistics
import struct
from dataclasses import replace

import pytest

from h1gauge import cli
from h1gauge.dilatations import dilate, gauge_dilate
from h1gauge.gauges import g_inverse_eval, linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import H1Point, identity, point
from h1gauge.limits import (
    CLOSED_FORM_TOL,
    _fmean,
    Classification,
    EpsGrid,
    NonConvergentLimitError,
    ScaleOverflowError,
    classify_limit,
    classify_point_trace,
    default_direction_grid,
    id_derivability_probe,
    limit_equivalence_check,
    metric_diff_probe,
    metric_differential,
    rescaled_product_probe,
    uniform_probe,
    vertical_limit_probe,
    vertical_response,
)
from reference import point_diff, point_scale, trace_csv

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
        got = vertical_response(OSC, eps, 1.0)
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
        return t * (1.0 + 1e-6 * (struct.pack("<d", t)[0] & 1))

    return replace(linear_gauge(), k=k, label="lumpy")


def test_derivability_guard_names_first_offending_eps(capsys, monkeypatch):
    gauge, u = _lumpy_gauge(), point(1, 0, 1)
    grid = EpsGrid(ratio=0.7)

    def residual(e):  # the closed-form check of one grid point, through H1Point
        val = gauge_dilate(gauge, 1.0 / e, dilate(e, u))
        ref = point(u.x1, u.x2, g_inverse_eval(gauge, vertical_response(gauge, e, u.xbar)))
        return point_diff(val, ref) / point_scale(val, ref)

    first = next(e for e in grid.values() if residual(e) > CLOSED_FORM_TOL)
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
        ("pointwise-convergence", True, 10.0), ("uniform-sup-convergence", True, 10.0)]


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
