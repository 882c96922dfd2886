"""Exit codes, output files, and determinism of the command-line front end."""

import errno
import importlib.util
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h1gauge
from h1gauge import cli
from h1gauge.cli import _temp_names, _write_atomic, main
from h1gauge.gauges import invert_g, linear_gauge, load_gauge, oscillatory_gauge
from h1gauge.heisenberg import identity, point
from h1gauge.limits import ConvergenceTrace, EpsGrid, MetricDiffReport, metric_diff_probe
from h1gauge.metrics import SampleBox, sample_battery
from h1gauge.report import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- probe ---------------------------------------------------------------------

def test_probe_a_default(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "probe", "a", "--out", str(out))
    assert code == 0
    assert "classification: converged" in stdout
    csv = (out / "probe_a.csv").read_text()
    assert csv.startswith("epsilon,value\n")
    assert len(csv.strip().split("\n")) == 25
    summary = json.loads((out / "probe_a.json").read_text())
    assert summary["classification"]["kind"] == "converged"
    assert summary["gauge"] == "linear"


def test_probe_a_oscillatory_structured(capsys):
    code, stdout, _ = run(
        capsys, "probe", "a",
        "--gauge", '{"type": "oscillatory"}',
        "--format", "structured",
    )
    assert code == 0  # a classification is a finding, not a failure
    summary = json.loads(stdout)
    c = summary["classification"]
    assert c["kind"] == "oscillating"
    assert c["limsup"] - c["liminf"] >= 0.5


def test_probe_beta_points(capsys, tmp_path):
    out = tmp_path / "beta"
    code, stdout, _ = run(
        capsys, "probe", "beta", "--p", "1,0,0", "--q", "0,1,0", "--out", str(out)
    )
    assert code == 0
    csv = (out / "probe_beta.csv").read_text()
    assert csv.startswith("epsilon,x1,x2,xbar\n")


def test_probe_derivability(capsys):
    code, stdout, _ = run(capsys, "probe", "derivability", "--u", "1,0,1",
                          "--format", "structured")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["classification"]["kind"] == "converged"
    assert summary["parameters"]["closed_form_residual"] <= 1e-9


def test_probes_near_the_float_maximum(capsys, tmp_path):
    """The linear gauge's g stays finite where 4s would overflow: the vertical
    limit at ubar 5e307 starts at g(5e307), and derivability there holds."""
    out = tmp_path / "a"
    code, _, _ = run(capsys, "probe", "a", "--ubar", "5e307", "--out", str(out))
    assert code == 0
    eps, value = (out / "probe_a.csv").read_text().split("\n")[1].split(",")
    assert float(eps) == 1.0
    assert float(value) == pytest.approx(invert_g(linear_gauge(), 5e307), rel=1e-15)
    assert run(capsys, "probe", "derivability", "--u=0,0,5e307")[::2] == (0, "")


# Exact g, ill-conditioned G: just past a knot the slope of G jumps (1e-6 to
# about 1e3, or by a factor near M/r), so rounding g(s) to a float moves
# G(g(s)) by up to 5.5e-9 * s on these grids, five times the closed-form
# tolerance, and the profile round trip must allow for that.
@pytest.mark.parametrize("spec, count", [
    ('{"type": "piecewise", "breakpoints": [1e-6, 1], "values": [1e-12, 1000]}', 24),
    ('{"type": "oscillatory", "M": 10, "r": 1e-7, "levels": 4}', 200),
], ids=["steep-knot", "oscillatory-r-1e-7"])
def test_probe_derivability_allows_for_conditioning_of_profile(capsys, spec, count):
    code, stdout, err = run(capsys, "probe", "derivability", "--gauge", spec,
                            "--count", str(count), "--format", "structured")
    assert (code, err) == (0, "")
    assert json.loads(stdout)["parameters"]["closed_form_residual"] <= 1e-9


def test_probe_metric_diff_writes_direction_traces(capsys, tmp_path):
    out = tmp_path / "md"
    code, stdout, _ = run(capsys, "probe", "metric-diff", "--out", str(out),
                          "--format", "structured")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["differentiable"] is True
    csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert csvs == ["probe_metric-diff.csv"]  # one table: epsilon, then a column per direction
    header = (out / csvs[0]).read_text().split("\n", 1)[0].split(",")
    assert len(header) == len(payload["directions"]) + 1


@pytest.mark.parametrize("kind", sorted(cli.PROBES))
def test_probe_calls_the_function_bound_on_cli_when_it_runs(capsys, monkeypatch, kind):
    # cmd_probe looks its function up by name at call time, so a binding
    # replaced on cli (a wrapper, a tracer) sees every probe task
    name, point_flags = cli.PROBES[kind]
    probe, seen = getattr(cli, name), []

    def recorded(*args):
        seen.append(args)
        return probe(*args)

    monkeypatch.setattr(cli, name, recorded)
    code, stdout, _ = run(capsys, "probe", kind, "--format", "structured")
    assert code == 0 and json.loads(stdout)["command"] == "probe"
    assert len(seen) == 1 and len(seen[0]) == 2 + len(point_flags)
    assert seen[0][-1] == EpsGrid()


@pytest.mark.parametrize("count", [24, 160])
@pytest.mark.parametrize("base", [None, "0.3,-0.2,0.5"], ids=["identity", "base"])
@pytest.mark.parametrize("spec", [None, '{"type": "oscillatory"}'], ids=["linear", "oscillatory"])
def test_metric_diff_table_keeps_every_number(capsys, tmp_path, spec, base, count):
    argv = ["probe", "metric-diff", "--count", str(count), "--format", "structured",
            *([] if spec is None else ["--gauge", spec]),
            *([] if base is None else [f"--base={base}"])]
    code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path / "r1"))
    assert code == 0
    directions = json.loads(stdout)["directions"]
    grid = EpsGrid(count=count)
    report = metric_diff_probe(linear_gauge() if spec is None else load_gauge(spec),
                               identity() if base is None else point(0.3, -0.2, 0.5), grid)
    assert directions == [list(v.as_tuple()) for v in report.directions]

    lines = (tmp_path / "r1" / "probe_metric-diff.csv").read_text().split("\n")
    assert lines[0] == ",".join(["epsilon", *(f"v{i:02d}" for i in range(len(directions)))])
    assert lines[-1] == ""
    epsilon, *columns = zip(*(line.split(",") for line in lines[1:-1]))
    assert epsilon == grid.eps_column
    assert len(columns) == len(report.values)
    for column, row in zip(columns, report.values):  # column vNN is directions[NN]'s trace
        assert np.array([float(x) for x in column]).tobytes() == row.tobytes()

    code, rerun, _ = run(capsys, *argv, "--out", str(tmp_path / "r2"))
    assert (code, rerun) == (0, stdout)
    assert _collect(tmp_path / "r2") == _collect(tmp_path / "r1")


CSV_RUNS = [(["probe", "a"], 1), (["probe", "beta"], 1), (["probe", "derivability"], 1),
            (["probe", "metric-diff"], 1), (["counterexample", "--samples", "5"], 2)]


@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
@pytest.mark.parametrize("fmt", ["structured", "table"])
@pytest.mark.parametrize("argv, n_csv", CSV_RUNS,
                         ids=["a", "beta", "derivability", "metric-diff", "counterexample"])
def test_trace_csvs_are_rendered_only_when_written_or_printed(
        capsys, monkeypatch, tmp_path, argv, n_csv, fmt, out):
    rendered = []
    for cls in (ConvergenceTrace, MetricDiffReport):
        monkeypatch.setattr(cls, "to_csv", lambda self, render=cls.to_csv:
                            rendered.append(self) or render(self))
    code, _, _ = run(capsys, *argv, "--format", fmt, *(["--out", str(tmp_path)] if out else []))
    assert code == 0
    written = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
    assert len(written) == (n_csv if out else 0)
    # a single probe's table starts with its CSV; the other tables hold none
    printed = fmt == "table" and argv[0] == "probe" and argv[1] != "metric-diff"
    assert len(rendered) == (len(written) if out else int(printed))
    assert len({id(obj) for obj in rendered}) == len(rendered)  # each CSV rendered once


# --- config errors: exit 2, no partial output ------------------------------------

def test_short_grid_is_config_error(capsys, tmp_path):
    out = tmp_path / "never"
    code, _, err = run(capsys, "probe", "beta", "--count", "2", "--out", str(out))
    assert code == 2
    assert "count" in err
    assert not out.exists()  # nothing was written


GRID_FLAGS = [("--eps0", "0.5"), ("--ratio", "0.5"), ("--count", "24"), ("--window", "6"),
              ("--atol", "1e-4")]
SAMPLING_FLAGS = [("--seed", "9"), ("--samples", "5"), ("--box", "1,1")]
UNREAD_FLAGS = [
    *[(["verify"], flag) for flag in GRID_FLAGS],
    *[(["gauge-check"], flag) for flag in GRID_FLAGS + SAMPLING_FLAGS],
    (["probe", "a"], ("--seed", "9")),
    (["probe", "beta"], ("--samples", "5")),
    (["probe", "metric-diff"], ("--box", "1,1")),
    (["probe", "a"], ("--p", "1,0,0")),  # another probe's point flag
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{'-'.join(c)}{f}" for c, (f, _) in UNREAD_FLAGS])
def test_unread_flag_is_usage_error(capsys, tmp_path, command, flag):
    # each command declares only the flags it reads; any other valid-looking
    # flag is rejected by the parser before any output
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag, "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]} {flag[1]}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_missing_gauge_file_is_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--gauge", str(tmp_path / "nope.json"))
    assert code == 2


def test_malformed_gauge_spec_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "piecewise", "breakpoints": [1, 2], "values": [2, 1]}')
    code, _, err = run(capsys, "verify", "--gauge", str(bad))
    assert code == 2
    assert "gauge" in err


@pytest.mark.parametrize(
    "spec,key",
    [
        ('{"type": "piecewise", "breakpoints": "123", "values": "136"}', "breakpoints"),
        ('{"type": "piecewise", "breakpoints": [1, 2, 3], "values": "136"}', "values"),
        ('{"type": "piecewise", "breakpoints": {"a": 1}, "values": [1]}', "breakpoints"),
        ('{"type": "piecewise", "breakpoints": [1, true], "values": [1, 3]}', "breakpoints"),
        ('{"type": "piecewise", "breakpoints": [1, 2], "values": [1, "3"]}', "values"),
        ('{"type": "oscillatory", "M": true}', "M"),
        ('{"type": "oscillatory", "M": "10"}', "M"),
        ('{"type": "oscillatory", "r": "0.001"}', "r"),
        ('{"type": "oscillatory", "r": null}', "r"),
        ('{"type": "oscillatory", "M": 1' + "0" * 400 + "}", "M"),
        ('{"type": "oscillatory", "levels": 8.9}', "levels"),
        ('{"type": "oscillatory", "levels": 8.0}', "levels"),
        ('{"type": "oscillatory", "levels": "8"}', "levels"),
        ('{"type": "oscillatory", "levels": true}', "levels"),
        ('{"type": []}', "type"),
        ('{"type": {}}', "type"),
    ],
    ids=[
        "breakpoints-and-values-strings", "values-string", "breakpoints-object",
        "breakpoint-bool", "value-string", "M-bool", "M-string", "r-string", "r-null",
        "M-beyond-float", "levels-fraction", "levels-float", "levels-string", "levels-bool",
        "type-array", "type-object",
    ],
)
def test_mistyped_gauge_spec_is_config_error(capsys, tmp_path, spec, key):
    out = tmp_path / "never"
    code, _, err = run(capsys, "gauge-check", "--gauge", spec, "--out", str(out))
    assert code == 2
    assert "cannot load gauge" in err and repr(key) in err
    assert not out.exists()


def test_over_deep_gauge_spec_is_config_error(capsys, tmp_path):
    # deeper than the json decoder's recursion limit
    depth = 100_000
    spec = tmp_path / "deep.json"
    spec.write_text('{"type": "linear", "x": ' + "[" * depth + "]" * depth + "}")
    out = tmp_path / "never"
    code, stdout, err = run(capsys, "gauge-check", "--gauge", str(spec), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: cannot load gauge: gauge spec is nested too deeply\n"
    assert not out.exists()


def test_levels_is_accepted_and_ignored(capsys):
    # the ladder is a function of (M, r): any integer levels >= 4 names the
    # same gauge, however large
    runs = [run(capsys, "gauge-check", "--gauge", spec, "--format", "structured")
            for spec in ('{"type": "oscillatory"}', '{"type": "oscillatory", "levels": 1000000}')]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and '"gauge": "oscillatory(M=10.0,r=0.001)"' in runs[0][1]


def test_non_convex_ladder_is_config_error(capsys, tmp_path):
    # inside r < 1/M^2, outside r*M^2*(1 + r) - r^3 <= 1: named by its keys
    out = tmp_path / "never"
    spec = '{"type": "oscillatory", "M": 1.01, "r": 0.9}'
    code, stdout, err = run(capsys, "verify", "--gauge", spec, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "cannot load gauge: M=1.01, r=0.9" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "x"], ids=["file", "below-file"])
def test_out_through_a_file_is_config_error(capsys, tmp_path, below):
    # --out names an existing file, or a path below one: a usage error,
    # with nothing written and the file untouched
    (tmp_path / "report").write_text("kept\n")
    out = tmp_path / "report" / below if below else tmp_path / "report"
    code, stdout, err = run(capsys, "gauge-check", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --out: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["report"]
    assert (tmp_path / "report").read_text() == "kept\n"


@pytest.mark.parametrize("argv, blocked", [
    (["verify", "--samples", "5"], "verify_report.json"),
    (["probe", "a"], "probe_a.csv"),  # the second of two outputs
], ids=["verify", "probe-a"])
def test_directory_in_the_way_of_an_output_is_config_error(capsys, tmp_path, argv, blocked):
    # every output name is checked before the first write, so nothing is
    # written beside the directory
    (tmp_path / blocked).mkdir()
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert err == f"error: --out: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: " \
                  f"'{tmp_path / blocked}'\n"
    assert os.listdir(tmp_path) == [blocked]


def test_symlink_to_a_directory_is_replaced(capsys, tmp_path):
    # os.replace swaps the link itself, so a link in the way is no conflict
    (tmp_path / "d").mkdir()
    (tmp_path / "gauge_check_report.json").symlink_to("d")
    assert run(capsys, "gauge-check", "--out", str(tmp_path))[0] == 0
    assert (tmp_path / "gauge_check_report.json").is_file()
    assert os.listdir(tmp_path / "d") == []


def test_only_an_existing_out_directory_is_scanned(capsys, tmp_path, monkeypatch):
    # a directory this run makes is empty, so nothing in it can be in the way
    scanned, scandir = [], os.scandir
    monkeypatch.setattr(os, "scandir", lambda path: scanned.append(path) or scandir(path))
    out = tmp_path / "new" / "run"
    assert run(capsys, "gauge-check", "--out", str(out))[0] == 0
    assert scanned == []
    assert run(capsys, "gauge-check", "--out", str(out))[0] == 0
    assert scanned == [out]
    assert os.listdir(out) == ["gauge_check_report.json"]


def test_failed_write_is_config_error(capsys, tmp_path, monkeypatch):
    def full(path, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr("h1gauge.cli._write_atomic", full)
    code, stdout, err = run(capsys, "gauge-check", "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert err == f"error: --out: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: " \
                  f"'{tmp_path / 'gauge_check_report.json'}'\n"


def test_configs_share_the_default_box():
    # a SampleBox is frozen with read-only widths, so one default serves all
    parser = cli.build_parser()
    a, b = (cli._config_from(parser.parse_args(["verify"])) for _ in range(2))
    assert a.box is b.box and a.box == SampleBox()
    own = cli._config_from(parser.parse_args(["verify", "--box", "3,5"])).box
    assert own == SampleBox(3.0, 5.0) and own is not a.box


def test_bad_box_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--box", "1")
    assert code == 2
    # non-finite or oversized half-widths are rejected before any sampling
    for box in ("inf,1", "1e200,1", "1,1e300"):
        code, _, err = run(capsys, "verify", "--box", box)
        assert code == 2, box
        assert "--box" in err and "Traceback" not in err, box


@pytest.mark.parametrize("argv,message", [
    (["probe", "beta", "--p", "1,0"],
     "--p expects three comma-separated numbers, got '1,0'"),
    (["probe", "beta", "--p", "1,x,0"], "--p: could not convert string to float: 'x'"),
    (["verify", "--box", "1,2,3"], "--box expects 'horizontal,vertical', got '1,2,3'"),
    (["verify", "--box", "1,y"], "--box: could not convert string to float: 'y'"),
], ids=["p-count", "p-number", "box-count", "box-number"])
def test_comma_separated_flag_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_kernel_overflow_is_one_line_config_error(capsys):
    # the kernel's finiteness check reports the overflow; numpy warns nothing
    # on the way, so stderr is the error line alone
    code, stdout, err = run(capsys, "probe", "beta",
                            "--p=1e300,1e300,1e300", "--q=1e300,1e300,1e300")
    assert code == 2
    assert err == "error: non-finite value in array\n"
    assert stdout == ""


OVERFLOWING_PIECEWISE = '{"type":"piecewise","breakpoints":[1],"values":[1e308]}'


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["gauge-check"], ["verify", "--samples", "5"],
                                     ["counterexample", "--samples", "5"]],
                         ids=lambda c: c[0])
def test_overflowing_gauge_is_one_line_config_error(capsys, tmp_path, command):
    # the constructor accepts the spec, but k overflows on check_gauge's grid
    out = tmp_path / "never"
    code, stdout, err = run(capsys, *command, "--gauge", OVERFLOWING_PIECEWISE,
                            "--out", str(out))
    assert code == 2
    assert err == "error: --gauge: non-finite value in array\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_piecewise_slope_underflow_is_one_line_config_error(capsys):
    # finite positive data whose secant slope rounds to 0: the constructor
    # rejects it, as it does every other invalid spec
    spec = '{"type":"piecewise","breakpoints":[1e300],"values":[1e-300]}'
    code, stdout, err = run(capsys, "gauge-check", "--gauge", spec)
    assert (code, stdout) == (2, "")
    assert err == ("error: cannot load gauge: secant slopes must be positive and finite: "
                   "segment 0 has slope 0.0\n")


def test_underflow_grid_is_config_error(capsys):
    code, _, err = run(capsys, "probe", "a", "--count", "550")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "a"],
        ["probe", "a", "--eps0", "1e300", "--gauge", '{"type": "oscillatory"}'],
        ["probe", "a", "--ubar", "0"],
        ["probe", "beta"],
        ["probe", "derivability"],
        ["probe", "metric-diff"],
        ["counterexample", "--samples", "5"],
    ],
    ids=["a", "a-oscillatory-1e300", "a-ubar-0", "beta", "derivability", "metric-diff",
         "counterexample"],
)
def test_overflowing_eps0_is_config_error(capsys, tmp_path, argv):
    # eps0^2 overflows: rejected before any output, naming the flag
    out = tmp_path / "never"
    if "--eps0" not in argv:
        argv = [*argv, "--eps0", "1e160"]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "--eps0" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [["verify"], ["counterexample"]], ids=lambda c: c[0])
def test_negative_seed_is_config_error(capsys, tmp_path, command):
    out = tmp_path / "never"
    code, stdout, err = run(capsys, *command, "--samples", "5", "--seed", "-1", "--out", str(out))
    assert code == 2
    assert "--seed" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("atol", ["inf", "1e400", "nan"])
@pytest.mark.parametrize(
    "command",
    [["probe", "a"], ["probe", "metric-diff"], ["counterexample", "--samples", "5"]],
    ids=["a", "metric-diff", "counterexample"],
)
def test_non_finite_atol_is_config_error(capsys, tmp_path, command, atol):
    # an infinite atol would call every trace converged and print "Infinity",
    # which is not JSON
    out = tmp_path / "never"
    code, stdout, err = run(capsys, *command, "--atol", atol, "--out", str(out))
    assert code == 2
    assert "--atol" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["counterexample", "--count", "5", "--seed", "-1"], "count must be at least 2*window = 12 "),
    (["verify", "--seed", "-1", "--gauge", "nope.json"], "--seed must be >= 0, got -1\n"),
    (["probe", "a", "--atol", "nan", "--gauge", "nope.json"],
     "--atol must be positive and finite, got nan\n"),
], ids=["grid-before-sampling", "sampling-before-gauge", "grid-before-gauge"])
def test_config_errors_come_grid_then_sampling_then_gauge(capsys, tmp_path, monkeypatch, argv,
                                                          message):
    monkeypatch.chdir(tmp_path)  # where nope.json does not exist
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Each leaf's flags, with a value that leaves the run valid.  OUT stands for
# the test's output directory.
OUTPUT_FLAGS = [("--gauge", '{"type":"oscillatory"}'), ("--out", "OUT"), ("--format", "structured")]
POINT_FLAGS = {"a": [("--ubar", "2.0")], "beta": [("--p", "1,0,0"), ("--q", "0,1,0")],
               "derivability": [("--u", "1,0,1")], "metric-diff": [("--base", "0.3,-0.2,0.5")]}
LEAF_FLAGS = {
    ("verify",): OUTPUT_FLAGS + SAMPLING_FLAGS,
    ("counterexample",): OUTPUT_FLAGS + GRID_FLAGS + SAMPLING_FLAGS,
    ("gauge-check",): OUTPUT_FLAGS,
    **{("probe", kind): OUTPUT_FLAGS + GRID_FLAGS + flags for kind, flags in POINT_FLAGS.items()},
}
PARSE_CORPUS = [
    *[pytest.param([*leaf], id="_".join(leaf)) for leaf in LEAF_FLAGS],
    # every flag of each leaf, as "--x v" and as "--x=v"
    *[pytest.param([*leaf, *(word for pair in flags for word in pair)], id="_".join([*leaf, "flags"]))
      for leaf, flags in LEAF_FLAGS.items()],
    *[pytest.param([*leaf, *(f"{flag}={value}" for flag, value in flags)],
                   id="_".join([*leaf, "flags="]))
      for leaf, flags in LEAF_FLAGS.items()],
    *[pytest.param(argv, id="_".join(argv) or "root") for argv in [
        ["probe", "beta", "--p=-1,0,0"],
        *[[*words, "-h"] for words in [[], ["probe"], *LEAF_FLAGS]],
        ["frobnicate"], ["probe"],
        *[[*command, *flag] for command, flag in UNREAD_FLAGS],
        ["verify", "--samples"], ["verify", "--samples", "x"],
        ["verify", "--box", "1"], ["probe", "beta", "--p", "1,0"],
        ["verify", "--", "x"], ["probe", "a", "x"],
    ]],
]


def _outcome(capsys, argv, out_dir):
    """main's exit code, returned or raised, its stdout and stderr, and the
    files it left in out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}
    return code, captured.out, captured.err, files


def test_parse_corpus_names_every_probe():
    assert sorted(POINT_FLAGS) == sorted(cli.PROBES)


@pytest.mark.parametrize("argv", PARSE_CORPUS)
def test_leaf_parse_is_the_tree_parse(capsys, monkeypatch, tmp_path, argv):
    # the reference is the tree's parse_args followed by main's dispatch:
    # exit code, stdout, stderr and files match byte for byte, and so does
    # the namespace wherever the tree parses argv
    out_dir = tmp_path / "out"
    argv = [word.replace("OUT", str(out_dir)) for word in argv]
    try:
        tree_args = cli.build_parser().parse_args(argv)
    except (SystemExit, cli.ConfigError):
        tree_args = None
    capsys.readouterr()
    if tree_args is not None:
        assert vars(cli._parse(argv)) == vars(tree_args)
    got = _outcome(capsys, argv, out_dir)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert got == _outcome(capsys, argv, out_dir)


@pytest.mark.parametrize("argv", [["verify", "--samples", "5"], ["counterexample", "--samples", "5"],
                                  ["gauge-check"], *[["probe", kind] for kind in POINT_FLAGS]],
                         ids="_".join)
def test_a_call_that_names_a_leaf_skips_the_tree(capsys, monkeypatch, argv):
    def tree_parse(*_):
        raise AssertionError("the parser tree parsed a call that names a leaf")

    monkeypatch.setattr(cli.build_parser(), "parse_args", tree_parse)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out


# --- verify ------------------------------------------------------------------------

def test_structured_output_builds_no_table(capsys, monkeypatch):
    def table(self):
        raise AssertionError("the table text was built for structured output")

    monkeypatch.setattr(VerificationReport, "to_text", table)
    for argv in (["verify", "--samples", "12"], ["gauge-check"]):
        code, stdout, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0 and json.loads(stdout)["passed"] is True


def test_verify_linear_passes(capsys, tmp_path):
    out = tmp_path / "v"
    code, stdout, _ = run(capsys, "verify", "--samples", "120", "--out", str(out))
    assert code == 0
    assert "all checks passed" in stdout
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "gauge/round-trip" in names
    assert "flatten-isometry" in names


VERIFY_CHECKS = [
    "gauge/origin", "gauge/strict-increase", "gauge/midpoint-convexity", "gauge/round-trip",
    "group-associativity", "group-identity", "group-inverse", "intrinsic-dilation-scaling",
    "triangle-intrinsic", "triangle-gauge", "triangle-transported", "lipschitz-id",
    "left-invariance", "flatten-isometry", "dilatation-semigroup", "dilatation-homogeneity",
    "rescaled-distance-identity", "conjugation", "flatten-homomorphism",
    "transported-associativity", "transported-unit-inverse", "transported-norm-homogeneity",
]
CHECK_KEYS = ["name", "passed", "worst_violation", "tolerance", "witness", "details"]


@pytest.mark.parametrize("samples", [1, 12, 500])
@pytest.mark.parametrize("spec", [None, '{"type": "oscillatory"}'], ids=["linear", "oscillatory"])
def test_verify_report_schema(capsys, tmp_path, spec, samples):
    # the schema that consumers of verify_report.json parse: check names and
    # order, keys, "<n> samples" details; values are not pinned
    gauge = ["--gauge", spec] if spec else []
    argv = ["verify", *gauge, "--samples", str(samples), "--seed", "7", "--out", str(tmp_path)]
    code, stdout, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    payload = json.loads(stdout)
    assert (tmp_path / "verify_report.json").read_text() == stdout
    assert list(payload) == ["command", "gauge", "title", "passed", "checks"]
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == VERIFY_CHECKS
    for c in payload["checks"]:
        assert list(c) == CHECK_KEYS
        if c["name"].startswith("gauge/"):
            assert c["details"] == ""
        elif c["name"] == "dilatation-semigroup":  # one full cycle of the 441 scale pairs
            assert c["details"] == f"{max(samples, 441)} samples"
        else:
            assert c["details"] == f"{samples} samples"
    code, table, _ = run(capsys, *argv)
    assert code == 0 and "np." not in table and table.endswith("all checks passed\n")
    assert run(capsys, "verify", *gauge, "--samples", "0")[0] == 2


@pytest.mark.parametrize("spec", [None, '{"type": "oscillatory"}'], ids=["linear", "oscillatory"])
def test_verify_runs_the_library_battery(capsys, spec):
    gauge = ["--gauge", spec] if spec else []
    code, stdout, _ = run(capsys, "verify", *gauge, "--samples", "40", "--seed", "3",
                          "--box", "1.5,2.5", "--format", "structured")
    assert code == 0
    checks = [c for c in json.loads(stdout)["checks"] if not c["name"].startswith("gauge/")]
    battery = sample_battery(load_gauge(spec) if spec else linear_gauge(), 40, 3,
                             SampleBox(1.5, 2.5))
    assert checks == [c.to_dict() for c in battery]


@pytest.mark.parametrize("argv,built", [
    (["verify", "--samples", "5"], 1),
    (["verify", "--gauge", '{"type":"oscillatory"}', "--samples", "5000"], 1),
    (["counterexample", "--samples", "5"], 1),
    (["probe", "a"], 0),
    (["probe", "metric-diff", "--count", "40"], 0),
    (["gauge-check"], 0),
], ids=["verify", "verify-two-chunks", "counterexample", "probe-a", "probe-metric-diff",
        "gauge-check"])
def test_a_run_seeds_at_most_one_generator(capsys, monkeypatch, argv, built):
    # building a generator from an int costs more than the battery's draws at
    # small sample counts: the battery builds one and hands it on
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        if not isinstance(seed, np.random.Generator):
            seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert run(capsys, *argv)[0] == 0
    assert len(seeds) == built


def test_import_leaves_numpy_random_to_the_samplers():
    # numpy 2 loads numpy.random on first use; importing the CLI must not
    # be that use, or every command pays for it at start-up
    src = str(Path(h1gauge.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import h1gauge.cli; "
            "print(before, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[1] == out[0]


def test_verify_skips_samplers_when_the_contract_fails(capsys, tmp_path):
    # a flat step of k fails the gauge contract, so the samplers are skipped
    code, _, _ = run(capsys, "verify", "--samples", "50", "--out", str(tmp_path / "raw"),
                     "--gauge", '{"type":"piecewise","breakpoints":[1],"values":[1e-320]}')
    assert code == 1
    text = (tmp_path / "raw" / "verify_report.json").read_text()
    payload = json.loads(text)
    assert payload["passed"] is False
    skipped = [c for c in payload["checks"] if c["name"] == "samplers-skipped"]
    assert len(skipped) == 1 and skipped[0]["worst_violation"] == math.inf
    # the one non-finite value a report holds, spelled as json spells it
    assert '"name": "samplers-skipped", "passed": false, "worst_violation": Infinity,' in text


# --- counterexample -------------------------------------------------------------------

def test_counterexample_reproduces(capsys, tmp_path):
    out = tmp_path / "ce"
    code, stdout, _ = run(
        capsys, "counterexample", "--samples", "60", "--out", str(out),
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["reproduced"] is True
    assert payload["deviation"] is None
    stages = {s["stage"]: s for s in payload["stages"]}
    assert stages["a-probe"]["observed"] == "oscillating"
    assert stages["beta-probe"]["ok"]
    assert stages["metric-diff"]["ok"]
    assert stages["equivalence"]["ok"]
    assert (out / "counterexample_a_trace.csv").exists()
    assert (out / "counterexample_beta_trace.csv").exists()


@pytest.mark.parametrize("count", [24, 58, 90, 100, 126, 160])
def test_counterexample_reproduces_at_every_grid_length(capsys, count):
    # with a finite 8-level table the pattern broke from --count 90 on
    code, stdout, _ = run(capsys, "counterexample", "--count", str(count), "--samples", "20")
    assert code == 0, stdout
    assert stdout.endswith("pattern reproduced\n")


@pytest.mark.parametrize("argv, message", [
    # every stage's trace has a vertical magnitude of at least 1, so none
    # underflows on a grid that the grid's own check admits: that check fails
    # first, at 508 scales (507 reproduces the pattern)
    (["--count", "508"], "error: grid underflow: eps[507] = 2.3866690339840662e-153 has square "
     "below the floor 2.2250738585072014e-305\n"),
    # the beta stage's pair is the first trace to overflow
    (["--eps0", "1.2e154"],
     "error: --eps0: eps0 = 1.2e+154 drives eps0^2 * 2.0 to inf; lower eps0 or rescale\n"),
], ids=["underflow", "overflow"])
def test_counterexample_first_scale_error(capsys, tmp_path, argv, message):
    out = tmp_path / "ce"
    code, stdout, err = run(capsys, "counterexample", *argv, "--samples", "5", "--out", str(out))
    assert (code, stdout, err) == (2, "", message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--count", "508"], ["--eps0", "1.2e154"]],
                         ids=["underflow", "overflow"])
def test_counterexample_rejects_a_bad_grid_before_the_battery(capsys, monkeypatch, argv):
    want = run(capsys, "counterexample", *argv, "--samples", "5")

    def battery(*args):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "sample_battery", battery)
    assert run(capsys, "counterexample", *argv, "--samples", "5") == want
    assert want[0] == 2


def test_counterexample_computes_each_trace_once(capsys, monkeypatch):
    # the a and beta stages' traces are two of the equivalence pairs' six,
    # and the metric-diff stage maps the a stage's R: no metric_diff_probe
    calls = {"vertical_limit_probe": [], "rescaled_product_probe": [], "metric_diff_probe": []}

    def counted(probe, seen):
        def call(*args):
            seen.append(args)
            return probe(*args)
        return call

    for name, seen in calls.items():
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), seen))
    code, stdout, _ = run(capsys, "counterexample", "--samples", "5")
    assert code == 0 and stdout.endswith("pattern reproduced\n")
    assert {name: len(seen) for name, seen in calls.items()} == {
        "vertical_limit_probe": 3, "rescaled_product_probe": 3, "metric_diff_probe": 0}
    # the equivalence stage reads the a-probe at ubar = 2 * area: 2, 4 and 1
    assert [args[1] for args in calls["vertical_limit_probe"]] == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("skew, code", [(1e-10, 0), (1e-6, 1)])
def test_counterexample_equivalence_is_an_identity_residual(capsys, monkeypatch, skew, code):
    # a beta trace whose vertical part is off its map of the a-probe by a
    # relative skew keeps every kind, but fails the identity above TOL_GAUGE
    probe = cli.rescaled_product_probe

    def skewed(gauge, p, q, grid):
        tr = probe(gauge, p, q, grid)
        return ConvergenceTrace(tr.name, grid, tr.values * [1.0, 1.0, 1.0 + skew], tr.meta,
                                tr.response, tr.response_map)

    monkeypatch.setattr(cli, "rescaled_product_probe", skewed)
    got, stdout, _ = run(capsys, "counterexample", "--samples", "5")
    assert got == code
    assert stdout.endswith("pattern reproduced\n" if code == 0 else
                           "not reproduced: equivalence: expected agreement, observed disagreement\n")


# the seed-3 probe-mix beta task: p and q nearly collinear, so the vertical
# part is small enough for the last window to look flat under atol
SEED3_BETA = ["probe", "beta", "--gauge", '{"type": "oscillatory", "M": 24.751473466654094, '
              '"r": 0.0008161460607036814, "levels": 8}', "--count", "126",
              "--p=-0.6070142500500038,-0.913483885494292,0.0",
              "--q=0.24762222003681789,0.37997057089328057,0.0"]
LADDER = '{"type": "oscillatory"}'


@pytest.mark.parametrize("argv, kind", [
    (["probe", "a", "--gauge", LADDER, "--ubar", "1e-8"], "oscillating"),
    (["probe", "a", "--gauge", LADDER, "--ubar", "1e-10"], "oscillating"),
    (["probe", "beta", "--gauge", LADDER, "--p=1e-3,0,0", "--q=0,1e-3,0"], "oscillating"),
    (["probe", "derivability", "--gauge", LADDER, "--u=0,0,1e-8"], "oscillating"),
    (["probe", "a", "--ubar", "32"], "converged"),
    (["probe", "a", "--ubar", "1e6"], "converged"),
    (["probe", "a", "--ubar", "1e13"], "converged"),
    (["probe", "beta", "--p=4,0,0", "--q=0,4,0"], "converged"),
    (["probe", "derivability", "--u=0,0,32"], "converged"),
    (SEED3_BETA, "oscillating"),
], ids=["ladder-a-1e-8", "ladder-a-1e-10", "ladder-beta-1e-3", "ladder-derivability-1e-8",
        "linear-a-32", "linear-a-1e6", "linear-a-1e13", "linear-beta-4", "linear-derivability-32",
        "seed3-beta"])
def test_a_verdict_does_not_depend_on_the_input_scale(capsys, argv, kind):
    # each input's scale is far from 1, where an absolute atol misjudges a
    # probe's own trace; R's kind is the gauge's, whatever the scale
    code, stdout, _ = run(capsys, *argv, "--format", "structured")
    report = json.loads(stdout)
    assert code == 0
    assert report["classification"]["kind"] == report["response"]["kind"] == kind


def test_counterexample_linear_gauge_deviates(capsys):
    code, stdout, _ = run(
        capsys, "counterexample", "--gauge", '{"type": "linear"}', "--samples", "60"
    )
    assert code == 1
    assert "not reproduced" in stdout
    assert "a-probe" in stdout


# --- gauge-check ----------------------------------------------------------------------

def test_gauge_check_passes(capsys, tmp_path):
    out = tmp_path / "gc"
    code, stdout, _ = run(capsys, "gauge-check", "--out", str(out))
    assert code == 0
    payload = json.loads((out / "gauge_check_report.json").read_text())
    assert payload["command"] == "gauge-check"
    assert payload["passed"] is True


@pytest.mark.parametrize("source, default", [
    (None, linear_gauge),
    (None, oscillatory_gauge),
    ('{"type": "linear"}', linear_gauge),
    ('{"type": "piecewise", "breakpoints": [1, 2, 4], "values": [1, 3, 9]}', linear_gauge),
    ('{"type": "oscillatory", "M": 4, "r": 0.01, "levels": 6}', linear_gauge),
    # its contract fails (a flat step), but its constructor verified it
    ('{"type": "piecewise", "breakpoints": [1], "values": [1e-320]}', linear_gauge),
], ids=["default-linear", "default-ladder", "linear", "piecewise", "oscillatory", "flat-step"])
def test_every_resolved_gauge_is_verified(source, default):
    # so the contract hands back the gauge itself when it passes, else None
    gauge = cli.RunConfig(gauge_source=source).resolve_gauge(default=default)
    assert gauge.verified
    report, working = cli._contract(gauge)
    assert working is (gauge if report.passed else None)
    assert report.passed == (source is None or "1e-320" not in source)


# --- output contract ----------------------------------------------------------------------

OUTPUT_CASES = [
    (["verify", "--samples", "20"], "verify_report.json", None, ["verify_report.json"]),
    (["gauge-check"], "gauge_check_report.json", None, ["gauge_check_report.json"]),
    (["probe", "a"], "probe_a.json", "probe_a.csv", ["probe_a.csv", "probe_a.json"]),
    (["probe", "beta"], "probe_beta.json", "probe_beta.csv",
     ["probe_beta.csv", "probe_beta.json"]),
    (["probe", "derivability"], "probe_derivability.json", "probe_derivability.csv",
     ["probe_derivability.csv", "probe_derivability.json"]),
    (["probe", "metric-diff"], "probe_metric-diff.json", None,
     ["probe_metric-diff.csv", "probe_metric-diff.json"]),
    (["counterexample", "--samples", "20"], "counterexample_report.json", None,
     ["counterexample_a_trace.csv", "counterexample_beta_trace.csv",
      "counterexample_report.json"]),
]


@pytest.mark.parametrize(
    "argv, json_name, csv_name, files", OUTPUT_CASES,
    ids=["verify", "gauge-check", "probe-a", "probe-beta", "probe-derivability",
         "probe-metric-diff", "counterexample"],
)
def test_output_contract(capsys, tmp_path, argv, json_name, csv_name, files):
    # structured stdout is the report file; a trace table starts with its CSV
    code, structured, _ = run(capsys, *argv, "--format", "structured", "--out", str(tmp_path / "s"))
    assert code == 0
    assert sorted(os.listdir(tmp_path / "s")) == files
    assert (tmp_path / "s" / json_name).read_text() == structured
    code, table, _ = run(capsys, *argv, "--out", str(tmp_path / "t"))
    assert code == 0
    assert _collect(tmp_path / "t") == _collect(tmp_path / "s")
    if csv_name is not None:
        assert table.startswith((tmp_path / "t" / csv_name).read_text())


# --- determinism ------------------------------------------------------------------------

def _collect(out_dir):
    return {
        name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
    }


def test_probe_runs_are_byte_identical(capsys, tmp_path):
    args = ["probe", "a", "--gauge", '{"type": "oscillatory"}']
    code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "r1"))
    code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "r2"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert _collect(tmp_path / "r1") == _collect(tmp_path / "r2")


def test_verify_runs_are_byte_identical(capsys, tmp_path):
    args = ["verify", "--samples", "100", "--seed", "4", "--format", "structured"]
    code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "v1"))
    code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "v2"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert _collect(tmp_path / "v1") == _collect(tmp_path / "v2")


@pytest.mark.parametrize(
    "argv, n_files",
    [(["probe", "metric-diff", "--count", "160", "--base=0.3,-0.2,0.5"], 2),
     (["counterexample", "--samples", "20"], 3)],
    ids=["probe-metric-diff", "counterexample"],
)
def test_multi_file_runs_are_byte_identical(capsys, tmp_path, argv, n_files):
    code1, out1, _ = run(capsys, *argv, "--out", str(tmp_path / "r1"))
    code2, out2, _ = run(capsys, *argv, "--out", str(tmp_path / "r2"))
    assert code1 == code2 == 0
    assert out1 == out2
    files = _collect(tmp_path / "r1")
    assert len(files) == n_files
    assert files == _collect(tmp_path / "r2")


# --- atomic writes ----------------------------------------------------------------------

def test_write_atomic_writes_utf8_bytes(tmp_path):
    text = "epsilon,value\n1.0,0.5\n\u03b5 \u2192 0\n"
    _write_atomic(tmp_path / "out.csv", text)
    assert (tmp_path / "out.csv").read_bytes() == text.encode("utf-8")
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_reports_get_the_umask_mode(capsys, tmp_path, umask, mode):
    # a plain open() would give 0o666 less the umask; mkstemp alone gives 0o600
    old = os.umask(umask)
    try:
        assert run(capsys, "probe", "a", "--out", str(tmp_path))[0] == 0
    finally:
        os.umask(old)
    for name in ("probe_a.csv", "probe_a.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def test_write_atomic_cleans_up_when_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    (tmp_path / "old.csv").write_bytes(b"kept\n")
    monkeypatch.setattr(os, "replace", refuse)
    for name in ("new.csv", "old.csv"):
        with pytest.raises(OSError, match="rename refused"):
            _write_atomic(tmp_path / name, "epsilon,value\n")
    assert os.listdir(tmp_path) == ["old.csv"]
    assert (tmp_path / "old.csv").read_bytes() == b"kept\n"


def test_write_atomic_completes_partial_writes(tmp_path, monkeypatch):
    write = os.write
    sizes = []

    def short(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    text = "epsilon,value\n" + "".join(f"{i!r},\u03b5\n" for i in range(40))
    monkeypatch.setattr(os, "write", short)
    _write_atomic(tmp_path / "out.csv", text)
    assert (tmp_path / "out.csv").read_bytes() == text.encode("utf-8")
    assert len(sizes) == -(-len(text.encode("utf-8")) // 7)
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_atomic_cleans_up_when_a_write_fails(tmp_path, monkeypatch):
    write = os.write
    fds = []

    def failing(fd, data):
        fds.append(fd)
        if len(fds) == 3:
            raise OSError(errno.ENOSPC, "no space left")
        return write(fd, data[:7])

    (tmp_path / "old.csv").write_bytes(b"kept\n")
    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(OSError, match="no space left"):
        _write_atomic(tmp_path / "old.csv", "epsilon,value\n1.0,0.5\n")
    assert os.listdir(tmp_path) == ["old.csv"]
    assert (tmp_path / "old.csv").read_bytes() == b"kept\n"
    # the temp file's descriptor is closed
    assert len(set(fds)) == 1
    with pytest.raises(OSError) as closed:
        os.fstat(fds[0])
    assert closed.value.errno == errno.EBADF


def test_write_atomic_steps_past_a_taken_temp_name(tmp_path):
    target = tmp_path / "out.csv"
    taken = Path(next(_temp_names(target)))
    taken.write_bytes(b"not ours\n")
    _write_atomic(target, "epsilon,value\n")
    assert target.read_bytes() == b"epsilon,value\n"
    assert taken.read_bytes() == b"not ours\n"
    assert sorted(os.listdir(tmp_path)) == sorted(["out.csv", taken.name])


# --- scripts/probe_sweep.py -------------------------------------------------------------

def _probe_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "probe_sweep.py"
    spec = importlib.util.spec_from_file_location("probe_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, flag", [
    (["--count", "5"], "--count"),
    (["--amplitudes", "x"], "--amplitudes"),
    (["--amplitudes", "3,0.5"], "--amplitudes"),  # M must exceed 1
    (["--amplitudes", "3,"], "--amplitudes"),
])
def test_sweep_input_errors_are_usage_errors(capsys, tmp_path, argv, flag):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exit_info:
        _probe_sweep().main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()  # checked before any output


def test_sweep_reports_one_kind_per_gauge(capsys, tmp_path):
    # every ubar of a gauge is a map of its one R: one kind across all seven
    assert _probe_sweep().main(["--out", str(tmp_path)]) == 0
    for tag, kind in (("linear", "converged"), ("oscillatory_M3", "oscillating"),
                      ("oscillatory_M10", "oscillating"), ("oscillatory_M30", "oscillating")):
        header, *rows = (tmp_path / f"sweep_{tag}.csv").read_text().splitlines()
        assert header == "ubar,kind,limit,liminf,limsup"
        assert len(rows) == 7 and {row.split(",")[1] for row in rows} == {kind}, rows
        assert (tmp_path / f"traces_{tag}.csv").read_text().startswith("ubar,epsilon,value\n")


def test_sweep_writes_one_csv_pair_per_gauge(capsys, tmp_path):
    assert _probe_sweep().main(["--count", "12", "--amplitudes", "3", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "sweep_linear.csv", "sweep_oscillatory_M3.csv",
        "traces_linear.csv", "traces_oscillatory_M3.csv"]
    assert capsys.readouterr().out.count("7 probes") == 2


# --- one pass rule -------------------------------------------------------------

# k(t) = 1e-320 * t up to t = 1 rounds to 0 at the small points of
# check_gauge's grid: a flat step, which strict-increase fails
FLAT_STEP = '{"type":"piecewise","breakpoints":[1],"values":[1e-320]}'


@pytest.mark.parametrize("argv, code, failing", [
    (["verify", "--samples", "50"], 0, []),
    (["verify", "--gauge", '{"type": "oscillatory"}', "--samples", "50"], 0, []),
    (["gauge-check", "--gauge", '{"type": "oscillatory"}'], 0, []),
    (["verify", "--gauge", FLAT_STEP], 1, ["gauge/strict-increase", "samplers-skipped"]),
    (["gauge-check", "--gauge", FLAT_STEP], 1, ["strict-increase"]),
], ids=["verify-linear", "verify-osc", "gauge-check-osc", "verify-flat", "gauge-check-flat"])
def test_every_check_passes_exactly_within_its_tolerance(capsys, argv, code, failing):
    got, stdout, err = run(capsys, *argv, "--format", "structured")
    report = json.loads(stdout)
    checks = report["checks"]
    assert (got, err) == (code, "") and checks
    for c in checks:
        assert c["passed"] == (c["worst_violation"] <= c["tolerance"]), c
    assert [c["name"] for c in checks if not c["passed"]] == failing


@pytest.mark.parametrize("spec", [None, '{"type": "oscillatory"}'], ids=["linear", "oscillatory"])
def test_metric_diff_report_is_r_mapped_and_holds_no_checks(capsys, spec):
    # every verdict is R's: the report names R's classification under
    # "response", as every probe summary does, and runs no check
    gauge = [] if spec is None else ["--gauge", spec]
    _, table, _ = run(capsys, "probe", "metric-diff", *gauge)
    _, stdout, _ = run(capsys, "probe", "metric-diff", *gauge, "--format", "structured")
    report = json.loads(stdout)
    assert list(report) == ["command", "gauge", "probe", "base", "differentiable", "directions",
                            "eta", "witness", "response", "per_direction"]
    assert report["differentiable"] == (report["response"]["kind"] == "converged")
    assert not any(line.startswith(("PASS", "FAIL")) for line in table.splitlines())
