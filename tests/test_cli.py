"""Exit codes, output files, and determinism of the command-line front end."""

import errno
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h1gauge
from h1gauge.cli import RunConfig, _temp_names, _write_atomic, cmd_verify, main
from h1gauge.gauges import Gauge, invert_g, linear_gauge, load_gauge
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
    assert len(csvs) == len(payload["directions"])


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
    ],
    ids=[
        "breakpoints-and-values-strings", "values-string", "breakpoints-object",
        "breakpoint-bool", "value-string", "M-bool", "M-string", "r-string", "r-null",
        "M-beyond-float", "levels-fraction", "levels-float", "levels-string", "levels-bool",
    ],
)
def test_mistyped_gauge_spec_is_config_error(capsys, tmp_path, spec, key):
    out = tmp_path / "never"
    code, _, err = run(capsys, "gauge-check", "--gauge", spec, "--out", str(out))
    assert code == 2
    assert "cannot load gauge" in err and repr(key) in err
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


def test_failed_write_is_config_error(capsys, tmp_path, monkeypatch):
    def full(path, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr("h1gauge.cli._write_atomic", full)
    code, stdout, err = run(capsys, "gauge-check", "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert err == f"error: --out: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: " \
                  f"'{tmp_path / 'gauge_check_report.json'}'\n"


def test_bad_box_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--box", "1")
    assert code == 2
    # non-finite or oversized half-widths are rejected before any sampling
    for box in ("inf,1", "1e200,1", "1,1e300"):
        code, _, err = run(capsys, "verify", "--box", box)
        assert code == 2, box
        assert "--box" in err and "Traceback" not in err, box


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


@pytest.mark.parametrize("samples", [12, 500])
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


def test_verify_concave_gauge_via_api(capsys, tmp_path):
    # raw evaluables reach cmd_verify only through the API; the gauge stage
    # fails and the samplers are skipped
    config = RunConfig(samples=50, out=tmp_path / "raw")
    code = cmd_verify(config, gauge=Gauge(k=math.sqrt, label="sqrt"))
    capsys.readouterr()
    assert code == 1
    payload = json.loads((tmp_path / "raw" / "verify_report.json").read_text())
    assert payload["passed"] is False
    assert any(c["name"] == "samplers-skipped" for c in payload["checks"])


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
     ["probe_metric-diff.json"] + [f"probe_metric-diff_{i:02d}.csv" for i in range(13)]),
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
    [(["probe", "metric-diff", "--count", "160", "--base=0.3,-0.2,0.5"], 14),
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


def test_sweep_writes_one_csv_pair_per_gauge(capsys, tmp_path):
    assert _probe_sweep().main(["--count", "12", "--amplitudes", "3", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "sweep_linear.csv", "sweep_oscillatory_M3.csv",
        "traces_linear.csv", "traces_oscillatory_M3.csv"]
    assert capsys.readouterr().out.count("7 probes") == 2
