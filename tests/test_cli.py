"""Exit codes, output files, and determinism of the command-line front end."""

import json
import math
import os

import pytest

from h1gauge.cli import RunConfig, cmd_verify, main
from h1gauge.gauges import Gauge


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


def test_wrong_point_flag_is_config_error(capsys):
    code, _, err = run(capsys, "probe", "a", "--p", "1,0,0")
    assert code == 2
    assert "--p" in err


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


def test_oversized_levels_is_config_error(capsys, tmp_path):
    out = tmp_path / "never"
    spec = '{"type": "oscillatory", "levels": 1000000}'
    code, _, err = run(capsys, "verify", "--gauge", spec, "--out", str(out))
    assert code == 2
    assert "cannot load gauge" in err and "levels" in err and "at most 54 levels fit" in err
    assert not out.exists()


def test_bad_box_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--box", "1")
    assert code == 2


def test_underflow_grid_is_config_error(capsys):
    code, _, err = run(capsys, "probe", "a", "--count", "550")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- verify ------------------------------------------------------------------------

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


# --- determinism ------------------------------------------------------------------------

def _collect(out_dir):
    return {
        name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
    }


def test_probe_runs_are_byte_identical(capsys, tmp_path):
    args = ["probe", "a", "--gauge", '{"type": "oscillatory"}', "--seed", "9"]
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
