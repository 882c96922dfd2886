"""Command-line front end.

Subcommands: verify (algebra and metric samplers), probe (limit traces),
counterexample (one-shot reproduction of the oscillatory-gauge failure
pattern), gauge-check (contract checks only).

Exit codes: 0 success / pattern reproduced, 1 property violation or pattern
deviation, 2 configuration or usage error.  Configs are validated before any
computation runs, so exit 2 never leaves partial output files.  All file
writes are atomic (temp file + rename) and all floats are rendered through
repr, so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .gauges import Gauge, check_gauge, linear_gauge, load_gauge, oscillatory_gauge
from .heisenberg import H1Point, identity
from .limits import (
    DEFAULT_ATOL,
    DEFAULT_COUNT,
    DEFAULT_EPS0,
    DEFAULT_RATIO,
    DEFAULT_WINDOW,
    EpsGrid,
    id_derivability_probe,
    limit_equivalence_check,
    metric_diff_probe,
    rescaled_product_probe,
    vertical_limit_probe,
)
from .metrics import (
    SampleBox,
    flat_dist_array,
    gauge_dist_array,
    intrinsic_dist_array,
    sample_conjugation,
    sample_flatten_homomorphism,
    sample_group_axioms,
    sample_homogeneity,
    sample_intrinsic_dilation,
    sample_isometry,
    sample_left_invariance,
    sample_lipschitz_id,
    sample_rescale_identity,
    sample_semigroup,
    sample_transported_axioms,
    sample_triangle,
)
from .report import PropertyCheck, VerificationReport

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_CONFIG = 2

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 500

# Horizontal pairs (nonzero symplectic area) for the equivalence stage.
EQUIVALENCE_PAIRS = (
    (H1Point(1.0, 0.0, 0.0), H1Point(0.0, 1.0, 0.0)),
    (H1Point(2.0, 0.0, 0.0), H1Point(0.0, 1.0, 0.0)),
    (H1Point(0.5, 0.0, 0.0), H1Point(0.0, 1.0, 0.0)),
)


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 2."""


@dataclass
class RunConfig:
    gauge_source: str | None = None
    eps0: float = DEFAULT_EPS0
    ratio: float = DEFAULT_RATIO
    count: int = DEFAULT_COUNT
    window: int = DEFAULT_WINDOW
    atol: float = DEFAULT_ATOL
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    box: SampleBox = field(default_factory=SampleBox)
    out: Path | None = None
    fmt: str = "table"

    def grid(self) -> EpsGrid:
        try:
            grid = EpsGrid(self.eps0, self.ratio, self.count)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window!r}")
        if self.count < 2 * self.window:
            raise ConfigError(
                f"count must be at least 2*window = {2 * self.window} "
                f"to classify a trace, got {self.count!r}"
            )
        if not self.atol > 0.0:
            raise ConfigError(f"atol must be positive, got {self.atol!r}")
        return grid

    def validate_sampling(self) -> None:
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples!r}")

    def resolve_gauge(self, default=linear_gauge) -> Gauge:
        if self.gauge_source is None:
            return default()
        try:
            return load_gauge(self.gauge_source)
        except (OSError, ValueError) as e:  # GaugeConstructionError is a ValueError
            raise ConfigError(f"cannot load gauge: {e}") from None


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(outputs: dict[str, str], out_dir: Path | None) -> None:
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        _write_atomic(out_dir / name, text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _sampler_battery(gauge: Gauge, n: int, seed: int, box: SampleBox):
    """The full algebra/metric sampler battery, seeds offset per stage."""
    reports = list(sample_group_axioms(n, seed, box))
    reports.append(sample_intrinsic_dilation(n, seed + 1, box))
    reports.append(
        sample_triangle(intrinsic_dist_array, "triangle-intrinsic", n, seed + 2, box)
    )
    reports.append(
        sample_triangle(
            lambda p, q: gauge_dist_array(gauge, p, q), "triangle-gauge", n, seed + 3, box
        )
    )
    reports.append(
        sample_triangle(
            lambda p, q: flat_dist_array(gauge, p, q), "triangle-transported", n, seed + 4, box
        )
    )
    reports.append(sample_lipschitz_id(gauge, n, seed + 5, box))
    reports.append(sample_left_invariance(gauge, n, seed + 6, box))
    reports.append(sample_isometry(gauge, n, seed + 7, box))
    reports.append(sample_semigroup(gauge, n, seed + 8, box))
    reports.append(sample_homogeneity(gauge, n, seed + 9, box))
    reports.append(sample_rescale_identity(gauge, n, seed + 10, box))
    reports.append(sample_conjugation(gauge, n, seed + 11, box))
    reports.append(sample_flatten_homomorphism(gauge, n, seed + 12, box))
    reports.extend(sample_transported_axioms(gauge, n, seed + 13, box))
    return reports


def cmd_verify(config: RunConfig, gauge: Gauge | None = None) -> int:
    """Gauge contract checks plus the sampler battery; exit 0 iff all pass."""
    config.validate_sampling()
    if gauge is None:
        gauge = config.resolve_gauge(default=linear_gauge)

    report = VerificationReport(f"verify: {gauge.label}")
    gauge_report = check_gauge(gauge)
    for c in gauge_report.checks:
        report.add(replace(c, name=f"gauge/{c.name}"))

    if gauge_report.passed:
        working = gauge if gauge.verified else replace(gauge, verified=True)
        report.extend(_sampler_battery(working, config.samples, config.seed, config.box))
    else:
        report.add(
            PropertyCheck(
                name="samplers-skipped",
                passed=False,
                worst_violation=float("inf"),
                tolerance=0.0,
                witness=gauge_report.first_failure().name,
                details="metric and dilatation samplers were not run: the gauge "
                "contract itself failed",
            )
        )

    payload = {"command": "verify", "gauge": gauge.label, **report.to_dict()}
    _emit({"verify_report.json": _json_text(payload)}, config.out)
    if config.fmt == "structured":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.passed else EXIT_FINDING


def cmd_gauge_check(config: RunConfig) -> int:
    gauge = config.resolve_gauge(default=linear_gauge)
    report = check_gauge(gauge)
    payload = {"command": "gauge-check", "gauge": gauge.label, **report.to_dict()}
    _emit({"gauge_check_report.json": _json_text(payload)}, config.out)
    if config.fmt == "structured":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.passed else EXIT_FINDING


def _trace_stdout(trace) -> str:
    lines = [trace.header()]
    for row in trace.rows():
        lines.append(",".join(repr(c) for c in row))
    summary = trace.summary()
    lines.append(f"probe: {summary['probe']}")
    lines.append(f"gauge: {summary['gauge']}")
    cls = summary["classification"]
    lines.append(f"classification: {cls['kind']}")
    for key in ("limit", "liminf", "limsup"):
        if cls.get(key) is not None:
            lines.append(f"{key}: {cls[key]!r}")
    return "\n".join(lines) + "\n"


def cmd_probe(config: RunConfig, probe: str, points: dict) -> int:
    """Run one limit probe; classification is a finding, so completion is
    exit 0 regardless of the outcome."""
    grid = config.grid()
    gauge = config.resolve_gauge(default=linear_gauge)
    kw = dict(window=config.window, atol=config.atol, divergence_bound=1e6)

    try:
        if probe == "a":
            trace = vertical_limit_probe(gauge, points["ubar"], grid, **kw)
        elif probe == "beta":
            trace = rescaled_product_probe(gauge, points["p"], points["q"], grid, **kw)
        elif probe == "derivability":
            trace = id_derivability_probe(gauge, points["u"], grid, **kw)
        else:
            return _probe_metric_diff(config, gauge, grid, points["base"], kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except ArithmeticError as e:
        sys.stderr.write(f"property violation: {e}\n")
        return EXIT_FINDING

    outputs = {
        f"probe_{probe}.csv": trace.to_csv(),
        f"probe_{probe}.json": _json_text(trace.summary()),
    }
    _emit(outputs, config.out)
    if config.fmt == "structured":
        sys.stdout.write(_json_text(trace.summary()))
    else:
        sys.stdout.write(_trace_stdout(trace))
    return EXIT_OK


def _probe_metric_diff(config, gauge, grid, base, kw) -> int:
    try:
        report = metric_diff_probe(gauge, base, None, grid, **kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    payload = {"command": "probe", "probe": "metric-diff", "gauge": gauge.label, **report.to_dict()}
    outputs = {"probe_metric-diff.json": _json_text(payload)}
    for i, trace in enumerate(report.traces):
        outputs[f"probe_metric-diff_{i:02d}.csv"] = trace.to_csv()
    _emit(outputs, config.out)
    if config.fmt == "structured":
        sys.stdout.write(_json_text(payload))
    else:
        lines = [f"metric-diff probe: {gauge.label}"]
        lines.append(f"base: {base.as_tuple()!r}")
        lines.append(f"differentiable: {report.differentiable}")
        for v, cls in zip(report.directions, report.per_direction):
            lines.append(f"  direction {v.as_tuple()!r}: {cls.kind}")
        if report.witness is not None:
            lines.append(f"witness: {report.witness.as_tuple()!r}")
        if report.eta is not None:
            for v, ev in zip(report.directions, report.eta):
                lines.append(f"  eta{v.as_tuple()!r} = {ev!r}")
        for c in report.seminorm_checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status}  {c.name}: worst={c.worst_violation!r}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_counterexample(config: RunConfig) -> int:
    """One-shot reproduction of the failure pattern of the oscillatory gauge.

    Pattern: the gauge passes verification, the scalar vertical limit at
    ubar=1 oscillates, the rescaled product of two unit horizontal points does
    not converge, the differentiability test at the identity produces a
    witness, and the rescaled-product/scalar agreement check concurs.  Exit 0
    iff the whole pattern is reproduced; the first deviation is reported.
    """
    config.validate_sampling()
    grid = config.grid()
    gauge = config.resolve_gauge(default=oscillatory_gauge)
    kw = dict(window=config.window, atol=config.atol, divergence_bound=1e6)

    stages = []
    deviation = None

    def record(stage, expected, observed, ok, detail=""):
        nonlocal deviation
        stages.append(
            {"stage": stage, "expected": expected, "observed": observed, "ok": ok, "detail": detail}
        )
        if not ok and deviation is None:
            deviation = f"{stage}: expected {expected}, observed {observed}"

    gauge_report = check_gauge(gauge)
    battery_ok = False
    if gauge_report.passed:
        working = gauge if gauge.verified else replace(gauge, verified=True)
        reports = _sampler_battery(working, config.samples, config.seed, config.box)
        battery_ok = all(r.passed for r in reports)
        worst = max(reports, key=lambda r: r.worst_violation - r.tolerance)
        detail = f"worst sampler: {worst.name} ({worst.worst_violation!r})"
    else:
        working = None
        detail = f"gauge check failed: {gauge_report.first_failure().name}"
    record("verify", "pass", "pass" if (gauge_report.passed and battery_ok) else "fail",
           gauge_report.passed and battery_ok, detail)

    if working is None:
        # Without a valid gauge none of the probes can run.
        payload = {
            "command": "counterexample",
            "gauge": gauge.label,
            "reproduced": False,
            "deviation": deviation,
            "stages": stages,
        }
        _emit({"counterexample_report.json": _json_text(payload)}, config.out)
        sys.stdout.write(_json_text(payload) if config.fmt == "structured" else
                         f"counterexample pattern not reproduced: {deviation}\n")
        return EXIT_FINDING

    try:
        trace_a = vertical_limit_probe(working, 1.0, grid, **kw)
        cls_a = trace_a.classification
        gap = (cls_a.limsup - cls_a.liminf) if cls_a.kind == "oscillating" else None
        record(
            "a-probe",
            "oscillating",
            cls_a.kind,
            cls_a.kind == "oscillating",
            f"liminf={cls_a.liminf!r} limsup={cls_a.limsup!r}" if gap is not None else "",
        )

        p, q = H1Point(1.0, 0.0, 0.0), H1Point(0.0, 1.0, 0.0)
        trace_b = rescaled_product_probe(working, p, q, grid, **kw)
        kind_b = trace_b.classification.kind
        record("beta-probe", "non-converged", kind_b, kind_b != "converged")

        md = metric_diff_probe(working, identity(), None, grid, **kw)
        has_witness = (not md.differentiable) and md.witness is not None
        record(
            "metric-diff",
            "non-differentiability witness",
            f"witness {md.witness.as_tuple()!r}" if has_witness else "differentiable",
            has_witness,
        )

        eq = limit_equivalence_check(working, EQUIVALENCE_PAIRS, grid, **kw)
        record(
            "equivalence",
            "agreement",
            "agreement" if eq.passed else "disagreement",
            eq.passed,
            "" if eq.passed else repr(eq.first_failure().witness),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    reproduced = deviation is None
    payload = {
        "command": "counterexample",
        "gauge": gauge.label,
        "reproduced": reproduced,
        "deviation": deviation,
        "stages": stages,
    }
    outputs = {
        "counterexample_report.json": _json_text(payload),
        "counterexample_a_trace.csv": trace_a.to_csv(),
        "counterexample_beta_trace.csv": trace_b.to_csv(),
    }
    _emit(outputs, config.out)

    if config.fmt == "structured":
        sys.stdout.write(_json_text(payload))
    else:
        lines = [f"counterexample: {gauge.label}"]
        for st in stages:
            mark = "ok " if st["ok"] else "DEV"
            lines.append(f"  {mark} {st['stage']}: expected {st['expected']}, observed {st['observed']}")
            if st["detail"]:
                lines.append(f"       {st['detail']}")
        lines.append(
            "pattern reproduced" if reproduced
            else f"counterexample pattern not reproduced: {deviation}"
        )
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if reproduced else EXIT_FINDING


# ---------------------------------------------------------------------------
# argument parsing


def _parse_triple(text: str, flag: str) -> H1Point:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{flag} expects three comma-separated numbers, got {text!r}")
    try:
        vals = [float(p) for p in parts]
        return H1Point(*vals)
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from None


def _parse_box(text: str) -> SampleBox:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--box expects 'horizontal,vertical', got {text!r}")
    try:
        return SampleBox(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise ConfigError(f"--box: {e}") from None


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gauge", default=None, metavar="FILE|JSON",
                     help="gauge spec: a JSON file path or an inline JSON object")
    sub.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    sub.add_argument("--ratio", type=float, default=DEFAULT_RATIO)
    sub.add_argument("--count", type=int, default=DEFAULT_COUNT)
    sub.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    sub.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sub.add_argument("--box", default=None, metavar="H,V",
                     help="sampling box half-widths: horizontal, vertical")
    sub.add_argument("--out", default=None, metavar="DIR",
                     help="directory for report and trace files")
    sub.add_argument("--format", choices=("table", "structured"), default="table",
                     dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h1gauge",
        description="Gauge-deformed metrics and dilatation limits on the first "
        "Heisenberg group",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub_verify = subs.add_parser("verify", help="run gauge checks and all samplers")
    _add_common_flags(sub_verify)

    sub_probe = subs.add_parser("probe", help="run one limit probe and trace it")
    sub_probe.add_argument("probe", choices=("a", "beta", "derivability", "metric-diff"))
    _add_common_flags(sub_probe)
    sub_probe.add_argument("--ubar", type=float, default=None,
                           help="vertical coordinate for probe a (default 1)")
    sub_probe.add_argument("--p", default=None, metavar="X1,X2,XBAR",
                           help="first point for probe beta (default 1,0,0)")
    sub_probe.add_argument("--q", default=None, metavar="X1,X2,XBAR",
                           help="second point for probe beta (default 0,1,0)")
    sub_probe.add_argument("--u", default=None, metavar="X1,X2,XBAR",
                           help="point for probe derivability (default 1,0,1)")
    sub_probe.add_argument("--base", default=None, metavar="X1,X2,XBAR",
                           help="base point for probe metric-diff (default identity)")

    sub_ce = subs.add_parser("counterexample",
                             help="reproduce the oscillatory-gauge failure pattern")
    _add_common_flags(sub_ce)

    sub_gc = subs.add_parser("gauge-check", help="run only the gauge contract checks")
    _add_common_flags(sub_gc)

    return parser


_PROBE_FLAGS = {
    "a": ("ubar",),
    "beta": ("p", "q"),
    "derivability": ("u",),
    "metric-diff": ("base",),
}


def _probe_points(args) -> dict:
    allowed = _PROBE_FLAGS[args.probe]
    for flag in ("ubar", "p", "q", "u", "base"):
        if getattr(args, flag) is not None and flag not in allowed:
            raise ConfigError(f"--{flag} does not apply to probe {args.probe!r}")
    if args.probe == "a":
        ubar = 1.0 if args.ubar is None else args.ubar
        return {"ubar": ubar}
    if args.probe == "beta":
        p = _parse_triple(args.p, "--p") if args.p else H1Point(1.0, 0.0, 0.0)
        q = _parse_triple(args.q, "--q") if args.q else H1Point(0.0, 1.0, 0.0)
        return {"p": p, "q": q}
    if args.probe == "derivability":
        u = _parse_triple(args.u, "--u") if args.u else H1Point(1.0, 0.0, 1.0)
        return {"u": u}
    base = _parse_triple(args.base, "--base") if args.base else identity()
    return {"base": base}


def _config_from(args) -> RunConfig:
    box = _parse_box(args.box) if args.box else SampleBox()
    out = Path(args.out) if args.out else None
    return RunConfig(
        gauge_source=args.gauge,
        eps0=args.eps0,
        ratio=args.ratio,
        count=args.count,
        window=args.window,
        atol=args.atol,
        seed=args.seed,
        samples=args.samples,
        box=box,
        out=out,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "probe":
            points = _probe_points(args)
            config.grid()  # fail fast before loading anything
            return cmd_probe(config, args.probe, points)
        if args.command == "counterexample":
            config.grid()
            return cmd_counterexample(config)
        return cmd_gauge_check(config)
    except ConfigError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
