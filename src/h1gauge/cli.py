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
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
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
    ScaleOverflowError,
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
            return EpsGrid(self.eps0, self.ratio, self.count, self.window, self.atol)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def validate_sampling(self) -> None:
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples!r}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed!r}")

    def resolve_gauge(self, default=linear_gauge) -> Gauge:
        if self.gauge_source is None:
            return default()
        try:
            return load_gauge(self.gauge_source)
        except (OSError, ValueError) as e:  # GaugeConstructionError is a ValueError
            raise ConfigError(f"cannot load gauge: {e}") from None


def _write_atomic(path: Path, text: str) -> None:
    """Write text as UTF-8 bytes to a temp file beside path, then rename it
    over path; on any failure the temp file is removed.  The file gets the
    mode a plain open would give it, 0o666 less the umask: mkstemp makes
    it 0o600."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text.encode("utf-8"))
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:  # a file is in the way
        raise ConfigError(f"--out: {e}") from None
    for name, text in outputs.items():
        _write_atomic(out_dir / name, text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _finish(config: RunConfig, name: str, payload: dict, table: str,
            files: dict[str, str] | None = None, code: int = EXIT_OK) -> int:
    """The one output path: write the payload JSON as `name` plus the extra
    files under --out, print the JSON or the table, and return code."""
    text = _json_text(payload)
    _emit({name: text, **(files or {})}, config.out)
    sys.stdout.write(text if config.fmt == "structured" else table)
    return code


def _probe_config_error(e: ValueError) -> ConfigError:
    """A probe's ValueError as a configuration error; an overflowing scale
    names the flag that sets it."""
    return ConfigError(f"--eps0: {e}" if isinstance(e, ScaleOverflowError) else str(e))


def _verify_stage(config: RunConfig, gauge: Gauge):
    """The gauge contract checks, then, if they pass, the full algebra/metric
    sampler battery (seeds offset per stage) on the gauge marked verified.

    Returns the contract report, the verified gauge (None when the contract
    fails) and the sampler reports (empty when it fails).
    """
    gauge_report = check_gauge(gauge)
    if not gauge_report.passed:
        return gauge_report, None, []
    gauge = gauge if gauge.verified else replace(gauge, verified=True)
    n, seed, box = config.samples, config.seed, config.box
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
    return gauge_report, gauge, reports


def cmd_verify(config: RunConfig, gauge: Gauge | None = None) -> int:
    """Gauge contract checks plus the sampler battery; exit 0 iff all pass."""
    config.validate_sampling()
    if gauge is None:
        gauge = config.resolve_gauge(default=linear_gauge)

    report = VerificationReport(f"verify: {gauge.label}")
    gauge_report, _, reports = _verify_stage(config, gauge)
    for c in gauge_report.checks:
        report.add(replace(c, name=f"gauge/{c.name}"))
    report.extend(reports)
    if not gauge_report.passed:
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
    return _finish(config, "verify_report.json", payload, report.to_text(),
                   code=EXIT_OK if report.passed else EXIT_FINDING)


def cmd_gauge_check(config: RunConfig) -> int:
    gauge = config.resolve_gauge(default=linear_gauge)
    report = check_gauge(gauge)
    payload = {"command": "gauge-check", "gauge": gauge.label, **report.to_dict()}
    return _finish(config, "gauge_check_report.json", payload, report.to_text(),
                   code=EXIT_OK if report.passed else EXIT_FINDING)


# kind -> (probe function, ((flag, default, help), ...)): the point flags of
# each probe, passed to its function in this order.  A float default makes a
# float flag; a string default is a point "x1,x2,xbar".
PROBES = {
    "a": (vertical_limit_probe, (("ubar", 1.0, "vertical coordinate"),)),
    "beta": (rescaled_product_probe, (("p", "1,0,0", "first horizontal point"),
                                      ("q", "0,1,0", "second horizontal point"))),
    "derivability": (id_derivability_probe, (("u", "1,0,1", "point"),)),
    "metric-diff": (metric_diff_probe, (("base", "0,0,0", "base point"),)),
}


def cmd_probe(config: RunConfig, probe: str, points: list) -> int:
    """Run one limit probe on its points, in the flag order of `PROBES`;
    classification is a finding, so completion is exit 0 regardless of the
    outcome."""
    grid = config.grid()
    gauge = config.resolve_gauge(default=linear_gauge)

    try:
        result = PROBES[probe][0](gauge, *points, grid)
    except ValueError as e:
        raise _probe_config_error(e) from None
    except ArithmeticError as e:
        sys.stderr.write(f"property violation: {e}\n")
        return EXIT_FINDING
    if probe == "metric-diff":
        return _probe_metric_diff(config, gauge, result)

    csv, summary = result.to_csv(), result.summary()
    cls = summary["classification"]
    lines = [f"probe: {summary['probe']}", f"gauge: {summary['gauge']}",
             f"classification: {cls['kind']}"]
    for key in ("limit", "liminf", "limsup"):
        if cls.get(key) is not None:
            lines.append(f"{key}: {cls[key]!r}")
    table = csv + "\n".join(lines) + "\n"
    return _finish(config, f"probe_{probe}.json", summary, table, {f"probe_{probe}.csv": csv})


def _probe_metric_diff(config, gauge, report) -> int:
    payload = {"command": "probe", "probe": "metric-diff", "gauge": gauge.label, **report.to_dict()}
    files = {f"probe_metric-diff_{i:02d}.csv": tr.to_csv() for i, tr in enumerate(report.traces)}
    lines = [f"metric-diff probe: {gauge.label}"]
    lines.append(f"base: {report.base.as_tuple()!r}")
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
    return _finish(config, "probe_metric-diff.json", payload, "\n".join(lines) + "\n", files)


def cmd_counterexample(config: RunConfig) -> int:
    """One-shot reproduction of the failure pattern of the oscillatory gauge.

    Pattern: the gauge passes verification, the scalar vertical limit at
    ubar=1 oscillates, the rescaled product of two unit horizontal points does
    not converge, the differentiability test at the identity produces a
    witness, and the rescaled-product/scalar agreement check concurs.  Exit 0
    iff the whole pattern is reproduced; the first deviation is reported.
    """
    grid = config.grid()
    config.validate_sampling()
    gauge = config.resolve_gauge(default=oscillatory_gauge)

    stages = []
    deviation = None

    def record(stage, expected, observed, ok, detail=""):
        nonlocal deviation
        stages.append(
            {"stage": stage, "expected": expected, "observed": observed, "ok": ok, "detail": detail}
        )
        if not ok and deviation is None:
            deviation = f"{stage}: expected {expected}, observed {observed}"

    gauge_report, working, reports = _verify_stage(config, gauge)
    if working is not None:
        worst = max(reports, key=lambda r: r.worst_violation - r.tolerance)
        detail = f"worst sampler: {worst.name} ({worst.worst_violation!r})"
    else:
        detail = f"gauge check failed: {gauge_report.first_failure().name}"
    battery_ok = working is not None and all(r.passed for r in reports)
    record("verify", "pass", "pass" if battery_ok else "fail", battery_ok, detail)

    files = {}
    if working is not None:  # without a valid gauge none of the probes can run
        try:
            trace_a = vertical_limit_probe(working, 1.0, grid)
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
            trace_b = rescaled_product_probe(working, p, q, grid)
            kind_b = trace_b.classification.kind
            record("beta-probe", "non-converged", kind_b, kind_b != "converged")

            md = metric_diff_probe(working, identity(), grid)
            has_witness = (not md.differentiable) and md.witness is not None
            record(
                "metric-diff",
                "non-differentiability witness",
                f"witness {md.witness.as_tuple()!r}" if has_witness else "differentiable",
                has_witness,
            )

            eq = limit_equivalence_check(working, EQUIVALENCE_PAIRS, grid)
            record(
                "equivalence",
                "agreement",
                "agreement" if eq.passed else "disagreement",
                eq.passed,
                "" if eq.passed else repr(eq.first_failure().witness),
            )
        except ValueError as e:
            raise _probe_config_error(e) from None
        files = {
            "counterexample_a_trace.csv": trace_a.to_csv(),
            "counterexample_beta_trace.csv": trace_b.to_csv(),
        }

    reproduced = deviation is None
    payload = {
        "command": "counterexample",
        "gauge": gauge.label,
        "reproduced": reproduced,
        "deviation": deviation,
        "stages": stages,
    }
    lines = []
    if working is not None:
        lines.append(f"counterexample: {gauge.label}")
        for st in stages:
            mark = "ok " if st["ok"] else "DEV"
            lines.append(f"  {mark} {st['stage']}: expected {st['expected']}, observed {st['observed']}")
            if st["detail"]:
                lines.append(f"       {st['detail']}")
    lines.append(
        "pattern reproduced" if reproduced
        else f"counterexample pattern not reproduced: {deviation}"
    )
    return _finish(config, "counterexample_report.json", payload, "\n".join(lines) + "\n",
                   files, EXIT_OK if reproduced else EXIT_FINDING)


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


FLAG_GROUPS = {
    "output": (
        ("--gauge", dict(dest="gauge_source", metavar="FILE|JSON",
                         help="gauge spec: a JSON file path or an inline JSON object")),
        ("--out", dict(type=Path, metavar="DIR", help="directory for report and trace files")),
        ("--format", dict(dest="fmt", choices=("table", "structured"))),
    ),
    "grid": (
        ("--eps0", dict(type=float)),
        ("--ratio", dict(type=float)),
        ("--count", dict(type=int)),
        ("--window", dict(type=int)),
        ("--atol", dict(type=float)),
    ),
    "sampling": (
        ("--seed", dict(type=int)),
        ("--samples", dict(type=int)),
        ("--box", dict(type=_parse_box, metavar="H,V",
                       help="sampling box half-widths: horizontal, vertical")),
    ),
}


def _add_command(subs, name: str, help: str, *groups: str) -> argparse.ArgumentParser:
    """A sub-parser with exactly the flags of `groups`, spelled in full.  A
    flag left out is absent from the parsed namespace, so its `RunConfig`
    field keeps its default."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False,
                          argument_default=argparse.SUPPRESS)
    for group in groups:
        flags = sub.add_argument_group(group)
        for flag, kwargs in FLAG_GROUPS[group]:
            flags.add_argument(flag, **kwargs)
    return sub


# Built once per process: parse_args leaves the parser unchanged, and
# rebuilding it on every call cost about a third of a small verify run.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h1gauge",
        description="Gauge-deformed metrics and dilatation limits on the first "
        "Heisenberg group",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "verify", "run gauge checks and all samplers", "output", "sampling")
    kinds = _add_command(subs, "probe", "run one limit probe and trace it").add_subparsers(
        dest="probe", required=True)
    for kind, (_, point_flags) in PROBES.items():
        sub = _add_command(kinds, kind, f"trace probe {kind}", "output", "grid")
        for flag, default, text in point_flags:
            kwargs = (dict(type=float) if isinstance(default, float) else
                      dict(type=functools.partial(_parse_triple, flag=f"--{flag}"),
                           metavar="X1,X2,XBAR"))
            sub.add_argument(f"--{flag}", default=default, help=f"{text} (default {default})",
                             **kwargs)
    _add_command(subs, "counterexample", "reproduce the oscillatory-gauge failure pattern",
                 "output", "grid", "sampling")
    _add_command(subs, "gauge-check", "run only the gauge contract checks", "output")
    return parser


_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))


def _config_from(args) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _RUN_FIELDS})


def main(argv=None) -> int:
    try:
        # a flag's parser (--box, a point) raises ConfigError from here
        args = build_parser().parse_args(argv)
        config = _config_from(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "probe":
            points = [getattr(args, flag) for flag, _, _ in PROBES[args.probe][1]]
            return cmd_probe(config, args.probe, points)
        if args.command == "counterexample":
            return cmd_counterexample(config)
        return cmd_gauge_check(config)
    except ConfigError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
