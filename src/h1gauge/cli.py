"""Command-line front end: parsing, the output path and the table text; the
library computes the rest (the verify battery is `metrics.sample_battery`).

Subcommands: verify (algebra and metric samplers), probe (limit traces, each
verdict a map of the one response R; no probe report holds checks),
counterexample (one-shot reproduction of the oscillatory-gauge failure
pattern), gauge-check (contract checks only).

A call is parsed once, by the leaf sub-parser that its first one or two
words name (`verify`, `probe a`, ...), the one the parser tree would hand
the rest of the words.  A call that names no leaf, or whose leaf leaves
words unparsed, goes to the whole tree, so every help text and usage error
is the tree's, byte for byte.

Exit codes: 0 success / pattern reproduced, 1 property violation or pattern
deviation, 2 configuration or usage error.  Configs are validated before any
output is written, and every output name is checked before the first write, so
exit 2 leaves no partial output files unless a write itself fails.  All file
writes are atomic (temp file + rename, written with os.write and no buffered
file object) and all floats are rendered through repr, so identical configs
produce byte-identical outputs.  Each report is one line of JSON from the
standard library's `json.dumps` with its defaults, and starts with the same
header: the command, then the gauge label.  Traces go beside it as CSV: one
file per probe, metric-diff's array as one table (a column per direction)
and counterexample's two traces as two files.  A CSV is rendered only when it
is written or printed, and at most once per run.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .gauges import (Gauge, check_gauge, g_inverse_array, linear_gauge, load_gauge,
                     oscillatory_gauge)
from .heisenberg import H1Point, symplectic_area
from .limits import (
    EpsGrid,
    ScaleOverflowError,
    _direction_verdict,
    default_direction_grid,
    id_derivability_probe,
    metric_diff_probe,
    rescaled_product_probe,
    vertical_limit_probe,
)
from .metrics import SampleBox, _gap, sample_battery
from .report import TOL_GAUGE, PropertyCheck, VerificationReport

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_CONFIG = 2

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 500

# Horizontal pairs (nonzero symplectic area) for the equivalence stage.  The
# first is the beta stage's pair; the third's scalar trace, at ubar = 2 * area
# = 1.0, is the a stage's.
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
    grid: EpsGrid = EpsGrid()
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    box: SampleBox = SampleBox()
    out: Path | None = None
    fmt: str = "table"

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


# a temp file is created exclusively, as mkstemp creates one, but with mode
# 0o666 so that the kernel applies the umask
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)
               | getattr(os, "O_BINARY", 0))
_TEMP_TRIES = 100


def _temp_names(path: Path):
    """The temp file names beside path that _write_atomic tries, in order."""
    return (f"{path}.{i}.tmp" for i in range(_TEMP_TRIES))


def _write_atomic(path: Path, text: str) -> None:
    """Write text as UTF-8 bytes to a new temp file beside path, then rename
    it over path; on any failure the temp file is removed.  The file gets the
    mode a plain open would give it, 0o666 less the umask.  A temp name that
    is taken is left as it is, and the next one is tried."""
    for tmp in _temp_names(path):
        try:
            fd = os.open(tmp, _TEMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no free temp name beside {path}")
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:  # a write may take only part of what it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(outputs: dict[str, str], out_dir: Path) -> None:
    """Write each output under out_dir.  A file in the way of the directory
    or a directory in the way of any output name is found before the first
    write; it, or a write that fails, is a configuration error.  A directory
    made here is empty, so only one that was there already is scanned."""
    try:
        try:
            out_dir.mkdir(parents=True)
        except OSError:  # there already, or in the way: the checked path below
            out_dir.mkdir(parents=True, exist_ok=True)
            with os.scandir(out_dir) as entries:  # a symlink is replaced, not followed
                for entry in entries:
                    if entry.name in outputs and entry.is_dir(follow_symlinks=False):
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                                entry.path)
        for name, text in outputs.items():
            _write_atomic(out_dir / name, text)
    except OSError as e:
        raise ConfigError(f"--out: {e}") from None


def _finish(config: RunConfig, command: str, gauge: Gauge, name: str, body: dict,
            table: Callable[[], str], files: Callable[[], dict[str, str]] | None = None,
            code: int = EXIT_OK) -> int:
    """The one output path: write the report JSON, the header (command, gauge
    label) then body, as `name` plus the extra files under --out, print the
    JSON or the table, and return code.  table builds the table text and
    files the extra files; each is called only when its output is printed or
    written."""
    text = json.dumps({"command": command, "gauge": gauge.label, **body}) + "\n"
    if config.out is not None:
        _emit({name: text, **(files() if files else {})}, config.out)
    sys.stdout.write(text if config.fmt == "structured" else table())
    return code


def _probe_config_error(e: ValueError) -> ConfigError:
    """A probe's ValueError as a configuration error; an overflowing scale
    names the flag that sets it."""
    return ConfigError(f"--eps0: {e}" if isinstance(e, ScaleOverflowError) else str(e))


def _checked(gauge: Gauge):
    """check_gauge's report; a value that overflows on its grid (a spec the
    constructor accepts, say a piecewise slope near the float maximum) is a
    configuration error, named by the flag that gave the gauge."""
    try:
        return check_gauge(gauge)
    except ValueError as e:
        raise ConfigError(f"--gauge: {e}") from None


def _contract(gauge: Gauge):
    """The gauge contract report and, when the contract passes, the gauge (None
    when it fails).  Every gauge resolve_gauge builds is verified already."""
    report = _checked(gauge)
    return report, gauge if report.passed else None


def cmd_verify(config: RunConfig) -> int:
    """Gauge contract checks plus, if they pass, the sampler battery; exit 0
    iff all pass."""
    config.validate_sampling()
    gauge = config.resolve_gauge(default=linear_gauge)

    report = VerificationReport(f"verify: {gauge.label}")
    gauge_report, working = _contract(gauge)
    for c in gauge_report.checks:
        report.add(replace(c, name=f"gauge/{c.name}"))
    if working is not None:
        report.extend(sample_battery(working, config.samples, config.seed, config.box))
    else:
        report.add(
            PropertyCheck(
                name="samplers-skipped",
                worst_violation=float("inf"),
                tolerance=0.0,
                witness=gauge_report.first_failure().name,
                details="metric and dilatation samplers were not run: the gauge "
                "contract itself failed",
            )
        )

    return _finish(config, "verify", gauge, "verify_report.json", report.to_dict(),
                   report.to_text, code=EXIT_OK if report.passed else EXIT_FINDING)


def cmd_gauge_check(config: RunConfig) -> int:
    gauge = config.resolve_gauge(default=linear_gauge)
    report = _checked(gauge)
    return _finish(config, "gauge-check", gauge, "gauge_check_report.json", report.to_dict(),
                   report.to_text, code=EXIT_OK if report.passed else EXIT_FINDING)


# kind -> (name of the probe function in this module, ((flag, default, help),
# ...)): the point flags of each probe, passed to its function in this order.
# A float default makes a float flag; a string default is a point
# "x1,x2,xbar".  The function is looked up by name when the probe runs, so a
# binding replaced on this module (a wrapper, a test double) is the one called.
PROBES = {
    "a": ("vertical_limit_probe", (("ubar", 1.0, "vertical coordinate"),)),
    "beta": ("rescaled_product_probe", (("p", "1,0,0", "first horizontal point"),
                                        ("q", "0,1,0", "second horizontal point"))),
    "derivability": ("id_derivability_probe", (("u", "1,0,1", "point"),)),
    "metric-diff": ("metric_diff_probe", (("base", "0,0,0", "base point"),)),
}


def cmd_probe(config: RunConfig, probe: str, points: list) -> int:
    """Run one limit probe on its points, in the flag order of `PROBES`;
    classification is a finding, so completion is exit 0 regardless of the
    outcome."""
    gauge = config.resolve_gauge(default=linear_gauge)

    try:
        result = globals()[PROBES[probe][0]](gauge, *points, config.grid)
    except ValueError as e:
        raise _probe_config_error(e) from None
    except ArithmeticError as e:
        sys.stderr.write(f"property violation: {e}\n")
        return EXIT_FINDING
    if probe == "metric-diff":
        return _probe_metric_diff(config, gauge, result)

    csv, summary = functools.cache(result.to_csv), result.summary()  # rendered at most once
    cls = summary["classification"]
    lines = [f"probe: {summary['probe']}", f"gauge: {summary['gauge']}",
             f"classification: {cls['kind']}"]
    for key in ("limit", "liminf", "limsup"):
        if cls.get(key) is not None:
            lines.append(f"{key}: {cls[key]!r}")
    return _finish(config, "probe", gauge, f"probe_{probe}.json", summary,
                   lambda: csv() + "\n".join(lines) + "\n", lambda: {f"probe_{probe}.csv": csv()})


def _probe_metric_diff(config, gauge, report) -> int:
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
    table = "\n".join(lines) + "\n"
    return _finish(config, "probe", gauge, "probe_metric-diff.json",
                   {"probe": "metric-diff", **report.to_dict()}, lambda: table,
                   lambda: {"probe_metric-diff.csv": report.to_csv()})


def cmd_counterexample(config: RunConfig) -> int:
    """One-shot reproduction of the failure pattern of the oscillatory gauge.

    Pattern: the gauge passes verification, the scalar vertical limit at
    ubar=1 oscillates, the rescaled product of two unit horizontal points does
    not converge, the differentiability test at the identity produces a
    witness, and the formulations agree: on each pair of EQUIVALENCE_PAIRS,
    beta's vertical trace is sgn(c) * G(a's trace at ubar = c = 2 * area)
    within TOL_GAUGE, scaled by max(1, magnitudes).  Exit 0
    iff the whole pattern is reproduced; the first deviation is reported.
    Each distinct trace is computed once: the probes are cached, so the
    equivalence stage reads back the a and beta stages' traces.  The
    metric-diff stage runs no probe: metric_diff_probe's verdict and witness
    at the identity are maps of R, and the a stage's trace at ubar = 1 holds
    R on the same grid, so the stage maps that R.  A grid on which
    metric-diff's largest vertical magnitude, 2, overflows or underflows
    fails the beta stage's scale check first, which has the same bound and
    message.
    """
    config.validate_sampling()
    gauge = config.resolve_gauge(default=oscillatory_gauge)

    stages = []

    def record(stage, expected, observed, ok, detail=""):
        stages.append(dict(stage=stage, expected=expected, observed=observed, ok=ok, detail=detail))

    gauge_report, working = _contract(gauge)
    files = None
    if working is None:  # without a valid gauge neither the battery nor a probe can run
        record("verify", "pass", "fail", False,
               f"gauge check failed: {gauge_report.first_failure().name}")
    else:
        # the probes run before the battery, so a grid that one of them
        # rejects is a configuration error that costs no battery run
        scalar = functools.cache(lambda ubar: vertical_limit_probe(working, ubar, config.grid))
        product = functools.cache(lambda p, q: rescaled_product_probe(working, p, q, config.grid))
        try:
            trace_a = scalar(1.0)
            trace_b = product(*EQUIVALENCE_PAIRS[0])
            gaps = []
            for p, q in EQUIVALENCE_PAIRS:  # beta's vertical part is sgn(c) G(a at ubar = c)
                c = 2.0 * symplectic_area(p.horizontal, q.horizontal)
                a = np.sign(c) * g_inverse_array(working, scalar(c).values)
                gaps.append(float(_gap(product(p, q).values[:, 2], a).max()))
        except ValueError as e:
            raise _probe_config_error(e) from None
        reports = sample_battery(working, config.samples, config.seed, config.box)

        worst = max(reports, key=lambda r: r.worst_violation - r.tolerance)
        battery_ok = all(r.passed for r in reports)
        record("verify", "pass", "pass" if battery_ok else "fail", battery_ok,
               f"worst sampler: {worst.name} ({worst.worst_violation!r})")
        cls_a = trace_a.classification
        oscillating = cls_a.kind == "oscillating"
        record("a-probe", "oscillating", cls_a.kind, oscillating,
               f"liminf={cls_a.liminf!r} limsup={cls_a.limsup!r}" if oscillating else "")
        kind_b = trace_b.classification.kind
        record("beta-probe", "non-converged", kind_b, kind_b != "converged")
        # metric_diff_probe's verdict and witness at the identity, from the
        # same R on the same grid: the a trace's at ubar = 1
        _, differentiable, _, witness = _direction_verdict(trace_a.response,
                                                           default_direction_grid())
        record("metric-diff", "non-differentiability witness",
               "differentiable" if differentiable else f"witness {witness.as_tuple()!r}",
               not differentiable)
        agree = bool(np.max(gaps) <= TOL_GAUGE)  # a NaN disagrees
        record("equivalence", "agreement", "agreement" if agree else "disagreement", agree,
               "" if agree else f"scaled residuals {gaps!r} > {TOL_GAUGE!r}")
        files = lambda: {"counterexample_a_trace.csv": trace_a.to_csv(),
                         "counterexample_beta_trace.csv": trace_b.to_csv()}

    deviation = next((f"{st['stage']}: expected {st['expected']}, observed {st['observed']}"
                      for st in stages if not st["ok"]), None)
    reproduced = deviation is None
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
    table = "\n".join(lines) + "\n"
    return _finish(config, "counterexample", gauge, "counterexample_report.json",
                   {"reproduced": reproduced, "deviation": deviation, "stages": stages},
                   lambda: table, files, EXIT_OK if reproduced else EXIT_FINDING)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_numbers(text: str, flag: str, build, expects: str):
    """A comma-separated flag value as build(*floats), one number for each
    field of the dataclass `build`; a wrong count, a non-number or a value
    that build rejects is a configuration error that names the flag."""
    parts = text.split(",")
    if len(parts) != len(fields(build)):
        raise ConfigError(f"{flag} expects {expects}, got {text!r}")
    try:
        return build(*map(float, parts))
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from None


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
        ("--box", dict(type=functools.partial(_parse_numbers, flag="--box", build=SampleBox,
                                              expects="'horizontal,vertical'"),
                       metavar="H,V",
                       help="sampling box half-widths: horizontal, vertical")),
    ),
}


def _add_command(subs, name: str, help: str, *groups: str) -> argparse.ArgumentParser:
    """A sub-parser with exactly the flags of `groups`, spelled in full.  A
    flag left out is absent from the parsed namespace, so its `RunConfig` or
    `EpsGrid` field keeps its default."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False,
                          argument_default=argparse.SUPPRESS)
    for group in groups:
        flags = sub.add_argument_group(group)
        for flag, kwargs in FLAG_GROUPS[group]:
            flags.add_argument(flag, **kwargs)
    return sub


# Built once per process: parsing leaves the parsers unchanged, and
# rebuilding them on every call cost about a third of a small verify run.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The parser tree and its leaves, each keyed by the words that name it:
    ("verify",), ("probe", KIND), ..."""
    parser = argparse.ArgumentParser(
        prog="h1gauge",
        description="Gauge-deformed metrics and dilatation limits on the first "
        "Heisenberg group",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    leaves = {}
    leaves["verify",] = _add_command(subs, "verify", "run gauge checks and all samplers",
                                     "output", "sampling")
    kinds = _add_command(subs, "probe", "run one limit probe and trace it").add_subparsers(
        dest="probe", required=True)
    for kind, (_, point_flags) in PROBES.items():
        sub = leaves["probe", kind] = _add_command(kinds, kind, f"trace probe {kind}",
                                                   "output", "grid")
        for flag, default, text in point_flags:
            kwargs = (dict(type=float) if isinstance(default, float) else
                      dict(type=functools.partial(_parse_numbers, flag=f"--{flag}", build=H1Point,
                                                  expects="three comma-separated numbers"),
                           metavar="X1,X2,XBAR"))
            sub.add_argument(f"--{flag}", default=default, help=f"{text} (default {default})",
                             **kwargs)
    leaves["counterexample",] = _add_command(
        subs, "counterexample", "reproduce the oscillatory-gauge failure pattern",
        "output", "grid", "sampling")
    leaves["gauge-check",] = _add_command(subs, "gauge-check", "run only the gauge contract checks",
                                          "output")
    return parser, leaves


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: `h1gauge COMMAND [KIND] [flags]`."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the leaf sub-parser its first one or two words name,
    with `command` (and `probe`) set as the tree would set them.  An argv
    that names no leaf, or whose leaf leaves words unparsed, goes to the
    tree's parse_args, which prints its help or usage error.  The tree hands a
    leaf the same words, so a leaf's own help and errors are the same
    either way."""
    tree, leaves = _parsers()
    for n in (1, 2):
        leaf = leaves.get(tuple(argv[:n]))
        if leaf is not None:
            args, rest = leaf.parse_known_args(argv[n:])
            if rest:
                break
            args.command = argv[0]
            if n == 2:
                args.probe = argv[1]
            return args
    return tree.parse_args(argv)


_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))
_GRID_FIELDS = frozenset(f.name for f in fields(EpsGrid))


def _config_from(args) -> RunConfig:
    """The config of the parsed flags, its grid built from the grid flags given
    and so validated before anything else."""
    given = vars(args)
    try:
        grid = EpsGrid(**{k: v for k, v in given.items() if k in _GRID_FIELDS})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return RunConfig(grid=grid, **{k: v for k, v in given.items() if k in _RUN_FIELDS})


def main(argv=None) -> int:
    try:
        # a flag's parser (--box, a point) raises ConfigError from here
        args = _parse(sys.argv[1:] if argv is None else argv)
        config = _config_from(args)
        # a kernel's check_finite reports an overflow; numpy's warnings would
        # repeat it on stderr first, naming the installed source line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
