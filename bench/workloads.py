"""Seeded task lists for the benchmark workloads.

A task is one `h1gauge` command line.  Seeded parameters are drawn by
stratified sampling: a range split into n equal strata gets exactly one
uniform draw per stratum, and the draws are shuffled independently for each
parameter.  Grid lengths are not seeded: each group of probe tasks runs the
same evenly spaced lengths over the whole range, because on the 8-level
ladder a verdict, and with it the cost of a task, flips with the length (the
seminorm checks run only on a "differentiable" verdict).  So every seed
covers every range with the same density and a pass holds about the same
work whatever the seed.  The generator never imports h1gauge: inputs are
built before the program is loaded and are not part of its set-up time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

LINEAR = json.dumps({"type": "linear"})

# Ranges of the seeded parameters.
OSC_M = (2.0, 30.0)  # slope ratio of the oscillatory ladder in verify-osc
OSC_R_SHARE = (0.01, 0.5)  # its r as a share of the upper limit 1/M^2
VERIFY_LEVELS = (4, 20)
# probe-mix ladders follow scripts/probe_sweep.py: M in its amplitude range,
# r = min(1e-3, 0.5/M^2), 8 levels
PROBE_M = (3.0, 30.0)
PROBE_LEVELS = 8
VERIFY_SAMPLES = (4, 16)
VERIFY_OSC_SAMPLES = (2, 6)
COUNTEREXAMPLE_SAMPLES = (2, 8)
GRID_COUNT = (24, 160)
UBAR = (1.0 / 8.0, 8.0)  # the vertical range of scripts/probe_sweep.py
PIECEWISE_BREAKPOINTS = (10, 1000)


@dataclass(frozen=True)
class Task:
    """One CLI call.  `argv` omits `--out`, which the runner adds."""

    command: str  # verify | gauge-check | counterexample | probe-<name>
    gauge: str  # linear | oscillatory | piecewise
    argv: tuple[str, ...]
    grid_points: int = 0  # the requested --count, 0 when there is no grid


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi), shuffled."""
    vals = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _log_strata(rng, n, lo, hi):
    return [math.exp(v) for v in _strata(rng, n, math.log(lo), math.log(hi))]


def _int_strata(rng, n, lo, hi):
    """Integers in [lo, hi], stratified."""
    return [min(hi, int(v)) for v in _strata(rng, n, lo, hi + 1)]


def _lattice(n, lo, hi):
    """n evenly spaced integers from lo to hi."""
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def _formats(rng, n):
    """Half table, half structured stdout, in random order."""
    fmts = ["table", "structured"] * (n // 2) + ["structured"] * (n % 2)
    rng.shuffle(fmts)
    return fmts


def _osc_spec(m, r, levels):
    return json.dumps({"type": "oscillatory", "M": m, "r": r, "levels": levels})


def _verify_osc_specs(rng, n):
    ms = _log_strata(rng, n, *OSC_M)
    shares = _log_strata(rng, n, *OSC_R_SHARE)
    levels = _int_strata(rng, n, *VERIFY_LEVELS)
    return [_osc_spec(m, s / (m * m), lv) for m, s, lv in zip(ms, shares, levels)]


def _specs(rng, gauge, n):
    if gauge == "linear":
        return [LINEAR] * n
    ms = _log_strata(rng, n, *PROBE_M)
    return [_osc_spec(m, min(1e-3, 0.5 / (m * m)), PROBE_LEVELS) for m in ms]


def _unit(rng, n):
    return _strata(rng, n, -1.0, 1.0)


def _triples(*columns):
    """Comma-joined points, passed as --flag=value since they may start with '-'."""
    return [",".join(repr(c) for c in row) for row in zip(*columns)]


def _piecewise_spec(rng: random.Random, n: int) -> str:
    """A convex, strictly increasing piecewise-linear gauge with n breakpoints.

    Breakpoints are log-spaced over [1e-3, 1e3] with jitter; secant slopes
    grow by a relative step of at least 1e-3, far above the rounding of the
    slopes the gauge recomputes from the values, so the spec is valid.
    """
    lo, hi = math.log(1e-3), math.log(1e3)
    bps = [math.exp(lo + (i + 0.2 + 0.6 * rng.random()) * (hi - lo) / n) for i in range(n)]
    slope = 10.0 ** rng.uniform(-1.0, 1.0)
    values = [slope * bps[0]]
    for i in range(1, n):
        slope *= 1.0 + rng.uniform(1e-3, 3.0 / n)
        values.append(values[-1] + slope * (bps[i] - bps[i - 1]))
    return json.dumps({"type": "piecewise", "breakpoints": bps, "values": values})


def verify_tasks(rng: random.Random, gauge: str, n: int) -> list[Task]:
    """`verify` on n gauges, with seeded --seed, --samples and stdout format."""
    if gauge == "linear":
        samples, specs = _int_strata(rng, n, *VERIFY_SAMPLES), [LINEAR] * n
    else:
        samples, specs = _int_strata(rng, n, *VERIFY_OSC_SAMPLES), _verify_osc_specs(rng, n)
    tasks = []
    for spec, ns, fmt in zip(specs, samples, _formats(rng, n)):
        argv = ("verify", "--gauge", spec, "--samples", str(ns),
                "--seed", str(rng.randrange(2**31)), "--format", fmt)
        tasks.append(Task("verify", gauge, argv))
    return tasks


def _probe_tasks(rng, probe, gauge, counts):
    n = len(counts)
    specs = _specs(rng, gauge, n)
    ubars = _log_strata(rng, n, *UBAR)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    if probe == "a":
        points = [(f"--ubar={u!r}",) for u in ubars]
    elif probe == "beta":
        ps = _triples(_unit(rng, n), _unit(rng, n), [0.0] * n)
        qs = _triples(_unit(rng, n), _unit(rng, n), [0.0] * n)
        points = [(f"--p={p}", f"--q={q}") for p, q in zip(ps, qs)]
    elif probe == "derivability":
        us = _triples(_unit(rng, n), _unit(rng, n), [s * u for s, u in zip(signs, ubars)])
        points = [(f"--u={u}",) for u in us]
    else:
        bases = _triples(_unit(rng, n), _unit(rng, n), _unit(rng, n))
        points = [(f"--base={b}",) for b in bases]
    tasks = []
    for spec, count, pt, fmt in zip(specs, counts, points, _formats(rng, n)):
        argv = ("probe", probe, "--gauge", spec, "--count", str(count), *pt, "--format", fmt)
        tasks.append(Task(f"probe-{probe}", gauge, argv, count))
    return tasks


def _counterexample_tasks(rng, gauge, counts):
    n = len(counts)
    samples = _int_strata(rng, n, *COUNTEREXAMPLE_SAMPLES)
    specs = _specs(rng, gauge, n)
    tasks = []
    for spec, count, ns, fmt in zip(specs, counts, samples, _formats(rng, n)):
        argv = ("counterexample", "--gauge", spec, "--count", str(count),
                "--samples", str(ns), "--seed", str(rng.randrange(2**31)), "--format", fmt)
        tasks.append(Task("counterexample", gauge, argv, count))
    return tasks


def _gauge_check_tasks(rng, n):
    sizes = [round(v) for v in _log_strata(rng, n, *PIECEWISE_BREAKPOINTS)]
    return [
        Task("gauge-check", "piecewise",
             ("gauge-check", "--gauge", _piecewise_spec(rng, size), "--format", fmt))
        for size, fmt in zip(sizes, _formats(rng, n))
    ]


# Grid lengths of each (kind, gauge) group of probe-mix.  Each probe group
# runs 24, 58, 92, 126 and 160 twice: 58 lies in the window where a linear
# metric-diff at a nonzero base loses its verdict to cancellation, and 126
# and 160 lie past the 8-level ladder's end.  Each counterexample group, the
# most costly task, runs 24, 92 and 160.
PROBE_LENGTHS = _lattice(5, *GRID_COUNT) * 2
COUNTEREXAMPLE_LENGTHS = _lattice(3, *GRID_COUNT)
PROBE_KINDS = ("a", "beta", "derivability", "metric-diff")
PROBE_MIX_GAUGE_CHECKS = 16

# At least 100 tasks per workload, so that ten fall beyond p90.
VERIFY_TASKS = 100


def build(workload: str, seed: int) -> list[Task]:
    """The fixed task list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-osc":
        tasks = verify_tasks(rng, "oscillatory", VERIFY_TASKS)
    elif workload == "verify-linear":
        tasks = verify_tasks(rng, "linear", VERIFY_TASKS)
    elif workload == "probe-mix":
        tasks = []
        for gauge in ("linear", "oscillatory"):
            for probe in PROBE_KINDS:
                tasks += _probe_tasks(rng, probe, gauge, PROBE_LENGTHS)
            tasks += _counterexample_tasks(rng, gauge, COUNTEREXAMPLE_LENGTHS)
        tasks += _gauge_check_tasks(rng, PROBE_MIX_GAUGE_CHECKS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks


WORKLOADS = ("verify-osc", "verify-linear", "probe-mix")
