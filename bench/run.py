#!/usr/bin/env python3
"""Benchmark for h1gauge: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload verify-osc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload probe-mix --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each task is a call of
`h1gauge.cli.main(argv)` that starts when the previous one has returned.  A
workload's fixed task list is built from the seed and run in passes until
the time is spent.  With `--trace 0` the run reports the end-to-end metrics
with tracing off.  With `--trace 1` it alternates untraced passes with
passes under the outside-in tracer and reports the per-layer metrics.  A
fixed reference loop runs before each task, and every time reported is
corrected to the host's full speed by it (hostspeed.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

START = time.perf_counter()  # the run's --seconds count from here

import oracle
import workloads
from hostspeed import HostSpeed
from tracer import COUNT_ONLY, LOG_DEPTH, ROOT as ROOT_SPAN, Tracer

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
SETUP_REPS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class BenchError(Exception):
    """The benchmark cannot run here; exit 1 without a result."""


def measure_setup(speed: HostSpeed) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to `import h1gauge.cli`
    having returned, over SETUP_REPS child processes: corrected to the
    host's full speed by reference samples taken around each child, and
    raw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, h1gauge.cli; sys.stdout.write(h1gauge.cli.__file__ + '\\n')"
    times, raw = [], []
    for _ in range(SETUP_REPS):
        before = speed.sample()
        t0 = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, "-c", code], cwd=REPO, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter_ns() - t0
            proc.wait(timeout=120)
        if proc.returncode != 0 or not Path(line.decode().strip()).is_relative_to(SRC):
            raise BenchError(f"importing h1gauge from {SRC} failed in a child process")
        raw.append(elapsed / 1e9)
        times.append(speed.scale(elapsed, before, speed.sample()) / 1e9)
    return statistics.median(times), statistics.median(raw)


def load_cli():
    if not (SRC / "h1gauge" / "cli.py").is_file():
        raise BenchError(f"no h1gauge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import h1gauge.cli

    if not Path(h1gauge.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported h1gauge from {h1gauge.cli.__file__}, not {SRC}")
    return h1gauge.cli


class Runner:
    """Calls the CLI in-process with a fresh --out directory per call."""

    def __init__(self, cli, tmp: Path):
        self.tmp = tmp
        self.main = lambda argv: cli.main(argv)  # looked up per call, so tracing sees it
        self._n = 0

    def call(self, argv) -> tuple[oracle.Outcome, int]:
        """Run one task; returns its outcome and its latency in ns."""
        out_dir = self.tmp / f"t{self._n}"
        self._n += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        code = raised = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter_ns()
            try:
                code = self.main([*argv, "--out", str(out_dir)])
            except SystemExit as e:  # argparse rejects bad usage this way
                code = e.code
            except Exception as e:  # recorded as an error, the run goes on
                raised = repr(e)
            latency = time.perf_counter_ns() - t0
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
        return oracle.Outcome(code, stdout.getvalue(), stderr.getvalue(), files, raised), latency


@dataclass
class Pass:
    latencies_ns: list = field(default_factory=list)
    ref_ns: list = field(default_factory=list)  # reference loop before each task and after the last
    errors: int = 0
    wrong: int = 0
    samples: int = 0
    grid_points: int = 0
    bytes_out: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


def run_pass(runner: Runner, tasks, speed: HostSpeed, tracer: Tracer | None = None) -> Pass:
    res = Pass()
    digest = hashlib.sha256()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        res.ref_ns.append(speed.sample())
        out, latency = runner.call(task.argv)
        verdict = oracle.judge(task, out)
        res.latencies_ns.append(latency)
        res.samples += verdict.samples
        res.grid_points += task.grid_points
        if verdict.kind != "ok":
            if verdict.kind == "error":
                res.errors += 1
            else:
                res.wrong += 1
            res.problems.append(f"{verdict.kind} {task.command}/{task.gauge}: {verdict.reason}")
        names = sorted(out.files)
        header = [task.argv, out.exit_code, out.raised, len(out.stdout), names,
                  [len(out.files[n]) for n in names]]
        digest.update(json.dumps(header).encode())
        digest.update(out.stdout.encode())
        for n in names:
            digest.update(out.files[n])
        res.bytes_out += len(out.stdout.encode()) + sum(len(b) for b in out.files.values())
    res.ref_ns.append(speed.sample())
    res.digest = digest.hexdigest()
    return res


def warm_up(runner: Runner, tasks) -> None:
    """One untimed call of each kind of task, so lazy set-up is done."""
    seen = set()
    for task in tasks:
        if (task.command, task.gauge) not in seen:
            seen.add((task.command, task.gauge))
            runner.call(task.argv)


def task_latencies_ns(passes: list[Pass], speed: HostSpeed | None) -> list[float]:
    """Each task's median latency over the passes, corrected to the host's
    full speed (hostspeed.py), or raw when `speed` is None.

    The median, not the fastest call: a corrected latency no longer depends
    on the host's load, and the fastest of a few corrected calls picks up
    the noise of the correction itself.  Over two 40 s runs of verify-osc in
    a slow stretch, the corrected median moved by 1% and the corrected
    fastest by 11%.
    """
    if speed is None:
        per_pass = [p.latencies_ns for p in passes]
    else:
        per_pass = [speed.correct(p.latencies_ns, p.ref_ns) for p in passes]
    return [statistics.median(lat) for lat in zip(*per_pass)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, passes: list[Pass], setup: tuple[float, float],
               speed: HostSpeed) -> tuple[dict, list[str]]:
    attempted = sum(len(p.latencies_ns) for p in passes)
    errors = sum(p.errors for p in passes)
    wrong = sum(p.wrong for p in passes)
    setup_s, raw_setup_s = setup
    task_ns = task_latencies_ns(passes, speed)
    raw_wall_s = sum(task_latencies_ns(passes, None)) / 1e9
    lat_ms = sorted(x / 1e6 for x in task_ns)
    deciles = statistics.quantiles(lat_ms, n=10)
    p50, p90 = deciles[4], deciles[8]
    beyond = sum(x > p90 for x in lat_ms)
    wall_s = sum(task_ns) / 1e9
    if workload.startswith("verify"):
        work_name, work = "samples_per_s", passes[0].samples
    else:
        work_name, work = "grid_points_per_s", passes[0].grid_points
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "task_p50_ms": metric(p50, "ms"),
        "task_p90_ms": metric(p90, "ms"),
        "work_per_s": metric(work / wall_s, "1/s"),
        "task_ok_ratio": metric(1.0 - errors / attempted, "ratio"),
        "verdict_ok_ratio": metric(1.0 - wrong / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    lines = [
        f"setup_s {setup_s:.4f} s  (median of {SETUP_REPS} fresh imports, corrected;"
        f" uncorrected {raw_setup_s:.4f} s)",
        f"wall_s {wall_s:.4f} s  (task list, each task's corrected median of {len(passes)} passes)",
        f"task_p50_ms {p50:.3f} ms  (n={len(task_ns)} tasks, each the median of {len(passes)})",
        f"task_p90_ms {p90:.3f} ms  (n={len(task_ns)} tasks, {beyond} beyond p90)",
        f"{work_name} {work / wall_s:.1f} 1/s  ({work} per pass) = work_per_s",
        f"error_ratio {errors / attempted:.4f} ratio  ({errors}/{attempted}) = 1 - task_ok_ratio",
        f"wrong_verdict_ratio {wrong / attempted:.4f} ratio  ({wrong}/{attempted})"
        " = 1 - verdict_ok_ratio",
        f"peak_rss_mb {rss_mb:.1f} MB",
        f"uncorrected wall_s {raw_wall_s:.4f} s  (reference loop {speed.slowdown:.3f}x"
        " slower than full speed on average)",
    ]
    return metrics, lines


# Rows of the per-call table: (row, span names; the first gives the call count).
CALL_ROWS = (
    ("g_closed", ("gauges.g_eval[closed]",)),
    ("g_bisect", ("gauges.g_eval[bisect]", "gauges.invert_g")),
    ("mul", ("heisenberg.mul",)),
    ("gauge_dist", ("metrics.gauge_dist",)),
    ("rescaled_product", ("dilatations.rescaled_product",)),
    ("vertical_limit_probe", ("limits.vertical_limit_probe",)),
    ("metric_diff_probe", ("limits.metric_diff_probe",)),
    ("check_gauge", ("gauges.check_gauge",)),
)


def per_layer(tracer: Tracer, snaps: list[dict], untraced: list[Pass], traced: list[Pass],
              speed: HostSpeed, wrapper_ns: float, counter_ns: float) -> dict:
    """Per-layer metrics: counts from one traced pass; times as medians over
    the traced passes, each pass's times scaled to the host's full speed by
    that pass's mean reference sample (hostspeed.py)."""
    keys, fid = tracer.keys, tracer.fid
    counts = snaps[0]["calls"]
    n = len(keys)

    def calls(*names):
        return sum(counts[fid[k]] for k in names)

    def seconds(fn):
        return statistics.median(fn(s) * s["scale"] for s in snaps) / 1e9

    def layer_self(layer):
        ids = [i for i, k in enumerate(keys) if k.startswith(layer + ".")]
        return seconds(lambda s: sum(s["self_ns"][i] for i in ids))

    def total(name):
        return seconds(lambda s: s["total_ns"][fid[name]])

    span_ids = [i for i, k in enumerate(keys) if k not in COUNT_ONLY and k != ROOT_SPAN]
    bisects = calls("gauges.invert_g")
    g_in_bisect = snaps[0]["by_caller"][fid["gauges.g_inverse_eval"] * n + fid["gauges.invert_g"]]
    m = {
        "gauges.g_bisect.calls": metric(bisects, "count"),
        "gauges.g_closed.calls": metric(calls("gauges.g_eval[closed]"), "count"),
        "gauges.G.calls": metric(calls("gauges.g_inverse_eval"), "count"),
        "gauges.G_per_bisect": metric(g_in_bisect / bisects if bisects else 0.0, "ratio"),
        "gauges.k.calls": metric(calls("gauges.PiecewiseLinearGauge.__call__"), "count"),
        "gauges.self_s": metric(layer_self("gauges"), "s"),
        "gauges.build_s": metric(seconds(lambda s: s["groups"]["gauges.build"]), "s"),
        "gauges.check_gauge_s": metric(total("gauges.check_gauge"), "s"),
        "heisenberg.points": metric(calls("heisenberg.H1Point.__init__"), "count"),
        "heisenberg.mul.calls": metric(calls("heisenberg.mul"), "count"),
        "heisenberg.self_s": metric(layer_self("heisenberg"), "s"),
        "dilatations.calls": metric(
            sum(counts[i] for i in span_ids if keys[i].startswith("dilatations.")), "count"),
        "dilatations.self_s": metric(layer_self("dilatations"), "s"),
        "metrics.draws": metric(calls("metrics.SampleBox.draw"), "count"),
        "metrics.dist.calls": metric(
            calls("metrics.intrinsic_dist", "metrics.gauge_dist", "metrics.flat_dist"), "count"),
        "metrics.sampler_s": metric(seconds(lambda s: s["groups"]["metrics.sampler"]), "s"),
        "metrics.self_s": metric(layer_self("metrics"), "s"),
        "limits.traces": metric(calls("limits.ConvergenceTrace.__init__"), "count"),
        "limits.classify.calls": metric(
            calls("limits.classify_limit", "limits.classify_point_trace"), "count"),
        "limits.metric_diff_s": metric(total("limits.metric_diff_probe"), "s"),
        "limits.self_s": metric(layer_self("limits"), "s"),
        "cli.emit_s": metric(total("cli._emit"), "s"),
        "cli.bytes_out": metric(traced[0].bytes_out, "bytes"),
        "cli.self_s": metric(layer_self("cli"), "s"),
        "report.self_s": metric(layer_self("report"), "s"),
        "trace.overhead_s": metric(
            (sum(task_latencies_ns(traced, speed)) - sum(task_latencies_ns(untraced, speed)))
            / 1e9, "s"),
        "trace.wrapper_ns": metric(wrapper_ns, "ns"),
        "trace.counter_ns": metric(counter_ns, "ns"),
        "trace.spans": metric(snaps[0]["kept_spans"], "count"),
        "trace.wrapped_calls": metric(sum(counts[i] for i in span_ids), "count"),
    }
    for row, names in CALL_ROWS:
        ids = [fid[k] for k in names]
        c = counts[ids[0]]
        self_us = seconds(lambda s: sum(s["self_ns"][i] for i in ids)) * 1e6
        incl_us = seconds(lambda s: s["total_ns"][ids[0]]) * 1e6
        m[f"call.{row}.self_us"] = metric(self_us / c if c else 0.0, "us")
        m[f"call.{row}.incl_us"] = metric(incl_us / c if c else 0.0, "us")
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tasks = workloads.build(workload, seed)
    cli = load_cli()
    speed = HostSpeed()
    setup = measure_setup(speed) if not trace else None
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(cli, tmp)
        failures = oracle.self_test(lambda argv: runner.call(argv)[0])
        if failures:
            raise BenchError("oracle self-test failed: " + "; ".join(failures))
        warm_up(runner, tasks)
        if trace:
            return measure_traced(workload, seed, seconds, tasks, runner, speed)
        untraced = []
        pass_s = []
        while len(untraced) < MIN_PASSES or \
                time.perf_counter() - START + statistics.median(pass_s) <= seconds:
            t0 = time.perf_counter()
            untraced.append(run_pass(runner, tasks, speed))
            pass_s.append(time.perf_counter() - t0)
        metrics, lines = end_to_end(workload, untraced, setup, speed)
        return result(workload, seed, tasks, untraced, metrics, lines)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_traced(workload, seed, seconds, tasks, runner, speed) -> dict:
    tracer = Tracer()
    before = speed.sample()
    wrapper_ns, counter_ns = tracer.calibrate()
    after = speed.sample()
    wrapper_ns, counter_ns = (speed.scale(ns, before, after) for ns in (wrapper_ns, counter_ns))
    traced_main = tracer.root(runner.main)
    untraced, traced, snaps = [], [], []
    t0_ns = time.perf_counter_ns()
    pair_s = []
    while len(traced) < MIN_TRACED_PASSES or \
            time.perf_counter() - START + statistics.median(pair_s) <= seconds:
        t0 = time.perf_counter()
        untraced.append(run_pass(runner, tasks, speed))
        kept = len(tracer.spans)
        tracer.install()
        plain_main, runner.main = runner.main, traced_main
        try:
            traced.append(run_pass(runner, tasks, speed, tracer))
        finally:
            runner.main = plain_main
            tracer.uninstall()
        snap = tracer.snapshot()
        snap["kept_spans"] = len(tracer.spans) - kept
        snap["scale"] = speed.pass_scale(traced[-1].ref_ns)
        snaps.append(snap)
        pair_s.append(time.perf_counter() - t0)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_file, t0_ns)
    exact = all(s["calls"] == snaps[0]["calls"] and s["by_caller"] == snaps[0]["by_caller"]
                for s in snaps)
    metrics = per_layer(tracer, snaps, untraced, traced, speed, wrapper_ns, counter_ns)
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"counts repeat exactly over {len(snaps)} traced passes: {exact}")
    lines.append(f"spans kept (depth < {LOG_DEPTH}): {spans_file.relative_to(REPO)}")
    out = result(workload, seed, tasks, untraced + traced, metrics, lines)
    out["correct"] = out["correct"] and exact
    return out


def result(workload, seed, tasks, passes, metrics, lines) -> dict:
    """Print the human-readable report and return the final JSON object.
    Every pass run, traced or not, must give the same output digest."""
    digests = {p.digest for p in passes}
    attempted = sum(len(p.latencies_ns) for p in passes)
    failed = sum(p.errors for p in passes)
    print(f"workload {workload} seed {seed}: {len(tasks)} tasks per pass, "
          f"{len(passes)} passes, {attempted} tasks attempted, {failed} failed")
    for line in lines:
        print("  " + line)
    print(f"  output_digest sha256:{passes[0].digest}  "
          f"(identical over {len(passes)} passes: {len(digests) == 1})")
    for problem in sorted(set(passes[0].problems))[:10]:
        print("  " + problem)
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, as a single run would see it
        code = 0
        for w in workloads.WORKLOADS:
            code |= subprocess.run([sys.executable, __file__, "--workload", w,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]).returncode
        return code
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
