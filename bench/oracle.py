"""Error classifier and verdict oracle for one CLI task.

`judge` sorts each task into exactly one of three outcomes:

- "error": the call raised, exited 2 on valid input, exited with a code the
  CLI does not define, or left output that cannot be parsed.  These count
  toward `error_ratio` and the run's `failed` count.
- "wrong": the output parses but contradicts the source paper.  The paper
  says linear gauges converge and are differentiable, with `counterexample`
  exiting 1; oscillatory gauges do not converge, give a witness, and
  `counterexample` exits 0; `verify` and `gauge-check` exit 0.  These count
  toward `wrong_verdict_ratio`.
- "ok": everything else.

`self_test` proves on real CLI calls that a flipped verdict and an exit
code 2 are each caught.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from workloads import LINEAR, Task

_REPORT_FILE = {
    "verify": "verify_report.json",
    "gauge-check": "gauge_check_report.json",
    "counterexample": "counterexample_report.json",
    "probe-a": "probe_a.json",
    "probe-beta": "probe_beta.json",
    "probe-derivability": "probe_derivability.json",
    "probe-metric-diff": "probe_metric-diff.json",
}
_SAMPLES = re.compile(r"(\d+) samples")


@dataclass
class Outcome:
    """What one call of `main(argv)` left behind."""

    exit_code: object  # int, or None when the call raised
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)
    raised: str | None = None


@dataclass
class Verdict:
    kind: str  # ok | wrong | error
    reason: str = ""
    samples: int = 0  # property samples evaluated, read from a verify report


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _paper_agrees(task: Task, code: int, report: dict) -> tuple[bool, str]:
    linear = task.gauge == "linear"
    if task.command in ("verify", "gauge-check"):
        return code == 0 and report["passed"] is True, f"exit {code}"
    if task.command == "counterexample":
        want = 1 if linear else 0
        return code == want, f"exit {code}: {report['deviation']}"
    if task.command == "probe-metric-diff":
        diff = report["differentiable"]
        if linear:
            return diff is True, "not differentiable"
        return diff is False and report["witness"] is not None, "differentiable"
    kind = report["classification"]["kind"]
    return (kind == "converged") == linear, kind


def judge(task: Task, out: Outcome) -> Verdict:
    if out.raised is not None:
        return Verdict("error", f"raised {out.raised}")
    code = out.exit_code
    if code == 2:
        return Verdict("error", "exit 2 on valid input: " + _last_line(out.stderr))
    if code not in (0, 1):
        return Verdict("error", f"undefined exit code {code!r}")
    if code == 1 and task.command.startswith("probe-"):
        # A probe exits 1 only when it finds a property violation.
        return Verdict("wrong", "probe reported a property violation: " + _last_line(out.stderr))
    name = _REPORT_FILE[task.command]
    try:
        report = json.loads(out.files[name])
        if "--format" in task.argv and task.argv[task.argv.index("--format") + 1] == "structured":
            json.loads(out.stdout)
        elif not out.stdout.strip():
            raise ValueError("empty stdout")
        ok, why = _paper_agrees(task, code, report)
        samples = 0
        if task.command == "verify":
            samples = sum(int(m.group(1)) for c in report["checks"]
                          if (m := _SAMPLES.fullmatch(c["details"])))
    except (KeyError, TypeError, ValueError) as e:
        return Verdict("error", f"unparsable output: {e!r}")
    return Verdict("ok" if ok else "wrong", "" if ok else why, samples)


def self_test(run) -> list[str]:
    """Check the classifier and oracle on real CLI calls.

    `run(argv)` must call the CLI with an --out directory and return an
    Outcome.  Returns the failures, empty when every case was classified
    as expected.
    """
    failures = []

    def expect(label, task, out, want):
        got = judge(task, out).kind
        if got != want:
            failures.append(f"{label}: expected {want}, judged {got}")

    probe = Task("probe-a", "linear", ("probe", "a", "--gauge", LINEAR, "--count", "24"), 24)
    real = run(probe.argv)
    expect("linear probe a", probe, real, "ok")
    flipped = Task("probe-a", "oscillatory", probe.argv, 24)
    expect("flipped verdict", flipped, real, "wrong")
    bad = Task("probe-a", "linear", ("probe", "a", "--gauge", LINEAR, "--count", "1"), 1)
    expect("exit code 2", bad, run(bad.argv), "error")
    expect("raised", probe, Outcome(None, "", "", raised="RuntimeError()"), "error")
    garbled = Outcome(0, real.stdout, "", {"probe_a.json": b"{"})
    expect("unparsable report", probe, garbled, "error")
    return failures
