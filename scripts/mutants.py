#!/usr/bin/env python3
"""Check that the tests kill every mutant listed in scripts/mutants.json.

Each row of the table names a source file (relative to the repository
root), an exact text that occurs in it once, the text that replaces it, and
the pytest node IDs that must fail under that mutant.  The script copies the
repository to a temporary directory and runs every named test there once on
the unchanged copy, where each must pass.  It then applies one mutant at a
time and runs only that row's tests.

It exits 1 when a mutant survives (one of its tests is not reported
failing), when a row's text does not occur exactly once (the code moved:
mend the row, or delete it with the code it guards), or when a named test
does not pass on the unchanged copy (a wrong node ID included); otherwise 0.

    python scripts/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_suffix(".json")
SKIP = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache",
                              ".bench_out", ".benchmarks", "sweep_out")


def run_tests(tree: Path, ids: list[str]) -> tuple[dict[str, str], str]:
    """Each node ID's outcome (PASSED, FAILED, ERROR, ...) from one pytest
    run of ids in tree, importing the package from tree's src, and the tail
    of pytest's output; an ID that pytest did not report is absent."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *ids], cwd=tree, env=env, capture_output=True, text=True)
    outcomes = {}
    for line in done.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS") and "::" in rest:
            outcomes[rest.split(" ")[0]] = word
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-3:])
    return outcomes, tail


def main() -> int:
    rows = json.loads(TABLE.read_text())
    problems = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="h1gauge-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        where = subprocess.run([sys.executable, "-c", "import h1gauge; print(h1gauge.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            print(f"the copy imports h1gauge from {where!r}, not from {tree / 'src'}")
            return 1

        ids = sorted({test for row in rows for test in row["tests"]})
        before, tail = run_tests(tree, ids)
        unpassed = [test for test in ids if before.get(test) != "PASSED"]
        if unpassed:
            print(f"{len(unpassed)} named tests do not pass before any mutant:", *unpassed, tail,
                  sep="\n")
            return 1

        for row in rows:
            path = tree / row["file"]
            source = path.read_text()
            found = source.count(row["text"])
            if found != 1:
                problems.append(f"{row['name']}: its text occurs {found} times in {row['file']}")
                continue
            t0 = time.perf_counter()
            path.write_text(source.replace(row["text"], row["replacement"]))
            try:
                after, tail = run_tests(tree, row["tests"])
            finally:
                path.write_text(source)
            # killed only when every named test is reported failing
            survivors = [test for test in row["tests"] if after.get(test) not in ("FAILED", "ERROR")]
            verdict = "SURVIVED" if survivors else "killed"
            print(f"{verdict:8} {row['name']} ({len(row['tests'])} tests, "
                  f"{time.perf_counter() - t0:.1f} s)")
            if survivors:
                problems.append(f"{row['name']}: not failed by "
                                + ", ".join(f"{test} ({after.get(test, 'not reported')})"
                                            for test in survivors) + f"\n{tail}")

    for problem in problems:
        print(problem)
    print(f"{len(rows)} mutants, {len(problems)} problems, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
