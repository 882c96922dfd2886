"""The package names that the benchmark's per-layer metrics look up.

bench/run.py reads its counters from bench/tracer.py by key ("layer.name"),
and a key the tracer does not make raises KeyError in a traced run.  The
tracer makes one key per public function of each package module (and per
public method of its public classes), so renaming or deleting a function
that bench/ still reads would pass every other test.  This test reads
bench/ and changes nothing there.
"""

import ast
import importlib.util
from pathlib import Path

import h1gauge.cli  # noqa: F401  (the tracer reads the modules it imports)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names_run_reads() -> set[str]:
    """Every string passed to calls(...) or total(...), used as a key of
    fid[...], or listed in CALL_ROWS, in bench/run.py."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("calls", "total"):
            args = node.args
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "fid":
            args = [node.slice]
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CALL_ROWS":
            args = [name for row in node.value.elts for name in row.elts[1].elts]  # (row, names)
        else:
            continue
        names.update(a.value for a in args if isinstance(a, ast.Constant))
    return names


def test_the_tracer_makes_every_key_bench_reads():
    names = _names_run_reads()
    assert "gauges.g_eval[closed]" in names and "cli._emit" in names  # the parse found them
    keys = set(_tracer_module().Tracer().keys)
    assert sorted(names - keys) == []
