"""Outside-in tracer for the h1gauge package.

The tracer changes no file of the package.  `install` replaces every binding
of each public function of the seven package modules, in every `h1gauge.*`
namespace that holds it (so `dilatations.g_eval` is wrapped as well as
`gauges.g_eval`), and the public methods of their public classes.
`uninstall` puts the originals back.

Two kinds of wrapper:

- A span wrapper times the call.  Its self time is its duration minus the
  time its child spans cover.  Every span adds to per-function totals
  (calls, inclusive and self time).  Spans less than LOG_DEPTH levels below
  the task root are also kept in memory as records (id, parent id, task id,
  name, start, end, self) and written out at exit; deeper spans only add to
  the totals, which keeps memory bounded.
- A counting wrapper only counts.  It is used for the hot leaves, which run
  about 7e5 times per 300 oscillatory samples.  Their time stays in the self
  time of the span that called them.  Each count is also attributed to that
  calling span's function, e.g. profile evaluations per bisection.

Call counts are exact: the package is deterministic, so a task list gives
the same counts on every pass and every run.  Times are not exact.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from time import perf_counter_ns

PKG = "h1gauge"
LAYERS = ("cli", "report", "limits", "metrics", "dilatations", "gauges", "heisenberg")
# Spans this many levels deep below the task root or deeper are not kept.
LOG_DEPTH = 4

# Hot leaves and constructors: counted, never given a span.
COUNT_ONLY = frozenset({
    "gauges.g_inverse_eval",
    "gauges.PiecewiseLinearGauge.__call__",
    "heisenberg.H1Point.__init__",
    "heisenberg.H1Point.horizontal_norm",
    "heisenberg.H1Point.as_tuple",
    "heisenberg.symplectic_area",
    "heisenberg.point_diff",
    "heisenberg.point_scale",
    "dilatations.sgn",
    "metrics.SampleBox.draw",
    "limits.ConvergenceTrace.__init__",
})
# Private helpers that a per-layer metric needs a span for.
EXTRA_SPANS = frozenset({"cli._emit"})
# g_eval is split by path: closed form or bisection.
SPLIT = "gauges.g_eval"
# Gauge builders, timed by their outermost call so nested builders count once.
BUILDERS = frozenset({
    "gauges.load_gauge", "gauges.gauge_from_spec", "gauges.linear_gauge",
    "gauges.oscillatory_gauge", "gauges.piecewise_gauge", "gauges.verified_gauge",
})
ROOT = "task"


def _targets():
    """(key, owner, attribute, function) for every function to wrap.

    owner is None for a module-level function, else the class it sits on.
    """
    for layer in LAYERS:
        mod = sys.modules[f"{PKG}.{layer}"]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            key = f"{layer}.{name}"
            if inspect.isfunction(obj) and (not name.startswith("_") or key in EXTRA_SPANS):
                yield key, None, name, obj
            elif inspect.isclass(obj) and not name.startswith("_") \
                    and not issubclass(obj, BaseException):
                for attr, fn in vars(obj).items():
                    mkey = f"{key}.{attr}"
                    public = not attr.startswith("_") and not inspect.isgeneratorfunction(fn)
                    if inspect.isfunction(fn) and (public or mkey in COUNT_ONLY):
                        yield mkey, obj, attr, fn


class Tracer:
    def __init__(self):
        targets = list(_targets())
        self.keys = [ROOT]
        for key, *_ in targets:
            if key == SPLIT:
                self.keys += [f"{key}[closed]", f"{key}[bisect]"]
            else:
                self.keys.append(key)
        self.fid = {k: i for i, k in enumerate(self.keys)}
        n = len(self.keys)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.by_caller = [0] * (n * n)  # counted fid * n + calling span fid
        # span groups timed by their outermost call: [open depth, ns]
        self.groups = {"gauges.build": [0, 0], "metrics.sampler": [0, 0]}
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.task = -1
        self._next_span = 0
        self._wrappers = {}
        for key, owner, attr, fn in targets:
            self._wrappers[key] = (owner, attr, fn, self._wrap(key, fn))
        self._patched: list[tuple] = []

    def _group_of(self, key):
        if key in BUILDERS:
            return self.groups["gauges.build"]
        if key.startswith("metrics.sample_"):
            return self.groups["metrics.sampler"]
        return None

    def _wrap(self, key, fn):
        if key in COUNT_ONLY:
            return self._count(fn, self.fid[key])
        if key == SPLIT:
            closed = self._span(fn, self.fid[f"{key}[closed]"], None)
            bisect = self._span(fn, self.fid[f"{key}[bisect]"], None)

            def g_eval(gauge, *args, **kwargs):
                return (bisect if gauge.g_closed is None else closed)(gauge, *args, **kwargs)

            return g_eval
        return self._span(fn, self.fid[key], self._group_of(key))

    def _span(self, fn, fid, group):
        stack, spans, tracer = self.stack, self.spans, self
        calls, total, self_ns = self.calls, self.total_ns, self.self_ns
        clock = perf_counter_ns

        def span(*args, **kwargs):
            frame = [0, -1, fid]  # child ns, span id (-1: not kept), fid
            if len(stack) < LOG_DEPTH:
                frame[1] = tracer._next_span
                tracer._next_span += 1
            if group is not None:
                group[0] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                total[fid] += dur
                self_ns[fid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if group is not None:
                    group[0] -= 1
                    if group[0] == 0:
                        group[1] += dur
                if frame[1] >= 0:
                    spans.append((frame[1], stack[-1][1] if stack else -1, tracer.task,
                                  fid, start, end, dur - frame[0]))

        return span

    def _count(self, fn, fid):
        stack, calls, by_caller = self.stack, self.calls, self.by_caller
        base = fid * len(self.keys)

        def count(*args, **kwargs):
            calls[fid] += 1
            if stack:
                by_caller[base + stack[-1][2]] += 1
            return fn(*args, **kwargs)

        return count

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for owner, attr, fn, wrapper in self._wrappers.values():
            if owner is None:
                originals[id(fn)] = (fn, wrapper)
            else:
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def root(self, fn):
        """Wrap the benchmark's own call into the package as the task span."""
        return self._span(fn, self.fid[ROOT], None)

    # -- measurement --------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals since the last snapshot, then reset them."""
        snap = {
            "calls": self.calls[:],
            "total_ns": self.total_ns[:],
            "self_ns": self.self_ns[:],
            "by_caller": self.by_caller[:],
            "groups": {name: g[1] for name, g in self.groups.items()},
        }
        for arr in (self.calls, self.total_ns, self.self_ns, self.by_caller):
            arr[:] = [0] * len(arr)
        for g in self.groups.values():
            g[1] = 0
        return snap

    def calibrate(self, reps=7, n=20000) -> tuple[float, float]:
        """Median cost in ns of one span wrapper and one counting wrapper,
        measured below the span-keeping depth, where the hot calls run."""

        def noop(x):
            return x

        fid = self.fid[ROOT]
        span, count = self._span(noop, fid, None), self._count(noop, fid)
        self.stack.extend([0, -1, fid] for _ in range(LOG_DEPTH))
        span_ns, count_ns = [], []
        try:
            for _ in range(reps):
                times = []
                for f in (noop, span, count):
                    t0 = perf_counter_ns()
                    for i in range(n):
                        f(i)
                    times.append(perf_counter_ns() - t0)
                span_ns.append((times[1] - times[0]) / n)
                count_ns.append((times[2] - times[0]) / n)
        finally:
            del self.stack[-LOG_DEPTH:]
        self.snapshot()
        return statistics.median(span_ns), statistics.median(count_ns)

    def write_spans(self, path, t0_ns: int) -> None:
        """Kept spans as JSON lines, times in ns from t0_ns."""
        with open(path, "w") as fh:
            for sid, parent, task, fid, start, end, self_ns in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "task": task, "name": self.keys[fid],
                    "start_ns": start - t0_ns, "end_ns": end - t0_ns, "self_ns": self_ns,
                }) + "\n")
