"""Host-speed reference: corrects task latencies for the host's own slowdowns.

On a shared host the core this benchmark runs on slows down and speeds up
with other tenants' load.  On a 2-vCPU Intel Xeon container a fixed
pure-Python loop ran either at full speed or up to about 2.5x slower, switching
within a millisecond, and the share of slow time held for tens of seconds
at a stretch; on average the loop ran 1.2x to 2.4x slower than full speed
over a 40 s run.  Thread CPU time slowed just as much as wall time, so the
slowdown is a slower core, not time taken away.  A run could fall entirely
into a slow stretch, and no statistic of its own latencies could tell that
stretch from a slower program: the fastest of a task's calls moved by up to
1.6x between runs of the same code.

So the benchmark times a fixed reference loop (this file; no h1gauge code)
between tasks.  A task's corrected latency is its measured latency times
REF_NS, the loop's time at full speed, divided by the loop's mean time
around that task: the task's time on a core running at full speed.  Over
fourteen passes of 20 verify-osc calls, raw pass times varied with a
coefficient of variation of 0.20 and corrected ones of 0.044.  A change to
h1gauge does not touch the reference loop, so it moves the corrected time
just as it moves the raw time.  The raw figures are printed beside the
corrected ones.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

# Reference loops per sample; one loop takes about 0.1 ms.
REPS = 8
# The time of one reference loop at the host's full speed: the fastest seen
# on a 2-vCPU Intel Xeon container with Python 3.11.7.  Corrected times are
# times on a core that runs the loop this fast.  A fixed value, because the
# fastest loop of one run is itself slower in a slow stretch: over five
# probe-mix runs it ranged from 71.8 to 81.9 us.
REF_NS = 72_000.0
# Samples on each side of a call that set its correction.
WINDOW = 5


class _Point:
    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        self.x, self.y, self.t = x, y, t


def _mul(a, b):
    return _Point(a.x + b.x, a.y + b.y, a.t + b.t + 0.5 * (a.x * b.y - a.y * b.x))


def _reference() -> float:
    """Interpreter work of the same kind as h1gauge's: small objects,
    calls, attribute access and float arithmetic."""
    p, q = _Point(0.1, 0.2, 0.3), _Point(0.3, -0.1, 0.05)
    acc = 0.0
    for _ in range(200):
        p = _mul(p, q)
        acc += math.sqrt(p.x * p.x + p.y * p.y)
    return acc


class HostSpeed:
    """Samples the reference loop and scales latencies by its speed."""

    def __init__(self):
        self.samples = 0
        self.total_ns = 0.0

    @property
    def slowdown(self) -> float:
        """How much slower than REF_NS the reference loop ran on average."""
        return self.total_ns / self.samples / REF_NS

    def sample(self) -> float:
        """Mean time of one reference loop over REPS loops, in ns.

        The mean, not the median: the core switches between two speeds
        faster than one loop, and the mean follows the share of slow time.
        """
        total = 0
        for _ in range(REPS):
            t0 = perf_counter_ns()
            _reference()
            total += perf_counter_ns() - t0
        self.samples += 1
        self.total_ns += total / REPS
        return total / REPS

    def scale(self, elapsed_ns: float, before_ns: float, after_ns: float) -> float:
        """One timed interval scaled to full speed, by the samples taken
        just before and just after it."""
        return elapsed_ns * REF_NS * 2.0 / (before_ns + after_ns)

    def correct(self, latencies_ns: list, ref_ns: list) -> list[float]:
        """One pass's latencies scaled to the host's full speed.

        `ref_ns[i]` is the sample taken before call i and `ref_ns[-1]` the
        one after the last call.  Call i is scaled by the mean of the
        samples from WINDOW calls before it to WINDOW calls after it: one
        sample sees about 1 ms, too little of a core that switches speed
        within a millisecond, while the share of slow time holds for
        seconds.
        """
        out = []
        for i, lat in enumerate(latencies_ns):
            near = ref_ns[max(0, i - WINDOW):i + WINDOW + 2]
            out.append(lat * REF_NS * len(near) / sum(near))
        return out

    def pass_scale(self, ref_ns: list) -> float:
        """The factor that scales times summed over a whole pass to full
        speed, from the pass's samples."""
        return REF_NS * len(ref_ns) / sum(ref_ns)
