#!/usr/bin/env python3
"""Sweep the scalar vertical probe across gauges and ubar values.

Writes one CSV per gauge (columns: ubar, kind, limit, liminf, limsup) plus the
full traces, ready for plotting.  Gauges: the linear reference and a family of
oscillatory gauges with varying slope ratio M.
"""

import argparse
import sys
from pathlib import Path

from h1gauge.gauges import linear_gauge, oscillatory_gauge
from h1gauge.limits import EpsGrid, vertical_limit_probe


def sweep(gauge, ubars, grid, out_dir: Path, tag: str) -> None:
    rows = ["ubar,kind,limit,liminf,limsup"]
    traces = []
    for ub in ubars:
        tr = vertical_limit_probe(gauge, ub, grid)
        c = tr.classification
        rows.append(
            f"{ub!r},{c.kind},{c.limit!r},{c.liminf!r},{c.limsup!r}"
        )
        traces.append((ub, tr))
    (out_dir / f"sweep_{tag}.csv").write_text("\n".join(rows) + "\n")

    lines = ["ubar,epsilon,value"]
    for ub, tr in traces:
        for eps, val in tr.rows():
            lines.append(f"{ub!r},{eps!r},{val!r}")
    (out_dir / f"traces_{tag}.csv").write_text("\n".join(lines) + "\n")
    print(f"{tag}: {len(ubars)} probes -> sweep_{tag}.csv, traces_{tag}.csv")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sweep_out", help="output directory")
    ap.add_argument("--count", type=int, default=30, help="grid length")
    ap.add_argument(
        "--amplitudes", default="3,10,30",
        help="comma-separated slope-ratio amplitudes for the oscillatory family",
    )
    args = ap.parse_args(argv)

    # every input is checked before any output is written
    try:
        grid = EpsGrid(count=args.count)
    except ValueError as e:
        ap.error(f"--count: {e}")
    gauges = [("linear", linear_gauge())]
    for m_text in args.amplitudes.split(","):
        try:
            M = float(m_text)
            r = min(1e-3, 0.5 / (M * M))  # keep r inside its validity range
            gauges.append((f"oscillatory_M{m_text.strip()}", oscillatory_gauge(M=M, r=r)))
        except ValueError as e:  # GaugeConstructionError included
            ap.error(f"--amplitudes: {m_text!r}: {e}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ubars = [0.125 * 2**i for i in range(7)]  # 0.125 .. 8
    for tag, gauge in gauges:
        sweep(gauge, ubars, grid, out_dir, tag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
