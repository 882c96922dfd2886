"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The suite
is seeded and deterministic; tolerances are the contract values, not the
(often tighter) internal sampler defaults.
"""

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

from h1gauge.cli import main
from h1gauge.dilatations import dilate_array
from h1gauge.gauges import g_inverse_array, invert_g, linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import mul_array, point, symplectic_area
from h1gauge.limits import (
    EpsGrid,
    metric_diff_probe,
    rescaled_product_probe,
    vertical_limit_probe,
)
from h1gauge.metrics import BATTERY, SampleBox
from h1gauge.report import TOL_GAUGE

LIN = linear_gauge()
OSC = oscillatory_gauge()
GAUGES = [("linear", LIN), ("oscillatory", OSC)]
ROWS = {row.name: row for row in BATTERY}


def criterion(num: int, ok: bool, desc: str) -> None:
    print(f"ACC{num} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"ACC{num} failed: {desc}"


def run_rows(gauge, n, seed, *names):
    """The named battery rows run in turn on one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    return [ROWS[name]._run(gauge, n, rng, SampleBox()) for name in names]


def _quiet_main(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


def test_acc1_group_algebra_suite():
    reports = run_rows(LIN, 10_000, 10_001,
                       "group-associativity", "group-identity", "group-inverse")
    worst = max(r.worst_violation for r in reports)
    criterion(
        1,
        worst <= 1e-9,
        f"group axioms over 1e4 triples, worst scaled error {worst:.3e} <= 1e-9",
    )


def test_acc2_deformed_distance_is_1_lipschitz_metric():
    worsts = []
    for name, gauge in GAUGES:
        [tri] = run_rows(gauge, 10_000, 10_002, "triangle-gauge")
        [lip] = run_rows(gauge, 10_000, 10_003, "lipschitz-id")
        worsts.append((name, tri.worst_violation, lip.worst_violation))
    [tri_d] = run_rows(LIN, 10_000, 10_004, "triangle-intrinsic")
    ok = (
        all(t <= 1e-12 and l <= 1e-12 for _, t, l in worsts)
        and tri_d.worst_violation <= 1e-12
    )
    detail = "; ".join(f"{n}: tri {t:.2e}, lip {l:.2e}" for n, t, l in worsts)
    criterion(2, ok, f"triangle + 1-Lipschitz over 1e4 samples ({detail})")


def test_acc3_dilatation_axioms():
    oks, details = [], []
    for name, gauge in GAUGES:
        [semi] = run_rows(gauge, 441, 10_005, "dilatation-semigroup")
        [homo] = run_rows(gauge, 10_000, 10_006, "dilatation-homogeneity")
        [resc] = run_rows(gauge, 1_000, 10_007, "rescaled-distance-identity")
        worst = max(semi.worst_violation, homo.worst_violation, resc.worst_violation)
        oks.append(worst <= 1e-9)
        details.append(f"{name}: {worst:.2e}")
    criterion(
        3,
        all(oks),
        "semigroup + homogeneity + rescaled-distance identity <= 1e-9 ("
        + "; ".join(details) + ")",
    )


def test_acc4_transport_identities():
    oks, details = [], []
    for name, gauge in GAUGES:
        [conj] = run_rows(gauge, 1_000, 10_008, "conjugation")
        [iso] = run_rows(gauge, 10_000, 10_009, "flatten-isometry")
        [homo] = run_rows(gauge, 10_000, 10_010, "flatten-homomorphism")
        [assoc] = run_rows(gauge, 10_000, 10_011, "transported-associativity")
        worst = max(
            conj.worst_violation,
            iso.worst_violation,
            homo.worst_violation,
            assoc.worst_violation,
        )
        oks.append(worst <= 1e-9)
        details.append(f"{name}: {worst:.2e}")
    criterion(
        4,
        all(oks),
        "conjugation + isometry + homomorphism + transported associativity <= 1e-9 ("
        + "; ".join(details) + ")",
    )


def test_acc5_linear_gauge_all_limits_converge():
    ok_a = True
    for ubar in (0.25, 0.5, 1.0, 2.0, 4.0):
        tr = vertical_limit_probe(LIN, ubar)
        c = tr.classification
        ok_a &= c.kind == "converged" and abs(c.limit) <= 1e-4
        ok_a &= abs(tr.values[20]) <= 1e-4  # response at eps = 2^-20

    # the rescaled product converges pairwise on a 5x5 point grid; generic
    # pairs approach their limit linearly in eps, so the tail needs the
    # slightly longer grid to flatten below atol
    pts = [point(1, 0, 0), point(0, 1, 0), point(1, 1, 1),
           point(-1, 0.5, -2), point(0.5, -0.5, 4)]
    grid34 = EpsGrid(count=34)
    ok_beta = all(
        rescaled_product_probe(LIN, p, q, grid34).classification.kind == "converged"
        for p in pts
        for q in pts
    )

    md = metric_diff_probe(LIN)
    ok_md = md.differentiable
    worst_eta = 0.0
    for v, ev in zip(md.directions, md.eta or ()):
        worst_eta = max(worst_eta, abs(ev - v.horizontal_norm()))
    ok_md &= worst_eta <= 1e-3
    # the seminorm laws from eta on the 39 dilated directions and the 78
    # pairwise products: eta(x) = max(|x_h|, L sqrt|xbar|), L = eta(0, 0, 1)
    d = np.array([v.as_tuple() for v in md.directions])
    eta = np.array(md.eta or [np.nan] * len(d))
    L = eta[md.directions.index(point(0, 0, 1))]

    def eta_of(x):
        return np.maximum(np.hypot(x[:, 0], x[:, 1]), L * np.sqrt(np.abs(x[:, 2])))

    lams = np.tile([0.5, 0.25, 2.0], len(d))
    dilated = dilate_array(lams, np.repeat(d, 3, axis=0))
    scaling = np.abs(eta_of(dilated) - lams * np.repeat(eta, 3))
    left, right = np.triu_indices(len(d), 1)
    subadd = eta_of(mul_array(d[left], d[right])) - (eta[left] + eta[right])
    assert (scaling.size, subadd.size) == (39, 78)
    ok_semi = bool(scaling.max() <= 1e-3 and subadd.max() <= 1e-3)

    criterion(
        5,
        ok_a and ok_beta and ok_md and ok_semi,
        f"linear gauge: scalar limits 0, 5x5 product grid converges, "
        f"eta = horizontal norm (worst dev {worst_eta:.2e} <= 1e-3), seminorm laws hold",
    )


def test_acc6_oscillatory_counterexample(tmp_path):
    tr = vertical_limit_probe(OSC, 1.0)
    c = tr.classification
    gap = (c.limsup - c.liminf) if c.kind == "oscillating" else 0.0
    ok_a = c.kind == "oscillating" and gap >= 0.5

    tr_b = rescaled_product_probe(OSC, point(1, 0, 0), point(0, 1, 0))
    ok_b = tr_b.classification.kind != "converged"

    md = metric_diff_probe(OSC)
    ok_md = (not md.differentiable) and md.witness is not None

    # the formulations agree: on a horizontal pair of area c/2, beta's vertical
    # trace is sgn(c) * G(the a-probe's trace at ubar = c), and the two agree
    # on whether they converge
    ok_eq = True
    for p, q in [(point(1, 0, 0), point(0, 1, 0)), (point(2, 0, 0), point(0, 1, 0))]:
        c = 2.0 * symplectic_area(p.horizontal, q.horizontal)
        tr_p, tr_s = rescaled_product_probe(OSC, p, q), vertical_limit_probe(OSC, c)
        got, want = tr_p.values[:, 2], np.sign(c) * g_inverse_array(OSC, tr_s.values)
        residual = np.abs(got - want) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
        ok_eq &= bool(residual.max() <= TOL_GAUGE)
        ok_eq &= len({tr.classification.kind == "converged" for tr in (tr_p, tr_s)}) == 1

    code = _quiet_main(
        ["counterexample", "--samples", "200", "--out", str(tmp_path / "ce")]
    )
    ok_cmd = code == 0

    criterion(
        6,
        ok_a and ok_b and ok_md and ok_eq and ok_cmd,
        f"oscillatory gauge: scalar limit oscillates (gap {gap:.3f} >= 0.5), "
        f"product non-converged, witness found, formulations agree, command exits 0",
    )


def test_acc7_inversion_cross_validation():
    import numpy as np

    rng = np.random.default_rng(10_012)
    samples = [0.0, 1e4] + [float(s) for s in rng.uniform(0.0, 1e4, 9_998)]
    worst = 0.0
    for s in samples:
        closed = (np.sqrt(1.0 + 4.0 * s) - 1.0) / 2.0
        worst = max(worst, abs(invert_g(LIN, s) - closed))
    criterion(
        7,
        worst <= 1e-12,
        f"bisection vs closed form over 1e4 points in [0, 1e4], worst {worst:.2e} <= 1e-12",
    )


def test_acc8_byte_identical_runs(tmp_path):
    def run_twice(args, out_name):
        outs, texts = [], []
        for i in (1, 2):
            out = tmp_path / f"{out_name}{i}"
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(args + ["--out", str(out)])
            texts.append(buf.getvalue())
            outs.append(
                {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
            )
            assert code in (0, 1)
        return texts[0] == texts[1] and outs[0] == outs[1]

    ok_verify = run_twice(["verify", "--samples", "150", "--seed", "77"], "v")
    ok_ce = run_twice(["counterexample", "--samples", "150", "--seed", "77"], "c")
    criterion(
        8,
        ok_verify and ok_ce,
        "verify and counterexample runs are byte-identical (stdout and files)",
    )
