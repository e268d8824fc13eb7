"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from oracles import scan_basis_bound_d2
from varbounds.cli import main
from varbounds.linalg import QuantumState, pauli_operators
from varbounds.lower_bounds import fidelity_product_bound, rs_product_bound
from varbounds.moments import variance
from varbounds.optimize import optimize_product_bound
from varbounds.sweep import SweepSpec, run_sweep
from varbounds.verify import run_verification

SEED = 20240811


def _row(table, index):
    return dict(zip(table.columns, table.rows[index]))


def test_criterion_1_spot_values():
    start = time.perf_counter()
    tol = 1e-9

    fig1 = run_sweep(SweepSpec(preset="fig1", theta_count=2,
                               bounds=("rs_product", "fidelity_product")))
    row = _row(fig1, 0)
    assert row["exact_product"] == pytest.approx(0.25, abs=tol)
    assert row["rs_product"] == pytest.approx(0.25, abs=tol)
    assert row["fidelity_product"] == pytest.approx(0.25, abs=tol)

    fig2 = run_sweep(SweepSpec(preset="fig2", theta_count=2,
                               bounds=("parallelogram_sum",)))
    row = _row(fig2, 0)
    assert row["exact_sum"] == pytest.approx(1.0, abs=tol)
    assert row["parallelogram_sum"] == pytest.approx(1.0, abs=tol)

    sx, sy, _ = pauli_operators()
    ket0 = QuantumState.pure([1.0, 0.0])
    from varbounds.upper_bounds import dw_deviation_sum_bound, dw_variance_sum_bound

    assert rs_product_bound(ket0, sx, sy).value == pytest.approx(1.0, abs=tol)
    assert fidelity_product_bound(ket0, sx, sy).value == pytest.approx(1.0, abs=tol)
    dev = dw_deviation_sum_bound(ket0, sx, sy)
    assert dev.value == pytest.approx(2.0, abs=tol)
    assert np.sqrt(variance(ket0, sx)) + np.sqrt(variance(ket0, sy)) == pytest.approx(2.0, abs=tol)
    var = dw_variance_sum_bound(ket0, sx, sy)
    assert var.value == pytest.approx(2.0, abs=tol)
    assert variance(ket0, sx) + variance(ket0, sy) == pytest.approx(2.0, abs=tol)

    fig4 = run_sweep(SweepSpec(preset="fig4", theta_count=2))
    row = _row(fig4, 1)
    assert row["theta"] == pytest.approx(np.pi)
    assert row["exact_sum"] == pytest.approx(1.75, abs=tol)
    assert row["dw_variance_sum"] == pytest.approx(3.5 - np.sqrt(3.0), abs=tol)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 spot values: PASS ({elapsed:.2f}s)")


def test_criterion_2_theorem_ensembles():
    start = time.perf_counter()
    report = run_verification(10_000, [2, 3, 4, 6], seed=SEED)
    elapsed = time.perf_counter() - start

    assert report.instances == 40_000
    assert report.violations == [], [f"{v.check}:{v.slack}" for v in report.violations[:5]]
    # the named sub-suites all ran on their full applicable populations
    assert report.applicable["chain_basis_ge_rs"] == 20_000
    assert report.applicable["valid_fidelity_product"] == 40_000
    assert report.applicable["cov_cauchy_schwarz"] == 40_000
    assert report.applicable["sandwich_product"] > 0
    assert report.applicable["sandwich_sum"] > 0
    for check, slack in report.max_slack.items():
        if slack is not None:
            assert slack <= 1e-10, check
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 theorem ensembles: PASS "
          f"({elapsed:.1f}s, 40k instances, undefined fractions "
          f"{ {k: round(v, 4) for k, v in report.undefined_fraction.items()} })")


def test_criterion_3_optimizer_vs_scan():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    from conftest import random_observable, random_pure_state

    worst = 0.0
    for _ in range(100):
        s = random_pure_state(rng, 2)
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        report = optimize_product_bound(s, a, b)
        oracle = scan_basis_bound_d2(s, a, b, "product")
        worst = max(worst, abs(report.best_value - oracle))
        assert report.best_value == pytest.approx(oracle, abs=1e-6)
        assert report.best_value <= variance(s, a) * variance(s, b) + 1e-10

    # bit-identical on a repeated call
    s = random_pure_state(rng, 2)
    a = random_observable(rng, 2)
    b = random_observable(rng, 2)
    r1 = optimize_product_bound(s, a, b)
    r2 = optimize_product_bound(s, a, b)
    assert r1.best_value == r2.best_value
    assert r1.witness == r2.witness == "aligned"
    assert r1.best_basis.columns.tobytes() == r2.best_basis.columns.tobytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 optimizer vs d=2 scan: PASS "
          f"({elapsed:.1f}s, worst |opt - scan| = {worst:.2e})")


def test_criterion_4_figure_shapes():
    start = time.perf_counter()
    tol = 1e-10

    fig1 = run_sweep(SweepSpec(preset="fig1"))
    assert len(fig1.rows) == 181
    rs = fig1.column("rs_product")
    fid = fig1.column("fidelity_product")
    opt = fig1.column("optimized_product")
    prod = fig1.column("exact_product")
    assert np.all(rs >= -tol)
    assert np.all(rs <= prod + tol)
    assert np.all(fid <= prod + tol)
    assert np.all(opt <= prod + tol)
    # the optimized scatter dominates both lower curves at every grid point
    assert np.all(opt >= rs - tol)
    assert np.all(opt >= fid - tol)
    # the fidelity curve beats RS on most of the grid but provably not all of
    # it (crossing verified by two independent routes; see decisions ledger)
    frac = float(np.mean(fid >= rs - 1e-12))
    assert frac > 0.5
    assert np.any(fid > rs + 1e-3)

    fig2 = run_sweep(SweepSpec(preset="fig2"))
    total = fig2.column("exact_sum")
    par = fig2.column("parallelogram_sum")
    mp1 = fig2.column("mp_sum_1")
    mp2 = fig2.column("mp_sum_2")
    for curve in (par, mp1, mp2):
        assert np.all(curve <= total + tol)
    assert np.all(par >= mp2 - tol)  # parallelogram dominates the mp2 baseline

    fig3 = run_sweep(SweepSpec(preset="fig3"))
    rev = fig3.column("reverse_fidelity_product")
    prod3 = fig3.column("exact_product")
    defined = ~np.isnan(rev)
    assert np.all(rev[defined] >= prod3[defined] - tol)
    assert defined.sum() >= 179  # only the eigenstate endpoint is undefined

    fig4 = run_sweep(SweepSpec(preset="fig4"))
    dw = fig4.column("dw_variance_sum")
    sum4 = fig4.column("exact_sum")
    defined4 = ~np.isnan(dw)
    assert np.all(dw[defined4] >= sum4[defined4] - tol)
    gap = dw[defined4] - sum4[defined4]
    min_gap = float(np.min(gap))
    theta_touch = float(fig4.column("theta")[defined4][np.argmin(gap)])
    assert min_gap < 0.05  # the upper curve touches the sum curve

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 4 figure shapes: PASS ({elapsed:.1f}s; "
          f"fig1 fidelity>=RS on {100 * frac:.0f}% of grid; "
          f"fig4 min gap {min_gap:.2e} at theta={theta_touch:.3f})")


def test_criterion_5_verify_determinism(tmp_path):
    start = time.perf_counter()
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1 = main(["verify", "--seed", "7", "--format", "json", "--out", str(out1)])
    rc2 = main(["verify", "--seed", "7", "--format", "json", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert len(b1) > 100
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 5 byte-identical verify reports: PASS ({elapsed:.1f}s)")
