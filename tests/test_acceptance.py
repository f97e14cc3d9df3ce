"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from jtsim.entanglement import (
    DensityMatrix,
    log_negativity,
    partial_trace,
)
from jtsim.groundstate import ground_state
from jtsim.model import SystemParams
from jtsim.sweeps import convergence_study, figure_sweep, run_point, run_sweep, write_csv

K_STRONG = 0.1 / math.sqrt(2)
K_ULTRA = 1.0 / math.sqrt(2)

EN_FIELDS = ("en_s_b1b2", "en_s_b1", "en_s_b2", "en_b1_b2")


def _pass(num, label, detail):
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweeps():
    """All six built-in sweeps at the default cutoff, computed once."""
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
            results[name] = run_sweep(figure_sweep(name), verify_subsample=False)
    return results


def test_criterion_01_decoupled_limit():
    worst = 0.0
    for n in (4, 10, 16):
        r = run_point(SystemParams(omega_1=1.0, omega_2=0.5, k_1=0, k_2=0, J=0, N=n)).report
        worst = max(worst, *(abs(v) for v in astuple(r)))
    assert worst < 1e-9
    start = time.perf_counter()
    run_point(SystemParams(omega_1=1.0, omega_2=0.5, k_1=0, k_2=0, J=0, N=10))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _pass(1, "decoupled-limit", f"max E_N = {worst:.1e}, {elapsed * 1e3:.0f} ms")


@pytest.mark.parametrize("k", [K_STRONG, K_ULTRA])
def test_criterion_02_symmetric_b2_decoupling(k):
    p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=k, k_2=k, J=0.0, N=10)
    r = run_point(p, "transformed").report
    assert r.en_s_b2 < 1e-8
    assert r.en_b1_b2 < 1e-8
    assert abs(r.en_s_b1 - r.en_s_b1b2) < 1e-8
    _pass(
        2,
        "symmetric-B2-decoupling",
        f"k = {k:.4f}: E_N(S|B2) = {r.en_s_b2:.1e}, "
        f"|E_N(S|B1) - E_N(S|B1B2)| = {abs(r.en_s_b1 - r.en_s_b1b2):.1e}",
    )


def test_criterion_03_detuning_symmetry(sweeps):
    rows = {r.t: r for r in sweeps["fig1"].rows}
    gap_at = {
        t: abs(rows[t].report.en_s_b1 - rows[t].report.en_s_b2)
        for t in np.round(np.arange(1.5, 1.96, 0.05), 12)
    }
    assert gap_at[1.95] < 0.05
    ts = sorted(gap_at)
    shrinking = all(gap_at[b] <= gap_at[a] + 1e-12 for a, b in zip(ts, ts[1:]))
    assert shrinking
    _pass(
        3,
        "detuning-symmetry",
        f"|E_N(S|B1) - E_N(S|B2)| at 1.95 = {gap_at[1.95]:.4f}, "
        f"monotone over {ts[0]}..{ts[-1]}",
    )


def test_criterion_04_unit_negativity_plateau(sweeps):
    plateau = [
        r for r in sweeps["fig5"].rows if 1.5 - 1e-12 <= r.t < 2.0 - 1e-12
    ]
    assert len(plateau) == 10
    values = [r.report.en_s_b1b2 for r in plateau]
    assert all(0.9 <= v <= 1.0 for v in values)
    bound = max(
        r.report.en_s_b1b2
        for res in sweeps.values()
        for r in res.rows
        if r.report is not None
    )
    assert bound <= 1 + 1e-9
    _pass(
        4,
        "unit-negativity-plateau",
        f"E_N(S|B1B2) in [{min(values):.4f}, {max(values):.4f}] on the plateau, "
        f"global max {bound:.6f}",
    )


def test_criterion_05_validity_windows(sweeps):
    fig1_window = [r for r in sweeps["fig1"].rows if abs(r.t) < 0.1]
    assert fig1_window and all(r.valid for r in fig1_window)
    for name in ("fig3", "fig4"):
        window = [r for r in sweeps[name].rows if r.t >= 2 / 3]
        assert window and all(r.valid for r in window)
    fig6 = sweeps["fig6"].rows
    assert all(r.valid for r in fig6)
    _pass(
        5,
        "validity-windows",
        f"fig1 |Delta|<0.1 ({len(fig1_window)} rows), fig3/fig4 kappa>=2/3, "
        f"fig6 all {len(fig6)} rows",
    )


def test_criterion_06_monotone_invariants(sweeps):
    checked = 0
    for res in sweeps.values():
        for row in res.rows:
            assert row.error is None
            rep = row.report
            assert rep.en_s_b1 <= rep.en_s_b1b2 + 1e-9
            assert rep.en_s_b2 <= rep.en_s_b1b2 + 1e-9
            assert all(v >= 0.0 for v in astuple(rep))
            checked += 1
    _pass(6, "monotone-invariants", f"{checked} rows across six sweeps")


def test_criterion_07_pure_state_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = SystemParams(
            omega_1=rng.uniform(0.3, 1.5),
            omega_2=rng.uniform(0.3, 1.5),
            k_1=rng.uniform(0.01, 1.0),
            k_2=rng.uniform(0.01, 1.0),
            J=rng.uniform(0.0, 0.1),
            N=8,
        )
        gs = ground_state(p, "transformed")
        rho = DensityMatrix(
            np.outer(gs.state.amplitudes, gs.state.amplitudes.conj()), (2, p.N, p.N)
        )
        via_transpose = log_negativity(rho, 0)
        lam = np.clip(
            np.linalg.eigvalsh(partial_trace(rho, keep=0).entries), 0.0, None
        )
        schmidt = math.log2(float(np.sum(np.sqrt(lam)) ** 2))
        worst = max(worst, abs(via_transpose - schmidt))
    assert worst < 1e-8
    _pass(7, "pure-state-oracle", f"20 random points, max deviation {worst:.1e}")


def test_criterion_08_basis_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        p = SystemParams(
            omega_1=rng.uniform(0.5, 1.5),
            omega_2=rng.uniform(0.5, 1.5),
            k_1=rng.uniform(0.01, 0.1),
            k_2=rng.uniform(0.01, 0.1),
            J=rng.uniform(0.0, 0.05),
            N=16,
        )
        e_lab = ground_state(p, "lab").energy
        e_tr = ground_state(p, "transformed").energy
        worst = max(worst, abs(e_lab - e_tr))
    assert worst < 1e-6
    _pass(8, "basis-equivalence", f"10 random points at N=16, max |dE0| = {worst:.1e}")


def test_criterion_09_cutoff_convergence():
    worst = 0.0
    for k in (K_STRONG, K_ULTRA):
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=k, k_2=k, J=0.0)
        lo, hi = convergence_study(p, (10, 14))
        for f in EN_FIELDS:
            worst = max(worst, abs(getattr(lo.report, f) - getattr(hi.report, f)))
    assert worst < 5e-3
    _pass(9, "cutoff-convergence", f"max |E_N(10) - E_N(14)| = {worst:.1e}")


def test_criterion_10_analytic_fixtures():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho_bell = DensityMatrix(np.outer(bell, bell.conj()), (2, 2))
    en_bell = log_negativity(rho_bell, 0)
    assert abs(en_bell - 1.0) < 1e-10

    def werner(p):
        return DensityMatrix(
            p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4, (2, 2)
        )

    en_half = log_negativity(werner(0.5), 0)
    assert abs(en_half - math.log2(1.25)) < 1e-9
    en_sep = log_negativity(werner(0.3), 0)
    assert en_sep == 0.0
    _pass(
        10,
        "analytic-fixtures",
        f"Bell = {en_bell:.12f}, Werner(0.5) = {en_half:.9f}, Werner(0.3) = {en_sep}",
    )


def test_criterion_11_performance_and_determinism(sweeps, tmp_path):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        timed = run_sweep(figure_sweep("fig2"), jobs=1)
    elapsed = time.perf_counter() - start
    assert len(timed.rows) == 81
    assert elapsed < 60.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        parallel = run_sweep(figure_sweep("fig2"), jobs=2, verify_subsample=False)
    payloads = []
    for tag, result in (("a", sweeps["fig2"]), ("b", timed), ("c", parallel)):
        path = tmp_path / f"fig2_{tag}.csv"
        write_csv(result, str(path))
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    _pass(
        11,
        "performance-determinism",
        f"81 points in {elapsed:.1f} s; CSV bytes identical across runs and jobs",
    )


def test_criterion_12_soft_hopping_enhancement():
    # Non-blocking report: doubling k on the hopping sweep configuration.
    base = run_point(SystemParams(0.2, 0.1, K_ULTRA, K_ULTRA, J=0.1, N=10)).report
    doubled = run_point(SystemParams(0.2, 0.1, 2 * K_ULTRA, 2 * K_ULTRA, J=0.1, N=10)).report
    f_total = doubled.en_s_b1b2 / base.en_s_b1b2
    f_modes = doubled.en_b1_b2 / base.en_b1_b2
    assert math.isfinite(f_total) and math.isfinite(f_modes)
    in_band = 1.5 <= f_total <= 2.5 and f_modes >= 5.0
    verdict = "within expected bands" if in_band else "OUTSIDE expected bands (soft)"
    _pass(
        12,
        "soft-hopping-enhancement",
        f"E_N(S|B1B2) x{f_total:.2f}, E_N(B1|B2) x{f_modes:.2f} -- {verdict}",
    )
