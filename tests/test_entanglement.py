import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jtsim.entanglement as entanglement
from jtsim.entanglement import (
    DensityMatrix,
    NumericalIntegrityError,
    _negativity,
    density_from_state,
    log_negativity,
    partial_trace,
    partial_transpose,
    report_from_state,
)
from jtsim.groundstate import BASES, ground_state
from jtsim.model import StateVector, SystemParams
from jtsim.sweeps import PRESETS, run_point
from oracles import model_points, property_settings

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def bell_density():
    return DensityMatrix(np.outer(BELL, BELL.conj()), (2, 2))


def werner(p):
    return DensityMatrix(
        p * np.outer(BELL, BELL.conj()) + (1 - p) * np.eye(4) / 4, (2, 2)
    )


def random_pure_density(dims, seed):
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()), tuple(dims)), psi


def ptrace_oracle(rho, dims, keep):
    """Index-summation partial trace, written independently of the library path."""
    keep = tuple(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out = np.zeros((math.prod(kept_dims), math.prod(kept_dims)), dtype=complex)
    all_idx = list(np.ndindex(*dims))

    def flat(idx):
        f = 0
        for i, d in zip(idx, dims):
            f = f * d + i
        return f

    def kept_flat(idx):
        f = 0
        for pos in keep:
            f = f * dims[pos] + idx[pos]
        return f

    for row in all_idx:
        for col in all_idx:
            if all(row[i] == col[i] for i in drop):
                out[kept_flat(row), kept_flat(col)] += rho[flat(row), flat(col)]
    return out


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1], [0, 0.5]], dtype=complex), (2,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entries", [[(1, 1)], [(0, 1), (1, 0)], "all"])
    def test_rejects_non_finite(self, value, entries):
        # a symmetric off-diagonal pair keeps the trace finite, so only the
        # Hermiticity check can refuse it
        m = np.eye(4) / 4
        for ij in [np.s_[:]] if entries == "all" else entries:
            m[ij] = value
        with pytest.raises(ValueError, match="density matrix"):
            DensityMatrix(m, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, (2, 2))

    def test_rejects_shape_that_does_not_match_factor_dims(self):
        with pytest.raises(ValueError, match="does not match factor_dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))


class TestDensityFromState:
    def test_basis_state_projector(self):
        psi = StateVector(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
        rho = density_from_state(psi)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1
        assert np.array_equal(rho.entries, expect)

    def test_bell_projector_entries(self):
        rho = density_from_state(StateVector(BELL, (2, 2)))
        assert rho.entries[0, 0] == pytest.approx(0.5)
        assert rho.entries[0, 3] == pytest.approx(0.5)
        assert rho.entries[3, 0] == pytest.approx(0.5)
        assert rho.entries[3, 3] == pytest.approx(0.5)
        assert np.count_nonzero(np.abs(rho.entries) > 1e-15) == 4

    def test_purity_of_random_state(self):
        rho, _ = random_pure_density((2, 3, 3), seed=3)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized(self):
        for amps in ([1, 1], [np.nan, 0], [np.inf, 0], [1e200, 1e200]):
            psi = StateVector(np.array(amps, dtype=complex), (2,))
            with pytest.raises(ValueError, match="norm"):
                density_from_state(psi)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        red = partial_trace(bell_density(), keep=0)
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_state_marginal(self):
        rho_a = np.array([[0.75, 0.1j], [-0.1j, 0.25]], dtype=complex)
        rho_b = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho = DensityMatrix(np.kron(rho_a, rho_b), (2, 3))
        red = partial_trace(rho, keep=0)
        assert np.max(np.abs(red.entries - rho_a)) < 1e-14

    def test_random_tripartite_against_summation_oracle(self):
        rho, _ = random_pure_density((2, 3, 3), seed=17)
        for keep in ((0, 1), (0, 2), (1, 2), (0,), (2,)):
            got = partial_trace(rho, keep=keep).entries
            want = ptrace_oracle(rho.entries, (2, 3, 3), keep)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_trace_preserved(self):
        rho, _ = random_pure_density((2, 2, 4), seed=5)
        red = partial_trace(rho, keep=(1,))
        assert np.trace(red.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(bell_density(), keep=())

    def test_keeping_every_factor_returns_an_equal_copy(self):
        rho = bell_density()
        kept = partial_trace(rho, keep=(1, 0))
        assert kept.factor_dims == rho.factor_dims
        assert np.array_equal(kept.entries, rho.entries)
        assert not np.shares_memory(kept.entries, rho.entries)


class TestPartialTranspose:
    def test_product_state_unchanged_spectrum(self):
        rho_a = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        rho = DensityMatrix(np.kron(rho_a, rho_b), (2, 2))
        pt = partial_transpose(rho, 0)
        assert np.max(np.abs(pt - np.kron(rho_a.T, rho_b))) < 1e-15
        assert np.abs(np.linalg.eigvalsh(pt)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_bell_partial_transpose_eigenvalues(self):
        pt = partial_transpose(bell_density(), 0)
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rho, _ = random_pure_density((2, 3), seed=23)
        twice = partial_transpose(
            DensityMatrix(partial_transpose(rho, 0), (2, 3)), 0
        )
        assert np.max(np.abs(twice - rho.entries)) == 0.0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_density(), 5)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_transpose(bell_density(), ())


class TestTraceNorm:
    """The log2 trace norm that both negativity paths share."""

    def test_density_matrix_has_unit_trace_norm(self):
        rho, _ = random_pure_density((2, 2), seed=2)
        mixed = 0.5 * rho.entries + 0.5 * np.eye(4) / 4
        assert _negativity(mixed) == pytest.approx(0.0, abs=1e-10)

    def test_bell_transpose_norm(self):
        assert _negativity(partial_transpose(bell_density(), 0)) == pytest.approx(1.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert _negativity(np.diag([0.9, -0.3, 0.4])) == pytest.approx(
            math.log2(1.6), abs=1e-15
        )


class TestLogNegativity:
    def test_bell_is_one(self):
        assert log_negativity(bell_density(), 0) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_is_zero(self):
        rho = DensityMatrix(np.kron(np.diag([0.8, 0.2]), np.diag([0.5, 0.5])), (2, 2))
        assert log_negativity(rho, 0) == 0.0

    def test_werner_half(self):
        # hand transpose: eigenvalues (1+p)/4 (x3) and (1-3p)/4, so the
        # trace norm at p = 1/2 is 5/4
        assert log_negativity(werner(0.5), 0) == pytest.approx(
            math.log2(1.25), abs=1e-12
        )
        assert log_negativity(werner(0.5), 0) == pytest.approx(0.3219280948873623, abs=1e-12)

    def test_werner_below_ppt_threshold_clamps_to_zero(self):
        assert log_negativity(werner(0.3), 0) == 0.0

    def test_transpose_side_symmetry(self):
        rho, _ = random_pure_density((2, 3, 2), seed=29)
        mixed = DensityMatrix(
            0.7 * rho.entries + 0.3 * np.eye(12) / 12, (2, 3, 2)
        )
        for a_side in ((0,), (0, 1), (1,)):
            comp = tuple(i for i in range(3) if i not in a_side)
            na = np.abs(np.linalg.eigvalsh(partial_transpose(mixed, a_side))).sum()
            nb = np.abs(np.linalg.eigvalsh(partial_transpose(mixed, comp))).sum()
            assert abs(na - nb) < 1e-12

    def test_full_partition_rejected(self):
        with pytest.raises(ValueError, match="bipartition"):
            log_negativity(bell_density(), (0, 1))

    def test_large_negative_raises_integrity_error(self):
        with pytest.raises(NumericalIntegrityError):
            # trace norm below 1 is impossible for a true density matrix;
            # forge one by scaling down a projector
            rho = bell_density()
            object.__setattr__(rho, "entries", rho.entries * 0.25)
            log_negativity(rho, 0)


def schmidt_negativity(psi, dims):
    """(sum of Schmidt coefficients)^2 for the cut first-factor | rest."""
    m = psi.reshape(dims[0], -1)
    lam = np.linalg.eigvalsh(m @ m.conj().T)
    lam = np.clip(lam, 0, None)
    return math.log2(float(np.sum(np.sqrt(lam)) ** 2))


class TestPureStateCrossCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_states_match_schmidt_formula(self, seed):
        rho, psi = random_pure_density((2, 4, 3), seed=100 + seed)
        via_transpose = log_negativity(rho, 0)
        assert via_transpose == pytest.approx(
            schmidt_negativity(psi, (2, 4, 3)), abs=1e-10
        )


class TestReportFromStateTensorPath:
    @settings(deadline=None, database=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_dense_density_matrix_path(self, n1, n2, complex_amps, seed):
        rng = np.random.default_rng(seed)
        shape = (2, n1, n2)
        psi = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_amps else 0)
        psi = StateVector((psi / np.linalg.norm(psi)).ravel(), shape)
        rho = density_from_state(psi)
        dense = (
            log_negativity(rho, 0),
            log_negativity(partial_trace(rho, (0, 1)), 0),
            log_negativity(partial_trace(rho, (0, 2)), 0),
            log_negativity(partial_trace(rho, (1, 2)), 0),
        )
        tensor = astuple(report_from_state(psi))
        assert max(abs(a - b) for a, b in zip(dense, tensor)) < 1e-12

    @pytest.mark.parametrize("complex_amps", [False, True])
    @pytest.mark.parametrize("kind", ["product", "mode 2 in vacuum"])
    def test_rank_deficient_states_match_dense_path(self, kind, complex_amps):
        # the mode supports are smaller than the Fock grid, so the compressed
        # partial transposes are smaller than the dense ones
        rng = np.random.default_rng(5)

        def amplitudes(*shape):
            return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_amps else 0)

        if kind == "product":
            t = np.einsum("a,b,c->abc", amplitudes(2), amplitudes(5), amplitudes(4))
        else:
            t = np.zeros((2, 5, 4), dtype=complex if complex_amps else float)
            t[:, :, 0] = amplitudes(2, 5)
        psi = StateVector((t / np.linalg.norm(t)).ravel(), t.shape)
        rho = density_from_state(psi)
        dense = (
            log_negativity(rho, 0),
            log_negativity(partial_trace(rho, (0, 1)), 0),
            log_negativity(partial_trace(rho, (0, 2)), 0),
            log_negativity(partial_trace(rho, (1, 2)), 0),
        )
        tensor = astuple(report_from_state(psi))
        assert max(abs(a - b) for a, b in zip(dense, tensor)) < 1e-12

    def test_rejects_unnormalized(self):
        for amps in (np.full(8, 0.5), np.full(8, np.nan)):
            with pytest.raises(ValueError, match="norm"):
                report_from_state(StateVector(amps, (2, 2, 2)))

    @property_settings
    @given(st.builds(replace, model_points, N=st.integers(2, 12)), st.sampled_from(BASES))
    def test_support_cut_matches_uncut_report(self, p, basis):
        # The cut drops singular values that sum to at most SUPPORT_TOL * sigma_max;
        # at a cut of 0 every nonzero singular direction of each mode is kept.
        state = ground_state(p, basis).state
        cut = astuple(report_from_state(state))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entanglement, "SUPPORT_TOL", 0.0)
            uncut = astuple(report_from_state(state))
        assert max(abs(a - b) for a, b in zip(cut, uncut)) < 1e-12

    def test_budget_cut_keeps_fewer_directions_than_the_noise_floor(self, monkeypatch):
        # fig5 t = 1.5, N = 30: each mode's unfolding has singular values above
        # 1e-15 sigma_max that sum to below SUPPORT_TOL sigma_max, so the budget
        # drops them where a per-value floor at 1e-15 kept them.
        p = replace(PRESETS["fig5"].params_at(1.5), N=30)
        state = ground_state(p).state
        t = state.amplitudes.reshape(state.factor_dims)
        sigmas = [np.linalg.svd(np.moveaxis(t, axis, 0).reshape(30, -1), compute_uv=False)
                  for axis in (1, 2)]
        shapes, negativity = [], entanglement._negativity

        def spy(pt):
            shapes.append(pt.shape[0])
            return negativity(pt)

        monkeypatch.setattr(entanglement, "_negativity", spy)
        cut = astuple(report_from_state(state))
        monkeypatch.setattr(entanglement, "SUPPORT_TOL", 0.0)
        uncut = astuple(report_from_state(state))
        # _negativity sees S|B1 (2 r1 x 2 r1) first, then S|B2 (2 r2 x 2 r2).
        for rank, sigma in zip((shapes[0] // 2, shapes[1] // 2), sigmas):
            assert rank < np.count_nonzero(sigma > 1e-15 * sigma[0])
            assert sigma[rank:].sum() <= 1e-13 * sigma[0] < sigma[rank - 1:].sum()
        assert max(abs(a - b) for a, b in zip(cut, uncut)) < 1e-12

    def test_builds_no_density_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("report_from_state used the dense toolkit")

        for name in ("DensityMatrix", "log_negativity", "partial_transpose"):
            monkeypatch.setattr(entanglement, name, refuse)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=18)
        report_from_state(StateVector(psi / np.linalg.norm(psi), (2, 3, 3)))


class TestReport:
    def test_decoupled_point_all_zero(self):
        p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=0, k_2=0, N=6)
        row = run_point(p)
        r = row.report
        assert r.en_s_b1b2 == 0.0
        assert r.en_s_b1 == 0.0
        assert r.en_s_b2 == 0.0
        assert r.en_b1_b2 == 0.0
        assert not row.degenerate

    @pytest.mark.parametrize("k", [0.1 / math.sqrt(2), 1 / math.sqrt(2)])
    def test_symmetric_couplings_decouple_b2(self, k):
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=k, k_2=k, J=0.0, N=10)
        r = run_point(p, "transformed").report
        assert r.en_s_b2 < 1e-8
        assert r.en_b1_b2 < 1e-8
        assert abs(r.en_s_b1 - r.en_s_b1b2) < 1e-8

    def test_monotone_under_discarding(self):
        p = SystemParams(omega_1=1.2, omega_2=0.4, k_1=0.8, k_2=0.5, J=0.03, N=8)
        r = run_point(p, "transformed").report
        assert r.en_s_b1 <= r.en_s_b1b2 + 1e-9
        assert r.en_s_b2 <= r.en_s_b1b2 + 1e-9

    def test_lab_basis_uses_same_pipeline(self):
        p = SystemParams(omega_1=1.2, omega_2=0.4, k_1=0.8, k_2=0.5, J=0.03, N=8)
        r = run_point(p, "lab").report
        for v in astuple(r):
            assert v >= 0.0

    def test_report_from_state_requires_three_factors(self):
        with pytest.raises(ValueError, match="qubit, mode, mode"):
            report_from_state(StateVector(BELL, (2, 2)))
