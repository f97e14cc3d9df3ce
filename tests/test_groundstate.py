import itertools
import math
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import jtsim.groundstate
import jtsim.sweeps
from jtsim.groundstate import BASES, BLOCK_MIN_N, DEGENERACY_TOL, RESIDUAL_TOL
from jtsim.groundstate import eig_hermitian, ground_state
from jtsim.groundstate import _block_cholesky, _extend, _shift_invert, _two_lowest
from jtsim.model import (
    PARITY_SIGNS,
    ParityBlocks,
    SystemParams,
    _parity_sector,
    build_lab_hamiltonian,
    build_transformed_hamiltonian,
)
from jtsim.sweeps import PRESETS, compare_bases, convergence_study, grid_points, run_point
from jtsim.sweeps import successive_differences
from oracles import (
    SX,
    full_matrix,
    model_points,
    parity_oracle,
    property_settings,
    rotated_coefficients,
    two_mode_oracle,
)

K_STRONG = 0.1 / math.sqrt(2)
K_ULTRA = 1 / math.sqrt(2)


def fig1_params(delta, n=10):
    return SystemParams(
        omega_1=1 + delta / 2, omega_2=1 - delta / 2, k_1=K_STRONG, k_2=K_STRONG, N=n
    )


class TestEigHermitian:
    def test_diagonal_input_sorted(self):
        w, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x_eigenpairs(self):
        w, v = eig_hermitian(SX)
        assert np.allclose(w, [-1, 1])
        for col, sign in ((0, -1), (1, 1)):
            vec = v[:, col]
            expect = np.array([1, sign]) / math.sqrt(2)
            phase = vec[0] / expect[0]
            assert np.allclose(vec, expect * phase, atol=1e-12)

    def test_random_hermitian_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        m = (m + m.conj().T) / 2
        w, v = eig_hermitian(m)
        scale = np.max(np.abs(m))
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) < 1e-8 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(40))) < 1e-9
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian_input(self):
        nan, inf = math.nan, math.inf
        for m in (
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0, 1j], [1j, 0]]),
            np.array([[nan, 0.0], [0.0, 1.0]]),
            np.array([[inf, 0.0], [0.0, 1.0]]),
            np.array([[0.0, inf], [inf, 0.0]]),
            np.array([[0.0, -inf], [1.0, 0.0]]),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="Hermitian"):
                    eig_hermitian(m)

    def test_rejects_non_square_input(self):
        for m in (np.ones(2), np.ones((2, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                eig_hermitian(m)


class TestGroundState:
    def test_decoupled_spectrum(self):
        p = SystemParams(omega_1=0.8, omega_2=0.3, k_1=0, k_2=0, N=6)
        gs = ground_state(p, "lab")
        assert gs.energy == pytest.approx(-0.5, abs=1e-12)
        assert abs(gs.state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        assert gs.gap == pytest.approx(min(0.8, 0.3, 1.0), abs=1e-12)
        assert not gs.degenerate_flag

    def test_parity_eigenstate_when_gapped(self):
        p = fig1_params(0.0)
        gs = ground_state(p, "transformed")
        assert not gs.degenerate_flag
        psi = gs.state.amplitudes
        assert abs(psi @ parity_oracle(p.N) @ psi) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_endpoint_flagged(self):
        # Delta = 2 puts mode 2 at zero frequency: N-fold degenerate manifold
        gs = ground_state(fig1_params(2.0), "transformed")
        assert gs.gap < 1e-10
        assert gs.degenerate_flag

    def test_degenerate_endpoint_has_definite_parity(self):
        p = fig1_params(2.0)
        gs = ground_state(p, "transformed")
        assert gs.degenerate_flag
        psi = gs.state.amplitudes
        parity = psi @ parity_oracle(p.N) @ psi
        assert abs(parity) == pytest.approx(1.0, abs=1e-12)
        outside = _parity_sector(p.N, -round(parity))
        assert np.all(psi[outside] == 0.0)

    def test_solves_each_parity_block(self, monkeypatch):
        import jtsim.groundstate

        calls = []

        def recording(h, vectors=True):
            calls.append((h.shape, vectors))
            return eig_hermitian(h, vectors)

        monkeypatch.setattr(jtsim.groundstate, "eig_hermitian", recording)
        ground_state(SystemParams(omega_1=1.0, omega_2=0.8, k_1=0.3, k_2=0.2, N=5))
        # eigenvalues of both blocks; a split sector's vector needs no full call
        assert calls == [((25, 25), False), ((25, 25), False)]

    def test_degenerate_block_keeps_full_eigh_vector(self):
        p = fig1_params(2.0)
        gs = ground_state(p, "transformed")
        entries = build_transformed_hamiltonian(p).entries
        k = 1 if np.linalg.eigvalsh(entries[1])[0] < np.linalg.eigvalsh(entries[0])[0] else 0
        v = np.linalg.eigh(entries[k])[1][:, 0]
        expected = np.zeros(2 * p.N * p.N)
        expected[_parity_sector(p.N, PARITY_SIGNS[k])] = -v if v[np.argmax(np.abs(v))] < 0 else v
        assert np.array_equal(gs.state.amplitudes, expected)

    def test_unmet_stop_rule_falls_back_to_full_eigh(self, monkeypatch):
        import jtsim.groundstate

        p = SystemParams(omega_1=1.0, omega_2=0.8, k_1=0.3, k_2=0.2, N=5)
        iterated = ground_state(p)
        monkeypatch.setattr(jtsim.groundstate, "RESIDUAL_TOL", 0.0)
        full = ground_state(p)
        assert np.max(np.abs(full.state.amplitudes - iterated.state.amplitudes)) < 1e-12
        assert full.residual < 1e-12

    @pytest.mark.parametrize(
        "p",
        [
            # at lab scale 1e300 the block has no resolved gap: full eigh
            SystemParams(omega_1=1e200, omega_2=1.0, k_1=1e100, k_2=0.0),
            # a resolved gap at the same scale: inverse iteration
            SystemParams(omega_1=1e300, omega_2=1e300, k_1=0.5, k_2=0.5),
        ],
    )
    def test_extreme_scale_raises_no_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs = ground_state(p, "lab")
        assert abs(np.linalg.norm(gs.state.amplitudes) - 1.0) < 1e-12
        assert gs.residual < 1e-12 * abs(gs.energy)

    def test_converged_cutoff_residual(self, monkeypatch):
        # On every path the reported residual is the one the accepting stop test
        # measured; it must match ||H psi - E psi|| taken afresh on the full matrix,
        # to within rounding even where both are rounding noise.
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=K_ULTRA, k_2=K_ULTRA, N=30)
        for q, solver in ((p, "block"), (replace(p, N=10), "dense"),
                          (replace(p, N=20), "block-fallback")):
            with monkeypatch.context() as m:
                if solver == "block-fallback":
                    m.setattr(jtsim.groundstate, "ROUNDS", 0)  # the block path gives up at once
                gs = ground_state(q)
            assert gs.solver == solver
            assert gs.residual < 1e-12
            h = full_matrix(build_transformed_hamiltonian(q))
            psi = gs.state.amplitudes
            fresh = np.linalg.norm(h @ psi - gs.energy * psi)
            assert abs(fresh - gs.residual) < 1e-14
            assert fresh / 2 <= gs.residual <= 2 * fresh

    @property_settings
    @given(st.builds(replace, model_points, N=st.integers(2, 6)), st.sampled_from(BASES))
    def test_matches_full_eigh_of_oracle(self, p, basis):
        coeffs = (
            rotated_coefficients(p)
            if basis == "transformed"
            else (p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)
        )
        w, v = np.linalg.eigh(two_mode_oracle(p.N, *coeffs))
        gs = ground_state(p, basis)
        assert abs(gs.energy - w[0]) < 1e-10
        assert abs(gs.gap - (w[1] - w[0])) < 1e-10
        if w[1] - w[0] > 1e-6:
            assert abs(abs(gs.state.amplitudes @ v[:, 0]) - 1.0) < 1e-10

    def test_energy_non_increasing_with_cutoff(self):
        energies = []
        for n in (6, 8, 10, 12):
            p = SystemParams(omega_1=1.2, omega_2=0.8, k_1=0.5, k_2=0.5, N=n)
            energies.append(ground_state(p, "lab").energy)
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_residual_bound(self):
        p = SystemParams(omega_1=1.1, omega_2=0.6, k_1=0.4, k_2=0.3, J=0.02, N=8)
        h = full_matrix(build_lab_hamiltonian(p))
        gs = ground_state(p, "lab")
        res = np.linalg.norm(h @ gs.state.amplitudes - gs.energy * gs.state.amplitudes)
        assert res < 1e-9 * np.max(np.abs(h)) * h.shape[0]

    def test_phase_convention_is_deterministic(self):
        p = SystemParams(omega_1=1.05, omega_2=0.95, k_1=0.3, k_2=0.3, N=8)
        a = ground_state(p, "transformed").state.amplitudes
        b = ground_state(p, "transformed").state.amplitudes
        assert np.array_equal(a, b)
        pivot = a[np.argmax(np.abs(a))]
        assert pivot.imag == 0.0 and pivot.real > 0

    def test_lab_and_transformed_spectra_match_at_weak_coupling(self):
        p = SystemParams(omega_1=1.05, omega_2=0.85, k_1=0.08, k_2=0.06, J=0.0, N=16)
        wl = np.linalg.eigvalsh(full_matrix(build_lab_hamiltonian(p)))
        wt = np.linalg.eigvalsh(full_matrix(build_transformed_hamiltonian(p)))
        assert np.max(np.abs(wl[:5] - wt[:5])) < 1e-6

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            ground_state(fig1_params(0.0), "rotating")

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "ROADMAP item 10: past J^2 = omega_1 omega_2 H has no ground state, but the truncated H "
        "has one: E = -1.0247 at N = 10 (dense), -1.5939 and -2.1685 at N = 20 and 30 (block)"))
    def test_point_with_no_ground_state_is_refused(self):
        # J^2 = 0.04 > omega_1 omega_2 = 0.02; any other exception than DID NOT RAISE fails
        p = SystemParams(0.2, 0.1, 0.7071068, 0.7071068, J=0.2, N=10)
        with pytest.raises(ValueError, match="no ground state"):
            ground_state(p)


class TestTwoLowest:
    def test_exact_tie_puts_even_parity_first(self):
        for lowest in ([[1.0, 2.0], [1.0, 3.0]], [[1.0, 3.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]):
            sector, level = _two_lowest(np.array(lowest))
            assert sector[0] == 0 and level[0] == 0

    def test_every_ordering_matches_the_lower_sector_rule(self):
        # each sector's two lowest values, ascending, over every ordering and tie of the four
        for values in itertools.product(range(3), repeat=4):
            lowest = np.sort(np.reshape(values, (2, 2)).astype(float), axis=1)
            sector, level = _two_lowest(lowest)
            # the rule it replaced: strict <, so on a tie the Pi = +1 sector holds the ground level
            k = 1 if lowest[1][0] < lowest[0][0] else 0
            pair = np.sort(lowest, axis=None)[:2]
            assert sector[0] == k and level[0] == 0
            assert np.array_equal(lowest[sector, level], pair)
            assert lowest[sector[1], level[1]] - lowest[k, 0] == pair[1] - pair[0]


class TestConvergenceStudy:
    def test_decoupled_rows_identical(self):
        p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=0, k_2=0, N=4)
        rows = convergence_study(p, (4, 6, 8))
        for d in successive_differences(rows):
            assert d["d_energy"] == 0.0
            assert d["d_negativity_max"] == 0.0

    def test_differences_shrink_in_coupled_regime(self):
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=1 / math.sqrt(2), k_2=1 / math.sqrt(2))
        rows = convergence_study(p, (6, 8, 10, 12))
        diffs = [d["d_negativity_max"] for d in successive_differences(rows)]
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))

    def test_rows_equal_run_point(self):
        p = SystemParams(omega_1=1.1, omega_2=0.7, k_1=0.4, k_2=0.3, J=0.02)
        for basis in ("lab", "transformed"):
            rows = convergence_study(p, (4, 6, 8), basis=basis)
            for n, row in zip((4, 6, 8), rows):
                ref = run_point(replace(p, N=n), basis)
                assert row.params.N == n
                assert (row.energy, row.gap, row.r1, row.r2) == (
                    ref.energy, ref.gap, ref.r1, ref.r2
                )
                assert astuple(row.report) == astuple(ref.report)

    def test_one_solve_per_cutoff(self, monkeypatch):
        import jtsim.entanglement
        import jtsim.groundstate
        import jtsim.sweeps

        calls = []

        def counting(p, basis="transformed", start=None):
            calls.append(p.N)
            return ground_state(p, basis, start)

        # every module that looks ground_state up by name
        monkeypatch.setattr(jtsim.groundstate, "ground_state", counting)
        monkeypatch.setattr(jtsim.entanglement, "ground_state", counting)
        monkeypatch.setattr(jtsim.sweeps, "ground_state", counting)
        p = SystemParams(omega_1=1.0, omega_2=0.8, k_1=0.3, k_2=0.2)
        convergence_study(p, (4, 6, 8))
        assert calls == [4, 6, 8]

    def test_cutoffs_must_ascend(self):
        p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=0.1, k_2=0.1)
        with pytest.raises(ValueError, match="ascending"):
            convergence_study(p, (8, 6))
        with pytest.raises(ValueError, match="cutoff"):
            convergence_study(p, (1, 4))


def fig5_params(t, n):
    return SystemParams(omega_1=1 + t / 2, omega_2=1 - t / 2, k_1=t, k_2=t, N=n)


def dense_ground_state(p, basis="transformed"):
    """``ground_state`` with the block path switched off: the dense-path oracle."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jtsim.groundstate, "BLOCK_MIN_N", math.inf)
        return ground_state(p, basis)


def ground_sector(gs):
    """The sector k of the state, asserting that ``ritz_vectors`` is (2, N^2), that the state
    is exactly 0 outside sector k and that row k is the state there, up to sign, bit for bit."""
    n = gs.state.factor_dims[1]
    assert gs.ritz_vectors.shape == (2, n * n)
    halves = [gs.state.amplitudes[_parity_sector(n, sign)] for sign in PARITY_SIGNS]
    zero = [not np.any(half) for half in halves]
    assert sorted(zero) == [False, True]
    k = zero.index(False)
    row = gs.ritz_vectors[k]
    assert np.array_equal(np.sign(row @ halves[k]) * row, halves[k])
    return k


def assert_same_result(a, b):
    assert (a.energy, a.gap, a.degenerate_flag, a.residual) == (
        b.energy, b.gap, b.degenerate_flag, b.residual
    )
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


# The preset ranges: Delta in [-2, 2] sets omega_{1,2} = 1 +- Delta/2, k up to 2 (fig5), J up to 0.1.
preset_points = st.builds(
    lambda delta, k_1, k_2, J, n: SystemParams(1 + delta / 2, 1 - delta / 2, k_1, k_2, J, n),
    st.floats(-2.0, 2.0), *[st.one_of(st.just(0.0), st.floats(1e-3, 2.0))] * 2, st.floats(0.0, 0.1),
    st.integers(20, 26),
)


class TestBlockPath:
    def test_factor_certifies_the_shift(self):
        # Sylvester's law of inertia: the block factor of diag(B_+, B_-) - sigma I, each
        # pivot with a Cholesky factor, exists iff sigma is below the lowest eigenvalue of
        # both blocks.
        n = 20
        h = build_transformed_hamiltonian(SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA, N=n))
        diag, upper = h.tridiagonal
        lam0 = [np.linalg.eigvalsh(block)[0] for block in h.entries]
        assert lam0[1] < lam0[0] - 0.1  # fig2 t = 0.5: the Pi = -1 block is lower
        # above lambda_0 of the lower block only, in either batch slot, or of both blocks
        for blocks in (diag, diag[::-1]):
            for sigma in (lam0[1] + 1e-6, lam0[0] + 1e-6):
                with pytest.raises(np.linalg.LinAlgError):
                    _block_cholesky(blocks, upper, sigma)
        sigma = lam0[1] - 1e-3
        x = np.cos(np.outer(np.arange(2 * n * n), (1.0, 3.0)))
        solved = _shift_invert(_block_cholesky(diag, upper, sigma), x)
        expected = np.concatenate([np.linalg.solve(block - sigma * np.eye(n * n), half)
                                   for block, half in zip(h.entries, x.reshape(2, n * n, 2))])
        assert np.max(np.abs(solved - expected)) < 1e-9 * np.max(np.abs(expected))

    def test_cross_block_doublet_state_keeps_its_sector(self):
        # fig5 t = 1.95, N = 24: H's two lowest levels are the two sectors' ground levels,
        # about 3e-7 apart (test_matches_eigvalsh_and_dense_vector checks their values).
        p = fig5_params(1.95, 24)
        w = [np.linalg.eigvalsh(block)[:2] for block in build_transformed_hamiltonian(p).entries]
        assert max(w[0][0], w[1][0]) < min(w[0][1], w[1][1])
        assert 1e-7 < abs(w[0][0] - w[1][0]) < 1e-6
        gs, dense = ground_state(p), dense_ground_state(p)
        assert (gs.solver, dense.solver) == ("block", "dense")
        parity = np.diag(parity_oracle(p.N))  # kron-built, independent of _parity_sector
        sign = parity[np.argmax(np.abs(dense.state.amplitudes))]
        assert np.all(dense.state.amplitudes[parity != sign] == 0.0)
        assert parity[np.argmax(np.abs(gs.state.amplitudes))] == sign
        assert np.all(gs.state.amplitudes[parity != sign] == 0.0)
        assert abs(gs.state.amplitudes @ dense.state.amplitudes) >= 1 - 1e-12

    @settings(property_settings, max_examples=20)
    @given(preset_points, st.sampled_from(BASES))
    @example(SystemParams(1.0, 1.0, K_ULTRA, K_ULTRA, N=20), "lab")  # mode-swap symmetric
    @example(SystemParams(1.0, 1.0, K_ULTRA, K_ULTRA, N=20), "transformed")  # n2 conserved
    @example(fig5_params(1.95, 24), "transformed")  # a cross-block doublet, gap 2.8e-7
    def test_matches_eigvalsh_and_dense_vector(self, p, basis):
        h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
        gs = ground_state(p, basis)
        dense = dense_ground_state(p, basis)
        w = [np.linalg.eigvalsh(block)[:2] for block in h.entries]
        lowest = np.sort(np.concatenate(w))
        scale = max(1.0, abs(lowest[0]))
        assert gs.solver in ("block", "block-fallback")
        assert abs(gs.energy - lowest[0]) < 1e-12 * scale
        assert abs(gs.gap - (lowest[1] - lowest[0])) < 1e-12 * scale
        assert gs.residual < RESIDUAL_TOL * scale
        assert abs(gs.state.amplitudes @ dense.state.amplitudes) >= 1 - 1e-12

    @settings(property_settings, max_examples=24)
    @given(model_points, st.sampled_from([14, 16, 20]), st.sampled_from(BASES))
    def test_random_point_matches_eigvalsh_with_a_sector_pure_pair(self, p, n, basis):
        assume(p.J ** 2 < p.omega_1 * p.omega_2)  # H has a ground state
        p = replace(p, N=n)
        h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
        gs = ground_state(p, basis)
        if gs.solver == "block":
            lowest = np.sort(np.concatenate([np.linalg.eigvalsh(b)[:2] for b in h.entries]))
            scale = max(1.0, abs(lowest[0]))
            assert abs(gs.energy - lowest[0]) < 1e-12 * scale
            assert abs(gs.gap - (lowest[1] - lowest[0])) < 1e-12 * scale
            ground_sector(gs)

    @pytest.mark.parametrize("p", [
        # fig2 t = 0.5: the lifted Pi = -1 block held the ground level
        SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA, N=20),
        # k = 0: Pi = +1 holds 0.5 (qubit up) and 0.5 + 3e-9 (one b1 quantum)
        SystemParams(1 + 3e-9, 1.5, 0.0, 0.0, N=20),
    ], ids=["fig2", "split-3e-9"])
    def test_two_lowest_levels_in_one_block(self, p, monkeypatch):
        # Lifting the Pi = -1 block by 10 puts both of H's lowest levels in the Pi = +1 block,
        # at every cutoff asked for, the cold start's rung below included.  The block path
        # converges each sector's ground, and finds a second Pi = +1 Ritz value below the
        # Pi = -1 ground: it refuses the point, and the dense path reports it.
        def lift(q):
            h = build_transformed_hamiltonian(q)
            return replace(h, diagonal=h.diagonal + np.array([0.0, 10.0])[:, None, None])

        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian", lift)
        w = [np.linalg.eigvalsh(block)[:2] for block in lift(p).entries]
        assert w[0][1] < w[1][0]
        ritz, thetas = jtsim.groundstate._ritz, []

        def recording(*args):
            out = ritz(*args)
            thetas.append(out[1])
            return out

        with monkeypatch.context() as m:
            m.setattr(jtsim.groundstate, "_ritz", recording)
            gs = ground_state(p)
        assert gs.solver == "block-fallback" and gs.ritz_vectors is None
        assert_same_result(gs, dense_ground_state(p))
        scale = max(1.0, abs(w[0][0]))
        assert abs(gs.energy - w[0][0]) < 1e-12 * scale
        assert abs(gs.gap - (w[0][1] - w[0][0])) < 1e-12 * scale
        # the rule, not a stall: the run ends within its step cap, on that ordering
        steps = jtsim.groundstate.ROUNDS * jtsim.groundstate.STEPS
        assert len(thetas) <= steps and thetas[-1][0, 1] < thetas[-1][1, 0]

    def test_singular_shifted_solve_takes_eigh(self, monkeypatch):
        # k = 0 with the Pi = -1 block lifted by 10: H's two lowest levels are 0.5 and
        # 0.5 + 3e-9 on the diagonal of the Pi = +1 block.  At SHIFT = 1e-10 the shift rounds
        # onto 0.5, so the shifted solve is exactly singular and the vector comes from eigh,
        # as it does at the default SHIFT, where the gap is below SHIFT.
        p = SystemParams(1 + 3e-9, 1.5, 0.0, 0.0, N=10)
        h = build_transformed_hamiltonian(p)
        lifted = replace(h, diagonal=h.diagonal + np.array([0.0, 10.0])[:, None, None])
        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian", lambda _: lifted)
        default = ground_state(p)
        monkeypatch.setattr(jtsim.groundstate, "SHIFT", 1e-10)
        gs = ground_state(p)
        assert gs.solver == "dense"
        assert_same_result(gs, default)
        assert ground_sector(gs) == 0

    def test_converged_hard_point_matches_dense_path(self, monkeypatch):
        p = fig5_params(1.95, 30)
        row = run_point(p)
        with monkeypatch.context() as m:
            m.setattr(jtsim.groundstate, "BLOCK_MIN_N", math.inf)
            dense = run_point(p)
        assert (row.solver, dense.solver) == ("block", "dense")
        assert abs(row.energy - dense.energy) < 1e-9
        for a, b in zip(astuple(row.report), astuple(dense.report)):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("n", [14, 16, 19])
    @pytest.mark.parametrize("p", [
        SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA),  # fig2 t = 0.5
        SystemParams(0.1, 0.05, 0.25, 0.75),  # fig3 t = 0.5
        fig5_params(1.5, 10),
        fig5_params(1.95, 10),
    ], ids=["fig2", "fig3", "fig5-1.5", "fig5-1.95"])
    def test_cold_solve_near_the_threshold_matches_dense_path(self, p, n, monkeypatch):
        # The sweeps' N + 4 verification solves at N = 14 from a cold start.
        p = replace(p, N=n)
        row = run_point(p)
        with monkeypatch.context() as m:
            m.setattr(jtsim.groundstate, "BLOCK_MIN_N", math.inf)
            dense = run_point(p)
        assert (row.solver, dense.solver) == ("block", "dense")
        scale = max(1.0, abs(dense.energy))
        assert abs(row.energy - dense.energy) < 1e-11 * scale
        assert abs(row.gap - dense.gap) < 1e-11 * scale
        for a, b in zip(astuple(row.report), astuple(dense.report)):
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("n, m", [(14, 7), (19, 9), (20, 10), (30, 10)])
    def test_cold_start_solves_at_most_half_the_cutoff(self, n, m, monkeypatch):
        # A cold start is the dense solve of the rung below, min(START_N, N // 2): its two
        # (m^2, m^2) blocks are the only matrices any dense eigensolver sees.
        solved, dense = [], []

        def recording(q, basis="transformed", start=None):
            solved.append(q.N)
            return ground_state(q, basis, start)

        def eigvalsh(a, *args, **kwargs):
            dense.append(a.shape)
            return numpy_eigvalsh(a, *args, **kwargs)

        numpy_eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
        krylov = []

        def small_eigh(a, *args, **kwargs):
            krylov.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(jtsim.groundstate, "ground_state", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", small_eigh)
        assert ground_state(fig5_params(1.95, n)).solver == "block"
        assert solved == [m]
        assert dense == [(m * m, m * m)] * 2
        # eigh sees only the Rayleigh-Ritz matrices on the Krylov basis, none of a grid's size
        assert max(krylov) < m * m

    def test_below_threshold_runs_eig_hermitian(self, monkeypatch):
        calls = []

        def recording(h, vectors=True):
            calls.append((h.shape, vectors))
            return eig_hermitian(h, vectors)

        monkeypatch.setattr(jtsim.groundstate, "eig_hermitian", recording)
        p = SystemParams(omega_1=1.0, omega_2=0.8, k_1=0.3, k_2=0.2, N=BLOCK_MIN_N - 1)
        assert ground_state(p).solver == "dense"
        d = (BLOCK_MIN_N - 1) ** 2
        assert calls == [((d, d), False), ((d, d), False)]
        calls.clear()
        # the block path's only dense eigensolves are those of its rung below, N // 2
        assert ground_state(replace(p, N=BLOCK_MIN_N)).solver == "block"
        m = BLOCK_MIN_N // 2
        assert calls == [((m * m, m * m), False)] * 2

    @pytest.mark.parametrize(
        "patch",
        [
            # the shift is never certified
            lambda m, gsm: m.setattr(gsm, "_block_cholesky", _refuse_factor),
            # the stop rule is not met within the step cap
            lambda m, gsm: (m.setattr(gsm, "ROUNDS", 1), m.setattr(gsm, "STEPS", 1)),
        ],
        ids=["shift", "stop-rule"],
    )
    def test_failure_returns_dense_result_bitwise(self, patch, monkeypatch):
        p = fig5_params(1.95, 20)
        dense = dense_ground_state(p)
        patch(monkeypatch, jtsim.groundstate)
        fallback = ground_state(p)
        assert fallback.solver == "block-fallback"
        assert_same_result(fallback, dense)

    @pytest.mark.parametrize("basis", BASES)
    def test_refused_first_shift_is_retried(self, basis, monkeypatch):
        # The first round's shift sits about 0.5 above E0 in either basis: its factor is
        # refused, and the next try, 4x as far below theta_0, certifies.
        # J^2 = 0.77 omega_1 omega_2, so the point has a ground state.
        p = SystemParams(1.4004193141716739, 0.8676891600177101, 1.9675366589008219,
                         2.069420391614324, J=-0.9675281138904557, N=14)
        dense = dense_ground_state(p, basis)
        factor, refused = jtsim.groundstate._block_cholesky, []

        def recording(diag, upper, sigma):
            try:
                return factor(diag, upper, sigma)
            except np.linalg.LinAlgError:
                refused.append(sigma)
                raise

        monkeypatch.setattr(jtsim.groundstate, "_block_cholesky", recording)
        gs = ground_state(p, basis)
        scale = max(1.0, abs(dense.energy))
        assert gs.solver == "block" and len(refused) == 1
        assert abs(gs.energy - dense.energy) < 1e-12 * scale
        assert abs(gs.gap - dense.gap) < 1e-12 * scale
        # without the retry the refused shift sends the point to the fallback
        monkeypatch.setattr(jtsim.groundstate, "CERTIFY_TRIES", 1)
        assert ground_state(p, basis).solver == "block-fallback"

    def test_degenerate_cross_block_pair_is_refused(self, monkeypatch):
        # Delta = 1.8, k = 4 at N = 20: the joint run converges the two sectors' ground
        # levels about 1.3e-12 apart, refuses the pair, and the dense path reports it.
        p = SystemParams(1 + 0.9, 1 - 0.9, 4.0, 4.0, N=20)
        joint, returned = jtsim.groundstate._joint_solve, []

        def recording(*args):
            returned.append(joint(*args))
            return returned[-1]

        monkeypatch.setattr(jtsim.groundstate, "_joint_solve", recording)
        gs = ground_state(p)
        assert returned == [None]
        assert gs.solver == "block-fallback" and gs.degenerate_flag and not gs.imprecise
        assert_same_result(gs, dense_ground_state(p))
        # the rule, not a stall: below a smaller tolerance the block path keeps the pair
        monkeypatch.setattr(jtsim.groundstate, "DEGENERACY_TOL", 1e-13)
        kept = ground_state(p)
        assert kept.solver == "block" and kept.gap < DEGENERACY_TOL
        ground_sector(kept)
        for row, block in zip(kept.ritz_vectors, build_transformed_hamiltonian(p).entries):
            assert abs(row @ np.linalg.eigh(block)[1][:, 0]) >= 1 - 1e-12

    @pytest.mark.parametrize("p", [SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA, N=20),
                                   fig5_params(1.95, 20)], ids=["fig2", "fig5"])
    def test_failed_fresh_residual_takes_another(self, p, monkeypatch):
        # The first one-block product, the accepted vector's fresh residual, is off by 1e-6:
        # the run goes on and takes a second fresh residual.
        product, fresh = jtsim.groundstate._block_product, []

        def perturbed(diag, upper, x):
            y = product(diag, upper, x)
            if len(diag) == 1:
                fresh.append(x)
                if len(fresh) == 1:
                    y[0] += 1e-6
            return y

        monkeypatch.setattr(jtsim.groundstate, "_block_product", perturbed)
        gs = ground_state(p)
        w = np.sort(np.concatenate([np.linalg.eigvalsh(block)[:2]
                                    for block in build_transformed_hamiltonian(p).entries]))
        scale = max(1.0, abs(w[0]))
        assert gs.solver == "block" and len(fresh) == 2
        assert abs(gs.energy - w[0]) < 1e-12 * scale
        assert abs(gs.gap - (w[1] - w[0])) < 1e-12 * scale
        assert gs.residual < RESIDUAL_TOL * scale

    def test_doublet_splitting_is_the_tunnelling_overlap(self):
        # Ultrastrong limit: the qubit term tunnels between the privileged mode displaced
        # to -k_p and +k_p, so H's parity doublet is split by about <k_p|-k_p> = exp(-2 k_p^2)
        # (Irish et al., PRB 72, 195410).  The ratio falls toward 1 as k_p grows.
        ratios = []
        for t in (1.0, 1.25, 1.5, 1.75, 1.95):
            p = fig5_params(t, 40)
            ratios.append(ground_state(p).gap / math.exp(-2 * (p.k_1**2 + p.k_2**2)))
        assert all(1.0 <= r <= 1.08 for r in ratios), ratios
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios

    def test_zero_frequency_row_stays_degenerate(self):
        p = replace(fig1_params(2.0), N=20)
        gs = ground_state(p)
        dense = dense_ground_state(p)
        assert gs.degenerate_flag and gs.solver == "block-fallback"
        assert_same_result(gs, dense)

    def test_extreme_scale_falls_back_without_warning(self):
        p = SystemParams(omega_1=1e300, omega_2=1e300, k_1=0.5, k_2=0.5, N=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs = ground_state(p, "lab")
        assert gs.solver == "block-fallback"
        assert gs.residual < 1e-12 * abs(gs.energy)

    def test_repeated_calls_are_bitwise_equal(self):
        p = fig5_params(1.95, 20)
        a, b = ground_state(p), ground_state(p)
        assert a.solver == b.solver == "block"
        assert_same_result(a, b)

    @pytest.mark.parametrize("n", [BLOCK_MIN_N - 1, BLOCK_MIN_N])
    @pytest.mark.parametrize(
        "band, index, value",
        [
            ("diagonal", (1, 0, 3), np.nan),
            ("hop_band", (-1, -1), np.inf),
            # upper[:, 5] of both sectors: a nan in one row of each block's residual
            ("g1_band", (5, 0), np.nan),
        ],
        ids=["nan-diagonal", "inf-band", "nan-upper-block"],
    )
    def test_corrupt_block_is_refused_without_warning(self, band, index, value, n, monkeypatch):
        # The builders write finite bands; one corrupt anyway must not come out of either
        # path: the block path falls back and eig_hermitian refuses it.
        p = SystemParams(omega_1=1.05, omega_2=0.95, k_1=0.3, k_2=0.2, N=n)
        h = build_transformed_hamiltonian(p)
        values = getattr(h, band).copy()
        values[index] += value
        corrupt = replace(h, **{band: values})
        # Each band is stored once and written mirrored: no edit makes a view asymmetric.
        diag, _ = corrupt.tridiagonal
        assert np.array_equal(diag, diag.swapaxes(-1, -2), equal_nan=True)
        assert np.array_equal(corrupt.entries, corrupt.entries.swapaxes(-1, -2), equal_nan=True)
        # only at N: a cold block start's rung below stays finite, so the block path meets it
        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian",
                            lambda q: corrupt if q.N == n else build_transformed_hamiltonian(q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite Hermitian operator"):
                ground_state(p)

    @settings(property_settings, max_examples=12)
    @given(preset_points, st.integers(1, 6), st.sampled_from(BASES))
    @example(fig5_params(1.95, 20), 10, "transformed")  # ladder's 20 -> 30 at the hard point
    def test_warm_start_matches_cold_solve(self, p, step, basis):
        bigger = replace(p, N=p.N + step)
        start = ground_state(p, basis).ritz_vectors
        warm, cold = ground_state(bigger, basis, start), ground_state(bigger, basis)
        scale = max(1.0, abs(cold.energy))
        assert warm.solver == cold.solver
        assert abs(warm.energy - cold.energy) < 1e-12 * scale
        assert abs(warm.gap - cold.gap) < 1e-12 * scale
        assert abs(warm.state.amplitudes @ cold.state.amplitudes) >= 1 - 1e-12

    def test_start_whose_krylov_space_stops_growing_matches_cold_solve(self):
        # fig5 t = 1.5: started from the N = 15 block rung's Ritz vectors, the N = 30 rung
        # once fell back when a step added a column with 1.4e-9 of its norm outside the
        # Krylov space of both sectors.  With one Krylov space per sector no step of this
        # ladder adds a weak column; the rung takes the block path, as a cold solve does,
        # and either path gives these numbers.
        warm = convergence_study(fig5_params(1.5, 15), (15, 30))[1]
        cold = run_point(fig5_params(1.5, 30))
        assert warm.solver == cold.solver == "block"
        assert abs(warm.energy - cold.energy) < 1e-12
        assert abs(warm.gap - cold.gap) < 1e-12
        assert np.max(np.abs(np.subtract(astuple(warm.report), astuple(cold.report)))) < 1e-12

    def test_extend_keeps_a_small_remainder_and_drops_rounding(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((2, 60, 10)))[0]
        basis, outside = q[:, :, :8], q[:, :, 8:]  # outside: two directions orthogonal to each
        new = basis @ rng.standard_normal((2, 8, 2))
        # column 0: 1e-9 of it lies outside the span, in both blocks
        new[:, :, 0] += 1e-9 * outside[:, :, 0]
        # column 1: in the span to rounding in block 0, and not in block 1
        new[1, :, 1] += outside[1, :, 1]
        kept = _extend(basis, new)
        # a column kept in one block is kept in both, orthonormal to each block's basis
        assert kept.shape == (2, 60, 2)
        assert np.max(np.abs(kept.swapaxes(1, 2) @ kept - np.eye(2))) < 1e-14
        assert np.max(np.abs(basis.swapaxes(1, 2) @ kept)) < 1e-14
        assert np.linalg.norm(kept[0].T @ outside[0, :, 0]) >= 1 - 1e-6
        assert np.all(np.linalg.norm(kept[1].T @ outside[1], axis=0) >= 1 - 1e-6)
        # a basis of the whole space: any column lies in its span to rounding
        full = np.linalg.qr(rng.standard_normal((2, 12, 12)))[0]
        assert _extend(full, rng.standard_normal((2, 12, 2))).shape == (2, 12, 0)

    def test_extend_drops_columns_in_the_span_of_a_proper_subspace(self):
        # The remainder of an in-span column is rounding noise, most of which lies outside
        # a small span: it is dropped by its size, not kept by its direction.
        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.standard_normal((2, 60, 8)))[0]
        assert _extend(basis, basis @ rng.standard_normal((2, 8, 3))).shape == (2, 60, 0)

    def test_krylov_steps_of_the_ladder_and_xcheck_points(self, monkeypatch):
        # Krylov steps counted as _extend calls at the perfbench ladder and xcheck points;
        # a change that adds steps shows here, not only in the benchmark.
        steps = [0]

        def counting(*args, inner=_extend):
            steps[0] += 1
            return inner(*args)

        monkeypatch.setattr(jtsim.groundstate, "_extend", counting)
        k = 0.7071068
        convergence_study(SystemParams(1.0, 1.0, k, k), (10, 20, 30))
        assert steps[0] <= 6
        steps[0] = 0
        compare_bases(SystemParams(1.025, 0.975, k, k, N=24))
        assert steps[0] <= 4

    def test_a_dense_rung_hands_on_its_two_lowest_vectors(self, monkeypatch):
        starts, results = [], []

        def recording(p, basis="transformed", start=None):
            starts.append(start)
            results.append(ground_state(p, basis, start))
            return results[-1]

        monkeypatch.setattr(jtsim.sweeps, "ground_state", recording)
        convergence_study(fig5_params(1.95, 10), (10, 20, 24))
        # zero-frequency points: the dense rung hands on its pair all the same, and a rung
        # at N >= BLOCK_MIN_N falls back without reading it
        zero = replace(fig1_params(2.0), J=0.05)
        convergence_study(zero, (10, 14))
        convergence_study(replace(fig1_params(2.0), N=20), (20, 24))
        assert [gs.solver for gs in results] == (
            ["dense", "block", "block", "dense"] + ["block-fallback"] * 3)
        for gs in results[:4]:
            ground_sector(gs)
        assert not results[3].degenerate_flag
        assert_same_result(results[4], ground_state(replace(zero, N=14)))
        assert [gs.ritz_vectors for gs in results[4:]] == [None] * 3
        # the first rung of each ladder starts cold; each later rung gets the rung below's vectors
        assert starts[0] is starts[3] is starts[5] is None
        assert [starts[i] is results[i - 1].ritz_vectors for i in (1, 2, 4, 6)] == [True] * 4

    @pytest.mark.parametrize("p", [
        SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA, N=10),  # fig2 t = 0.5
        SystemParams(1 + 3e-9, 1.5, 0.0, 0.0, N=10),  # Pi = +1 holds 0.5 and 0.5 + 3e-9
    ], ids=["fig2", "split-3e-9"])
    def test_dense_pair_in_one_block_is_its_two_lowest_vectors(self, p, monkeypatch):
        # Lifting the Pi = -1 block by 10 puts both of H's lowest levels in the Pi = +1 block,
        # as in test_two_lowest_levels_in_one_block.  The pair is still each sector's ground:
        # the other sector's comes from the inverse iteration that finds the ground vector,
        # which resolves that block's own gap without an eigh.
        h = build_transformed_hamiltonian(p)
        lifted = replace(h, diagonal=h.diagonal + np.array([0.0, 10.0])[:, None, None])
        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian", lambda _: lifted)
        other = lifted.entries[1]
        w = np.linalg.eigvalsh(other)[:2]
        gs = ground_state(p)
        assert gs.solver == "dense" and not gs.degenerate_flag
        eigh, calls = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", counting)
            row = gs.ritz_vectors[1]
        assert calls == [] and ground_sector(gs) == 0
        assert abs(row @ eigh(other)[1][:, 0]) >= 1 - 1e-12
        assert np.linalg.norm(other @ row - w[0] * row) < RESIDUAL_TOL * max(1.0, abs(w[0]))

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("n", [6, 10, 13, 14, 20, 24])
    @pytest.mark.parametrize("p", [
        SystemParams(1.0, 1.0, K_ULTRA, K_ULTRA),  # the ladder point
        SystemParams(1.25, 0.75, K_ULTRA, K_ULTRA),  # fig2 t = 0.5
        fig5_params(1.95, 10),
        SystemParams(0.2, 0.1, K_ULTRA, K_ULTRA, J=0.05),  # fig6 t = 0.05
    ], ids=["ladder", "fig2", "fig5", "fig6"])
    def test_pair_across_the_sectors_is_their_lowest_vectors(self, p, n, basis):
        # The pairs that the ladders and the verification hand on: H's next level lies in
        # the sector that does not hold its ground level, and row s of either path's pair is
        # the lowest vector of sector s.
        p = replace(p, N=n)
        h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
        blocks = h.entries
        lowest = np.array([np.linalg.eigvalsh(block)[:2] for block in blocks])
        (k0, k1), _ = _two_lowest(lowest)
        assert k0 != k1
        gs = ground_state(p, basis)
        assert gs.solver == ("dense" if n < BLOCK_MIN_N else "block")
        assert ground_sector(gs) == k0
        for row, block in zip(gs.ritz_vectors, blocks):
            assert abs(row @ np.linalg.eigh(block)[1][:, 0]) >= 1 - 1e-12
        if gs.solver == "dense":  # the inverse iteration's own stop test
            second = gs.ritz_vectors[k1]
            residual = np.linalg.norm(blocks[k1] @ second - lowest[k1, 0] * second)
            assert residual < RESIDUAL_TOL * max(1.0, abs(lowest[k1, 0]))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_take_the_block_path_at_n20(self, name):
        # Every 8th grid point, both endpoints included, each N = 20 rung started from its
        # N = 10 row: the block path answers every point but the zero-frequency rows, so
        # the refusal of two lowest levels in one block never fires at a preset point.
        spec = PRESETS[name]
        points = grid_points(spec)[::8]
        assert (points[0], points[-1]) == (spec.t_min, spec.t_max)
        for t in points:
            below, row = convergence_study(spec.params_at(t), (10, 20), spec.basis)
            zero = (name in ("fig1", "fig2") and abs(t) == 2.0) or (name == "fig5" and t == 2.0)
            assert (below.solver, row.solver) == ("dense", "block-fallback" if zero else "block")

    def test_rung_after_a_dense_one_pays_no_start_eigh(self, monkeypatch):
        # The ladder point: its N = 20 rung starts from the N = 10 rung's dense pair, with
        # the Krylov steps and factorizations of a cold start and no dense eigh.
        p = SystemParams(1.0, 1.0, K_ULTRA, K_ULTRA)
        counts, eigh_rows = dict.fromkeys(("_extend", "_block_cholesky"), 0), []
        for name in counts:
            def counting(*args, name=name, inner=getattr(jtsim.groundstate, name)):
                counts[name] += 1
                return inner(*args)
            monkeypatch.setattr(jtsim.groundstate, name, counting)
        assert ground_state(replace(p, N=20)).solver == "block"
        cold = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            eigh_rows.append(a.shape[-2])
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", recording)
            rows = convergence_study(p, (10, 20))
        assert [row.solver for row in rows] == ["dense", "block"]
        assert counts == cold
        # Rayleigh-Ritz on the Krylov basis only: two columns to start, at most two per step
        assert max(eigh_rows) <= 2 + 2 * cold["_extend"]

    def test_clean_point_above_a_degenerate_rung_below_takes_the_block_path(self, monkeypatch):
        # Below BLOCK_MIN_N both sectors get the Pi = +1 block, so the rung below is
        # degenerate across them.  It hands on its pair all the same, and the point's own
        # block solve, which resolves the point's gap, judges the point.
        def twinned(q):
            h = build_transformed_hamiltonian(q)
            return h if q.N >= BLOCK_MIN_N else replace(h, diagonal=h.diagonal[[0, 0]])

        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian", twinned)
        p = fig5_params(1.5, 20)
        below = ground_state(replace(p, N=10))
        assert below.degenerate_flag and below.ritz_vectors.shape == (2, 100)
        dense = dense_ground_state(p)
        gs = ground_state(p)
        assert gs.solver == "block" and not gs.degenerate_flag
        assert abs(gs.energy - dense.energy) < 1e-12
        assert abs(gs.gap - dense.gap) < 1e-12
        assert abs(gs.state.amplitudes @ dense.state.amplitudes) >= 1 - 1e-12

    def test_start_from_a_larger_cutoff_is_refused(self):
        start = ground_state(fig5_params(1.95, 24)).ritz_vectors
        with pytest.raises(ValueError, match="m <= 20"):
            ground_state(fig5_params(1.95, 20), start=start)

    def test_fallback_hands_on_no_start(self, monkeypatch):
        monkeypatch.setattr(jtsim.groundstate, "_block_cholesky", _refuse_factor)
        gs = ground_state(fig5_params(1.95, 20))
        assert gs.solver == "block-fallback" and gs.ritz_vectors is None

    @pytest.mark.parametrize(
        "p",
        [replace(fig1_params(2.0), N=20), replace(fig1_params(-2.0), N=20), fig5_params(2.0, 20)],
        ids=["omega2=0", "omega1=0", "fig5"],
    )
    def test_zero_frequency_skips_the_block_attempt(self, p, monkeypatch):
        dense = dense_ground_state(p)
        start = ground_state(replace(p, omega_1=1.0, omega_2=1.0)).ritz_vectors
        monkeypatch.setattr(jtsim.groundstate, "_joint_solve", _never_called)
        results = [ground_state(p), ground_state(p, start=start)]
        for gs in results:
            assert gs.solver == "block-fallback" and gs.ritz_vectors is None
            assert_same_result(gs, dense)

    def test_unresolvable_gap_is_imprecise_not_degenerate(self):
        # omega_1 = 1.6e307 puts eps * ||H|| near 3e292: eigvalsh cannot resolve a 1e-10 gap
        huge = SystemParams(omega_1=1.6e307, omega_2=1.0, k_1=0.0, k_2=0.0, N=10)
        clean, lost = ground_state(huge), ground_state(replace(huge, J=0.05))
        assert (clean.gap, clean.degenerate_flag, clean.imprecise) == (1.0, False, False)
        assert lost.degenerate_flag and lost.imprecise
        # an ordinary zero-frequency point is degenerate, and its gap is resolved
        degenerate = ground_state(fig1_params(2.0))
        assert degenerate.degenerate_flag and not degenerate.imprecise

    def test_imprecise_reads_the_norm_of_h(self):
        # omega_2 = 0: a degenerate lab point with gap 4.4e-11.  eps ||H||_2 = 8.5e-11 resolves
        # it; eps times the Gershgorin bound from the bands (4.6e5) would not.
        p = SystemParams(omega_1=30700.0, omega_2=0.0, k_1=1.0, k_2=0.0, N=10)
        h = build_lab_hamiltonian(p)
        eps = np.finfo(float).eps
        assert eps * max(np.linalg.norm(block, 2) for block in h.entries) < DEGENERACY_TOL
        bands = (h.g1_band, h.g2_band, h.hop_band)
        bound = np.max(np.abs(h.diagonal)) + 2 * sum(np.max(np.abs(band)) for band in bands)
        assert eps * bound >= DEGENERACY_TOL
        gs = ground_state(p, "lab")
        assert gs.gap < DEGENERACY_TOL
        assert gs.degenerate_flag and not gs.imprecise

    def test_block_path_forms_no_dense_stack(self, monkeypatch):
        # fig2 t = 0.5 at N = 40: one dense N^2 x N^2 block would take 20.48 MB.
        p = SystemParams(omega_1=1.25, omega_2=0.75, k_1=K_ULTRA, k_2=K_ULTRA, N=40)
        reads = []  # the cutoff of each H whose dense stack is formed
        formed = ParityBlocks.entries.fget
        spy = property(lambda h: reads.append(h.diagonal.shape[1]) or formed(h))
        monkeypatch.setattr(ParityBlocks, "entries", spy)
        tracemalloc.start()
        try:
            gs = ground_state(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs.solver == "block"
        assert p.N not in reads  # only the cold start's rung below is solved dense
        assert peak < (p.N * p.N) ** 2 * 8

    def test_dense_result_keeps_no_view(self, monkeypatch):
        # A row keeps its result, and a dense result keeps H for its pair: H holds its
        # bands alone however often its views and that pair are read.
        built = []

        def keeping(q):
            built.append(build_transformed_hamiltonian(q))
            return built[-1]

        monkeypatch.setattr(jtsim.groundstate, "build_transformed_hamiltonian", keeping)
        gs = ground_state(fig1_params(0.5))
        (h,) = built
        assert h.tridiagonal[0].shape == (2, 10, 10, 10) and h.entries.shape == (2, 100, 100)
        assert gs.solver == "dense" and gs.ritz_vectors is not None
        assert set(vars(h)) == {"diagonal", "g1_band", "g2_band", "hop_band"}


def _refuse_factor(diag, upper, sigma):
    raise np.linalg.LinAlgError("not positive definite")


def _never_called(*args):
    raise AssertionError("the block path was tried")
