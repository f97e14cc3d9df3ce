import math
import re
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtsim.groundstate import ground_state
from jtsim.model import (
    PARITY_SIGNS,
    ParityBlocks,
    StateVector,
    SystemParams,
    VALIDITY_THRESHOLD,
    _parity_sector,
    _rotated_coefficients,
    _sector_sigma_z,
    _two_mode_hamiltonian,
    build_lab_hamiltonian,
    build_transformed_hamiltonian,
    embed,
    mode_rotation_unitary,
    parity_operator,
    privileged_validity,
)
from jtsim.sweeps import PRESETS, SweepRow, grid_points
from oracles import (
    SX,
    SZ,
    annihilation,
    full_matrix,
    model_points,
    parity_oracle,
    property_settings,
    rotated_coefficients,
    rotation_oracle,
    single_mode_jt,
    two_mode_oracle,
)

K_STRONG = 0.1 / math.sqrt(2)


def assert_blocks_match_oracle(blocks: ParityBlocks, oracle: np.ndarray):
    """Each parity block equals the oracle's sector block; the oracle has no off-sector entry."""
    n = blocks.diagonal.shape[1]
    assert blocks.entries.dtype == np.float64
    plus, minus = (_parity_sector(n, sign) for sign in PARITY_SIGNS)
    assert np.all(oracle[np.ix_(plus, minus)] == 0.0)
    assert np.all(oracle[np.ix_(minus, plus)] == 0.0)
    for block, idx in zip(blocks.entries, (plus, minus)):
        assert np.max(np.abs(block - oracle[np.ix_(idx, idx)])) < 1e-14


class TestSystemParams:
    def test_derived_couplings(self):
        p = SystemParams(omega_1=1.2, omega_2=0.6, k_1=0.5, k_2=0.25, J=0.01)
        assert p.g_1 == pytest.approx(0.6)
        assert p.g_2 == pytest.approx(0.15)
        assert p.delta == pytest.approx(0.6)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            SystemParams(omega_1=1, omega_2=1, k_1=0, k_2=0, N=1)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, None, 10.5, "10"])
    def test_a_cutoff_that_is_not_an_integer_is_refused_by_name(self, cutoff):
        with pytest.raises(ValueError, match=f"^cutoff must be >= 2.*{re.escape(repr(cutoff))}$"):
            SystemParams(omega_1=1, omega_2=1, k_1=0, k_2=0, N=cutoff)

    @pytest.mark.parametrize("cutoff", [np.int64(12), 12.0])
    def test_an_integral_cutoff_is_stored_as_int(self, cutoff):
        n = SystemParams(omega_1=1, omega_2=1, k_1=0, k_2=0, N=cutoff).N
        assert type(n) is int and n == 12

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="k_1"):
            SystemParams(omega_1=1, omega_2=1, k_1=-0.1, k_2=0)

    def test_overflowing_coupling_rejected(self):
        with pytest.raises(ValueError, match=r"g_1 = omega_1\*k_1 must be finite"):
            SystemParams(omega_1=1e200, omega_2=1, k_1=1e200, k_2=0)
        with pytest.raises(ValueError, match=r"g_2 = omega_2\*k_2 must be finite"):
            SystemParams(omega_1=1, omega_2=1e200, k_1=0, k_2=1e200)

    @pytest.mark.parametrize("J", [math.nan, math.inf, -math.inf])
    def test_non_finite_hopping_rejected(self, J):
        with pytest.raises(ValueError, match="J must be finite"):
            SystemParams(omega_1=1, omega_2=1, k_1=0.1, k_2=0.1, J=J)

    @pytest.mark.parametrize("k_1, k_2", [(1e-200, 0.0), (0.0, 1e-160), (1e-155, 1e-155)])
    def test_underflowing_coupling_norm_rejected(self, k_1, k_2):
        with pytest.raises(ValueError, match=r"k_1\^2 \+ k_2\^2 must be 0 or at least"):
            SystemParams(omega_1=1, omega_2=1, k_1=k_1, k_2=k_2)

    def test_smallest_normal_coupling_norm_accepted(self):
        k = math.sqrt(sys.float_info.min)
        p = SystemParams(omega_1=1, omega_2=1, k_1=k, k_2=0)
        assert _rotated_coefficients(p)["g1"] == k  # g_p = omega_p * k_p = 1 * k

    def test_overflowing_coupling_norm_rejected(self):
        for k_1, k_2 in ((1e300, 0.0), (0.0, 1e300), (1e154, 1e154)):
            with pytest.raises(ValueError, match=r"k_1\^2 \+ k_2\^2 must be finite"):
                SystemParams(omega_1=0, omega_2=0, k_1=k_1, k_2=k_2)


class TestPrivilegedParams:
    # The privileged-mode parameters, read from the rotated coefficients at
    # J = 0: w1 = omega_p, w2 = omega_p_tilde, g1 = g_p = omega_p*k_p,
    # g2 = k_p*c and hop = c.
    def test_symmetric_couplings(self):
        # k_1 = k_2 = k, omega_{1,2} = 1 -+ Delta/2
        delta = 0.3
        p = SystemParams(omega_1=1 + delta / 2, omega_2=1 - delta / 2, k_1=0.2, k_2=0.2)
        rot = _rotated_coefficients(p)
        k_p = math.sqrt(2) * 0.2
        assert rot["w1"] == pytest.approx(1.0, abs=1e-12)
        assert rot["hop"] == pytest.approx(delta / 2, abs=1e-12)
        assert rot["g1"] == pytest.approx(k_p, abs=1e-12)
        assert rot["g2"] == pytest.approx(k_p * delta / 2, abs=1e-12)

    def test_single_mode_limit(self):
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.3, k_2=0.0)
        rot = _rotated_coefficients(p)
        assert rot["w1"] == pytest.approx(0.9, abs=1e-12)
        assert rot["w2"] == pytest.approx(0.4, abs=1e-12)
        assert rot["hop"] == 0.0 and rot["g2"] == 0.0
        assert rot["g1"] == pytest.approx(0.9 * 0.3, abs=1e-12)

    def test_asymmetric_point_against_direct_formulas(self):
        # kappa = 2/3 configuration: k_1 = 1/6, k_2 = 5/6, omega_1 = 2*omega_2 = 0.1
        p = SystemParams(omega_1=0.1, omega_2=0.05, k_1=1 / 6, k_2=5 / 6)
        rot = _rotated_coefficients(p)
        kp2 = (1 / 6) ** 2 + (5 / 6) ** 2
        k_p = math.sqrt(kp2)
        omega_p = (0.1 * (1 / 6) ** 2 + 0.05 * (5 / 6) ** 2) / kp2
        c = 0.05 * (1 / 6) * (5 / 6) / kp2
        assert rot["w1"] == pytest.approx(omega_p, abs=1e-15)
        assert rot["w2"] == pytest.approx(
            (0.1 * (5 / 6) ** 2 + 0.05 * (1 / 6) ** 2) / kp2, abs=1e-15
        )
        assert rot["hop"] == pytest.approx(c, abs=1e-15)
        assert rot["g1"] == pytest.approx(omega_p * k_p, abs=1e-15)
        assert rot["g2"] == pytest.approx(k_p * c, abs=1e-15)

    def test_invariants_hold_generically(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w1, w2 = rng.uniform(0, 2, size=2)
            k1, k2 = rng.uniform(0, 1.5, size=2)
            if k1 == k2 == 0:
                continue
            p = SystemParams(omega_1=w1, omega_2=w2, k_1=k1, k_2=k2)
            rot = _rotated_coefficients(p)
            # g1/w1 = g_p/omega_p = k_p
            assert (rot["g1"] / rot["w1"]) ** 2 == pytest.approx(k1**2 + k2**2, abs=1e-12)
            # the rotation preserves the trace of the mode-frequency matrix
            assert rot["w1"] + rot["w2"] == pytest.approx(w1 + w2, abs=1e-12)

    def test_degenerate_rotation_raises(self):
        p = SystemParams(omega_1=1, omega_2=1, k_1=0, k_2=0)
        with pytest.raises(ValueError, match="k_1 = k_2 = 0"):
            _rotated_coefficients(p)
        with pytest.raises(ValueError, match="k_1 = k_2 = 0"):
            mode_rotation_unitary(p)

    @property_settings
    @given(model_points)
    def test_matches_documented_formulas(self, p):
        expected = rotated_coefficients(p)
        actual = tuple(_rotated_coefficients(p).values())
        # w1, w2 and hop are sums of terms at most max(omega_i) or |J| in size;
        # where they cancel, a 1e-15 relative error is measured on those terms
        terms = max(p.omega_1, p.omega_2) + abs(p.J)
        assert np.allclose(actual, expected, rtol=1e-15, atol=1e-15 * terms)


class TestLabHamiltonian:
    def test_decoupled_limit_is_diagonal(self):
        p = SystemParams(omega_1=0.8, omega_2=0.3, k_1=0, k_2=0, N=4)
        h = full_matrix(build_lab_hamiltonian(p))
        assert np.allclose(h, np.diag(np.diag(h)))
        assert h[0, 0] == pytest.approx(-0.5)
        assert np.min(np.real(np.diag(h))) == pytest.approx(-0.5)

    def test_single_coupling_matrix_element(self):
        k = 0.1 / math.sqrt(2)
        p = SystemParams(omega_1=1, omega_2=1, k_1=k, k_2=k, J=0, N=2)
        h = full_matrix(build_lab_hamiltonian(p))
        # <s=1, 0, 0| H |s=0, 1, 0> = g_1
        assert h[1 * 4, 0 * 4 + 2] == pytest.approx(k, abs=1e-15)

    @property_settings
    @given(model_points)
    def test_matches_explicit_assembly_oracle(self, p):
        # the lab builder is the identity coefficient map
        oracle = two_mode_oracle(p.N, p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)
        assert_blocks_match_oracle(build_lab_hamiltonian(p), oracle)
        assert ground_state(p, "lab").state.amplitudes.dtype == np.float64

    def test_hermitian_and_trace_identity(self):
        p = SystemParams(omega_1=1.3, omega_2=0.45, k_1=0.6, k_2=0.35, J=0.12, N=5)
        blocks = build_lab_hamiltonian(p).entries
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
        n = p.N
        # qubit and coupling terms are traceless; tr(n_i) = N(N-1)/2 over
        # each mode times 2N for the spectator factors
        expected_trace = (p.omega_1 + p.omega_2) * n * n * (n - 1)
        trace = np.trace(blocks[0]) + np.trace(blocks[1])
        assert trace == pytest.approx(expected_trace, rel=1e-12)

    def test_mode_swap_leaves_spectrum_invariant(self):
        p = SystemParams(omega_1=1.1, omega_2=0.4, k_1=0.5, k_2=0.2, J=0.07, N=5)
        q = SystemParams(omega_1=0.4, omega_2=1.1, k_1=0.2, k_2=0.5, J=0.07, N=5)
        wp = np.linalg.eigvalsh(full_matrix(build_lab_hamiltonian(p)))
        wq = np.linalg.eigvalsh(full_matrix(build_lab_hamiltonian(q)))
        assert np.max(np.abs(wp - wq)) < 1e-10

    def test_parity_commutes(self):
        # the builders' block form rests on the oracle commuting with Pi
        p = SystemParams(omega_1=1.1, omega_2=0.4, k_1=0.5, k_2=0.2, J=0.07, N=4)
        pi = parity_operator(p.N)
        lab = (p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)
        for coeffs in (lab, rotated_coefficients(p)):
            h = two_mode_oracle(p.N, *coeffs)
            assert np.max(np.abs(h @ pi - pi @ h)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_builders_return_stacked_float64_blocks(self, n):
        p = SystemParams(omega_1=1.1, omega_2=0.4, k_1=0.5, k_2=0.2, J=0.07, N=n)
        for build in (build_lab_hamiltonian, build_transformed_hamiltonian):
            h = build(p)
            assert isinstance(h, ParityBlocks)
            assert h.diagonal.shape == (2, n, n)
            assert h.entries.dtype == np.float64
            assert h.entries.shape == (2, n * n, n * n)
            assert h.entries.nbytes == 2 * n**4 * 8

    @pytest.mark.parametrize(
        "p, coefficients",
        [
            (SystemParams(1e308, 1.0, 0.0, 0.0), "w1=1e+308 w2=1 g1=0 g2=0 hop=0"),
            (SystemParams(1.0, 1.0, 0.0, 0.0, J=-1e308), "w1=1 w2=1 g1=0 g2=0 hop=-1e+308"),
            (SystemParams(1e154, 1.0, 1e154, 0.0, N=5), "w1=1e+154 w2=1 g1=1e+308 g2=0 hop=0"),
        ],
    )
    def test_overflowing_entry_is_refused(self, p, coefficients):
        # finite coefficients, but w1 (N - 1), hop sqrt(n1 + 1) sqrt(n2) or g1 sqrt(4) overflows;
        # a numpy overflow warning would fail the suite (pyproject filterwarnings)
        message = rf"non-finite entry at N={p.N}: {re.escape(coefficients)}$"
        with pytest.raises(ValueError, match=message):
            build_lab_hamiltonian(p)

    def test_zero_frequency_mode_warns(self):
        p = SystemParams(omega_1=2.0, omega_2=0.0, k_1=0.1, k_2=0.1, N=3)
        points = (p, replace(p, k_1=0.0, k_2=0.0))
        # the builders are truncated-matrix tools: they build a zero-frequency point silently
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            for q in points:
                build_lab_hamiltonian(q)
                build_transformed_hamiltonian(q)
        assert record == []
        # ground_state owns the warning: it names the point and is filed under its caller,
        # in either basis and at k1 = k2 = 0 too
        for q in points:
            for basis in ("lab", "transformed"):
                point = f"zero-frequency mode at omega_1=2 omega_2=0 k_1={q.k_1:g} k_2={q.k_2:g}:"
                with pytest.warns(RuntimeWarning, match=re.escape(point)) as record:
                    ground_state(q, basis)
                assert record[0].filename == __file__

    def test_zero_frequency_mode_with_hopping_has_no_ground_state(self):
        # J^2 > omega_1 omega_2 = 0: H is unbounded below, so there is no degenerate ground state
        p = SystemParams(omega_1=1.0, omega_2=0.0, k_1=0.5, k_2=0.5, J=0.05, N=3)
        with pytest.warns(RuntimeWarning, match="no ground state") as record:
            ground_state(p, "lab")
        assert not any("degenerate" in str(w.message) for w in record)


class TestTransformedHamiltonian:
    @property_settings
    @given(model_points)
    def test_matches_explicit_assembly_oracle(self, p):
        # the transformed builder is the same operator fed the rotated coefficients
        oracle = two_mode_oracle(p.N, *rotated_coefficients(p))
        assert_blocks_match_oracle(build_transformed_hamiltonian(p), oracle)
        assert ground_state(p, "transformed").state.amplitudes.dtype == np.float64

    def test_undefined_rotation_gives_lab_blocks(self):
        # k_1 = k_2 = 0: every mode rotation leaves H invariant
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.0, k_2=0.0, J=0.05, N=4)
        lab, transformed = build_lab_hamiltonian(p), build_transformed_hamiltonian(p)
        assert transformed.diagonal.shape == lab.diagonal.shape
        assert np.array_equal(transformed.entries, lab.entries)

    def test_preset_bands_are_the_per_basis_calls_bit_for_bit(self):
        # one coefficient map per basis changes no float: at every fig1-fig6 point at N = 10,
        # each builder's bands are those of the lab or rotated coefficients passed directly
        fields = ("diagonal", "g1_band", "g2_band", "hop_band")
        points = [spec.params_at(t) for spec in PRESETS.values() for t in grid_points(spec)]
        assert len(points) == 326 and all(p.N == 10 for p in points)
        for p in points:
            lab = _two_mode_hamiltonian(p.N, p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)
            rotated = (lab if p.k_1 == 0.0 and p.k_2 == 0.0
                       else _two_mode_hamiltonian(p.N, **_rotated_coefficients(p)))
            for build, expected in ((build_lab_hamiltonian, lab),
                                    (build_transformed_hamiltonian, rotated)):
                h = build(p)
                assert all(np.array_equal(getattr(h, f), getattr(expected, f)) for f in fields)

    def test_identity_rotation_reproduces_lab(self):
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.3, k_2=0.0, J=0.0, N=4)
        hl = build_lab_hamiltonian(p).entries
        ht = build_transformed_hamiltonian(p).entries
        # identical up to the rounding of (omega_1*k_1^2)/k_1^2
        assert np.max(np.abs(hl - ht)) < 1e-15

    def test_j_zero_coefficients(self):
        # with J = 0 the only couplings are omega_p, omega_p_tilde, c and k_p*(omega_p, c)
        p = SystemParams(omega_1=1.2, omega_2=0.7, k_1=0.4, k_2=0.3, J=0.0, N=3)
        omega_p, _, _, _, c = rotated_coefficients(p)
        h = full_matrix(build_transformed_hamiltonian(p))
        n = p.N
        # <s,1,0|H|s,0,1> = hopping coefficient = c at J=0
        i10 = 0 * n * n + 1 * n + 0
        i01 = 0 * n * n + 0 * n + 1
        assert h[i10, i01] == pytest.approx(c, abs=1e-15)
        # <s,1,0|H|s,1,0> - <s,0,0|H|s,0,0> = omega_p at J=0
        i00 = 0
        assert h[i10, i10] - h[i00, i00] == pytest.approx(omega_p, abs=1e-14)

    def test_spectral_equivalence_with_lab_builder(self):
        # the rotation is unitary before truncation, so low-lying spectra converge
        p = SystemParams(omega_1=1.1, omega_2=0.8, k_1=0.07, k_2=0.05, J=0.04, N=16)
        wl = np.linalg.eigvalsh(full_matrix(build_lab_hamiltonian(p)))
        wt = np.linalg.eigvalsh(full_matrix(build_transformed_hamiltonian(p)))
        assert np.max(np.abs(wl[:5] - wt[:5])) < 1e-6

    def test_hopping_coefficient_includes_j_term(self):
        p = SystemParams(omega_1=1.2, omega_2=0.7, k_1=0.4, k_2=0.3, J=0.05, N=3)
        hop = rotated_coefficients(p)[4]
        assert hop != rotated_coefficients(replace(p, J=0.0))[4]
        h = full_matrix(build_transformed_hamiltonian(p))
        assert h[p.N, 1] == pytest.approx(hop, abs=1e-15)


# model_points at cutoffs up to 24, past the block path's BLOCK_MIN_N = 14.
view_points = st.builds(replace, model_points, N=st.integers(2, 24))


class TestParityBlocksViews:
    @settings(property_settings, max_examples=40)
    @given(view_points, st.sampled_from(["lab", "transformed"]))
    def test_views_agree_with_each_other_and_the_oracle(self, p, basis):
        if basis == "lab":
            h, coefficients = build_lab_hamiltonian(p), (p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)
        else:
            h, coefficients = build_transformed_hamiltonian(p), rotated_coefficients(p)
        n = p.N
        diag, upper = h.tridiagonal
        assert diag.shape == (2, n, n, n) and upper.shape == (n - 1, n, n)
        # the tridiagonal view, block by block, is the dense view bit for bit
        grid = np.zeros((2, n, n, n, n))
        for i in range(n):
            grid[:, i, :, i] = diag[:, i]
        for i in range(n - 1):
            grid[:, i, :, i + 1] = upper[i]
            grid[:, i + 1, :, i] = upper[i].T
        assert np.array_equal(grid.reshape(2, n * n, n * n), h.entries)
        assert np.array_equal(h.entries, h.entries.transpose(0, 2, 1))
        oracle = two_mode_oracle(n, *coefficients)
        scale = max(1.0, np.max(np.abs(oracle)))
        for block, sign in zip(h.entries, PARITY_SIGNS):
            idx = _parity_sector(n, sign)
            assert np.max(np.abs(block - oracle[np.ix_(idx, idx)])) <= 16 * np.finfo(float).eps * scale


class TestSingleModeJT:
    def test_decoupled_ground_energy(self):
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=1e-12, k_2=1e-12, N=8)
        w = np.linalg.eigvalsh(single_mode_jt(p))
        assert w[0] == pytest.approx(-0.5, abs=1e-9)

    def test_weak_coupling_second_order_shift(self):
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=0.02, k_2=0.02, N=12)
        omega_p, _, g_p, _, _ = rotated_coefficients(p)
        w = np.linalg.eigvalsh(single_mode_jt(p))
        perturbative = -0.5 - g_p**2 / (omega_p + 1.0)
        assert w[0] == pytest.approx(perturbative, abs=1e-6)

    def test_matches_b1_sector_when_b2_decouples(self):
        # c = 0 and J = 0: the two-mode transformed Hamiltonian restricted to
        # the B2 vacuum equals the single-mode model
        p = SystemParams(omega_1=1.0, omega_2=1.0, k_1=0.3, k_2=0.3, J=0.0, N=4)
        full = full_matrix(build_transformed_hamiltonian(p))
        single = single_mode_jt(p)
        n = p.N
        sel = [s * n * n + n1 * n + 0 for s in (0, 1) for n1 in range(n)]
        assert np.max(np.abs(full[np.ix_(sel, sel)] - single)) < 1e-14


def readme_ratio(x: float, scale: float) -> float:
    """|x|/scale; a vanishing scale leaves 0 for x = 0 and inf otherwise."""
    if scale > 0:
        return abs(x) / scale
    return 0.0 if x == 0.0 else math.inf


# model_points with one or both mode frequencies set to zero, where g_2 or
# g_p vanishes and the ratios take their zero-scale values
zero_frequency_points = st.one_of(
    model_points.map(lambda p: replace(p, omega_2=0.0)),
    model_points.map(lambda p: replace(p, omega_1=0.0, omega_2=0.0)),
)


class TestValidity:
    @property_settings
    @given(st.one_of(model_points, zero_frequency_points))
    def test_matches_documented_formulas(self, p):
        # README: r1 = |k_p c|/g_p, r2 = |c + J(k2^2-k1^2)/k_p^2|/g_p, r3 = |J|/g_2
        kp2 = p.k_1**2 + p.k_2**2
        k_p = math.sqrt(kp2)
        c = (p.omega_1 - p.omega_2) * p.k_1 * p.k_2 / kp2
        g_p = (p.omega_1 * p.k_1**2 + p.omega_2 * p.k_2**2) / kp2 * k_p
        r1 = readme_ratio(k_p * c, g_p)
        r2 = readme_ratio(c + p.J * (p.k_2**2 - p.k_1**2) / k_p**2, g_p)
        v = privileged_validity(p)
        assert (v["r1"], v["r2"], v["r3"]) == (r1, r2, readme_ratio(p.J, p.g_2))
        assert v["valid"] is (r1 <= VALIDITY_THRESHOLD and r2 <= VALIDITY_THRESHOLD)

    UNDEFINED = [
        SystemParams(omega_1=1, omega_2=1, k_1=0, k_2=0, J=0.1),
        # finite g_1 = 1e300, but omega_p = omega_1 k_1^2 / k_p^2 overflows
        SystemParams(omega_1=1e200, omega_2=1, k_1=1e100, k_2=0),
    ]

    @pytest.mark.parametrize("p", UNDEFINED)
    def test_undefined_rotation_gives_nan_ratios(self, p):
        v = privileged_validity(p)
        assert math.isnan(v["r1"]) and math.isnan(v["r2"]) and math.isnan(v["r3"])
        assert v["valid"] is None

    @pytest.mark.parametrize(
        "p", [SystemParams(omega_1=1.2, omega_2=0.6, k_1=0.5, k_2=0.25, J=0.01), *UNDEFINED])
    def test_keys_are_the_row_fields_it_fills(self, p):
        # run_point passes the dict to SweepRow as keywords
        keys = privileged_validity(p).keys()
        assert keys == {"r1", "r2", "r3", "valid"}
        assert keys <= {f.name for f in fields(SweepRow)}

    def test_zero_detuning_is_trivially_valid(self):
        p = SystemParams(omega_1=1, omega_2=1, k_1=0.3, k_2=0.3, J=0.0)
        v = privileged_validity(p)
        assert v["r1"] == 0.0 and v["r2"] == 0.0 and v["valid"]

    def test_strong_coupling_window_boundary(self):
        # symmetric couplings k_p = 0.1: the window closes at |Delta| = 0.1
        k = K_STRONG
        inside = SystemParams(omega_1=1.045, omega_2=0.955, k_1=k, k_2=k)
        outside = SystemParams(omega_1=1.055, omega_2=0.945, k_1=k, k_2=k)
        assert privileged_validity(inside)["valid"]
        assert not privileged_validity(outside)["valid"]

    def test_ultrastrong_window_boundary(self):
        k = 1 / math.sqrt(2)
        inside = SystemParams(omega_1=1.475, omega_2=0.525, k_1=k, k_2=k)
        outside = SystemParams(omega_1=1.525, omega_2=0.475, k_1=k, k_2=k)
        assert privileged_validity(inside)["valid"]
        assert not privileged_validity(outside)["valid"]

    def test_hopping_sweep_stays_valid(self):
        k = 1 / math.sqrt(2)
        for j in np.linspace(0, 0.1, 21):
            p = SystemParams(omega_1=0.2, omega_2=0.1, k_1=k, k_2=k, J=float(j))
            v = privileged_validity(p)
            assert v["valid"]
            assert v["r1"] <= VALIDITY_THRESHOLD and v["r2"] <= VALIDITY_THRESHOLD


def dense_rotation(p: SystemParams) -> np.ndarray:
    """W, whose column m1*N + m2 is |m1, m2> of the rotated modes over the lab Fock states:
    its row j is W^T e_j."""
    return mode_rotation_unitary(p).apply(np.eye(p.N * p.N))


def test_mode_rotation_unitary_on_low_quanta():
    p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=0.4, k_2=0.3, N=6)
    w = dense_rotation(p)
    # columns with few quanta are exactly orthonormal
    low = [m1 * p.N + m2 for m1 in range(3) for m2 in range(3)]
    assert w.dtype == np.float64
    g = w[:, low].T @ w[:, low]
    assert np.max(np.abs(g - np.eye(len(low)))) < 1e-12


@settings(deadline=None, database=None, derandomize=True)
@given(
    st.integers(2, 8),
    st.floats(1e-3, 2.0),
    st.floats(0.0, 2.0),
)
def test_mode_rotation_unitary_matches_kron_oracle(n, k_1, k_2):
    p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=k_1, k_2=k_2, N=n)
    w = dense_rotation(p)
    assert w.shape == (n * n, n * n) and w.dtype == np.float64
    assert np.max(np.abs(w - rotation_oracle(p))) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 9])
def test_mode_rotation_unitary_without_k2_flips_mode_2(n):
    # k_2 = 0: b1 = a1 and b2 = -a2, so |m1, m2> picks up (-1)^m2
    p = SystemParams(omega_1=1.0, omega_2=0.5, k_1=0.3, k_2=0.0, N=n)
    m2 = np.arange(n * n) % n
    expected = np.diag((-1.0) ** m2)
    assert np.max(np.abs(dense_rotation(p) - expected)) < 1e-14


class TestShellRotation:
    DIRECTIONS = [(0.7071068, 0.7071068), (0.3, 1.9), (1.0, 1e-3), (1e-3, 1.0)]

    @pytest.mark.parametrize("k_1, k_2", DIRECTIONS)
    def test_full_shells_are_orthogonal_to_rounding(self, k_1, k_2):
        # shell n < N holds all n + 1 states of n quanta, so its block is orthogonal
        n = 80
        blocks = mode_rotation_unitary(SystemParams(1.0, 0.5, k_1, k_2, N=n)).blocks
        assert blocks.shape == (2 * n - 1, n, n)
        eps = np.finfo(float).eps
        for shell in range(n):
            b = blocks[shell, :shell + 1, :shell + 1]
            assert np.max(np.abs(b.T @ b - np.eye(shell + 1))) <= 8 * (shell + 1) * eps, shell

    @pytest.mark.parametrize("n", [2, 7, 24])
    @pytest.mark.parametrize("k_1, k_2", DIRECTIONS)
    def test_truncation_is_the_in_grid_part_of_a_larger_grid(self, n, k_1, k_2):
        small = mode_rotation_unitary(SystemParams(1.0, 0.5, k_1, k_2, N=n)).blocks
        large = mode_rotation_unitary(SystemParams(1.0, 0.5, k_1, k_2, N=2 * n)).blocks
        shell, n1 = np.arange(2 * n - 1)[:, None], np.arange(n)
        on_grid = (shell - n1 >= 0) & (shell - n1 < n)  # lab (n1, shell - n1) on the N grid
        kept = on_grid[:, :, None] & on_grid[:, None, :]
        np.testing.assert_array_equal(small, np.where(kept, large[:2 * n - 1, :n, :n], 0.0))

    @pytest.mark.parametrize("length", [17, 12])
    def test_apply_refuses_a_vector_off_the_grid(self, length):
        # N^2 + 1 is the length the gather's padded zero slot would accept without the check
        rotation = mode_rotation_unitary(SystemParams(1.0, 0.5, 0.3, 0.4, N=4))
        with pytest.raises(ValueError, match=rf"shape \({length},\) are not on the 4 x 4 grid"):
            rotation.apply(np.ones(length))



def test_state_vector_refuses_length_that_does_not_match_factor_dims():
    with pytest.raises(ValueError, match=r"does not match factor_dims \(2, 3, 3\)"):
        StateVector(np.zeros(17), (2, 3, 3))


@pytest.mark.parametrize("dim", [2.7, math.nan, math.inf, None, 0, -2])
def test_state_vector_refuses_a_factor_dim_that_is_not_a_positive_integer(dim):
    pattern = f"^factor_dims entry must be a positive integer, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=pattern):
        StateVector(np.zeros(8), (2, dim, 2))


def test_state_vector_stores_integral_factor_dims_as_int():
    dims = StateVector(np.zeros(8), (2.0, np.int64(2), 2)).factor_dims
    assert dims == (2, 2, 2) and all(type(d) is int for d in dims)



def test_annihilation_n2_matrix():
    a = annihilation(2)
    assert a.dtype == np.float64
    assert np.array_equal(a, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_annihilation_sqrt2_entry():
    a = annihilation(3)
    assert a[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_number_operator_diagonal():
    a = annihilation(10)
    n = a.T @ a
    assert np.allclose(np.diag(n), np.arange(10))
    assert np.allclose(n, np.diag(np.arange(10.0)))


def test_annihilation_rejects_small_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        annihilation(1)


def test_embed_qubit_diagonal_sign():
    # flat index 5 with N=2 is (s=1, n1=0, n2=1): sigma_z acts as +1 there
    sz = embed(SZ, "S", 2)
    vec = np.zeros(8)
    vec[5] = 1.0
    assert np.allclose(sz @ vec, vec)
    vec0 = np.zeros(8)
    vec0[1] = 1.0  # (s=0, n1=0, n2=1) -> eigenvalue -1
    assert np.allclose(sz @ vec0, -vec0)


def test_embed_mode2_ladder_action():
    # a on M2 maps |s, n1, 2> to sqrt(2)|s, n1, 1>
    a2 = embed(annihilation(3), "M2", 3)
    src = np.zeros(18)
    src[1 * 9 + 2 * 3 + 2] = 1.0  # (s=1, n1=2, n2=2)
    out = a2 @ src
    expect = np.zeros(18)
    expect[1 * 9 + 2 * 3 + 1] = math.sqrt(2)
    assert np.allclose(out, expect)


def test_embedded_slots_commute_exactly():
    a1 = embed(annihilation(4), "M1", 4)
    a2d = embed(annihilation(4).T, "M2", 4)
    comm = a1 @ a2d - a2d @ a1
    assert np.max(np.abs(comm)) == 0.0


def test_embed_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="slot"):
        embed(annihilation(3), "S", 3)
    with pytest.raises(ValueError, match="slot"):
        embed(SX, "M1", 3)


def test_embed_rejects_wrong_shape():
    # the right size, but a vector or a non-square matrix
    with pytest.raises(ValueError, match="slot"):
        embed(np.ones(2), "S", 3)
    with pytest.raises(ValueError, match="slot"):
        embed(np.ones((3, 2)), "M1", 3)


def test_embed_rejects_unknown_slot():
    with pytest.raises(ValueError):
        embed(SX, "Q", 3)


def test_truncated_commutator_closed_form():
    # [a, a+] = I - N |N-1><N-1| on the truncated ladder, exactly
    n = 7
    a = annihilation(n)
    comm = a @ a.T - a.T @ a
    expect = np.eye(n)
    expect[n - 1, n - 1] -= n
    # sqrt(n)**2 reintroduces one ulp of rounding on the diagonal
    assert np.max(np.abs(comm - expect)) < 1e-14


def test_embed_preserves_hermiticity_and_linearity():
    n = 3
    emb = embed(np.diag(np.arange(float(n))), "M1", n)
    assert emb.dtype == np.float64
    assert np.max(np.abs(emb - emb.T)) == 0.0
    a = annihilation(n)
    lhs = embed(2.5 * a, "M2", n)
    rhs = 2.5 * embed(a, "M2", n)
    assert np.allclose(lhs, rhs, atol=0, rtol=0)


def test_parity_operator_diagonal_signs():
    n = 3
    pi = parity_operator(n)
    assert pi.dtype == np.float64
    diag = np.diag(pi)
    for s in (0, 1):
        for n1 in range(n):
            for n2 in range(n):
                idx = s * n * n + n1 * n + n2
                expect = (1 if s else -1) * (-1) ** (n1 + n2)
                assert diag[idx] == expect


@pytest.mark.parametrize("n", [2, 3, 10])
def test_parity_sector_matches_parity_operator(n):
    # the kron-built oracle, not parity_operator, which reads _sector_sigma_z itself
    oracle = parity_oracle(n)
    assert np.array_equal(parity_operator(n), oracle)
    diag = np.diag(oracle)
    plus = _parity_sector(n, 1)
    minus = _parity_sector(n, -1)
    assert len(plus) == len(minus) == n * n
    assert np.array_equal(np.sort(np.concatenate((plus, minus))), np.arange(2 * n * n))
    expect = -np.ones(2 * n * n)
    expect[plus] = 1.0
    assert np.array_equal(diag, expect)
    # each sector's sigma_z is that of the qubit level its flat indices hold
    sz = np.diag(embed(SZ, "S", n))
    for sign, idx in ((1, plus), (-1, minus)):
        assert np.array_equal(_sector_sigma_z(n, sign), sz[idx])

