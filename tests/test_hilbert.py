import math

import numpy as np
import pytest

from jtsim.hilbert import (
    OperatorMatrix,
    _parity_sector,
    annihilation,
    embed,
    mode_parity,
    number,
    parity_operator,
    pauli,
)


def test_annihilation_n2_matrix():
    a = annihilation(2)
    assert a.entries.dtype == np.float64
    assert np.array_equal(a.entries, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_annihilation_sqrt2_entry():
    a = annihilation(3)
    assert a.entries[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_number_operator_diagonal():
    a = annihilation(10)
    n = a.entries.T @ a.entries
    assert np.allclose(np.diag(n), np.arange(10))
    assert np.allclose(n, number(10).entries)


def test_annihilation_rejects_small_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        annihilation(1)


def test_pauli_z_matches_level_ordering():
    assert np.array_equal(pauli("z").entries, np.diag([-1.0, 1.0]))


def test_pauli_x_off_diagonal():
    assert np.array_equal(pauli("x").entries, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pauli_x_squares_to_identity():
    sx = pauli("x").entries
    assert np.array_equal(sx @ sx, np.eye(2))


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("y")


def test_embed_qubit_diagonal_sign():
    # flat index 5 with N=2 is (s=1, n1=0, n2=1): sigma_z acts as +1 there
    sz = embed(pauli("z"), "S", 2)
    vec = np.zeros(8)
    vec[5] = 1.0
    assert np.allclose(sz.entries @ vec, vec)
    vec0 = np.zeros(8)
    vec0[1] = 1.0  # (s=0, n1=0, n2=1) -> eigenvalue -1
    assert np.allclose(sz.entries @ vec0, -vec0)


def test_embed_mode2_ladder_action():
    # a on M2 maps |s, n1, 2> to sqrt(2)|s, n1, 1>
    a2 = embed(annihilation(3), "M2", 3)
    src = np.zeros(18)
    src[1 * 9 + 2 * 3 + 2] = 1.0  # (s=1, n1=2, n2=2)
    out = a2.entries @ src
    expect = np.zeros(18)
    expect[1 * 9 + 2 * 3 + 1] = math.sqrt(2)
    assert np.allclose(out, expect)


def test_embedded_slots_commute_exactly():
    a1 = embed(annihilation(4), "M1", 4).entries
    a2d = embed(OperatorMatrix(annihilation(4).entries.T, (4,)), "M2", 4).entries
    comm = a1 @ a2d - a2d @ a1
    assert np.max(np.abs(comm)) == 0.0


def test_embed_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="slot"):
        embed(annihilation(3), "S", 3)
    with pytest.raises(ValueError, match="slot"):
        embed(pauli("x"), "M1", 3)


def test_embed_rejects_unknown_slot():
    with pytest.raises(ValueError):
        embed(pauli("x"), "Q", 3)


def test_truncated_commutator_closed_form():
    # [a, a+] = I - N |N-1><N-1| on the truncated ladder, exactly
    n = 7
    a = annihilation(n).entries
    comm = a @ a.T - a.T @ a
    expect = np.eye(n)
    expect[n - 1, n - 1] -= n
    # sqrt(n)**2 reintroduces one ulp of rounding on the diagonal
    assert np.max(np.abs(comm - expect)) < 1e-14


def test_embed_preserves_hermiticity_and_linearity():
    n = 3
    h = number(n)
    emb = embed(h, "M1", n)
    assert emb.entries.dtype == np.float64
    assert np.max(np.abs(emb.entries - emb.entries.T)) == 0.0
    a = annihilation(n)
    lhs = embed(OperatorMatrix(2.5 * a.entries, (n,)), "M2", n).entries
    rhs = 2.5 * embed(a, "M2", n).entries
    assert np.allclose(lhs, rhs, atol=0, rtol=0)


def test_operator_keeps_given_dtype():
    real = OperatorMatrix(np.eye(2), (2,))
    cplx = OperatorMatrix(np.array([[0, -1j], [1j, 0]]), (2,))
    assert real.entries.dtype == np.float64
    assert cplx.entries.dtype == np.complex128


def test_factor_dims_must_match_entries():
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(4, dtype=complex), (2, 3))


def test_parity_operator_diagonal_signs():
    n = 3
    pi = parity_operator(n)
    assert pi.entries.dtype == np.float64
    diag = np.diag(pi.entries)
    for s in (0, 1):
        for n1 in range(n):
            for n2 in range(n):
                idx = s * n * n + n1 * n + n2
                expect = (1 if s else -1) * (-1) ** (n1 + n2)
                assert diag[idx] == expect


@pytest.mark.parametrize("n", [2, 3, 10])
def test_parity_sector_matches_parity_operator(n):
    diag = np.diag(parity_operator(n).entries)
    plus = _parity_sector(n, 1)
    minus = _parity_sector(n, -1)
    assert len(plus) == len(minus) == n * n
    assert np.array_equal(np.sort(np.concatenate((plus, minus))), np.arange(2 * n * n))
    expect = -np.ones(2 * n * n)
    expect[plus] = 1.0
    assert np.array_equal(diag, expect)


def test_mode_parity_and_identity():
    assert np.array_equal(np.diag(mode_parity(4).entries), [1, -1, 1, -1])
    assert OperatorMatrix(np.eye(6), (2, 3)).dim_total == 6
