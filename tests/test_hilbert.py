import math

import numpy as np
import pytest

from jtsim.hilbert import (
    _parity_sector,
    _sector_sigma_z,
    annihilation,
    embed,
    mode_parity,
    parity_operator,
    pauli,
)


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


def test_pauli_z_matches_level_ordering():
    assert np.array_equal(pauli("z"), np.diag([-1.0, 1.0]))


def test_pauli_x_off_diagonal():
    assert np.array_equal(pauli("x"), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pauli_x_squares_to_identity():
    sx = pauli("x")
    assert np.array_equal(sx @ sx, np.eye(2))


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("y")


def test_embed_qubit_diagonal_sign():
    # flat index 5 with N=2 is (s=1, n1=0, n2=1): sigma_z acts as +1 there
    sz = embed(pauli("z"), "S", 2)
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
        embed(pauli("x"), "M1", 3)


def test_embed_rejects_wrong_shape():
    # the right size, but a vector or a non-square matrix
    with pytest.raises(ValueError, match="slot"):
        embed(np.ones(2), "S", 3)
    with pytest.raises(ValueError, match="slot"):
        embed(np.ones((3, 2)), "M1", 3)


def test_embed_rejects_unknown_slot():
    with pytest.raises(ValueError):
        embed(pauli("x"), "Q", 3)


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
    diag = np.diag(parity_operator(n))
    plus = _parity_sector(n, 1)
    minus = _parity_sector(n, -1)
    assert len(plus) == len(minus) == n * n
    assert np.array_equal(np.sort(np.concatenate((plus, minus))), np.arange(2 * n * n))
    expect = -np.ones(2 * n * n)
    expect[plus] = 1.0
    assert np.array_equal(diag, expect)
    # each sector's sigma_z is that of the qubit level its flat indices hold
    sz = np.diag(embed(pauli("z"), "S", n))
    for sign, idx in ((1, plus), (-1, minus)):
        assert np.array_equal(_sector_sigma_z(n, sign), sz[idx])


def test_mode_parity_and_identity():
    assert np.array_equal(np.diag(mode_parity(4)), [1, -1, 1, -1])
