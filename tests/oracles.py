"""Independent reference implementations the package is tested against.

Each oracle builds its operator from explicit basis states or kron products,
not from the package's parity-sector layout, so a test that compares the
two checks that layout.  ``annihilation`` is the truncated ladder operator
the kron oracles are built from.  ``model_points`` and ``property_settings``
are the hypothesis strategy and settings the property tests share.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import settings, strategies as st

from jtsim.model import (
    PARITY_SIGNS, ParityBlocks, StateVector, SystemParams, _check_cutoff, _parity_sector,
)

# Qubit Pauli operators; index 0 is the lower level (sigma_z = -1).
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([-1.0, 1.0])


def annihilation(cutoff: int) -> np.ndarray:
    """Bosonic annihilation operator a with a|n> = sqrt(n)|n-1>, truncated at cutoff."""
    n = _check_cutoff(cutoff)
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


def parity_oracle(n: int) -> np.ndarray:
    """Total parity sigma_z (x) (-1)^n1 (x) (-1)^n2 as a kron product."""
    mode_parity = np.diag((-1.0) ** np.arange(n))
    return np.kron(np.kron(SZ, mode_parity), mode_parity)


def two_mode_oracle(n, w1, w2, g1, g2, hop) -> np.ndarray:
    """Term-by-term assembly over explicit basis states (independent of the builders).

    H = 1/2 sz + w1 n1 + w2 n2 + (g1 x1 + g2 x2) sx + hop (a1^T a2 + a2^T a1).
    """
    dim = 2 * n * n
    h = np.zeros((dim, dim))

    def idx(s, n1, n2):
        return s * n * n + n1 * n + n2

    for s in (0, 1):
        for n1 in range(n):
            for n2 in range(n):
                i = idx(s, n1, n2)
                h[i, i] += 0.5 * (1 if s else -1)
                h[i, i] += w1 * n1 + w2 * n2
                f = 1 - s  # sigma_x flips the qubit
                if n1 + 1 < n:
                    h[idx(f, n1 + 1, n2), i] += g1 * math.sqrt(n1 + 1)
                if n1 >= 1:
                    h[idx(f, n1 - 1, n2), i] += g1 * math.sqrt(n1)
                if n2 + 1 < n:
                    h[idx(f, n1, n2 + 1), i] += g2 * math.sqrt(n2 + 1)
                if n2 >= 1:
                    h[idx(f, n1, n2 - 1), i] += g2 * math.sqrt(n2)
                if n1 + 1 < n and n2 >= 1:
                    h[idx(s, n1 + 1, n2 - 1), i] += hop * math.sqrt((n1 + 1) * n2)
                if n1 >= 1 and n2 + 1 < n:
                    h[idx(s, n1 - 1, n2 + 1), i] += hop * math.sqrt(n1 * (n2 + 1))
    return h


def rotation_oracle(p: SystemParams) -> np.ndarray:
    """Rotated-mode Fock states built column by column with kron'd ladder operators.

    Column (m1*N + m2) is (b1^T)^m1 (b2^T)^m2 |0, 0> / sqrt(m1! m2!) over the
    lab Fock states, with b1 = (k1 a1 + k2 a2)/k_p and b2 = (k2 a1 - k1 a2)/k_p
    as N^2 x N^2 matrices.
    """
    k_p = math.hypot(p.k_1, p.k_2)
    n = p.N
    ad = annihilation(n).T
    eye = np.eye(n)
    a1d = np.kron(ad, eye)
    a2d = np.kron(eye, ad)
    b1d = (p.k_1 * a1d + p.k_2 * a2d) / k_p
    b2d = (p.k_2 * a1d - p.k_1 * a2d) / k_p

    w = np.zeros((n * n, n * n))
    w[0, 0] = 1.0
    for m2 in range(1, n):
        w[:, m2] = b2d @ w[:, m2 - 1] / math.sqrt(m2)
    for m1 in range(1, n):
        for m2 in range(n):
            w[:, m1 * n + m2] = b1d @ w[:, (m1 - 1) * n + m2] / math.sqrt(m1)
    return w


def full_matrix(blocks: ParityBlocks) -> np.ndarray:
    """Scatter the two parity blocks into the full 2N^2 x 2N^2 matrix."""
    n = blocks.diagonal.shape[1]
    h = np.zeros((2 * n * n, 2 * n * n))
    for sign, block in zip(PARITY_SIGNS, blocks.entries):
        idx = _parity_sector(n, sign)
        h[np.ix_(idx, idx)] = block
    return h


def rotated_coefficients(p: SystemParams) -> tuple:
    """(w1, w2, g1, g2, hop) of the rotated-mode operator, from the module docs."""
    k1, k2, kp2 = p.k_1, p.k_2, p.k_1**2 + p.k_2**2
    omega_p = (p.omega_1 * k1**2 + p.omega_2 * k2**2) / kp2
    omega_p_tilde = (p.omega_1 * k2**2 + p.omega_2 * k1**2) / kp2
    c = (p.omega_1 - p.omega_2) * k1 * k2 / kp2
    shift = 2 * p.J * k1 * k2 / kp2
    return (
        omega_p + shift,
        omega_p_tilde - shift,
        omega_p * math.sqrt(kp2),
        c * math.sqrt(kp2),
        c + p.J * (k2**2 - k1**2) / kp2,
    )


def single_mode_jt(p: SystemParams) -> np.ndarray:
    """Privileged-mode-only Jahn-Teller Hamiltonian on the (qubit, mode) space.

    H = 1/2 sz + omega_p b^T b + g_p (b + b^T) sx, a diagnostic baseline
    for the two-mode builders; omega_p and g_p are w1 and g1 at J = 0.
    """
    omega_p, _, g_p, _, _ = rotated_coefficients(replace(p, J=0.0))
    n = p.N
    eye_m = np.eye(n)
    sz = np.kron(SZ, eye_m)
    sx = np.kron(SX, eye_m)
    b = np.kron(np.eye(2), annihilation(n))
    h = 0.5 * sz
    h += omega_p * (b.T @ b)
    h += g_p * (b + b.T) @ sx
    return h


def perturbative_state(p: SystemParams, order: int, n: int = 6) -> StateVector:
    """Rayleigh-Schroedinger ground state of the rotated-mode operator to ``order`` 1 or 2,
    normalized, on a (2, n, n) grid; no solver and no cutoff question.

    H0 = 1/2 sz + w1 n1 + w2 n2 + hop (b1^T b2 + b2^T b1) keeps |down, 0, 0> with E0 = -1/2,
    and V = (g1 x1 + g2 x2) sx.  With R = Q (E0 - H0)^-1 Q the reduced resolvent, order 1 adds
    psi1 = R V |0>, order 2 also R V psi1 - |psi1|^2 / 2 |0> (<0|V|0> = 0).  H0 keeps
    n1 + n2, and order 2 reaches two quanta, so n >= 3 makes the grid exact.
    """
    w1, w2, g1, g2, hop = rotated_coefficients(p)
    eye = np.eye(n)
    b1, b2 = np.kron(annihilation(n), eye), np.kron(eye, annihilation(n))
    modes = w1 * b1.T @ b1 + w2 * b2.T @ b2 + hop * (b1.T @ b2 + b2.T @ b1)
    h0 = np.kron(0.5 * SZ, np.eye(n * n)) + np.kron(np.eye(2), modes)
    v = np.kron(SX, g1 * (b1 + b1.T) + g2 * (b2 + b2.T))
    ground = np.eye(2 * n * n)[0]
    # (E0 - H0 + P)^-1 = R + P for the projector P = |0><0|, since H0 |0> = E0 |0>
    projector = np.outer(ground, ground)
    r = np.linalg.inv(-0.5 * np.eye(2 * n * n) - h0 + projector) - projector
    psi1 = r @ v @ ground
    state = ground + psi1
    if order == 2:
        state += r @ v @ psi1 - 0.5 * (psi1 @ psi1) * ground
    return StateVector(state / np.linalg.norm(state), (2, n, n))


# Random model points for the property tests; frequencies stay above zero
# (a zero-frequency mode only adds ground_state's warning) and k_1 > 0 keeps the
# mode rotation defined.  A draw may have J^2 > omega_1 omega_2, where H has
# no ground state (ROADMAP item 10); the properties hold at a fixed cutoff all
# the same.
model_points = st.builds(
    SystemParams,
    omega_1=st.floats(0.01, 2.0),
    omega_2=st.floats(0.01, 2.0),
    k_1=st.floats(0.01, 1.5),
    k_2=st.floats(0.0, 1.5),
    J=st.floats(-0.5, 0.5),
    N=st.integers(2, 5),
)
property_settings = settings(deadline=None, database=None, derandomize=True)
