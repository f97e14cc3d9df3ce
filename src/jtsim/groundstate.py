"""Dense Hermitian diagonalization and ground-state extraction.

This module is the solver only: basis dispatch, ``eig_hermitian`` and
``ground_state``.  Entanglement, sweeps and the cutoff convergence ladder
live in the modules above it.  Every model Hamiltonian is real symmetric,
so ground states are real; the sign is fixed by making the
largest-magnitude amplitude positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import OperatorMatrix, StateVector, parity_operator
from .model import (
    SystemParams,
    build_lab_hamiltonian,
    build_transformed_hamiltonian,
)

DEGENERACY_TOL = 1e-10

BASES = ("lab", "transformed")


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: StateVector
    gap: float
    parity_expectation: float
    degenerate_flag: bool


def eig_hermitian(h: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian (real symmetric or complex) operator.

    Returns (eigenvalues ascending, eigenvector columns).  This is the one
    symmetry check on the operator path: inputs that deviate from
    Hermiticity by 1e-12 or more are refused.
    """
    m = h.entries
    dev = np.max(np.abs(m - m.conj().T))
    if dev >= 1e-12:
        raise ValueError(f"eig_hermitian requires a Hermitian operator; deviation {dev:.3e}")
    w, v = np.linalg.eigh(m)
    return w, v


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude positive (deterministic output)."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def build_hamiltonian(p: SystemParams, basis: str = "transformed") -> OperatorMatrix:
    """Dispatch to the lab or transformed builder.

    With k_1 = k_2 = 0 every mode rotation leaves the Hamiltonian (and the
    vacuum) invariant, so the transformed basis falls back to the lab
    builder instead of failing on the undefined rotation.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    if basis == "transformed" and p.k_1 == 0.0 and p.k_2 == 0.0:
        return build_lab_hamiltonian(p)
    if basis == "transformed":
        return build_transformed_hamiltonian(p)
    return build_lab_hamiltonian(p)


def ground_state(p: SystemParams, basis: str = "transformed") -> GroundStateResult:
    """Lowest eigenpair with gap, parity expectation and degeneracy flag."""
    h = build_hamiltonian(p, basis)
    w, v = eig_hermitian(h)
    vec = _fix_sign(v[:, 0])
    gap = float(w[1] - w[0])
    parity_diag = np.diag(parity_operator(p.N).entries)
    parity = float(np.sum(parity_diag * vec**2))
    return GroundStateResult(
        energy=float(w[0]),
        state=StateVector(vec, (2, p.N, p.N)),
        gap=gap,
        parity_expectation=parity,
        degenerate_flag=gap < DEGENERACY_TOL,
    )
