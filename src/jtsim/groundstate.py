"""Dense Hermitian diagonalization and ground-state extraction.

This module is the solver only: ``eig_hermitian`` and ``ground_state``,
which picks the builder for its basis.  What the transformed basis means
where the mode rotation is undefined (k_1 = k_2 = 0) is decided in
:mod:`jtsim.model`.  Entanglement, sweeps and the cutoff convergence ladder
live in the modules above it.  Every model Hamiltonian is real symmetric,
so ground states are real; the sign is fixed by making the
largest-magnitude amplitude positive.

The builders return the two N^2 x N^2 parity blocks of H and
``ground_state`` passes each block, a plain array, to ``eig_hermitian``.
The ground state is the lowest vector of the lower block: it has definite
parity, and on an exact tie between the blocks the Pi = +1 sector wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import PARITY_SIGNS, ParityBlocks, StateVector, _parity_sector
# parity_operator is unused here but stays importable as
# jtsim.groundstate.parity_operator, where the perfbench layer tracer looks it up.
from .hilbert import parity_operator  # noqa: F401
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


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian (real symmetric or complex) matrix.

    Returns (eigenvalues ascending, eigenvector columns).  This is the one
    check on the operator path: inputs that are not square matrices, that
    deviate from Hermiticity by 1e-12 or more, or that hold a non-finite
    entry are refused.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eig_hermitian needs a square matrix; got shape {m.shape}")
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs(m - m.conj().T))
    # A non-finite entry makes dev nan or inf, which fails the comparison.
    if not dev < 1e-12:
        raise ValueError(f"eig_hermitian needs a finite Hermitian operator; deviation {dev:.3e}")
    w, v = np.linalg.eigh(m)
    return w, v


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude positive (deterministic output)."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def ground_state(p: SystemParams, basis: str = "transformed") -> GroundStateResult:
    """Lowest eigenpair with gap, parity and degeneracy flag, solved per parity sector.

    ``gap`` is the distance to the next level of either sector, so a
    degeneracy across the sectors is flagged like one inside a sector.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
    spectra = [eig_hermitian(block) for block in h.entries]
    # Strict <: on an exact tie the first sector, Pi = +1, wins.
    k = 1 if spectra[1][0][0] < spectra[0][0][0] else 0
    sign = PARITY_SIGNS[k]
    w, v = spectra[k]
    lowest = np.sort(np.concatenate([w_s[:2] for w_s, _ in spectra]))
    gap = float(lowest[1] - lowest[0])
    vec = np.zeros(2 * p.N * p.N)
    vec[_parity_sector(p.N, sign)] = _fix_sign(v[:, 0])
    return GroundStateResult(
        energy=float(w[0]),
        state=StateVector(vec, h.factor_dims),
        gap=gap,
        parity_expectation=float(sign),
        degenerate_flag=gap < DEGENERACY_TOL,
    )
