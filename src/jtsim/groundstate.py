"""Ground states from the parity blocks: eigenvalues per sector, one vector by inverse iteration.

This module is the solver only: ``eig_hermitian`` and ``ground_state``,
which picks the builder for its basis.  What the transformed basis means
where the mode rotation is undefined (k_1 = k_2 = 0) is decided in
:mod:`jtsim.model`.  Entanglement, sweeps and the cutoff convergence ladder
live in the modules above it.  Every model Hamiltonian is real symmetric,
so ground states are real; the sign is fixed by making the
largest-magnitude amplitude positive.

The builders return the two N^2 x N^2 parity blocks of H.  Their
eigenvalues give the energy, the gap and the lower block, whose ground
vector alone is found by inverse iteration: it has definite parity, and on
an exact tie between the blocks the Pi = +1 sector wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PARITY_SIGNS, StateVector, SystemParams, _parity_sector
from .model import build_lab_hamiltonian, build_transformed_hamiltonian
# parity_operator is unused here but stays importable as
# jtsim.groundstate.parity_operator, where the perfbench layer tracer looks it up.
from .model import parity_operator  # noqa: F401

DEGENERACY_TOL = 1e-10

# Inverse iteration shifts lambda_0 down by SHIFT * (lambda_1 - lambda_0) and stops at
# ||H x - lambda_0 x|| < RESIDUAL_TOL * max(1, |lambda_0|).  A gap below SHIFT * max(1,
# |lambda_0|), or MAX_SOLVES solves without that, takes the vector from a full eigh.
SHIFT = 1e-8
RESIDUAL_TOL = 1e-12
MAX_SOLVES = 4

BASES = ("lab", "transformed")


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: StateVector
    gap: float
    degenerate_flag: bool
    residual: float


def eig_hermitian(m: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a Hermitian (real symmetric or complex) matrix.

    Returns (eigenvalues ascending, eigenvector columns, or None if not
    ``vectors``).  This is the one check on the operator path: inputs that
    are not square matrices, that deviate from Hermiticity by 1e-12 or more,
    or that hold a non-finite entry are refused.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eig_hermitian needs a square matrix; got shape {m.shape}")
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs(m - m.conj().T))
    # A non-finite entry makes dev nan or inf, which fails the comparison.
    if not dev < 1e-12:
        raise ValueError(f"eig_hermitian needs a finite Hermitian operator; deviation {dev:.3e}")
    return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude positive (deterministic output)."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def _norm(v: np.ndarray) -> float:
    """2-norm taken on v / max|v|, so that its sum of squares cannot over- or underflow."""
    top = np.max(np.abs(v))
    return float(top * np.linalg.norm(v / top)) if top > 0 else 0.0


def _lowest_vector(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit eigenvector of ``block`` for its lowest eigenvalue w[0] (see SHIFT)."""
    scale = max(1.0, abs(w[0]))
    if w[1] - w[0] >= SHIFT * scale:
        shifted = block - (w[0] - SHIFT * (w[1] - w[0])) * np.eye(len(block))
        x = np.ones(len(block))
        for _ in range(MAX_SOLVES):
            x = np.linalg.solve(shifted, x)
            x /= _norm(x)
            if _norm(block @ x - w[0] * x) < RESIDUAL_TOL * scale:
                return x
    return eig_hermitian(block)[1][:, 0]


def ground_state(p: SystemParams, basis: str = "transformed") -> GroundStateResult:
    """Lowest eigenpair with gap, parity and degeneracy flag, solved per parity sector.

    ``gap`` is the distance to the next level of either sector, so a
    degeneracy across the sectors is flagged like one inside a sector.
    ``residual`` is ||H psi - E psi|| of the returned state.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
    spectra = [eig_hermitian(block, vectors=False)[0] for block in h.entries]
    # Strict <: on an exact tie the first sector, Pi = +1, wins.
    k = 1 if spectra[1][0] < spectra[0][0] else 0
    w, block = spectra[k], h.entries[k]
    lowest = np.sort(np.concatenate([w_s[:2] for w_s in spectra]))
    gap = float(lowest[1] - lowest[0])
    ground = _fix_sign(_lowest_vector(block, w))
    vec = np.zeros(2 * p.N * p.N)
    vec[_parity_sector(p.N, PARITY_SIGNS[k])] = ground
    return GroundStateResult(
        energy=float(w[0]),
        state=StateVector(vec, h.factor_dims),
        gap=gap,
        degenerate_flag=gap < DEGENERACY_TOL,
        residual=_norm(block @ ground - w[0] * ground),
    )
