"""Dense Hermitian diagonalization and ground-state extraction.

Every model Hamiltonian is real symmetric, so ground states are real; the
sign is fixed by making the largest-magnitude amplitude positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    energy: float
    report: "EntanglementReport"  # noqa: F821 - resolved at runtime


def convergence_study(
    p: SystemParams, cutoffs, basis: str = "transformed"
) -> list[ConvergenceRow]:
    """Ground energy and entanglement report at each Fock cutoff.

    cutoffs must be ascending, each >= 2.  Use successive_differences()
    on the result to see how fast the numbers settle.
    """
    from .entanglement import report_from_state

    cutoffs = [int(n) for n in cutoffs]
    if any(n < 2 for n in cutoffs):
        raise ValueError("cutoff must be >= 2")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly ascending")
    rows = []
    for n in cutoffs:
        pn = replace(p, N=n)
        gs = ground_state(pn, basis)
        rep = report_from_state(gs.state, degeneracy_caveat=gs.degenerate_flag)
        rows.append(ConvergenceRow(N=n, energy=gs.energy, report=rep))
    return rows


def successive_differences(rows: list[ConvergenceRow]) -> list[dict]:
    """Absolute changes between consecutive convergence rows.

    Each entry compares row i to row i+1 and holds the energy change plus
    the largest change over the four negativities.
    """
    diffs = []
    for a, b in zip(rows, rows[1:]):
        fields = ("en_s_b1b2", "en_s_b1", "en_s_b2", "en_b1_b2")
        max_en = max(
            abs(getattr(b.report, f) - getattr(a.report, f)) for f in fields
        )
        diffs.append(
            {
                "N_from": a.N,
                "N_to": b.N,
                "d_energy": abs(b.energy - a.energy),
                "d_negativity_max": max_en,
            }
        )
    return diffs
