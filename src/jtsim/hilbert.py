"""Truncated bosonic and qubit operators on a fixed tensor-product layout.

Basis-ordering contract used by every module in this package: the tensor
order is (qubit, mode 1, mode 2), row-major, so a basis state |s, n1, n2>
sits at flat index  s*N^2 + n1*N + n2  with s in {0, 1} and n_i in
{0 .. N-1}.  Qubit index 0 is the lower level (sigma_z eigenvalue -1),
index 1 the upper level (+1).  After the mode rotation the same layout
holds with (qubit, privileged mode, disadvantaged mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLOTS = ("S", "M1", "M2")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square matrix with its tensor-factor dimensions.

    The entries keep the dtype they are given: every model operator is real
    (float64), general complex matrices stay complex.
    """

    entries: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        entries = np.asarray(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        dim = math.prod(self.factor_dims)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match factor_dims "
                f"{self.factor_dims} (total {dim})"
            )

    @property
    def dim_total(self) -> int:
        return math.prod(self.factor_dims)


@dataclass(frozen=True)
class StateVector:
    """Amplitude vector over the same tensor-factor layout (dtype kept as given)."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        if amps.shape != (math.prod(self.factor_dims),):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"factor_dims {self.factor_dims}"
            )

    @property
    def dim_total(self) -> int:
        return math.prod(self.factor_dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_cutoff(cutoff: int) -> int:
    if int(cutoff) != cutoff or cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    return int(cutoff)


def annihilation(cutoff: int) -> OperatorMatrix:
    """Bosonic annihilation operator a with a|n> = sqrt(n)|n-1>, truncated at cutoff."""
    n = _check_cutoff(cutoff)
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return OperatorMatrix(a, (n,))


def number(cutoff: int) -> OperatorMatrix:
    n = _check_cutoff(cutoff)
    return OperatorMatrix(np.diag(np.arange(n, dtype=float)), (n,))


def pauli(which: str) -> OperatorMatrix:
    """Pauli operator on the qubit factor; sigma_z = diag(-1, +1), sigma_x off-diagonal."""
    if which == "z":
        m = np.diag([-1.0, 1.0])
    elif which == "x":
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        raise ValueError(f"unknown Pauli axis {which!r}; expected 'x' or 'z'")
    return OperatorMatrix(m, (2,))


def embed(op: OperatorMatrix, slot: str, cutoff: int) -> OperatorMatrix:
    """Lift a single-factor operator to the full (qubit, mode1, mode2) space.

    slot selects the tensor factor: "S" for the qubit, "M1"/"M2" for the
    modes.  The result acts as identity on the other two factors and has
    factor_dims (2, cutoff, cutoff).
    """
    n = _check_cutoff(cutoff)
    if slot not in SLOTS:
        raise ValueError(f"unknown slot {slot!r}; expected one of {SLOTS}")
    expected = 2 if slot == "S" else n
    if op.dim_total != expected:
        raise ValueError(
            f"operator of dimension {op.dim_total} does not fit slot {slot} "
            f"(expected {expected})"
        )
    eye_q = np.eye(2)
    eye_m = np.eye(n)
    parts = {
        "S": (op.entries, eye_m, eye_m),
        "M1": (eye_q, op.entries, eye_m),
        "M2": (eye_q, eye_m, op.entries),
    }[slot]
    full = np.kron(np.kron(parts[0], parts[1]), parts[2])
    return OperatorMatrix(full, (2, n, n))


def mode_parity(cutoff: int) -> OperatorMatrix:
    """Photon-number parity (-1)^n on a single mode."""
    n = _check_cutoff(cutoff)
    return OperatorMatrix(np.diag([(-1.0) ** k for k in range(n)]), (n,))


def parity_operator(cutoff: int) -> OperatorMatrix:
    """Total parity sigma_z (x) (-1)^(n1+n2); commutes with every model Hamiltonian."""
    sz = pauli("z").entries
    pm = mode_parity(cutoff).entries
    full = np.kron(np.kron(sz, pm), pm)
    return OperatorMatrix(full, (2, cutoff, cutoff))


def _parity_sector(cutoff: int, sign: int) -> np.ndarray:
    """Flat indices of the Pi = sign sector, one per mode pair (n1, n2) in grid order.

    For each (n1, n2) exactly one qubit level s gives sigma_z (-1)^(n1+n2)
    = sign, so the sector has N^2 states and index k = n1*N + n2 of a
    sector block maps to flat index s*N^2 + k of the full space.
    """
    grid = np.arange(cutoff * cutoff)
    mode_sign = 1 - 2 * ((grid // cutoff + grid % cutoff) % 2)
    # sigma_z = +1 on the upper level s = 1, so s = 1 exactly where (-1)^(n1+n2) = sign.
    return grid + (mode_sign == sign) * cutoff * cutoff
