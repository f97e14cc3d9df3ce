"""Truncated bosonic and qubit operators on a fixed tensor-product layout.

Basis-ordering contract used by every module in this package: the tensor
order is (qubit, mode 1, mode 2), row-major, so a basis state |s, n1, n2>
sits at flat index  s*N^2 + n1*N + n2  with s in {0, 1} and n_i in
{0 .. N-1}.  Qubit index 0 is the lower level (sigma_z eigenvalue -1),
index 1 the upper level (+1).  After the mode rotation the same layout
holds with (qubit, privileged mode, disadvantaged mode).

Operators are plain float64 arrays: ``annihilation`` acts on one mode,
``embed`` and ``parity_operator`` return full-space matrices.  The model
Hamiltonians are kept as their two parity-sector blocks (``ParityBlocks``),
not as the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLOTS = ("S", "M1", "M2")

# Order of the parity sectors in ParityBlocks.entries.
PARITY_SIGNS = (1, -1)


@dataclass(frozen=True)
class ParityBlocks:
    """Operator that conserves Pi = sz (-1)^(n1+n2), as its two sector blocks.

    ``entries`` has shape (2, N^2, N^2); entries[i] is the Pi = PARITY_SIGNS[i]
    block, indexed like ``_parity_sector``.  ``factor_dims`` is (2, N, N).
    """

    entries: np.ndarray
    factor_dims: tuple[int, ...]


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


def _check_cutoff(cutoff: int) -> int:
    if int(cutoff) != cutoff or cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    return int(cutoff)


def annihilation(cutoff: int) -> np.ndarray:
    """Bosonic annihilation operator a with a|n> = sqrt(n)|n-1>, truncated at cutoff."""
    n = _check_cutoff(cutoff)
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


def embed(op: np.ndarray, slot: str, cutoff: int) -> np.ndarray:
    """Lift a single-factor operator to the full (qubit, mode1, mode2) space.

    slot selects the tensor factor: "S" for the qubit (op is 2 x 2),
    "M1"/"M2" for the modes (op is cutoff x cutoff).  The result is the
    2 cutoff^2 x 2 cutoff^2 matrix that acts as identity on the other two
    factors.
    """
    n = _check_cutoff(cutoff)
    if slot not in SLOTS:
        raise ValueError(f"unknown slot {slot!r}; expected one of {SLOTS}")
    expected = 2 if slot == "S" else n
    if op.shape != (expected, expected):
        raise ValueError(
            f"operator of shape {op.shape} does not fit slot {slot} "
            f"(expected {expected} x {expected})"
        )
    eye_q = np.eye(2)
    eye_m = np.eye(n)
    parts = {
        "S": (op, eye_m, eye_m),
        "M1": (eye_q, op, eye_m),
        "M2": (eye_q, eye_m, op),
    }[slot]
    return np.kron(np.kron(parts[0], parts[1]), parts[2])


def parity_operator(cutoff: int) -> np.ndarray:
    """Total parity sigma_z (x) (-1)^(n1+n2); commutes with every model Hamiltonian.

    Its diagonal at qubit level s, sigma_z (-1)^(n1+n2), is _sector_sigma_z(N, sigma_z)
    with sigma_z = -1 for s = 0 and +1 for s = 1.
    """
    n = _check_cutoff(cutoff)
    diagonal = np.concatenate([_sector_sigma_z(n, -1), _sector_sigma_z(n, 1)])
    return np.diag(diagonal.astype(np.float64))


def _sector_sigma_z(cutoff: int, sign: int) -> np.ndarray:
    """sigma_z (+-1) of the one qubit level the Pi = sign sector holds at each grid index."""
    grid = np.arange(cutoff * cutoff)
    return sign * (1 - 2 * ((grid // cutoff + grid % cutoff) % 2))


def _parity_sector(cutoff: int, sign: int) -> np.ndarray:
    """Flat indices of the Pi = sign sector, one per mode pair (n1, n2) in grid order.

    For each (n1, n2) exactly one qubit level s gives sigma_z (-1)^(n1+n2)
    = sign, so the sector has N^2 states and index k = n1*N + n2 of a
    sector block maps to flat index s*N^2 + k of the full space.
    """
    # sigma_z = +1 on the upper level s = 1.
    return np.arange(cutoff * cutoff) + (_sector_sigma_z(cutoff, sign) == 1) * cutoff * cutoff
