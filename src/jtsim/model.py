"""Two-mode Jahn-Teller Hamiltonians for the superconducting-circuit realisation.

Both two-mode builders assemble one real symmetric operator on the layout
fixed in :mod:`jtsim.hilbert`, in units of the qubit transition frequency,

    H = 1/2 sz + w1 n1 + w2 n2 + (g1 x1 + g2 x2) sx + hop (a1^T a2 + a2^T a1)

with x_i = a_i + a_i^T; they differ only in the five coefficients:

* ``build_lab_hamiltonian`` -- qubit + two resonator modes with linear
  displacement coupling g_i = omega_i * k_i and an optional inter-mode
  hopping J, in the bare (lab) mode basis: the identity coefficient map.
* ``build_transformed_hamiltonian`` -- the same operator rewritten in the
  rotated mode basis b1 = (k1 a1 + k2 a2)/k_p, b2 = (k2 a1 - k1 a2)/k_p,
  where b1 is the privileged mode carrying the dominant qubit coupling
  g_p = omega_p * k_p and b2 the weakly coupled disadvantaged mode.

H conserves the parity Pi = sz (-1)^(n1+n2), so the builders return it as
its two N^2 x N^2 parity blocks (``ParityBlocks``, sector layout in
:mod:`jtsim.hilbert`); the full 2N^2 x 2N^2 matrix is never formed.
Inside a block sx only relabels the qubit level, so the block of sign
+-1 is diag(w1 n1 + w2 n2 +- 1/2 (-1)^(n1+n2)) + g1 x (x) I
+ g2 I (x) x + hop (a^T (x) a + a (x) a^T); these entries are written
straight into a zeroed (2, N^2, N^2) stack, with no kron products.

``_rotated_coefficients`` is the rotation's one home: it derives k_p,
omega_p, omega_p_tilde, c = Delta*k1*k2/k_p^2 and g_p by exact operator
algebra, and ``mode_rotation_unitary`` shares only its k_p.  Note the
hopping J contributes 2*J*k1*k2/k_p^2 to the rotated number operators (the
b1/b2 cross terms of a1(dag)a2 + a2(dag)a1 add up twice); the rotated
hopping coefficient is c + J*(k2^2 - k1^2)/k_p^2.  A spectral cross-check
against the lab builder is part of the test suite.  This module alone owns
the k_1 = k_2 = 0 rule, where the rotation is undefined (``ValueError``):
the transformed builder returns the lab blocks and ``privileged_validity``
reports nan ratios with valid=None.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import PARITY_SIGNS, ParityBlocks, _check_cutoff, _sector_sigma_z, annihilation
from .hilbert import embed  # noqa: F401  (looked up as jtsim.model.embed by perfbench's tracer)

# Perturbative validity of the single-privileged-mode picture: both the
# qubit-disadvantaged coupling and the mode hopping must stay below half
# the privileged coupling g_p.
VALIDITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class SystemParams:
    """Scalar parameters of one model instance.

    Frequencies are in units of the qubit transition frequency, so the qubit
    term of H is 1/2 sz.  The couplings enter as dimensionless scale factors
    k_i with g_i = omega_i * k_i; derived quantities are recomputed on
    demand, never stored.
    """

    omega_1: float
    omega_2: float
    k_1: float
    k_2: float
    J: float = 0.0
    N: int = 10

    def __post_init__(self):
        object.__setattr__(self, "N", _check_cutoff(self.N))
        for name in ("omega_1", "omega_2", "k_1", "k_2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not np.isfinite(self.J):
            raise ValueError(f"J must be finite, got {self.J}")
        # Products, not **: a float product overflows to inf, ** raises OverflowError.
        kp2 = self.k_1 * self.k_1 + self.k_2 * self.k_2
        for name, value in (
            ("g_1 = omega_1*k_1", self.g_1),
            ("g_2 = omega_2*k_2", self.g_2),
            ("k_1^2 + k_2^2", kp2),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # Refusing an underflowing k_p^2 keeps k_p^2 == 0 equivalent to k_1 = k_2 = 0.
        if (self.k_1 or self.k_2) and not kp2 >= sys.float_info.min:
            raise ValueError(
                f"k_1^2 + k_2^2 must be 0 or at least {sys.float_info.min:g}, "
                f"got {kp2} at k_1={self.k_1} k_2={self.k_2}"
            )

    @property
    def g_1(self) -> float:
        return self.omega_1 * self.k_1

    @property
    def g_2(self) -> float:
        return self.omega_2 * self.k_2

    @property
    def delta(self) -> float:
        return self.omega_1 - self.omega_2


@dataclass(frozen=True)
class ValidityReport:
    """Dimensionless ratios probing the single-privileged-mode approximation.

    r1 = |k_p*c| / g_p   qubit-disadvantaged vs qubit-privileged coupling
    r2 = |c + J*(k2^2-k1^2)/k_p^2| / g_p   mode hopping vs qubit-privileged
    r3 = |J| / g_2       hopping vs the weaker bare coupling (diagnostic only)

    valid requires r1 and r2 both at or below VALIDITY_THRESHOLD; r3 is
    reported but not gated (the approximation tolerates J comparable to g_2).
    Where the rotation is undefined (k_1 = k_2 = 0) or its coefficients
    overflow, every ratio is nan and valid is None.
    """

    r1: float
    r2: float
    r3: float
    valid: bool | None


def _privileged_norm(p: SystemParams) -> tuple[float, float]:
    """(k_p^2, k_p) with k_p^2 = k_1^2 + k_2^2; ValueError at k_1 = k_2 = 0."""
    kp2 = p.k_1**2 + p.k_2**2
    if kp2 == 0.0:
        raise ValueError("mode rotation undefined for k_1 = k_2 = 0")
    return kp2, math.sqrt(kp2)


def _warn_zero_frequency(p: SystemParams):
    # stacklevel=3 points at a direct caller of a builder; other call chains
    # are deeper, so the message also names the point.
    if p.omega_1 == 0.0 or p.omega_2 == 0.0:
        warnings.warn(
            f"zero-frequency mode at omega_1={p.omega_1:g} omega_2={p.omega_2:g} "
            f"k_1={p.k_1:g} k_2={p.k_2:g}: decoupled oscillator makes the ground "
            "state degenerate",
            RuntimeWarning,
            stacklevel=3,
        )


def _rotated_coefficients(p: SystemParams) -> dict[str, float]:
    """w1, w2, g1, g2 and hop of H in the rotated mode basis.

    At J = 0 these are omega_p, omega_p_tilde, g_p = omega_p*k_p, k_p*c and
    c.  Raises ``ValueError`` at k_1 = k_2 = 0 and when finite inputs
    overflow (e.g. omega_1 * k_1^2 in omega_p).
    """
    kp2, k_p = _privileged_norm(p)
    omega_p = (p.omega_1 * p.k_1**2 + p.omega_2 * p.k_2**2) / kp2
    omega_p_tilde = (p.omega_1 * p.k_2**2 + p.omega_2 * p.k_1**2) / kp2
    c = p.delta * p.k_1 * p.k_2 / kp2
    shift = 2.0 * p.J * p.k_1 * p.k_2 / k_p**2
    coefficients = {
        "w1": omega_p + shift,
        "w2": omega_p_tilde - shift,
        "g1": omega_p * k_p,
        "g2": k_p * c,
        "hop": c + p.J * (p.k_2**2 - p.k_1**2) / k_p**2,
    }
    if not all(map(math.isfinite, coefficients.values())):
        raise ValueError(f"rotated coefficients must be finite, got {coefficients}")
    return coefficients


def _two_mode_hamiltonian(
    n: int, w1: float, w2: float, g1: float, g2: float, hop: float
) -> ParityBlocks:
    """Real symmetric two-mode Hamiltonian (module docstring form) as its parity blocks.

    Grid index (n1, n2) couples to (n1 + 1, n2), (n1, n2 + 1) and (n1 + 1, n2 - 1).
    """
    n1, n2 = np.divmod(np.arange(n * n), n)
    blocks = np.zeros((2, n * n, n * n))
    for block, sign in zip(blocks, PARITY_SIGNS):
        np.fill_diagonal(block, w1 * n1 + w2 * n2 + 0.5 * _sector_sigma_z(n, sign))
    up1, up2 = np.flatnonzero(n1 < n - 1), np.flatnonzero(n2 < n - 1)
    hops = np.flatnonzero((n1 < n - 1) & (n2 > 0))
    for rows, offset, values in (
        (up1, n, g1 * np.sqrt(n1[up1] + 1)),
        (up2, 1, g2 * np.sqrt(n2[up2] + 1)),
        (hops, n - 1, hop * (np.sqrt(n1[hops] + 1) * np.sqrt(n2[hops]))),
    ):
        blocks[:, rows, rows + offset] = blocks[:, rows + offset, rows] = values
    return ParityBlocks(blocks, (2, n, n))


def build_lab_hamiltonian(p: SystemParams) -> ParityBlocks:
    """Qubit + two modes + displacement couplings + hopping, lab mode basis."""
    _warn_zero_frequency(p)
    return _two_mode_hamiltonian(p.N, p.omega_1, p.omega_2, p.g_1, p.g_2, p.J)


def build_transformed_hamiltonian(p: SystemParams) -> ParityBlocks:
    """Same operator in the (qubit, privileged, disadvantaged) basis.

    At k_1 = k_2 = 0 every mode rotation leaves H invariant: the lab blocks.
    """
    if p.k_1 == 0.0 and p.k_2 == 0.0:
        return build_lab_hamiltonian(p)
    _warn_zero_frequency(p)
    return _two_mode_hamiltonian(p.N, **_rotated_coefficients(p))


def _ratio(x: float, g: float) -> float:
    """|x|/g; with no scale to compare against (g = 0), 0 for x = 0 and inf otherwise."""
    if g > 0:
        return abs(x) / g
    return 0.0 if x == 0.0 else math.inf


def privileged_validity(p: SystemParams) -> ValidityReport:
    """Dimensionless diagnostics for the single-privileged-mode picture."""
    try:
        rot = _rotated_coefficients(p)
    except ValueError:  # k_1 = k_2 = 0 or overflow: no rotated picture to judge
        return ValidityReport(r1=math.nan, r2=math.nan, r3=math.nan, valid=None)
    r1 = _ratio(rot["g2"], rot["g1"])
    r2 = _ratio(rot["hop"], rot["g1"])
    valid = r1 <= VALIDITY_THRESHOLD and r2 <= VALIDITY_THRESHOLD
    return ValidityReport(r1=r1, r2=r2, r3=_ratio(p.J, p.g_2), valid=valid)


def mode_rotation_unitary(p: SystemParams) -> np.ndarray:
    """Matrix whose columns are the rotated-mode Fock states in lab coordinates.

    Column (m1*N + m2) holds |m1, m2> of the (privileged, disadvantaged)
    modes expanded over lab Fock states |n1, n2>.  Exact for total quanta
    m1 + m2 <= N - 1; higher columns lose the weight that truncation pushes
    outside the lab grid, so the matrix is only approximately unitary.

    grids[m1, m2] is |m1, m2> as an (N, N) grid c over (n1, n2); a1^T c is
    ad @ c and a2^T c is c @ ad.T, so one step raises every m2 of one m1.
    """
    _, k_p = _privileged_norm(p)
    n = p.N
    ad = annihilation(n).T
    u1, u2 = p.k_1 / k_p, p.k_2 / k_p

    grids = np.zeros((n, n, n, n))
    grids[0, 0, 0, 0] = 1.0
    for m2 in range(1, n):
        c = grids[0, m2 - 1]
        grids[0, m2] = (u2 * (ad @ c) - u1 * (c @ ad.T)) / math.sqrt(m2)
    for m1 in range(1, n):
        c = grids[m1 - 1]
        grids[m1] = (u1 * (ad @ c) + u2 * (c @ ad.T)) / math.sqrt(m1)
    return grids.reshape(n * n, n * n).T
