"""Two-mode Jahn-Teller Hamiltonians for the superconducting-circuit realisation.

Basis-ordering contract used by every module in this package: the tensor
order is (qubit, mode 1, mode 2), row-major, so a basis state |s, n1, n2>
sits at flat index  s*N^2 + n1*N + n2  with s in {0, 1} and n_i in
{0 .. N-1}.  Qubit index 0 is the lower level (sigma_z eigenvalue -1),
index 1 the upper level (+1).  After the mode rotation the same layout
holds with (qubit, privileged mode, disadvantaged mode).

Both two-mode builders assemble one real symmetric operator on this
layout, in units of the qubit transition frequency,

    H = 1/2 sz + w1 n1 + w2 n2 + (g1 x1 + g2 x2) sx + hop (a1^T a2 + a2^T a1)

with x_i = a_i + a_i^T; they differ only in the five coefficients, and
``_coefficients(p, basis)`` is their one home, the k_1 = k_2 = 0 rule included:

* ``build_lab_hamiltonian`` -- qubit + two resonator modes with linear
  displacement coupling g_i = omega_i * k_i and an optional inter-mode
  hopping J, in the bare (lab) mode basis: the lab map (omega_i, g_i, J).
* ``build_transformed_hamiltonian`` -- the same operator rewritten in the
  rotated mode basis b1 = (k1 a1 + k2 a2)/k_p, b2 = (k2 a1 - k1 a2)/k_p,
  where b1 is the privileged mode carrying the dominant qubit coupling
  g_p = omega_p * k_p and b2 the weakly coupled disadvantaged mode.

H conserves the parity Pi = sz (-1)^(n1+n2), so the builders return it as
its two N^2 x N^2 parity blocks (``ParityBlocks``, sector layout in
``_parity_sector``); the full 2N^2 x 2N^2 matrix is never formed.
Inside a block sx only relabels the qubit level, so the block of sign
+-1 is diag(w1 n1 + w2 n2 +- 1/2 (-1)^(n1+n2)) + g1 x (x) I
+ g2 I (x) x + hop (a^T (x) a + a (x) a^T).  The builders store only
those bands, O(N^2) floats with no kron products, and refuse an entry that
overflows; the dense blocks and the block-tridiagonal form are views built
from the bands on first use.

``_rotated_coefficients`` is the rotation's one home: it derives k_p,
omega_p, omega_p_tilde, c = Delta*k1*k2/k_p^2 and g_p by exact operator
algebra, and ``mode_rotation_unitary`` shares only its k_p.  Note the
hopping J contributes 2*J*k1*k2/k_p^2 to the rotated number operators (the
b1/b2 cross terms of a1(dag)a2 + a2(dag)a1 add up twice); the rotated
hopping coefficient is c + J*(k2^2 - k1^2)/k_p^2.  A spectral cross-check
against the lab builder is part of the test suite.  The change of Fock basis
keeps n1 + n2, so ``mode_rotation_unitary`` returns it as a
``ShellRotation``: one block per total-quanta shell, (2N - 1, N, N) floats,
and a map of lab-grid vectors into rotated-mode coordinates; the
N^2 x N^2 matrix is never formed.  At k_1 = k_2 = 0 the rotation is undefined
(``ValueError``): ``_coefficients`` gives both bases the lab map, which every rotation
leaves invariant, ``privileged_validity`` reports nan ratios with valid=None, and
``sweeps.compare_bases`` returns before it would build the rotation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SLOTS = ("S", "M1", "M2")

# Order of the parity sectors in ParityBlocks.
PARITY_SIGNS = (1, -1)


@dataclass(frozen=True)
class ParityBlocks:
    """Operator that conserves Pi = sz (-1)^(n1+n2), as the bands of its two sector blocks.

    Sector i holds Pi = PARITY_SIGNS[i], indexed like ``_parity_sector``:
    block index n1*N + n2.  Only the bands are stored, over the mode grid:

    * ``diagonal`` (2, N, N): sector i's diagonal entry at (n1, n2);
    * ``g1_band`` (N - 1, N): the entry coupling (n1, n2) to (n1 + 1, n2);
    * ``g2_band`` (N, N - 1): the entry coupling (n1, n2) to (n1, n2 + 1);
    * ``hop_band`` (N - 1, N - 1): at [n1, n2 - 1], the entry coupling (n1, n2)
      to (n1 + 1, n2 - 1).

    The three bands are the same in both sectors and each is stored once, so
    both views are symmetric by construction.  The builders' bands are finite
    (they refuse an overflowing entry).
    """

    diagonal: np.ndarray
    g1_band: np.ndarray
    g2_band: np.ndarray
    hop_band: np.ndarray

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag (2, N, N, N), upper (N - 1, N, N)): each block in (n1, n2) order is
        block-tridiagonal, diag[i, n1] its block (n1, n1) and upper[n1] its block
        (n1, n1 + 1), which both sectors share; g2 is diag's off-diagonal, g1 upper's
        diagonal, the hopping upper's subdiagonal."""
        n = self.diagonal.shape[1]
        rows = np.arange(n)
        diag, upper = np.zeros((2, n, n, n)), np.zeros((n - 1, n, n))
        diag[:, :, rows, rows] = self.diagonal
        diag[:, :, rows[:-1], rows[1:]] = diag[:, :, rows[1:], rows[:-1]] = self.g2_band
        upper[:, rows, rows] = self.g1_band
        upper[:, rows[1:], rows[:-1]] = self.hop_band
        return diag, upper

    @cached_property
    def entries(self) -> np.ndarray:
        """Dense (2, N^2, N^2) stack; entries[i] is the sector i block."""
        return _assemble(*self.tridiagonal)


def _assemble(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix of the block-tridiagonal operator with diagonal blocks ``diag``
    (..., n, m, m) and upper blocks ``upper`` (n - 1, m, m); diag's leading axes are kept."""
    n, m = diag.shape[-3:-1]
    lead = diag.shape[:-3]
    grid = np.zeros((*lead, n, m, n, m))

    def blocks(g):  # writeable view of the blocks (i, i) of g, shape (..., n, m, m)
        return np.einsum("...iaib->...iab", g)

    blocks(grid)[...] = diag
    blocks(grid[..., :-1, :, 1:, :])[...] = upper
    blocks(grid[..., 1:, :, :-1, :])[...] = upper.swapaxes(-1, -2)
    return grid.reshape(*lead, n * m, n * m)


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


def _zero_frequency(p: SystemParams) -> bool:
    """A mode of zero frequency, so g_i = 0 too.  At J = 0 it is a decoupled oscillator and the
    point is degenerate; at J != 0 H has no ground state (ROADMAP item 10)."""
    return p.omega_1 == 0.0 or p.omega_2 == 0.0


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
    """Real symmetric two-mode Hamiltonian (module docstring form) as the bands of its
    parity blocks.

    Grid index (n1, n2) couples to (n1 + 1, n2), (n1, n2 + 1) and (n1 + 1, n2 - 1).
    Finite coefficients whose entries overflow (w1 (N - 1), say) raise ``ValueError``.
    """
    n1, n2 = np.indices((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        bare = w1 * n1 + w2 * n2
        bands = (g1 * np.sqrt(n1[:-1] + 1), g2 * np.sqrt(n2[:, :-1] + 1),
                 hop * (np.sqrt(n1[:-1, 1:] + 1) * np.sqrt(n2[:-1, 1:])))
    if not all(np.isfinite(values).all() for values in (bare, *bands)):
        raise ValueError(f"H has a non-finite entry at N={n}: w1={w1:g} w2={w2:g} "
                         f"g1={g1:g} g2={g2:g} hop={hop:g}")
    sz = 0.5 * _sector_sigma_z(n, 1).reshape(n, n)  # the Pi = -1 sector holds -sz
    diagonal = np.stack([bare + sign * sz for sign in PARITY_SIGNS])
    return ParityBlocks(diagonal, *bands)


def _coefficients(p: SystemParams, basis: str) -> dict[str, float]:
    """H's w1, w2, g1, g2 and hop in ``basis``; both read the lab map at k_1 = k_2 = 0."""
    if basis == "lab" or (p.k_1 == 0.0 and p.k_2 == 0.0):
        return {"w1": p.omega_1, "w2": p.omega_2, "g1": p.g_1, "g2": p.g_2, "hop": p.J}
    return _rotated_coefficients(p)


def build_lab_hamiltonian(p: SystemParams) -> ParityBlocks:
    """Qubit + two modes + displacement couplings + hopping, lab mode basis."""
    return _two_mode_hamiltonian(p.N, **_coefficients(p, "lab"))


def build_transformed_hamiltonian(p: SystemParams) -> ParityBlocks:
    """Same operator in the (qubit, privileged, disadvantaged) basis."""
    return _two_mode_hamiltonian(p.N, **_coefficients(p, "transformed"))


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


@dataclass(frozen=True)
class ShellRotation:
    """The mode rotation as one block per total-quanta shell, which it keeps.

    ``blocks[n, n1, m1]`` (2N - 1, N, N) is <n1, n - n1 | m1, n - m1>: the lab
    Fock state (n1, n - n1) against the (privileged, disadvantaged) Fock state
    (m1, n - m1).  Entries whose lab or rotated state lies off the (N, N) grid
    are 0, so a shell n >= N holds only its in-grid part.
    """

    blocks: np.ndarray

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Lab-grid vectors (..., N^2) in rotated-mode coordinates, W^T v for each, where
        column m1*N + m2 of W is |m1, m2> over the lab states: one gather, one product per
        shell and one scatter.  Weight of a shell n >= N that leaves the grid is dropped."""
        n = self.blocks.shape[1]
        shell, n1 = np.arange(2 * n - 1)[:, None], np.arange(n)
        n2 = shell - n1
        # flat lab index of each (shell, n1); off-grid slots read an appended zero
        index = np.where((n2 >= 0) & (n2 < n), n1 * n + n2, n * n)
        padded = np.concatenate([vectors, np.zeros((*vectors.shape[:-1], 1))], axis=-1)
        rotated = padded[..., index][..., :, None, :] @ self.blocks  # (..., 2N - 1, 1, N)
        m1, m2 = np.divmod(np.arange(n * n), n)
        return rotated[..., m1 + m2, 0, m1]


def mode_rotation_unitary(p: SystemParams) -> ShellRotation:
    """The lab-to-rotated-mode change of Fock basis, built shell by shell.

    Shell n follows from shell n - 1 by one symmetric one-photon step (the
    Schwinger-spin recursion of Risbo, J. Geodesy 70, 383, 1996): with lab
    quanta i = (n1, n2), rotated quanta k = (m1, m2) and b_b^T = sum_a R_ab a_a^T,

        B_n[i, k] = 1/n sum_(a, b) sqrt(i_a k_b) R_ab B_(n-1)[i - e_a, k - e_b],

    R = [[u1, u2], [u2, -u1]], u = (k_1, k_2)/k_p.  Lowering a quantum keeps a
    state on the grid, so the in-grid part of each shell depends only on the
    in-grid part of the last: truncation is an exact restriction.
    """
    _, k_p = _privileged_norm(p)
    n = p.N
    u1, u2 = p.k_1 / k_p, p.k_2 / k_p
    root = np.sqrt(np.arange(2 * n))
    # padded[s, 1 + n1, 1 + m1] is blocks[s, n1, m1]; row and column 0 stay zero
    padded = np.zeros((2 * n - 1, n + 1, n + 1))
    padded[0, 1, 1] = 1.0
    for shell in range(1, 2 * n - 1):
        lo, hi = max(0, shell - n + 1), min(shell, n - 1)  # n1 of the shell's in-grid states
        up, down = root[lo:hi + 1], root[shell - hi:shell - lo + 1][::-1]  # sqrt(n1), sqrt(n2)
        last = padded[shell - 1, lo:hi + 2, lo:hi + 2]
        left, right = last[:, :-1] * up, last[:, 1:] * down  # k - e_1, k - e_2
        lower_1 = u1 * left[:-1] + u2 * right[:-1]  # i - e_1
        lower_2 = u2 * left[1:] - u1 * right[1:]  # i - e_2
        padded[shell, lo + 1:hi + 2, lo + 1:hi + 2] = (
            up[:, None] * lower_1 + down[:, None] * lower_2) / shell
    return ShellRotation(padded[:, 1:, 1:])
