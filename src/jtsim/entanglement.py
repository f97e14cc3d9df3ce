"""Reduced density matrices, partial transpose and logarithmic negativity.

This module measures states; it does not evaluate parameter points.
``jtsim.sweeps.run_point`` solves a point and records its verdict, e.g.
the degeneracy flag, on the row.

The negativity of a bipartition A|B of a state rho is

    E_N = log2 || rho^(T_A) ||_1

with the trace norm taken as the sum of absolute eigenvalues of the
partially transposed matrix.  Values within NEG_CLAMP below zero are
floating-point noise and clamp to 0; anything more negative indicates a
pipeline bug and raises.

``report_from_state`` works on the (qubit, mode, mode) tensor of the pure
state psi, first cut down to each mode's support, and never forms a density
matrix.  The support is an error budget: a mode keeps its singular direction
i while sigma_i + sigma_(i+1) + ... exceeds SUPPORT_TOL * sigma_0, so the
singular values it drops sum to at most SUPPORT_TOL * sigma_0, and the ranks
it keeps do not follow the solver's rounding noise.  Then E_N(S|B1B2) is
log2 (sum of Schmidt values)^2 (Vidal & Werner, PRA 65, 032314, 2002), and
each two-party cut is one contraction of psi with itself that gives the
partially transposed reduced state, rho^(T_A)[a b, d e] = rho[d b, a e],
directly.  ``DensityMatrix`` and the functions on it are the dense oracle
this path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ground_state is unused here but stays importable as
# jtsim.entanglement.ground_state, where the perfbench layer tracer looks it up.
from .groundstate import ground_state  # noqa: F401
from .model import StateVector, _check_factor_dims

NEG_CLAMP = 1e-9
# A mode's support: the leading singular directions of its unfolding, cut where the
# singular values left over sum to at most this share of the largest.
SUPPORT_TOL = 1e-13


class NumericalIntegrityError(RuntimeError):
    """A computed negativity fell below zero by more than float noise."""


@dataclass(frozen=True)
class DensityMatrix:
    entries: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.entries)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "factor_dims", _check_factor_dims(self.factor_dims))
        dim = math.prod(self.factor_dims)
        if m.shape != (dim, dim):
            raise ValueError(
                f"entries shape {m.shape} does not match factor_dims {self.factor_dims}"
            )
        # A non-finite entry makes a deviation nan or inf, which fails the comparison.
        with np.errstate(invalid="ignore"):
            if not np.max(np.abs(m - m.conj().T)) < 1e-10:
                raise ValueError("density matrix is not finite and Hermitian")
            if not abs(np.trace(m) - 1.0) < 1e-10:
                raise ValueError(f"density matrix trace is {np.trace(m):.12g}, not 1")


@dataclass(frozen=True)
class EntanglementReport:
    """The four ground-state negativities of one parameter point (bits)."""

    en_s_b1b2: float
    en_s_b1: float
    en_s_b2: float
    en_b1_b2: float


def _check_normalized(psi: StateVector) -> None:
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi.amplitudes)
    if not abs(norm - 1.0) < 1e-10:
        raise ValueError(f"state vector norm is {norm:.12g}, not 1")


def density_from_state(psi: StateVector) -> DensityMatrix:
    """Pure-state projector |psi><psi|."""
    _check_normalized(psi)
    amps = psi.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()), psi.factor_dims)


def _normalize_factors(indices, n_factors: int) -> tuple[int, ...]:
    if isinstance(indices, (int, np.integer)):
        indices = (int(indices),)
    idx = sorted({int(i) for i in indices})
    if any(i < 0 or i >= n_factors for i in idx):
        raise ValueError(f"factor indices {idx} out of range for {n_factors} factors")
    return tuple(idx)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in ``keep`` (kept order preserved)."""
    dims = rho.factor_dims
    k = len(dims)
    keep_idx = _normalize_factors(keep, k)
    if not keep_idx:
        raise ValueError("keep must name at least one factor")
    if len(keep_idx) == k:
        return DensityMatrix(rho.entries.copy(), dims)

    t = rho.entries.reshape(dims + dims)
    n_row = k
    for i in sorted(set(range(k)) - set(keep_idx), reverse=True):
        t = np.trace(t, axis1=i, axis2=n_row + i)
        n_row -= 1
    kept_dims = tuple(dims[i] for i in keep_idx)
    d = math.prod(kept_dims)
    return DensityMatrix(t.reshape(d, d), kept_dims)


def partial_transpose(rho: DensityMatrix, transpose) -> np.ndarray:
    """Transpose the row/column indices of the selected factors only.

    Returns a plain Hermitian matrix: the result keeps trace 1 but may
    have negative eigenvalues, which is exactly what the negativity probes.
    """
    dims = rho.factor_dims
    k = len(dims)
    idx = _normalize_factors(transpose, k)
    if not idx:
        raise ValueError("transpose must name at least one factor")
    t = rho.entries.reshape(dims + dims)
    axes = list(range(2 * k))
    for i in idx:
        axes[i], axes[k + i] = axes[k + i], axes[i]
    d = math.prod(dims)
    return np.transpose(t, axes).reshape(d, d)


def log_negativity(rho: DensityMatrix, transpose) -> float:
    """log2 trace norm of the partial transpose over ``transpose``.

    ``transpose`` must be a nonempty proper subset of the factors, i.e. it
    bipartitions the state together with its complement.
    """
    idx = _normalize_factors(transpose, len(rho.factor_dims))
    if not idx or len(idx) == len(rho.factor_dims):
        raise ValueError("bipartition needs two nonempty factor groups")
    return _negativity(partial_transpose(rho, idx))


def _negativity(pt: np.ndarray) -> float:
    """log2 trace norm of a Hermitian partial transpose (the caller vouches for it)."""
    return _clamped_log2(float(np.sum(np.abs(np.linalg.eigvalsh(pt)))))


def _clamped_log2(norm: float) -> float:
    """log2 of a trace norm, with float noise below zero clamped to 0."""
    value = math.log2(norm)
    if value < 0.0:
        if value < -NEG_CLAMP:
            raise NumericalIntegrityError(
                f"negativity {value:.3e} below -{NEG_CLAMP:g}; "
                "partial transpose pipeline is inconsistent"
            )
        return 0.0
    return value


def report_from_state(psi: StateVector) -> EntanglementReport:
    """All four bipartition negativities of a tripartite pure state."""
    if len(psi.factor_dims) != 3:
        raise ValueError("expected a (qubit, mode, mode) state")
    _check_normalized(psi)
    t = psi.amplitudes.reshape(psi.factor_dims)
    # Contract each mode with u^dagger, u the left singular vectors of its unfolding on
    # its support: an isometry on the range of its reduced state but for the dropped
    # directions, so E_N moves only by their weight.
    for axis in (1, 2):
        unfolding = np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1)
        u, sigma, _ = np.linalg.svd(unfolding, full_matrices=False)
        tails = np.cumsum(sigma[::-1])[::-1]  # tails[i] = sigma_i + sigma_(i+1) + ...
        support = u[:, tails > SUPPORT_TOL * sigma[0]]
        t = np.moveaxis(np.tensordot(support.conj(), t, axes=(0, axis)), 0, axis)
    s, n1, n2 = t.shape
    schmidt = np.linalg.svd(t.reshape(s, n1 * n2), compute_uv=False)
    pt_s_b1 = np.einsum("dbc,aec->abde", t, t.conj()).reshape(s * n1, s * n1)
    pt_s_b2 = np.einsum("dbc,abe->acde", t, t.conj()).reshape(s * n2, s * n2)
    pt_b1_b2 = np.einsum("adc,abe->bcde", t, t.conj()).reshape(n1 * n2, n1 * n2)
    return EntanglementReport(
        en_s_b1b2=_clamped_log2(float(np.sum(schmidt)) ** 2),
        en_s_b1=_negativity(pt_s_b1),
        en_s_b2=_negativity(pt_s_b2),
        en_b1_b2=_negativity(pt_b1_b2),
    )
