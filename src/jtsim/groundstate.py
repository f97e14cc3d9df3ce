"""Ground states from the parity blocks, by one of two solver paths.

This module is the solver only: ``eig_hermitian`` and ``ground_state``,
which picks the builder for its basis.  What the transformed basis means
where the mode rotation is undefined (k_1 = k_2 = 0) is decided in
:mod:`jtsim.model`.  Entanglement, sweeps and the cutoff convergence ladder
live in the modules above it.  Every model Hamiltonian is real symmetric,
so ground states are real; the sign is fixed by making the
largest-magnitude amplitude positive.

The builders return the bands of the two N^2 x N^2 parity blocks of H
(``ParityBlocks``), and each path takes the view it needs.  The solver needs
the two lowest eigenvalues of each block, which give the energy, the gap
and the lower block, and the lower block's ground vector: it has definite
parity, and on an exact tie between the blocks the Pi = +1 sector wins.
``GroundStateResult.solver`` names the path that supplied them:

* ``"dense"`` (N < BLOCK_MIN_N): ``eigvalsh`` of each dense block
  (``ParityBlocks.entries``), then the lower block's vector by inverse
  iteration (``_lowest_vector``).
* ``"block"`` (N >= BLOCK_MIN_N): in (n1, n2) order a block is
  block-tridiagonal (``ParityBlocks.tridiagonal``), N diagonal N x N blocks
  (tridiagonal through g2) joined by N x N off-diagonal ones (g1 on the
  diagonal, the hopping on the subdiagonal) that both blocks share; the path
  never forms a dense N^2 x N^2 block.  A block Cholesky of B - sigma I
  succeeds exactly when sigma is below the lowest eigenvalue (Sylvester's law
  of inertia), so a successful factor certifies the shift.  Shift-invert block
  Krylov steps on that factor, each followed by a Rayleigh-Ritz step on B, give
  lambda_0, lambda_1 and the ground vector without a dense solve or
  eigvalsh; sigma is refined and re-certified between rounds.  The factor
  also keeps L_ii^-1 L_(i,i-1) and L_ii^-T L_(i+1,i)^T, so each substitution
  sweep is one batched L_ii^-1 product plus one small product per block row.
  Each block starts from two columns of a smaller cutoff, zero-padded: the
  lowest two vectors of its leading START_N x START_N Fock grid, or the two
  lowest Ritz vectors of a block solve at a smaller N (``start``), which the
  result hands on in ``ritz_vectors`` for the next rung of a cutoff ladder.
  The start only changes where the Krylov space begins; the shift is still
  certified by its factor and the stop rule is the same.
* ``"block-fallback"``: the point has a zero-frequency mode, whose decoupled
  oscillator makes it degenerate, so the block path is not tried; or the
  block path could not certify a shift, missed its stop rule within ROUNDS x
  STEPS steps, overflowed, met a block whose own gap is unresolved, or found
  the point degenerate.  The dense path then solves the point, so the result
  is the dense one bit for bit, and a degenerate point keeps the dense path's
  pick of vector.

A gap below DEGENERACY_TOL flags the point degenerate, unless the solver
cannot resolve a gap that small: where eps times a Gershgorin bound on ||H||
is at least DEGENERACY_TOL, the point is flagged ``imprecise`` instead.

The builders' blocks are finite and symmetric by construction (``ParityBlocks``),
so only ``eig_hermitian`` checks its input.  A non-finite band fails the block
path's floating-point traps or its residual test, and the fallback refuses it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .model import PARITY_SIGNS, StateVector, SystemParams, _assemble, _parity_sector
from .model import _zero_frequency, build_lab_hamiltonian, build_transformed_hamiltonian
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

# The block path serves N >= BLOCK_MIN_N.  Below about N = 16-20 (20 at fig5
# t = 1.95) one eigvalsh of the N^2 x N^2 block costs less than its Python loops
# over N block rows; the default sweeps (N = 10, verified at 14) stay dense.
BLOCK_MIN_N = 20
# Without a start of its own, a block starts from the lowest two vectors of its
# leading START_N x START_N Fock grid.  Either start gets START_NOISE of a fixed
# generic vector, so that no symmetry class of the block is missing from the
# Krylov space.
START_N = 10
START_NOISE = 1e-6
# It stops when lambda_0's residual is below RESIDUAL_TOL * max(1, |lambda_0|) and
# lambda_1's error bound r_1^2 / (theta_2 - theta_1), or its residual, is below
# GAP_TOL * max(1, |lambda_0|); lambda_1 only feeds the gap.
GAP_TOL = 1e-13
# Each round sets sigma = theta_0 - 2 r_0 - SHIFT (theta_1 - theta_0), certifies it
# with a fresh factor (up to CERTIFY_TRIES shifts, each 4x further below) and
# runs up to STEPS steps.
ROUNDS = 4
STEPS = 8
CERTIFY_TRIES = 3

BASES = ("lab", "transformed")
SOLVER_PATHS = ("dense", "block", "block-fallback")


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: StateVector
    gap: float
    degenerate_flag: bool
    residual: float
    solver: str
    # Gap below DEGENERACY_TOL that the solver's precision cannot resolve (module docstring).
    imprecise: bool
    # Each sector's two lowest Ritz vectors, (N^2, 2), when solver == "block"; else None.
    ritz_vectors: tuple[np.ndarray, np.ndarray] | None


def eig_hermitian(m: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a Hermitian (real symmetric or complex) matrix.

    Returns (eigenvalues ascending, eigenvector columns, or None if not
    ``vectors``).  Inputs that are not square matrices, that deviate from
    Hermiticity by 1e-12 or more, or that hold a non-finite entry are refused.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"the solver needs a square matrix; got shape {m.shape}")
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs(m - m.conj().T))
    # A non-finite entry makes dev nan or inf, which fails the comparison.
    if not dev < 1e-12:
        raise ValueError(f"the solver needs a finite Hermitian operator; deviation {dev:.3e}")
    return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude positive (deterministic output)."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def _norm(v: np.ndarray) -> float:
    """2-norm taken on v / max|v|, which cannot over- or underflow; nan if v holds a nan."""
    top = np.max(np.abs(v))
    return float(top * np.linalg.norm(v / top)) if top > 0 else float(top)


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


def _block_cholesky(diag: np.ndarray, upper: np.ndarray, sigma: float):
    """Block Cholesky of B - sigma I; raises LinAlgError unless sigma < lambda_0(B).

    ``diag[i]`` and ``upper[i]`` are B's blocks (i, i) and (i, i + 1).  Returns
    the inverses of the diagonal factors L_ii, and the products L_ii^-1 L_(i,i-1)
    and L_ii^-T L_(i+1,i)^T that ``_shift_invert``'s two sweeps apply; the
    sub-diagonal factor L_(i+1,i) is (L_ii^-1 B_(i,i+1))^T.
    """
    shifted = diag - sigma * np.eye(diag.shape[1])
    inv_l, coupling = np.empty_like(diag), np.empty_like(upper)
    schur = shifted[0]
    for i in range(len(diag)):
        inv_l[i] = np.linalg.inv(np.linalg.cholesky(schur))
        if i < len(upper):
            coupling[i] = inv_l[i] @ upper[i]
            schur = shifted[i + 1] - coupling[i].T @ coupling[i]
    forward = inv_l[1:] @ coupling.transpose(0, 2, 1)
    back = inv_l[:-1].transpose(0, 2, 1) @ coupling
    return inv_l, forward, back


def _block_product(diag: np.ndarray, upper: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B x for a vector x or the columns of x, from B's diagonal and upper blocks."""
    n = len(diag)
    cols = x.reshape(n, n, -1)
    y = diag @ cols
    y[:-1] += upper @ cols[1:]
    y[1:] += upper.transpose(0, 2, 1) @ cols[:-1]
    return y.reshape(x.shape)


def _shift_invert(factor, x: np.ndarray) -> np.ndarray:
    """(B - sigma I)^-1 x for the columns of x, by forward and back substitution.

    Forward: y_i = L_ii^-1 x_i - (L_ii^-1 L_(i,i-1)) y_(i-1); back: u_i = L_ii^-T y_i
    - (L_ii^-T L_(i+1,i)^T) u_(i+1).  Each sweep's L_ii^-1 products are one batched call.
    """
    inv_l, forward, back = factor
    n = len(inv_l)
    y = inv_l @ x.reshape(n, n, -1)
    for i in range(1, n):
        y[i] -= forward[i - 1] @ y[i - 1]
    y = inv_l.transpose(0, 2, 1) @ y
    for i in range(n - 2, -1, -1):
        y[i] -= back[i] @ y[i + 1]
    return y.reshape(n * n, -1)


def _extend(basis: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of ``new`` outside span(basis).

    Two projections; a column with under 1e-8 of its norm outside the span
    is dropped, since a third would be needed to keep the basis orthonormal.
    """
    q, r = np.linalg.qr(new - basis @ (basis.T @ new))
    q = q[:, np.abs(np.diag(r)) > 1e-8 * np.linalg.norm(new, axis=0)]
    return np.linalg.qr(q - basis @ (basis.T @ q))[0]


def _certified_factor(diag, upper, theta: np.ndarray, res: np.ndarray):
    """Block Cholesky at the round's shift (see ROUNDS), lowered until it exists; or None."""
    distance = 2 * res[0] + SHIFT * (theta[1] - theta[0])
    for _ in range(CERTIFY_TRIES):
        try:
            return _block_cholesky(diag, upper, theta[0] - distance)
        except np.linalg.LinAlgError:
            distance *= 4
    return None


def _ritz(basis: np.ndarray, image: np.ndarray):
    """Rayleigh-Ritz on B over span(basis), image = B basis: Ritz values, the lowest
    two Ritz vectors, their residual vectors and residual norms."""
    theta, coef = np.linalg.eigh(basis.T @ image)
    ritz = basis @ coef[:, :2]
    res_vecs = image @ coef[:, :2] - ritz * theta[:2]
    return theta, ritz, res_vecs, [_norm(r) for r in res_vecs.T]


def _block_sector(diag: np.ndarray, upper: np.ndarray, start: np.ndarray | None = None):
    """(lambda_0, lambda_1) of one block, given by its diagonal and upper blocks, and its
    two lowest Ritz vectors, the first the unit ground vector; or None to fall back.

    ``start`` holds two columns over the m x m Fock grid of a cutoff m <= N; by
    default the lowest two vectors of the leading START_N x START_N grid.
    """
    n = len(diag)
    if start is None:
        m = min(START_N, n)
        start = np.linalg.eigh(_assemble(diag[:m, :m, :m], upper[:m - 1, :m, :m]))[1][:, :2]
    m = math.isqrt(len(start))
    if m * m != len(start) or m > n or start.shape[1:] != (2,):
        raise ValueError(f"a start needs two columns over an m x m grid, m <= {n}; got {start.shape}")
    padded = np.zeros((n, n, 2))
    padded[:m, :m] = start.reshape(m, m, 2)
    generic = np.cos(np.outer(np.arange(n * n), (1.0, 2.0)))
    basis = np.linalg.qr(padded.reshape(n * n, 2) + START_NOISE * generic)[0]
    image = _block_product(diag, upper, basis)
    theta, ritz, res_vecs, res = _ritz(basis, image)
    unmet = [True, True]
    for step in range(ROUNDS * STEPS):
        if step % STEPS == 0:
            factor = _certified_factor(diag, upper, theta, res)
            if factor is None:
                return None
        # Converged columns are locked: their residuals are rounding noise.
        new = _extend(basis, _shift_invert(factor, res_vecs[:, unmet]))
        if not new.size:
            return None  # the Krylov space stopped growing
        basis = np.hstack([basis, new])
        image = np.hstack([image, _block_product(diag, upper, new)])
        theta, ritz, res_vecs, res = _ritz(basis, image)
        tol, gap_tol = (t * max(1.0, abs(theta[0])) for t in (RESIDUAL_TOL, GAP_TOL))
        # lambda_1's eigenvalue error is at most r_1^2 / (lambda_2 - lambda_1).
        unmet = [res[0] >= tol,
                 res[1] >= gap_tol and res[1] * res[1] >= gap_tol * (theta[2] - theta[1])]
        if not any(unmet):
            if theta[1] - theta[0] < SHIFT * max(1.0, abs(theta[0])):
                return None  # unresolved gap: the dense path takes eigh's vector
            # The Ritz residual is accumulated over the steps; this one is taken afresh.
            ritz[:, 0] /= _norm(ritz[:, 0])
            ground = ritz[:, 0]
            if _norm(_block_product(diag, upper, ground) - theta[0] * ground) < tol:
                return theta[:2], ritz
            unmet[0] = True
    return None


def _lower_sector(sectors: list) -> tuple[int, float]:
    """Index of the lower sector and the gap to the next level of either sector."""
    spectra = [w for w, _ in sectors]
    # Strict <: on an exact tie the first sector, Pi = +1, wins.
    k = 1 if spectra[1][0] < spectra[0][0] else 0
    lowest = np.sort(np.concatenate([w[:2] for w in spectra]))
    return k, float(lowest[1] - lowest[0])


def ground_state(p: SystemParams, basis: str = "transformed",
                 start: tuple[np.ndarray, np.ndarray] | None = None) -> GroundStateResult:
    """Lowest eigenpair with gap, parity and degeneracy flag, solved per parity sector.

    ``gap`` is the distance to the next level of either sector, so a
    degeneracy across the sectors is flagged like one inside a sector.
    ``residual`` is ||H psi - E psi|| of the returned state and ``solver``
    the path that found it (module docstring).  ``start``, one (m^2, 2)
    array per sector from a cutoff m <= N (the ``ritz_vectors`` of an
    earlier result), is where the block path starts; other paths ignore it.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
    solver, sectors = "dense", []
    if p.N >= BLOCK_MIN_N:
        if not _zero_frequency(p):
            traps = np.errstate(over="raise", invalid="raise", divide="raise")
            with suppress(FloatingPointError), traps:
                diags, upper = h.tridiagonal
                for diag, first in zip(diags, start or (None, None)):
                    if (sector := _block_sector(diag, upper, first)) is None:
                        break
                    sectors.append(sector)
        # A degenerate point's vector is the solver's pick among equals, so the
        # dense path's pick stays the one reported.
        if len(sectors) < 2 or _lower_sector(sectors)[1] < DEGENERACY_TOL:
            sectors = []
        solver = "block" if sectors else "block-fallback"
    if not sectors:
        sectors = [(eig_hermitian(block, vectors=False)[0], None) for block in h.entries]
    k, gap = _lower_sector(sectors)
    w, vectors = sectors[k]
    if vectors is None:
        block = h.entries[k]
        ground = _fix_sign(_lowest_vector(block, w))
        h_ground = block @ ground
    else:
        diags, upper = h.tridiagonal
        ground = _fix_sign(vectors[:, 0])
        h_ground = _block_product(diags[k], upper, ground)
    vec = np.zeros(2 * p.N * p.N)
    vec[_parity_sector(p.N, PARITY_SIGNS[k])] = ground
    degenerate = gap < DEGENERACY_TOL
    return GroundStateResult(
        energy=float(w[0]),
        state=StateVector(vec, h.factor_dims),
        gap=gap,
        degenerate_flag=degenerate,
        residual=_norm(h_ground - w[0] * ground),
        solver=solver,
        imprecise=degenerate and np.finfo(float).eps * h.norm_bound >= DEGENERACY_TOL,
        ritz_vectors=tuple(v for _, v in sectors) if solver == "block" else None,
    )
