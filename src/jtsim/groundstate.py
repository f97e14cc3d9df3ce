"""Ground states from the parity blocks, by one of two solver paths.

This module is the solver only: ``eig_hermitian`` and ``ground_state``,
which picks the builder for its basis.  What the transformed basis means
where the mode rotation is undefined (k_1 = k_2 = 0) is decided in
:mod:`jtsim.model`.  Entanglement, sweeps and the cutoff convergence ladder
live in the modules above it.  Every model Hamiltonian is real symmetric,
so ground states are real; the sign is fixed by making the
largest-magnitude amplitude positive.

The builders return the bands of the two N^2 x N^2 parity blocks B_+ and B_-
of H (``ParityBlocks``), and each path takes the view it needs.  The solver
needs H's two lowest levels, which give the energy and the gap, and the
ground vector: it has definite parity, and on an exact tie between the
blocks the Pi = +1 sector wins.  ``GroundStateResult.solver`` names the path
that supplied them:

* ``"dense"`` (N < BLOCK_MIN_N): ``eigvalsh`` of each dense block
  (``ParityBlocks.entries``), then the lower block's vector by inverse
  iteration (``_lowest_vector``).
* ``"block"`` (N >= BLOCK_MIN_N): in (n1, n2) order a block is
  block-tridiagonal (``ParityBlocks.tridiagonal``), N diagonal N x N blocks
  (tridiagonal through g2) joined by N x N off-diagonal ones (g1 on the
  diagonal, the hopping on the subdiagonal) that both blocks share; the path
  never forms a dense N^2 x N^2 block.  It solves both blocks in one Krylov
  run on A = diag(B_+, B_-), whose spectrum is H's (``_joint_solve``); every
  product, factor and substitution carries the block axis, so one numpy call
  serves both blocks.  A block LDL^T of A - sigma I whose pivots all have a
  Cholesky factor exists exactly when sigma is below lambda_0(H) (Sylvester's
  law of inertia), so a successful factor certifies the shift.  Shift-invert
  block Krylov steps on that factor, each followed by a Rayleigh-Ritz step on
  A, give H's two lowest Ritz pairs without a dense solve or eigvalsh; sigma
  is refined and re-certified between rounds.  The factor keeps the inverse
  pivots and the multipliers, so each shift-invert is one batched product
  with the inverse pivots plus one small product per block row and sweep.
  The ground Ritz vector is restricted to its dominant block and
  renormalised, so the state has exactly zero amplitude off its sector, and
  its residual is taken afresh on that block.  The run starts from two
  columns of a smaller cutoff over both blocks, zero-padded: the two lowest
  of the blocks' four lowest vectors on their leading m x m Fock grids,
  m = min(START_N, N // 2), or the two lowest Ritz vectors of a block solve
  at a smaller N (``start``), which the result hands on in ``ritz_vectors``
  for the next rung of a cutoff ladder.  The start only changes where the
  Krylov space begins; the shift is still certified by its factor and the
  stop rule is the same.
* ``"block-fallback"``: the point has a zero-frequency mode
  (``model._zero_frequency``), so the block path is not tried; or the
  block path could not certify a shift, missed its stop rule within ROUNDS x
  STEPS steps, overflowed, found H's two lowest levels in one block with a
  gap it cannot resolve, or found the point degenerate.  The dense path then
  solves the point, so the result is the dense one bit for bit, and a
  degenerate point keeps the dense path's pick of vector.  ``ground_state``
  judges a zero-frequency point once, before the build, and warns at its caller
  with a ``RuntimeWarning`` that names the point; the builders build any finite
  point silently.

A gap below DEGENERACY_TOL flags the point degenerate, unless the solver
cannot resolve a gap that small: eigenvalues are good to about eps ||H||, and
where that is at least DEGENERACY_TOL the point is flagged ``imprecise`` instead.
Only the dense path reports a degenerate point; ||H|| is its largest |eigenvalue|.

The builders' blocks are finite and symmetric by construction (``ParityBlocks``),
so only ``eig_hermitian`` checks its input.  A non-finite band fails the block
path's floating-point traps or its residual test, and the fallback refuses it.
"""

from __future__ import annotations

import math
import warnings
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

# The block path serves N >= BLOCK_MIN_N.  Dense / block ms at ten preset points,
# medians of 15 in-process ground_state calls at one BLAS thread: at N = 14 the block
# path wins at 7 (ladder point 5.8 / 5.3, fig3 t = 0.5 7.2 / 3.6, fig6 t = 0.05
# 7.7 / 3.7) and loses at fig5 t = 1.0, 1.5 and 1.95 (7.6 / 7.9, 7.6 / 8.5, 7.6 / 10.5);
# at N = 16 it loses only at fig5 t = 1.95 (13.6 / 14.8); at N = 12 it loses at 6
# (fig5 t = 1.95 4.5 / 10.4).  So the default sweeps' rows (N = 10) stay dense and
# their N + 4 = 14 verification takes the block path.
BLOCK_MIN_N = 14
# Without a start of its own, the run starts from the two lowest of the blocks' four
# lowest vectors on their leading m x m Fock grids, m = min(START_N, N // 2): below
# N = 20 the eigh of a START_N grid would cost about what the dense path does.  Either
# start gets START_NOISE of a fixed generic vector over both blocks, so that neither
# block, and no symmetry class of either, is missing from the Krylov space.
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
    # H's two lowest Ritz vectors over both sectors, (2 N^2, 2), when solver == "block"; else None.
    ritz_vectors: np.ndarray | None


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


def _norm(v: np.ndarray) -> float:
    """2-norm taken on v / max|v|, which cannot over- or underflow; nan if v holds a nan."""
    top = np.max(np.abs(v))
    return float(top * np.linalg.norm(v / top)) if top > 0 else float(top)


def _lowest_vector(block: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit eigenvector x of a checked ``block`` for w[0] (see SHIFT), and ||block x - w[0] x||."""
    scale = max(1.0, abs(w[0]))
    if w[1] - w[0] >= SHIFT * scale:
        shifted = block - (w[0] - SHIFT * (w[1] - w[0])) * np.eye(len(block))
        x = np.ones(len(block))
        for _ in range(MAX_SOLVES):
            x = np.linalg.solve(shifted, x)
            x /= _norm(x)
            if (residual := _norm(block @ x - w[0] * x)) < RESIDUAL_TOL * scale:
                return x, residual
    x = np.linalg.eigh(block)[1][:, 0]
    return x, _norm(block @ x - w[0] * x)


def _block_cholesky(diag: np.ndarray, upper: np.ndarray, sigma: float):
    """Block LDL^T of diag(B_+, B_-) - sigma I; raises LinAlgError unless sigma is below
    the lowest eigenvalue of both blocks.

    ``diag[b, i]`` is block b's block (i, i) and ``upper[i]`` the block (i, i + 1) that
    both share.  The pivots are S_0 = B_00 - sigma I and S_(i+1) = B_(i+1,i+1) - sigma I
    - L_(i+1,i) B_(i,i+1), with the multipliers L_(i+1,i) = B_(i,i+1)^T S_i^-1; a
    Cholesky factor of each pivot certifies it positive definite.  Returns, with the
    block axis first, the S_i^-1 and the L_(i+1,i).
    """
    # Row i holds B_ii - sigma I, then the pivot S_i, then, once S_i is inverted, L_(i+1,i).
    work = diag - sigma * np.eye(diag.shape[-1])
    inv_pivot = np.empty_like(diag)
    for i in range(diag.shape[1]):
        np.linalg.cholesky(work[:, i])  # the certificate: raises unless S_i is positive definite
        inv_pivot[:, i] = np.linalg.inv(work[:, i])
        if i < len(upper):
            work[:, i] = upper[i].T @ inv_pivot[:, i]
            work[:, i + 1] -= work[:, i] @ upper[i]
    return inv_pivot, work[:, :-1]


def _block_product(diag: np.ndarray, upper: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(B_+, B_-) x, or B x for a one-block ``diag``, for a vector x or the columns of x."""
    b, n = diag.shape[:2]
    cols = x.reshape(b, n, n, -1)
    y = diag @ cols
    y[:, :-1] += upper @ cols[:, 1:]
    y[:, 1:] += upper.swapaxes(1, 2) @ cols[:, :-1]
    return y.reshape(x.shape)


def _shift_invert(factor, x: np.ndarray) -> np.ndarray:
    """(diag(B_+, B_-) - sigma I)^-1 x for the columns of x, from ``_block_cholesky``'s factor.

    Forward: z_i = x_i - L_(i,i-1) z_(i-1); then w = S^-1 z, one batched call over both
    blocks' pivots; back: u_i = w_i - L_(i+1,i)^T u_(i+1).
    """
    inv_pivot, lower = factor
    b, n = inv_pivot.shape[:2]
    y = x.reshape(b, n, n, -1).copy()
    for i in range(1, n):
        y[:, i] -= lower[:, i - 1] @ y[:, i - 1]
    y = inv_pivot @ y
    lower_t = lower.swapaxes(2, 3)
    for i in range(n - 2, -1, -1):
        y[:, i] -= lower_t[:, i] @ y[:, i + 1]
    return y.reshape(x.shape)


def _extend(basis: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of ``new`` outside span(basis).

    Two projections; a column with under 1e-8 of its norm outside the span
    is dropped, since a third would be needed to keep the basis orthonormal.
    """
    q, r = np.linalg.qr(new - basis @ (basis.T @ new))
    q = q[:, np.abs(np.diag(r)) > 1e-8 * np.linalg.norm(new, axis=0)]
    return np.linalg.qr(q - basis @ (basis.T @ q))[0]


def _certified_factor(diag, upper, theta: np.ndarray, res: np.ndarray):
    """``_block_cholesky``'s factor at the round's shift (see ROUNDS), lowered until it
    exists; or None."""
    distance = 2 * res[0] + SHIFT * (theta[1] - theta[0])
    for _ in range(CERTIFY_TRIES):
        try:
            return _block_cholesky(diag, upper, theta[0] - distance)
        except np.linalg.LinAlgError:
            distance *= 4
    return None


def _ritz(basis: np.ndarray, image: np.ndarray):
    """Rayleigh-Ritz on A over span(basis), image = A basis: Ritz values, the lowest
    two Ritz vectors, their residual vectors and residual norms."""
    theta, coef = np.linalg.eigh(basis.T @ image)
    ritz = basis @ coef[:, :2]
    res_vecs = image @ coef[:, :2] - ritz * theta[:2]
    return theta, ritz, res_vecs, [_norm(r) for r in res_vecs.T]


def _two_lowest(lowest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sector, level) of H's two lowest levels, from each sector's two lowest values
    ``lowest`` (2, 2); the sort is stable, so on a tie the Pi = +1 sector comes first."""
    return np.unravel_index(np.argsort(lowest, axis=None, kind="stable")[:2], lowest.shape)


def _joint_solve(diag: np.ndarray, upper: np.ndarray, start: np.ndarray | None = None):
    """H's two lowest levels by one Krylov run on A = diag(B_+, B_-); or None to fall back.

    Returns (theta_0, theta_1), the two lowest Ritz vectors of A (2N^2, 2), the sector k
    of the ground vector, that vector restricted to B_k and renormalised, and its fresh
    residual on B_k.  It refuses a gap it cannot resolve inside one block, and a
    degenerate pair, whose vector is the solver's pick among equals: the dense path's
    pick stays the one reported.  ``start`` holds two columns over both sectors of an
    m x m Fock grid of a cutoff m <= N; by default the two lowest of the four lowest
    vectors of the blocks' leading m x m grids, m = min(START_N, N // 2).
    """
    b, n = diag.shape[:2]
    if start is None:
        m = min(START_N, n // 2)
        w, v = np.linalg.eigh(_assemble(diag[:, :m, :m, :m], upper[:m - 1, :m, :m]))
        sector, level = _two_lowest(w[:, :2])
        start = np.zeros((b, m * m, 2))
        start[sector, :, (0, 1)] = v[sector, :, level]
        start = start.reshape(b * m * m, 2)
    start = np.asarray(start)
    m = math.isqrt(len(start) // b)
    if b * m * m != len(start) or m > n or start.shape[1:] != (2,):
        raise ValueError(f"a start needs two columns over both sectors of an m x m grid, "
                         f"m <= {n}; got {start.shape}")
    padded = np.zeros((b, n, n, 2))
    padded[:, :m, :m] = start.reshape(b, m, m, 2)
    generic = np.cos(np.outer(np.arange(b * n * n), (1.0, 2.0)))
    basis = np.linalg.qr(padded.reshape(b * n * n, 2) + START_NOISE * generic)[0]
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
            halves = ritz.reshape(b, n * n, 2)
            # each Ritz vector's dominant sector; on a tie Pi = +1
            sectors = np.argmax(np.linalg.norm(halves, axis=1), axis=0)
            same = sectors[0] == sectors[1]
            if theta[1] - theta[0] < (SHIFT * max(1.0, abs(theta[0])) if same else DEGENERACY_TOL):
                return None
            k = int(sectors[0])
            ground = halves[k, :, 0] / _norm(halves[k, :, 0])
            # The Ritz residual is accumulated over the steps; this one is taken afresh.
            fresh = _norm(_block_product(diag[k:k + 1], upper, ground) - theta[0] * ground)
            if fresh < tol:
                return theta[:2], ritz, k, ground, fresh
            unmet[0] = True
    return None


def ground_state(p: SystemParams, basis: str = "transformed",
                 start: np.ndarray | None = None) -> GroundStateResult:
    """Lowest eigenpair with gap, parity and degeneracy flag, solved on the parity sectors.

    ``gap`` is the distance to the next level of either sector, so a degeneracy across
    the sectors is flagged like one inside a sector.  ``residual`` is ||H psi - E psi||
    of the returned state, the value the stop test that accepted psi measured, and
    ``solver`` the path that found it (module docstring).  ``start``, one (2 m^2, 2)
    array over both sectors of a cutoff m <= N (the ``ritz_vectors`` of an earlier
    result), is where the block path starts; other paths ignore it.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    if zero_frequency := _zero_frequency(p):
        why = ("decoupled oscillator makes the ground state degenerate" if p.J == 0.0 else
               f"J={p.J:g} leaves H with no ground state, values are truncation artefacts")
        warnings.warn(f"zero-frequency mode at omega_1={p.omega_1:g} omega_2={p.omega_2:g} "
                      f"k_1={p.k_1:g} k_2={p.k_2:g}: {why}", RuntimeWarning, stacklevel=2)
    h = build_lab_hamiltonian(p) if basis == "lab" else build_transformed_hamiltonian(p)
    solver, solved = "dense", None
    if p.N >= BLOCK_MIN_N:
        if not zero_frequency:
            traps = np.errstate(over="raise", invalid="raise", divide="raise")
            with suppress(FloatingPointError), traps:
                solved = _joint_solve(*h.tridiagonal, start)
        solver = "block" if solved else "block-fallback"
    if solved is None:
        spectra = np.array([eig_hermitian(block, vectors=False)[0] for block in h.entries])
        sector, level = _two_lowest(spectra[:, :2])
        w, ritz, k = spectra[sector, level], None, int(sector[0])
        ground, residual = _lowest_vector(h.entries[k], spectra[k])
        # The eigenvalues are good to about eps ||H||_2, the largest |eigenvalue|.
        unresolved = np.finfo(float).eps * np.max(np.abs(spectra[:, [0, -1]])) >= DEGENERACY_TOL
    else:
        (w, ritz, k, ground, residual), unresolved = solved, False  # _joint_solve resolved the gap
    gap = float(w[1] - w[0])
    # The largest-magnitude amplitude is made positive, so the output is deterministic.
    sign = -1.0 if ground[np.argmax(np.abs(ground))] < 0 else 1.0
    vec = np.zeros(2 * p.N * p.N)
    vec[_parity_sector(p.N, PARITY_SIGNS[k])] = sign * ground
    degenerate = gap < DEGENERACY_TOL
    return GroundStateResult(
        energy=float(w[0]),
        state=StateVector(vec, (2, p.N, p.N)),
        gap=gap,
        degenerate_flag=degenerate,
        residual=residual,
        solver=solver,
        imprecise=bool(degenerate and unresolved),
        ritz_vectors=ritz,
    )
