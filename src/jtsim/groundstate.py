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
  (``ParityBlocks.entries``), then the ground block's vector by inverse
  iteration (``_level_vector``).  The result hands on H's two lowest vectors
  in ``ritz_vectors``, computed on their first read (``_lowest_pair``): the
  ground vector and, by the same iteration, the vector of H's next level.
* ``"block"`` (N >= BLOCK_MIN_N): in (n1, n2) order a block is
  block-tridiagonal (``ParityBlocks.tridiagonal``), N diagonal N x N blocks
  (tridiagonal through g2) joined by N x N off-diagonal ones (g1 on the
  diagonal, the hopping on the subdiagonal) that both blocks share; the path
  never forms a dense N^2 x N^2 block.  It solves both blocks in one Krylov
  run on A = diag(B_+, B_-), whose spectrum is H's (``_joint_solve``); every
  product, factor, substitution, orthonormalisation and Rayleigh-Ritz step
  carries the block axis, so one numpy call serves both blocks; the factor and
  the substitutions hold each block row of both blocks contiguously.  A block
  LDL^T of A - sigma I whose pivots all have a Cholesky factor exists exactly
  when sigma is below lambda_0(H) (Sylvester's law of inertia), so a
  successful factor certifies the shift.  Shift-invert block Krylov steps on
  that factor, each followed by a Rayleigh-Ritz step on each block, give H's
  two lowest Ritz pairs without a dense solve or eigvalsh; sigma is refined
  and re-certified between rounds.  The factor keeps the inverse pivots and
  the multipliers, so each shift-invert is one batched product with the
  inverse pivots plus one small product per block row and sweep.  The run
  keeps one Krylov basis per block, so every Ritz vector, the ground vector
  included, has exactly zero amplitude off its sector, and H's two lowest
  levels are picked from the blocks' Ritz values by the dense path's rule.
  The ground vector's residual is taken afresh on its block.  The run starts
  from the ``ritz_vectors`` of a result at a smaller cutoff m, zero-padded
  (``start``): a ``block`` result hands on H's two lowest Ritz vectors, a
  ``dense`` one its pair and a ``block-fallback`` one nothing.  A cutoff
  ladder hands them from rung to rung, and without one the point solves its
  own rung below, m = min(START_N, N // 2), which takes the dense path; H's
  leading m x m grid is H at cutoff m.  The start only changes where the
  Krylov space begins; the shift is still certified by its factor, the stop
  rule is the same, and the run judges the point's own gap, whether or not
  the rung below is degenerate.
* ``"block-fallback"``: the point has a zero-frequency mode
  (``model._zero_frequency``), so the block path is not tried; or the
  block path could not certify a shift, missed its stop rule within ROUNDS x
  STEPS steps, found its Krylov space stopped growing, overflowed, found H's
  two lowest levels in one block with a gap it cannot resolve, or found the
  point degenerate.  The dense path then solves the point, so the result is
  the dense one bit for bit, and a degenerate point keeps the dense path's
  pick of vector.  ``ground_state`` judges a zero-frequency point once, before
  the build, and warns at its caller with a ``RuntimeWarning`` that names the
  point; the builders build any finite point silently.

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .model import PARITY_SIGNS, StateVector, SystemParams, _parity_sector
from .model import _zero_frequency, build_lab_hamiltonian, build_transformed_hamiltonian
# parity_operator is unused here but stays importable as
# jtsim.groundstate.parity_operator, where the perfbench layer tracer looks it up.
from .model import parity_operator  # noqa: F401

DEGENERACY_TOL = 1e-10

# Inverse iteration for a block's level lambda_i, i = 0 or 1, shifts it down by SHIFT *
# (lambda_1 - lambda_0) and stops at ||H x - lambda_i x|| < RESIDUAL_TOL * max(1, |lambda_i|).
# A gap below SHIFT * max(1, |lambda_i|), or MAX_SOLVES solves without that, takes a full eigh.
SHIFT = 1e-8
RESIDUAL_TOL = 1e-12
MAX_SOLVES = 4

# The block path serves N >= BLOCK_MIN_N.  Dense / cold-start block ms at ten preset
# points, medians of 15 in-process ground_state calls at one BLAS thread on a 2-vCPU
# Xeon host: at N = 14 the block path wins at 8 (ladder point 3.3 / 2.9, fig3 t = 0.5
# 4.5 / 1.9, fig5 t = 1.0 4.4 / 4.1, fig6 t = 0.05 4.5 / 1.9) and loses at fig5 t = 1.5
# and 1.95 (4.6 / 5.2, 4.5 / 5.6); at N = 16 it wins at all 10 (fig5 t = 1.95 7.8 / 6.4);
# at N = 12 it loses at 5 (fig5 t = 1.95 2.5 / 5.3).  So the default sweeps' rows
# (N = 10) stay dense and their N + 4 = 14 verification takes the block path.
BLOCK_MIN_N = 14
# Without a start, the run starts from its rung below, m = min(START_N, N // 2), solved
# dense.  Cold-solve ms against START_N = 10 at six preset points (ladder, fig2 and fig3
# t = 0.5, fig5 t = 1.0 and 1.5, fig6 t = 0.05) and N = 24, 30 and 40, medians of 11
# alternating in-process calls on the host above: an uncapped m = N // 2 was slower at 17
# of 18 (fig5 t = 1.5, N = 30: 16.5 / 14.2); START_N = 12 was slower at 17; START_N = 8
# won 9 and lost 8, fig5 t = 1.0 at N = 40 by 21.1 / 13.2.
# The start gets START_NOISE of a fixed generic vector over both blocks, so that neither
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
    # ritz_vectors, or the function that computes them on their first read.
    _pair: np.ndarray | Callable[[], np.ndarray] | None = field(repr=False, compare=False)

    @cached_property
    def ritz_vectors(self) -> np.ndarray | None:
        """H's two lowest vectors over both sectors, (2 N^2, 2), each exactly zero outside
        its sector: the ground vector, then the vector of H's next level.  A ``block``
        result's are Ritz vectors, a ``dense`` result's come by inverse iteration on their
        blocks (``_lowest_pair``); None after ``block-fallback``.
        A dense result keeps H's bands, each sector's two lowest levels and its ground vector,
        and computes them on first read."""
        return self._pair() if callable(self._pair) else self._pair

    def start_for(self, N: int) -> np.ndarray | None:
        """The ``start`` this result hands a solve at cutoff N: ``ritz_vectors`` if that solve
        takes the block path, the one path that reads a start; else None, computing nothing."""
        return self.ritz_vectors if N >= BLOCK_MIN_N else None


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


def _level_vector(block: np.ndarray, w: np.ndarray, i: int) -> tuple[np.ndarray, float]:
    """Unit eigenvector x of a checked ``block`` for w[i] (see SHIFT), and ||block x - w[i] x||."""
    scale = max(1.0, abs(w[i]))
    # A shift that rounds onto w[i] can make the solve exactly singular: eigh then.
    with suppress(np.linalg.LinAlgError):
        if w[1] - w[0] >= SHIFT * scale:
            shifted = block - (w[i] - SHIFT * (w[1] - w[0])) * np.eye(len(block))
            x = np.ones(len(block))
            for _ in range(MAX_SOLVES):
                x = np.linalg.solve(shifted, x)
                x /= _norm(x)
                if (residual := _norm(block @ x - w[i] * x)) < RESIDUAL_TOL * scale:
                    return x, residual
    x = np.linalg.eigh(block)[1][:, i]
    return x, _norm(block @ x - w[i] * x)


def _lowest_pair(blocks: np.ndarray, lowest: np.ndarray, sector: np.ndarray,
                 level: np.ndarray, ground: np.ndarray) -> np.ndarray:
    """H's two lowest vectors over both sectors, (2 d, 2), from its dense sector blocks
    ``blocks`` (2, d, d), their two lowest eigenvalues ``lowest`` (2, 2), the (sector,
    level) of H's two lowest levels (``_two_lowest``) and its ground vector: the ground
    vector, then the vector of H's next level (``_level_vector``), in whichever sector."""
    pair = np.zeros((2, blocks.shape[1], 2))
    pair[sector[0], :, 0] = ground
    pair[sector[1], :, 1] = _level_vector(blocks[sector[1]], lowest[sector[1]], level[1])[0]
    return pair.reshape(-1, 2)


def _block_cholesky(diag: np.ndarray, upper: np.ndarray, sigma: float):
    """Block LDL^T of diag(B_+, B_-) - sigma I; raises LinAlgError unless sigma is below
    the lowest eigenvalue of both blocks.

    ``diag[b, i]`` is block b's block (i, i) and ``upper[i]`` the block (i, i + 1) that
    both share.  The pivots are S_0 = B_00 - sigma I and S_(i+1) = B_(i+1,i+1) - sigma I
    - L_(i+1,i) B_(i,i+1), with the multipliers L_(i+1,i) = B_(i,i+1)^T S_i^-1; a
    Cholesky factor of each pivot certifies it positive definite.  Returns, with the
    block row axis first and the block axis second, the S_i^-1 and the L_(i+1,i), so
    that each block row is one contiguous stack over both blocks.
    """
    # Row i holds B_ii - sigma I, then the pivot S_i, then, once S_i is inverted, L_(i+1,i).
    work = np.ascontiguousarray(diag.swapaxes(0, 1))
    work -= sigma * np.eye(diag.shape[-1])
    inv_pivot = np.empty_like(work)
    for i in range(len(work)):
        np.linalg.cholesky(work[i])  # the certificate: raises unless S_i is positive definite
        inv_pivot[i] = np.linalg.inv(work[i])
        if i < len(upper):
            work[i] = upper[i].T @ inv_pivot[i]
            work[i + 1] -= work[i] @ upper[i]
    return inv_pivot, work[:-1]


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
    blocks' pivots; back: u_i = w_i - L_(i+1,i)^T u_(i+1).  Each step works on block
    row i of both blocks at once, held contiguously.
    """
    inv_pivot, lower = factor
    n, b = inv_pivot.shape[:2]
    y = np.ascontiguousarray(x.reshape(b, n, n, -1).swapaxes(0, 1))
    for i in range(1, n):
        y[i] -= lower[i - 1] @ y[i - 1]
    y = inv_pivot @ y
    lower_t = lower.swapaxes(2, 3)
    for i in range(n - 2, -1, -1):
        y[i] -= lower_t[i] @ y[i + 1]
    return y.swapaxes(0, 1).reshape(x.shape)


def _extend(basis: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning, in each block b, the part of new[b] outside span(basis[b]),
    for a (2, d, c) ``basis`` and (2, d, j) ``new``.

    Two projections.  A column is kept when more than 1e-12 of its norm lies outside the
    span after the first (|R_jj| of its QR).  That is about 250 times the rounding floor of
    one projection (a column in the span reads at most 3.9e-15 of its norm, for d up to 3200
    and c up to 130) and about 7000 times below the weakest expansion column measured (7.2e-9
    of its norm in one block, over 9306 block columns of 400 random cold solves at N = 14 to
    24 in both bases and of cutoff ladders 10, 20, 30 at every 4th preset grid point).  A
    column kept in one block is kept in both, so each block gains the same number of
    columns.  A nan column fails the test.
    """
    q, r = np.linalg.qr(new - basis @ (basis.swapaxes(1, 2) @ new))
    keep = np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-12 * np.linalg.norm(new, axis=1)
    q = q[:, :, keep.any(axis=0)]
    return np.linalg.qr(q - basis @ (basis.swapaxes(1, 2) @ q))[0]


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


def _two_lowest(lowest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sector, level) of H's two lowest levels, from each sector's two lowest values
    ``lowest`` (2, 2); the sort is stable, so on a tie the Pi = +1 sector comes first."""
    return np.unravel_index(np.argsort(lowest, axis=None, kind="stable")[:2], lowest.shape)


def _ritz(basis: np.ndarray, image: np.ndarray):
    """Rayleigh-Ritz on each block b of A over span(basis[b]), for a (2, d, c) ``basis`` and
    image = A basis.  Returns H's three lowest Ritz values over both blocks, the residual
    norms of H's two lowest Ritz pairs and their (sector, level) (``_two_lowest``), and
    each block's two lowest Ritz vectors and residual vectors, (2, d, 2) each."""
    theta, coef = np.linalg.eigh(basis.swapaxes(1, 2) @ image)
    ritz = basis @ coef[:, :, :2]
    res_vecs = image @ coef[:, :, :2] - ritz * theta[:, None, :2]
    res = np.array([[_norm(r) for r in block.T] for block in res_vecs])
    sector, level = _two_lowest(theta[:, :2])
    return np.sort(theta, axis=None)[:3], res[sector, level], (sector, level), ritz, res_vecs


def _joint_solve(diag: np.ndarray, upper: np.ndarray, start: np.ndarray):
    """H's two lowest levels by one Krylov run on A = diag(B_+, B_-); or None to fall back.

    The run keeps one Krylov basis per block, (2, N^2, c), so every Ritz vector lies in
    one sector, and picks H's two lowest levels from the blocks' Ritz values by the dense
    path's rule (``_two_lowest``).  Returns (theta_0, theta_1), H's two lowest Ritz vectors
    (2N^2, 2), each exactly zero outside its sector, the sector k of the ground, its Ritz
    vector on B_k and that vector's fresh residual on B_k.  It refuses a gap it cannot
    resolve inside one block, and a degenerate pair, whose vector is the solver's pick
    among equals: the dense path's pick stays the one reported.  ``start`` holds two
    columns over both sectors of an m x m Fock grid of a cutoff m <= N: the
    ``ritz_vectors`` of a smaller cutoff's result.
    """
    b, n = diag.shape[:2]
    start = np.asarray(start)
    m = math.isqrt(len(start) // b)
    if b * m * m != len(start) or m > n or start.shape[1:] != (2,):
        raise ValueError(f"a start needs two columns over both sectors of an m x m grid, "
                         f"m <= {n}; got {start.shape}")
    padded = np.zeros((b, n, n, 2))
    padded[:, :m, :m] = start.reshape(b, m, m, 2)
    generic = np.cos(np.outer(np.arange(b * n * n), (1.0, 2.0))).reshape(b, n * n, 2)
    basis = np.linalg.qr(padded.reshape(b, n * n, 2) + START_NOISE * generic)[0]
    image = _block_product(diag, upper, basis)
    w, r, (sector, level), ritz, res_vecs = _ritz(basis, image)
    unmet = [True, True]
    for step in range(ROUNDS * STEPS):
        if step % STEPS == 0:
            factor = _certified_factor(diag, upper, w, r)
            if factor is None:
                return None
        # Converged columns are locked: their residuals are rounding noise.
        new = _extend(basis, _shift_invert(factor, res_vecs[:, :, unmet]))
        if not new.size:
            return None  # the Krylov space stopped growing
        basis = np.concatenate([basis, new], axis=2)
        image = np.concatenate([image, _block_product(diag, upper, new)], axis=2)
        w, r, (sector, level), ritz, res_vecs = _ritz(basis, image)
        tol, gap_tol = (t * max(1.0, abs(w[0])) for t in (RESIDUAL_TOL, GAP_TOL))
        # lambda_1's eigenvalue error is at most r_1^2 / (lambda_2 - lambda_1); w[2] is H's
        # third-lowest Ritz value over both blocks.
        met = [r[0] < tol, r[1] < gap_tol or r[1] * r[1] < gap_tol * (w[2] - w[1])]
        if all(met):
            k = int(sector[0])
            if w[1] - w[0] < (SHIFT * max(1.0, abs(w[0])) if sector[1] == k else DEGENERACY_TOL):
                return None
            ground = ritz[k, :, 0]
            # The Ritz residual is accumulated over the steps; this one is taken afresh.
            fresh = _norm(_block_product(diag[k:k + 1], upper, ground) - w[0] * ground)
            if fresh < tol:
                pair = np.zeros_like(ritz)
                pair[sector, :, [0, 1]] = ritz[sector, :, level]
                return w[:2], pair.reshape(-1, 2), k, ground, fresh
            met[0] = False
        # Expand both blocks' level-0 residuals for H's ground, and for its next level where
        # that is the other sector's ground; their level-1 residuals where it is not.
        unmet = [not met[0] or not met[1] and level[1] == 0, not met[1] and level[1] == 1]
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
                if start is None:  # the rung below
                    start = ground_state(replace(p, N=min(START_N, p.N // 2)), basis).ritz_vectors
                solved = _joint_solve(*h.tridiagonal, start)
        solver = "block" if solved else "block-fallback"
    if solved is None:
        blocks = h.entries
        spectra = np.array([eig_hermitian(block, vectors=False)[0] for block in blocks])
        lowest = spectra[:, :2].copy()  # a copy: the pair keeps four levels, not the spectra
        sector, level = _two_lowest(lowest)
        w, k = lowest[sector, level], int(sector[0])
        ground, residual = _level_vector(blocks[k], lowest[k], 0)
        # The eigenvalues are good to about eps ||H||_2, the largest |eigenvalue|.
        unresolved = np.finfo(float).eps * np.max(np.abs(spectra[:, [0, -1]])) >= DEGENERACY_TOL
        pair = ((lambda: _lowest_pair(h.entries, lowest, sector, level, ground))
                if solver == "dense" else None)
    else:
        (w, pair, k, ground, residual), unresolved = solved, False  # _joint_solve resolved the gap
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
        _pair=pair,
    )
