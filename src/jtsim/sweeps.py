"""Parameter sweeps, the Fock-cutoff convergence ladder and their verification.

``run_point`` is the one way a parameter point is evaluated: sweep rows, the
higher-cutoff verification subsample and each rung of ``convergence_study``
call it, a recompute or a rung with the block solver's start from the same
point's row at the smaller cutoff (``GroundStateResult.start_for``).  All
return ``SweepRow``, whose ``reason`` is the one statement of why a row is
flagged.  Sweeps go to CSV plus a run manifest.

A ``SweepSpec`` sets one control variable ``var`` to t at each grid point
and holds the other parameters of ``base`` fixed; the manifest's ``control``
block records both.  ``base.N`` is the sweep's one Fock cutoff, checked by
``SystemParams``.  ``_control_values`` maps t: delta sets omega_{1,2} = 1 +-
t/2, kappa k_{2,1} = (1 +- t)/2, J the hopping, and delta_k both omega_{1,2}
= 1 +- t/2 and k_1 = k_2 = t.  The six built-in sweeps (in units of the qubit
frequency) reproduce the standard parameter scans:

    fig1  delta in [-2, 2], k_1 = k_2 = 0.1/sqrt(2), J = 0
    fig2  same with k_1 = k_2 = 1/sqrt(2)
    fig3  kappa in [-1, 1], omega_1 = 2*omega_2 = 0.1, J = 0
    fig4  same with omega_1 = 2*omega_2 = 1
    fig5  delta_k in [0, 2], J = 0
    fig6  J in [0, 0.1], k_1 = k_2 = 1/sqrt(2), omega_1 = 2*omega_2 = 0.2

Grid points are independent; ``run_sweep`` evaluates them in grid order
in one process.  ``_evaluate_grid_point`` guards every point a sweep solves,
its verification recomputes included: a point that raises becomes a failed
row rather than aborting the sweep.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from . import BLAS_THREADS, __version__
from .entanglement import EntanglementReport, report_from_state
from .groundstate import BASES, SOLVER_PATHS, GroundStateResult, ground_state
from .model import StateVector, SystemParams
from .model import mode_rotation_unitary, privileged_validity

MAX_GRID_POINTS = 10_000

# Re-running a subsample at N + 4 should move no negativity by more than this.
VERIFY_TOL = 5e-3
VERIFY_CUTOFF_BUMP = 4
VERIFY_POINTS = 10
# The lab and transformed ground energies of one point should agree within this.
XCHECK_TOL = 1e-4

CSV_COLUMNS = (
    "t",
    "omega_1",
    "omega_2",
    "k_1",
    "k_2",
    "J",
    "N",
    "en_s_b1b2",
    "en_s_b1",
    "en_s_b2",
    "en_b1_b2",
    "energy",
    "gap",
    "r1",
    "r2",
    "degenerate",
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: ``var`` set to t; ``base`` holds the other parameters and cutoff N."""

    name: str
    var: str
    base: SystemParams
    t_min: float
    t_max: float
    step: float
    basis: str = "transformed"

    def __post_init__(self):
        _control_values(self.var, 0.0)  # refuses an unknown var
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; expected one of {BASES}")
        if not all(map(math.isfinite, (self.t_min, self.t_max, self.step))):
            raise ValueError(
                f"t_min, t_max and step must be finite, got {self.t_min}, {self.t_max}, {self.step}"
            )
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if _grid_size(self) > MAX_GRID_POINTS:
            raise ValueError(f"grid exceeds {MAX_GRID_POINTS} points")
        points = grid_points(self)
        if len(set(map(_fmt, points))) < len(points):
            raise ValueError(f"step {self.step:g} repeats t printed to 12 significant digits")

    def params_at(self, t: float) -> SystemParams:
        return replace(self.base, **_control_values(self.var, t))


# What ``point`` and ``converge`` say of a row flagged for each kind of reason.
CAVEATS = {
    "degenerate": "degenerate ground state, values depend on solver pick",
    "imprecise": "gap below the solver's precision (eps*||H||), values are not resolved",
}


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point; a failed point keeps only t and its error."""

    t: float
    params: SystemParams | None = None
    report: EntanglementReport | None = None
    energy: float = math.nan
    gap: float = math.nan
    r1: float = math.nan
    r2: float = math.nan
    r3: float = math.nan
    valid: bool | None = None
    degenerate: bool = False
    error: str | None = None
    residual: float = math.nan
    solver: str | None = None
    imprecise: bool = False
    # The ground state behind the row; the row's outputs read its other fields only.
    solved: GroundStateResult | None = field(default=None, repr=False, compare=False)

    @property
    def reason(self) -> str | None:
        """Why the row is flagged: ``failed: <error>``, ``imprecise`` (a gap below the
        solver's precision), ``degenerate``, or None if clean."""
        if self.error is not None:
            return f"failed: {self.error}"
        if self.imprecise:
            return "imprecise"
        return "degenerate" if self.degenerate else None

    @property
    def caveat(self) -> str | None:
        """``CAVEATS`` of the reason's kind (the text before any ``": "``), or None."""
        return CAVEATS.get((self.reason or "").partition(": ")[0])

    @property
    def flagged(self) -> bool:
        return self.reason is not None


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    manifest: dict = field(default_factory=dict)


def _grid_size(spec: SweepSpec) -> float:
    """Number of grid points, or inf when the span overflows a float."""
    steps = (spec.t_max - spec.t_min) / spec.step + 1e-9
    return math.floor(steps) + 1 if steps < math.inf else math.inf


def grid_points(spec: SweepSpec) -> list[float]:
    return [round(spec.t_min + i * spec.step, 12) for i in range(_grid_size(spec))]


def run_point(p: SystemParams, basis: str = "transformed", t: float = math.nan,
              start: np.ndarray | None = None) -> SweepRow:
    """One fully evaluated parameter point (ground state from ``start``, negativities, validity)."""
    gs = ground_state(p, basis, start)
    rep = report_from_state(gs.state)
    validity = asdict(privileged_validity(p))
    return SweepRow(t, p, rep, gs.energy, gs.gap, degenerate=gs.degenerate_flag,
                    residual=gs.residual, solver=gs.solver, imprecise=gs.imprecise,
                    solved=gs, **validity)


def _evaluate_grid_point(spec: SweepSpec, t: float, below: SweepRow | None = None) -> SweepRow:
    """The row at t, started from ``below``, the point's row at a smaller cutoff, if given."""
    try:
        p = spec.params_at(t)
        return run_point(p, spec.basis, t=t, start=below.solved.start_for(p.N) if below else None)
    except Exception as exc:  # noqa: BLE001 - flagged row, sweep must finish
        return SweepRow(t, error=f"{type(exc).__name__}: {exc}")


def _max_negativity_change(a: EntanglementReport, b: EntanglementReport) -> float:
    """Largest |Delta E_N| over the four cuts of two reports."""
    return max(abs(x - y) for x, y in zip(astuple(a), astuple(b)))


def _verify_subsample(spec: SweepSpec, rows: list[SweepRow]) -> tuple[dict, list[SweepRow]]:
    """Recompute a few clean rows at N + 4: the manifest block and the recomputed rows.

    Each recompute starts from its row's ``ritz_vectors`` where it takes the block path.
    A recompute that is ``flagged`` (raised, ``degenerate`` or ``imprecise``) is listed in
    ``failed`` with its reason and fails the check, as a flagged rung fails ``converge``;
    the drift is taken over the clean recomputes, and is None when none of them exists.
    """
    clean = [r for r in rows if not r.flagged]
    picks = sorted(
        {int(i) for i in np.linspace(0, len(clean) - 1, min(VERIFY_POINTS, len(clean)))}
    )
    checked = [clean[i] for i in picks]
    bumped = replace(spec, base=replace(spec.base, N=spec.base.N + VERIFY_CUTOFF_BUMP))
    recomputed = [_evaluate_grid_point(bumped, row.t, row) for row in checked]
    failed = [{"t": hi.t, "reason": hi.reason} for hi in recomputed if hi.flagged]
    worst = max((_max_negativity_change(lo.report, hi.report)
                 for lo, hi in zip(checked, recomputed) if not hi.flagged), default=None)
    return {
        "points": [row.t for row in checked],
        "cutoff_check": bumped.base.N,
        "tolerance": VERIFY_TOL,
        "max_abs_negativity_diff": worst,
        "within_tol": False if failed else None if worst is None else worst < VERIFY_TOL,
        "failed": failed,
    }, recomputed


def run_sweep(spec: SweepSpec, verify_subsample: bool = True) -> SweepResult:
    """Evaluate every grid point in grid order; rows come back sorted by t."""
    start = time.perf_counter()
    rows = [_evaluate_grid_point(spec, t) for t in grid_points(spec)]

    flagged = [{"t": r.t, "reason": r.reason} for r in rows if r.flagged]
    swept = (*_control_values(spec.var, 0.0), "N")
    fixed = {name: value for name, value in asdict(spec.base).items() if name not in swept}
    manifest = {
        "blas_threads": dict(BLAS_THREADS),
        "code_version": __version__,
        "sweep": spec.name,
        "control": {"var": spec.var, "fixed": fixed},
        "basis": spec.basis,
        "cutoff": spec.base.N,
        "grid": {"t_min": spec.t_min, "t_max": spec.t_max, "step": spec.step},
        "rows": len(rows),
        "flagged_rows": len(flagged),
        "flagged": flagged,
        "max_residual": max((r.residual for r in rows if not r.flagged), default=None),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    solved = rows  # a failed row has no solver and counts for no path
    if verify_subsample:
        manifest["verification"], recomputed = _verify_subsample(spec, rows)
        solved = rows + recomputed
    manifest["solver_paths"] = {path: sum(r.solver == path for r in solved) for path in SOLVER_PATHS}
    manifest["runtime_s"] = time.perf_counter() - start
    return SweepResult(spec=spec, rows=rows, manifest=manifest)


# ---------------------------------------------------------------------------
# Fock-cutoff convergence ladder
# ---------------------------------------------------------------------------


def convergence_study(
    p: SystemParams, cutoffs, basis: str = "transformed"
) -> list[SweepRow]:
    """``p`` evaluated by ``run_point`` at each Fock cutoff.

    cutoffs must be ascending, each >= 2.  Each rung hands a rung on the block
    path its ``ritz_vectors`` as the start: a ``block`` rung its Ritz vectors,
    a ``dense`` rung H's two lowest vectors, a ``block-fallback`` rung nothing.
    Use successive_differences() on the result to see how fast the numbers
    settle.
    """
    rungs = [replace(p, N=n) for n in cutoffs]  # SystemParams refuses a bad cutoff
    if any(b.N <= a.N for a, b in zip(rungs, rungs[1:])):
        raise ValueError("cutoffs must be strictly ascending")
    rows = []
    for rung in rungs:
        start = rows[-1].solved.start_for(rung.N) if rows else None
        rows.append(run_point(rung, basis, start=start))
    return rows


def successive_differences(rows: list[SweepRow]) -> list[dict]:
    """Absolute changes between consecutive convergence rows.

    Each entry compares row i to row i+1 and holds the energy change plus
    the largest change over the four negativities.
    """
    return [
        {
            "N_from": a.params.N,
            "N_to": b.params.N,
            "d_energy": abs(b.energy - a.energy),
            "d_negativity_max": _max_negativity_change(a.report, b.report),
        }
        for a, b in zip(rows, rows[1:])
    ]


# ---------------------------------------------------------------------------
# Built-in sweep definitions
# ---------------------------------------------------------------------------

K_STRONG = 0.1 / math.sqrt(2.0)
K_ULTRA = 1.0 / math.sqrt(2.0)


def _control_values(var: str, t: float) -> dict:
    """The parameters that control variable ``var`` sets at value t."""
    delta = {"omega_1": 1 + t / 2, "omega_2": 1 - t / 2}
    values = {
        "delta": delta,
        "kappa": {"k_1": (1 - t) / 2, "k_2": (1 + t) / 2},
        "J": {"J": t},
        "delta_k": {**delta, "k_1": t, "k_2": t},
    }
    if var not in values:
        raise ValueError(f"unknown control variable {var!r}; expected one of {tuple(values)}")
    return values[var]


PRESETS = {spec.name: spec for spec in (
    SweepSpec("fig1", "delta", SystemParams(1.0, 1.0, K_STRONG, K_STRONG), -2.0, 2.0, 0.05),
    SweepSpec("fig2", "delta", SystemParams(1.0, 1.0, K_ULTRA, K_ULTRA), -2.0, 2.0, 0.05),
    SweepSpec("fig3", "kappa", SystemParams(0.1, 0.05, 0.5, 0.5), -1.0, 1.0, 0.05),
    SweepSpec("fig4", "kappa", SystemParams(1.0, 0.5, 0.5, 0.5), -1.0, 1.0, 0.05),
    SweepSpec("fig5", "delta_k", SystemParams(1.0, 1.0, 0.0, 0.0), 0.0, 2.0, 0.05),
    SweepSpec("fig6", "J", SystemParams(0.2, 0.1, K_ULTRA, K_ULTRA), 0.0, 0.1, 0.0025),
)}


def figure_sweep(
    name: str,
    N: int = 10,
    basis: str = "transformed",
    t_min: float | None = None,
    t_max: float | None = None,
    step: float | None = None,
) -> SweepSpec:
    """Built-in sweep by name (fig1 .. fig6), with optional grid overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown sweep {name!r}; presets are {sorted(PRESETS)}")
    grid = {"t_min": t_min, "t_max": t_max, "step": step}
    return replace(PRESETS[name], base=replace(PRESETS[name].base, N=N), basis=basis,
                   **{key: value for key, value in grid.items() if value is not None})


# ---------------------------------------------------------------------------
# Lab vs transformed cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisDivergence:
    energy_lab: float
    energy_transformed: float
    energy_divergence: float
    report_divergence: float
    rotation_norm_loss: float


def compare_bases(p: SystemParams) -> BasisDivergence:
    """Quantify the truncation mismatch between the two builders.

    The ground energies would be identical without the Fock cutoff.  For the
    negativity comparison the lab ground state is re-expressed in rotated-mode
    coordinates (the rotation drops weight beyond the truncated grid;
    rotation_norm_loss records how much) and its four cuts are compared with
    the transformed-basis report.

    The lab basis is solved first.  Its ``ritz_vectors``, H's two lowest vectors
    unless the solve fell back, each sector half rotated the same way, are where a
    transformed block solve starts: the rotation keeps n1 + n2, so it maps each
    parity sector to itself.  The start only moves where the Krylov space begins;
    both energies are still solved and certified separately, and a dense
    transformed solve is handed nothing.

    The rotation is applied shell by shell (``ShellRotation.apply``): the
    state's two qubit components and the Ritz vectors' four sector halves go
    through one gather, one product per total-quanta shell and one scatter, and
    no N^2 x N^2 matrix is formed.
    """
    gs_lab = ground_state(p, "lab")
    if p.k_1 == 0.0 and p.k_2 == 0.0:
        return BasisDivergence(gs_lab.energy, gs_lab.energy, 0.0, 0.0, 0.0)
    ritz = gs_lab.start_for(p.N)
    # each Ritz vector's two sector halves, one row each
    halves = np.empty((0, p.N * p.N)) if ritz is None else ritz.T.reshape(4, -1)
    # One apply call for the state and the start, on a rotation no name holds.  With two
    # calls the outputs are the same, but the shell blocks (79 x 40 x 40 floats, 1.0 MB at
    # N = 40) stay alive through the transformed solve, and the tracemalloc peak rises from
    # 4.70 to 5.63 MB, past the 5 MB bound of test_rotation_forms_no_dense_matrix.
    rotated = mode_rotation_unitary(p).apply(
        np.concatenate([gs_lab.state.amplitudes.reshape(2, -1), halves]))
    start = None if ritz is None else rotated[2:].reshape(2, -1).T
    gs_tr = ground_state(p, "transformed", start)

    psi_b = rotated[:2].ravel()
    norm = np.linalg.norm(psi_b)
    loss = abs(1.0 - norm**2)
    rep_lab = report_from_state(StateVector(psi_b / norm, (2, p.N, p.N)))
    rep_tr = report_from_state(gs_tr.state)
    return BasisDivergence(
        energy_lab=gs_lab.energy,
        energy_transformed=gs_tr.energy,
        energy_divergence=abs(gs_lab.energy - gs_tr.energy),
        report_divergence=_max_negativity_change(rep_lab, rep_tr),
        rotation_norm_loss=loss,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def csv_row(row: SweepRow, N: int) -> str:
    """The row's cells in ``CSV_COLUMNS`` order, each read by name from the row's fields,
    its parameters and its report: a value a failed row lacks reads nan, ``N`` reads the
    sweep's cutoff and ``degenerate`` reads whether the row is ``flagged``."""
    values = {**vars(row),
              **(asdict(row.params) if row.params else {}),
              **(asdict(row.report) if row.report else {}),
              "N": N, "degenerate": row.flagged}
    cells = (values.get(name, math.nan) for name in CSV_COLUMNS)
    return ",".join(str(v).lower() if isinstance(v, bool) else _fmt(v) for v in cells)


def csv_text(rows: list[SweepRow], N: int) -> str:
    """The CSV header and one line per row, each line ending in LF."""
    return "\n".join([",".join(CSV_COLUMNS)] + [csv_row(r, N) for r in rows]) + "\n"


def write_csv(result: SweepResult, path: str) -> None:
    """Write rows as CSV (12 significant digits, LF endings, atomic rename).

    Failed points keep their t and show nan numeric fields with the
    degenerate column set to true, so flagged rows are visible downstream.
    """
    _atomic_write(path, csv_text(result.rows, result.spec.base.N))


def write_manifest(result: SweepResult, path: str) -> None:
    _atomic_write(path, json.dumps(result.manifest, indent=2, sort_keys=True) + "\n")


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
