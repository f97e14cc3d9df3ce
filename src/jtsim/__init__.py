"""Ground-state entanglement of the two-mode Jahn-Teller circuit model."""

import os
import sys

# jtsim solves small dense matrices one after another, where a second BLAS thread only
# spins between calls, so BLAS gets one thread before numpy first loads it.  A thread
# count the user set wins, and so does numpy loaded first: its BLAS has read the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# the thread variables BLAS started under; {} where it kept its default
BLAS_THREADS = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
__version__ = "0.1.0"  # the one statement of the version; pyproject.toml reads it

from .entanglement import EntanglementReport, NumericalIntegrityError, report_from_state
from .groundstate import GroundStateResult, eig_hermitian, ground_state
from .model import (
    ShellRotation,
    StateVector,
    SystemParams,
    ValidityReport,
    build_lab_hamiltonian,
    build_transformed_hamiltonian,
    mode_rotation_unitary,
    privileged_validity,
)
from .sweeps import (
    BasisDivergence,
    SweepResult,
    SweepRow,
    SweepSpec,
    compare_bases,
    convergence_study,
    figure_sweep,
    grid_points,
    run_point,
    run_sweep,
    successive_differences,
    write_csv,
    write_manifest,
)

__all__ = [
    "__version__",
    "StateVector",
    "SystemParams",
    "ValidityReport",
    "privileged_validity",
    "build_lab_hamiltonian",
    "build_transformed_hamiltonian",
    "mode_rotation_unitary",
    "ShellRotation",
    "GroundStateResult",
    "eig_hermitian",
    "ground_state",
    "convergence_study",
    "successive_differences",
    "EntanglementReport",
    "NumericalIntegrityError",
    "report_from_state",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "BasisDivergence",
    "figure_sweep",
    "grid_points",
    "run_point",
    "run_sweep",
    "compare_bases",
    "write_csv",
    "write_manifest",
]
