"""Ground-state entanglement of the two-mode Jahn-Teller circuit model."""

from ._version import __version__
from .entanglement import EntanglementReport, NumericalIntegrityError, report_from_state
from .groundstate import GroundStateResult, eig_hermitian, ground_state
from .model import (
    ShellRotation,
    StateVector,
    SystemParams,
    ValidityReport,
    annihilation,
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
    "annihilation",
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
