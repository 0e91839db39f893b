"""Jacobi-Galerkin spectral eigensolver for the fractional operator on (-1, 1).

The basis functions carry the endpoint singularity ``(1-x^2)^alpha`` of the
true eigenfunctions, which makes the stiffness matrix the identity and leaves
a closed-form symmetric positive-definite mass matrix whose parity blocks are
diagonalized independently.
"""

from .specfun import FractionalOrder, basis_coeff, jacobi_norm_sq
from .quadrature import gauss_jacobi, oracle_mass_entry, stiffness_check
from .assembly import MassMatrix, assemble_mass, mass_entry
from .eig import EigenSolution, eval_eigenfunction, solve
from .analysis import (
    SpectrumReport,
    condition_number,
    condition_slope,
    convergence_table,
    reliable_eigenvalues,
    solve_sweep,
    spectrum_report,
    weyl_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "FractionalOrder",
    "MassMatrix",
    "EigenSolution",
    "SpectrumReport",
    "jacobi_norm_sq",
    "basis_coeff",
    "gauss_jacobi",
    "oracle_mass_entry",
    "mass_entry",
    "assemble_mass",
    "stiffness_check",
    "solve",
    "eval_eigenfunction",
    "solve_sweep",
    "weyl_ratios",
    "condition_number",
    "condition_slope",
    "convergence_table",
    "reliable_eigenvalues",
    "spectrum_report",
]
