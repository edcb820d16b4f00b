"""Quadratic interior penalty finite elements for fourth-order problems.

Solvers for the clamped biharmonic plate, the energy-space Dirichlet
boundary control problem (reduced-space KKT), and the elliptic problem with
Cahn-Hilliard type boundary conditions, plus convergence-study tooling.
"""

__version__ = "0.1.0"

from .c0ip import (
    Discretization,
    assemble_a_h,
    assemble_boundary_load,
    assemble_load,
    assemble_mass,
    matrix_norms,
)
from .cahn_hilliard import ChProblem, solve_ch
from .control import ControlProblem, KktSolution, forward_solve, solve_kkt
from .fem import DofMap, P2, QuadratureRule, build_dofmap, interpolate
from .linalg import (
    PositiveDefiniteError,
    SolveReport,
    cg_solve,
    cholesky_solve,
    constrain,
)
from .mesh import (
    Polygon,
    Triangulation,
    built_in_polygon,
    load_polygon,
    mesh_hierarchy,
    refine_uniform,
    triangulate_initial,
)
from .study import ConvergenceReport, ManufacturedCase, eoc, run_study

__all__ = [
    "__version__",
    "ChProblem",
    "ControlProblem",
    "ConvergenceReport",
    "Discretization",
    "DofMap",
    "KktSolution",
    "ManufacturedCase",
    "P2",
    "Polygon",
    "PositiveDefiniteError",
    "QuadratureRule",
    "SolveReport",
    "Triangulation",
    "assemble_a_h",
    "assemble_boundary_load",
    "assemble_load",
    "assemble_mass",
    "built_in_polygon",
    "cg_solve",
    "cholesky_solve",
    "constrain",
    "build_dofmap",
    "eoc",
    "forward_solve",
    "interpolate",
    "load_polygon",
    "matrix_norms",
    "mesh_hierarchy",
    "refine_uniform",
    "run_study",
    "solve_ch",
    "solve_kkt",
    "triangulate_initial",
]
