"""Quadratic interior penalty finite elements for fourth-order problems.

Solvers for the clamped biharmonic plate, the energy-space Dirichlet
boundary control problem (reduced-space KKT), and the elliptic problem with
Cahn-Hilliard type boundary conditions, plus convergence-study tooling.
The package root exports the names of the README's library example; every
other name is imported from its own module (``c0ip.control``,
``c0ip.study``, ...).
"""

__version__ = "0.1.0"

from .c0ip import Discretization, matrix_norms
from .cahn_hilliard import ChProblem, solve_ch
from .mesh import mesh_hierarchy

__all__ = [
    "__version__",
    "ChProblem",
    "Discretization",
    "matrix_norms",
    "mesh_hierarchy",
    "solve_ch",
]
