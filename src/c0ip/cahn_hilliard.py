"""Fourth-order problem with Cahn-Hilliard type boundary conditions.

The continuous problem prescribes a vanishing normal derivative and a given
normal flux of the Laplacian; its solution is unique only up to constants,
so the discrete space pins the value at one polygon corner to zero.  The
data must satisfy the compatibility condition

    int_Omega g1 dx = int_{boundary} g2 ds,

which ``check_compatibility`` verifies with high-order quadrature, one chunk
of triangles or boundary edges at a time (``triangle_values``,
``edge_values``); a study checks once, on its last study level.  A problem
is posed on a ``Discretization``, whose stiffness matrix the solve factors.
The pinned corner is eliminated inside the factor (``cholesky_solve`` with
that dof fixed), which returns the full-length solution, zero at the corner.
"""

import warnings

import numpy as np

from .c0ip import (
    assemble_boundary_load,
    assemble_load,
    boundary_values,
    edge_sides,
    edge_values,
    triangle_values,
)
from .fem import QuadratureRule
from .linalg import cholesky_solve

__all__ = [
    "ChProblem",
    "CompatibilityError",
    "check_compatibility",
    "solve_ch",
    "default_pin_corner",
]

_COMPAT_HARD = 1e-8
_COMPAT_WARN = 1e-10
_CHECK_TRI_RULE = QuadratureRule.triangle(20)
_CHECK_EDGE_RULE = QuadratureRule.interval(19)


class CompatibilityError(ValueError):
    """Source and flux data violate the compatibility condition."""


def default_pin_corner(mesh):
    """Vertex id of the lexicographically smallest polygon corner."""
    corners = mesh.corner_vertex_ids
    pts = mesh.vertices[corners]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return int(corners[order[0]])


def _integral_and_norm(measure, values, rule):
    """Integral and L2 norm from the quadrature ``values`` (n, Q) on n cells of ``measure``."""
    l2sq = measure @ (values**2 @ rule.weights)
    return float(measure @ (values @ rule.weights)), float(np.sqrt(max(l2sq, 0.0)))


def check_compatibility(disc, g1, g2):
    """Defect int g1 dx - int g2 ds on ``disc``'s mesh; raises if it is not negligible.

    ``g1`` is ``g1(x, y)`` and ``g2`` is the flux ``g2(x, y, nx, ny)``.

    The defect is measured against the data scale ||g1|| + ||g2|| + 1: above
    ``_COMPAT_HARD`` times the scale it raises ``CompatibilityError``, above
    ``_COMPAT_WARN`` times the scale it warns.
    """
    boundary = edge_sides(disc.mesh)[0]
    (g1_values,) = triangle_values(disc, _CHECK_TRI_RULE, lambda cells, x, y: g1(x, y))
    (g2_values,) = edge_values(disc, boundary, _CHECK_EDGE_RULE,
                               lambda tables: boundary_values(g2, tables[0]))
    vol, g1_norm = _integral_and_norm(2.0 * disc.geom.area, g1_values, _CHECK_TRI_RULE)
    line, g2_norm = _integral_and_norm(disc.mesh.edge_length[boundary[0][0]], g2_values,
                                       _CHECK_EDGE_RULE)
    defect = vol - line
    scale = g1_norm + g2_norm + 1.0
    if abs(defect) > _COMPAT_HARD * scale:
        raise CompatibilityError(
            f"compatibility defect {defect:.3e} exceeds "
            f"{_COMPAT_HARD:.0e} * data scale {scale:.3e}"
        )
    if abs(defect) > _COMPAT_WARN * scale:
        warnings.warn(
            f"compatibility defect {defect:.3e} is within tolerance but not negligible",
            stacklevel=2,
        )
    return defect


class ChProblem:
    """Source/flux data on a discretization, with corner pinning.

    The data are taken as given; ``check_compatibility`` is the check.
    """

    def __init__(self, disc, g1, g2, pinned_corner=None):
        mesh = disc.mesh
        self.disc = disc
        self.g1 = g1
        self.g2 = g2
        self.pinned_corner = (
            default_pin_corner(mesh) if pinned_corner is None else int(pinned_corner)
        )
        if self.pinned_corner not in set(mesh.corner_vertex_ids.tolist()):
            raise ValueError(
                f"pinned vertex {self.pinned_corner} is not a polygon corner"
            )


def solve_ch(problem):
    """Solve the corner-pinned discrete problem by direct factorization.

    Returns ``(psi, report)`` as ``cholesky_solve`` does: the full-length
    coefficient vector, zero at the pinned corner, and its solve report.
    """
    disc = problem.disc
    A = disc.A
    b = assemble_load(disc, problem.g1)
    b -= assemble_boundary_load(disc, problem.g2)
    # vertex dofs come first, so the pinned dof id is the vertex id
    return cholesky_solve(A, b, [problem.pinned_corner])
