"""Test-side helpers: dof coordinates, nodal interpolation, the polygon
perimeter, the seeded jittered hexagon that several suites mesh, and the
L2 error against a bare value field."""

import numpy as np

from c0ip.mesh import Polygon
from c0ip.study import ExactField, _exact_errors


def dof_nodes(mesh):
    """Coordinates of the P2 dofs, (n_dofs, 2): the vertices, then the edge midpoints."""
    return np.vstack([mesh.vertices, mesh.edge_midpoint])


def interpolate(mesh, function):
    """Nodal interpolation: coefficients are point values at the dof nodes."""
    nodes = dof_nodes(mesh)
    coeffs = np.asarray(function(nodes[:, 0], nodes[:, 1]), dtype=float)
    return np.broadcast_to(coeffs, (len(nodes),)).copy()


def perimeter(polygon):
    v = polygon.vertices
    return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))


def jittered_hexagon(rng):
    """Regular unit hexagon, each vertex moved <= 0.08 rad in angle, <= 5 % in radius."""
    angles = np.arange(6) * np.pi / 3.0 + rng.uniform(-0.08, 0.08, 6)
    radii = 1.0 + rng.uniform(-0.05, 0.05, 6)
    return Polygon(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))


def l2_error(v, value, disc):
    """L2 norm of v_h minus the field ``value``, by the exact-error path."""
    return _exact_errors(v, ExactField(value, None, None), disc, ("l2",))["l2"]
