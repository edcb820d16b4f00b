"""P2 Lagrange reference element, quadrature rules, and dof maps.

Degrees of freedom live at triangle vertices and edge midpoints; globally
they are numbered vertices first, then edges, which keeps the numbering a
stable prefix under red refinement.  The boundary-vanishing space V_h is
the same dof set with ``boundary_dof_ids`` fixed in the factor.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "ReferenceElement",
    "P2",
    "QuadratureRule",
    "TriangleGeometry",
    "DofMap",
    "build_dofmap",
]

# barycentric gradients on the reference triangle (0,0)-(1,0)-(0,1)
_GRADL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class ReferenceElement:
    """Quadratic nodal element on the reference triangle.

    Local ordering: three vertex nodes, then the midpoint nodes opposite
    each vertex (node 3 on edge (1,2), node 4 on edge (2,0), node 5 on
    edge (0,1)).
    """

    n_basis = 6
    nodes = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]
    )

    def __init__(self):
        H = np.empty((6, 2, 2))
        for i in range(3):
            H[i] = 4.0 * np.outer(_GRADL[i], _GRADL[i])
        for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
            H[3 + k] = 4.0 * (np.outer(_GRADL[i], _GRADL[j]) + np.outer(_GRADL[j], _GRADL[i]))
        self.hessians = H  # constant per shape function

    @staticmethod
    def _bary(points):
        pts = np.asarray(points, dtype=float)
        lam = np.empty(pts.shape[:-1] + (3,))
        lam[..., 0] = 1.0 - pts[..., 0] - pts[..., 1]
        lam[..., 1] = pts[..., 0]
        lam[..., 2] = pts[..., 1]
        return lam

    def values(self, points):
        """Shape function values at reference points; shape (..., 6)."""
        lam = self._bary(points)
        out = np.empty(lam.shape[:-1] + (6,))
        out[..., :3] = lam * (2.0 * lam - 1.0)
        out[..., 3] = 4.0 * lam[..., 1] * lam[..., 2]
        out[..., 4] = 4.0 * lam[..., 2] * lam[..., 0]
        out[..., 5] = 4.0 * lam[..., 0] * lam[..., 1]
        return out

    def gradients(self, points):
        """Reference gradients at reference points; shape (..., 6, 2)."""
        lam = self._bary(points)
        out = np.empty(lam.shape[:-1] + (6, 2))
        # one component at a time: long inner loops, the products of a
        # broadcast over the length-2 axis bit for bit (signed zeros included)
        for i in range(3):
            slope = 4.0 * lam[..., i] - 1.0
            for c in range(2):
                out[..., i, c] = slope * _GRADL[i, c]
        for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
            for c in range(2):
                out[..., 3 + k, c] = 4.0 * (lam[..., i] * _GRADL[j, c] + lam[..., j] * _GRADL[i, c])
        return out


P2 = ReferenceElement()


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle or the unit interval."""

    points: np.ndarray    # (Q, 2) reference coords, or (Q,) on [0, 1]
    weights: np.ndarray   # sums to the reference measure (1/2 resp. 1)
    degree: int

    @staticmethod
    def triangle(degree=6):
        """Symmetric rule exact for polynomials up to ``degree``."""
        if degree <= 6:
            groups = [
                ((0.873821971016996, 0.063089014491502, 0.063089014491502),
                 0.050844906370207),
                ((0.501426509658179, 0.249286745170910, 0.249286745170910),
                 0.116786275726379),
                ((0.636502499121399, 0.310352451033785, 0.053145049844816),
                 0.082851075618374),
            ]
            pts, wts = [], []
            for lam, w in groups:
                for p in sorted(set(permutations(lam))):
                    pts.append((p[1], p[2]))
                    wts.append(w)
            return QuadratureRule(np.array(pts), 0.5 * np.array(wts), 6)
        # collapsed tensor Gauss (Duffy); exact to ``degree`` and spectrally
        # accurate for smooth non-polynomial integrands
        n = degree // 2 + 2
        x, w = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        U, V = np.meshgrid(x, x, indexing="ij")
        WU, WV = np.meshgrid(w, w, indexing="ij")
        xs = U.ravel()
        ys = (V * (1.0 - U)).ravel()
        ws = (WU * WV * (1.0 - U)).ravel()
        return QuadratureRule(np.column_stack([xs, ys]), ws, degree)

    @staticmethod
    def interval(degree=9):
        """Gauss-Legendre on [0, 1] exact for polynomials up to ``degree``."""
        n = degree // 2 + 1
        x, w = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)


@dataclass(frozen=True)
class TriangleGeometry:
    """Affine maps of all triangles of a mesh."""

    v0: np.ndarray       # (nt, 2)
    jac: np.ndarray      # (nt, 2, 2), columns are edge vectors
    jac_inv: np.ndarray  # (nt, 2, 2)
    area: np.ndarray     # (nt,)

    @staticmethod
    def from_mesh(mesh):
        v = mesh.vertices
        t = mesh.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        jac = np.stack([d1, d2], axis=-1)
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        return TriangleGeometry(v0=v[t[:, 0]], jac=jac, jac_inv=inv, area=0.5 * det)

    def to_physical(self, ref_points, cells=slice(None)):
        """Map reference points (Q, 2) into the triangles ``cells`` (default all); (n, Q, 2)."""
        # the two-term sum of einsum("tij,qj->tqi", jac, ref_points), term for
        # term, one component at a time
        jac, v0 = self.jac[cells], self.v0[cells]
        out = np.empty((len(v0), len(ref_points), 2))
        for i in range(2):
            out[..., i] = v0[:, i, None] + (
                jac[:, i, 0, None] * ref_points[:, 0] + jac[:, i, 1, None] * ref_points[:, 1]
            )
        return out

    def to_reference(self, cells, points):
        """Reference coordinates of physical ``points`` inside ``cells``."""
        d = points - self.v0[cells]
        jinv = self.jac_inv[cells]
        out = np.empty(d.shape)
        for k in range(2):
            out[..., k] = jinv[..., k, 0] * d[..., 0] + jinv[..., k, 1] * d[..., 1]
        return out

    def laplacians(self, cells=slice(None)):
        """Physical Laplacian of each shape function in ``cells`` (default all); constant, (n, 6)."""
        # hess_phys = Jinv^T Href Jinv; trace via einsum
        jinv = self.jac_inv[cells]
        return np.einsum("tmk,bmn,tnk->tb", jinv, P2.hessians, jinv)


@dataclass(frozen=True)
class DofMap:
    """Global P2 dof numbering for Q_h; V_h fixes the boundary dofs."""

    n_dofs: int
    cell_dofs: np.ndarray      # (nt, 6) local-to-global
    boundary_dof_ids: np.ndarray


def build_dofmap(mesh):
    """P2 dof map: vertex dofs 0..nv-1 then edge dofs nv..nv+ne-1."""
    nv = mesh.n_vertices
    cell_dofs = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    cell_dofs[:, :3] = mesh.triangles
    cell_dofs[:, 3:] = nv + mesh.cell_edges
    boundary = mesh.is_boundary_edge
    return DofMap(
        n_dofs=nv + mesh.n_edges,
        cell_dofs=cell_dofs,
        # sorted: every vertex dof comes before every edge dof
        boundary_dof_ids=np.concatenate(
            [np.unique(mesh.edge_vertices[boundary]), nv + np.flatnonzero(boundary)]
        ),
    )
