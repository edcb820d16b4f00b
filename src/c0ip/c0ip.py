"""Interior penalty forms for fourth-order problems on P2 Lagrange spaces.

The bilinear form combines the broken Laplacian volume term, edge coupling
terms pairing Laplacian means with normal-derivative jumps, and the sigma/|e|
jump penalty.  Jumps follow the outward-normal-sum convention: on an interior
edge  [dv/dn] = grad v+ . n+ + grad v- . n-  and on a boundary edge
[dv/dn] = grad v . n_e with n_e outward; means are one-half the two-sided sum
of Laplacians, one-sided on the boundary.

With that jump convention the sign of the mean-jump coupling decides
consistency: ``consistency_sign=-1`` (default) gives exact Galerkin
orthogonality for smooth solutions, ``+1`` flips both coupling terms.
Either sign yields a symmetric form whose definiteness on the constrained
spaces is verified empirically (see the property test suite).

A ``Discretization`` is this method on one mesh: it owns the geometry, the
dof map, sigma and the coupling sign, and keeps the stiffness, mass and
norm matrices once assembled.  Every assembler takes it.
"""

import inspect
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fem import P2, QuadratureRule, TriangleGeometry, build_dofmap

__all__ = [
    "Discretization",
    "NORM_NAMES",
    "assemble_a_h",
    "assemble_mass",
    "assemble_load",
    "assemble_volume_norm_matrix",
    "assemble_penalty_matrix",
    "assemble_mean_norm_matrix",
    "assemble_boundary_load",
    "boundary_values",
    "combine_norms",
    "matrix_norms",
    "edge_points",
    "edge_side_data",
]

_TRI_RULE = QuadratureRule.triangle(6)
_EDGE_RULE = QuadratureRule.interval(9)
NORM_NAMES = ("l2", "h", "energy", "qh")


class Discretization:
    """The interior penalty discretization of one mesh.

    Holds the P2 geometry and dof map, the penalty weight and the
    edge-coupling sign.  ``A`` (the form a_h), ``M`` (the mass matrix) and
    the two norm matrices are assembled the first time each is used and
    kept.  Edge tables are rebuilt for each assembly and never kept: at
    hexagon level 7 they take 66 MB, which would stay alive while ``A`` is
    factored.

    The default sigma = 10 keeps the constrained systems positive definite
    on every built-in domain at every tested level; the observed coercivity
    thresholds peak near 5.9 for fan triangulations containing 120-degree
    triangles (hexagon, pentagon150), so 5 is not enough there.
    """

    def __init__(self, mesh, sigma=10.0, consistency_sign=-1):
        if not sigma >= 1.0:
            raise ValueError(f"penalty parameter sigma must be >= 1, got {sigma}")
        if consistency_sign not in (-1, 1):
            raise ValueError("consistency_sign must be -1 or +1")
        if mesh.edge_vertices is None:
            raise ValueError("mesh has no edge topology; call build_edges first")
        self.mesh = mesh
        self.sigma = sigma
        self.consistency_sign = consistency_sign
        self.geom = TriangleGeometry.from_mesh(mesh)
        self.dofmap = build_dofmap(mesh)

    @cached_property
    def A(self):
        return assemble_a_h(self)

    @cached_property
    def M(self):
        return assemble_mass(self)

    @cached_property
    def norm_h(self):
        """Matrix of the squared h-norm: broken Laplacian plus the penalty."""
        return assemble_volume_norm_matrix(self) + assemble_penalty_matrix(self)

    @cached_property
    def norm_mean(self):
        """Matrix of the |e|-weighted squared Laplacian means."""
        return assemble_mean_norm_matrix(self)


@dataclass(frozen=True)
class EdgeSideGroup:
    """Per-side edge data for one group (boundary, interior-minus, interior-plus).

    ``dn`` holds the outward normal derivative of the six local shape
    functions of the adjacent triangle at the edge quadrature points.
    """

    edges: np.ndarray      # (n,) edge ids
    dofs: np.ndarray       # (n, 6) global dofs of the adjacent triangle
    dn: np.ndarray         # (n, 6, Q)
    lap: np.ndarray        # (n, 6) physical Laplacians (constant)
    length: np.ndarray     # (n,)


def edge_points(mesh, edges, rule):
    """Physical quadrature points on ``edges``, lower to higher vertex; (n, Q, 2)."""
    pa = mesh.vertices[mesh.edge_vertices[edges, 0]]
    pb = mesh.vertices[mesh.edge_vertices[edges, 1]]
    return pa[:, None, :] + rule.points[None, :, None] * (pb - pa)[:, None, :]


def edge_side_data(disc, rule=_EDGE_RULE):
    """Edge-side evaluation tables: (boundary, interior_minus, interior_plus).

    Quadrature points run along each edge from its lower to its higher
    vertex index, so the two sides of an interior edge share physical points.
    """
    mesh, geom = disc.mesh, disc.geom
    lap = geom.laplacians()

    boundary = mesh.is_boundary_edge
    groups = []
    for sel, tri_ids, out_sign in (
        (boundary, mesh.edge_t_minus[boundary], +1.0),
        (~boundary, mesh.edge_t_minus[~boundary], +1.0),
        (~boundary, mesh.edge_t_plus[~boundary], -1.0),
    ):
        edges = np.flatnonzero(sel)
        ref = geom.to_reference(tri_ids[:, None], edge_points(mesh, edges, rule))
        gref = P2.gradients(ref)                         # (n, Q, 6, 2)
        gphys = np.einsum("tqbj,tjk->tqbk", gref, geom.jac_inv[tri_ids])
        nrm = out_sign * mesh.edge_normal[edges]         # outward for this side
        dn = np.einsum("tqbk,tk->tbq", gphys, nrm)
        groups.append(
            EdgeSideGroup(
                edges=edges,
                dofs=disc.dofmap.cell_dofs[tri_ids],
                dn=dn,
                lap=lap[tri_ids],
                length=mesh.edge_length[edges],
            )
        )
    return tuple(groups)


class _CooBuilder:
    """Accumulates element blocks into one CSR matrix."""

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.cols = []
        self.vals = []

    def add_blocks(self, row_dofs, col_dofs, blocks):
        k = row_dofs.shape[1]
        m = col_dofs.shape[1]
        self.rows.append(np.repeat(row_dofs, m, axis=1).ravel())
        self.cols.append(np.tile(col_dofs, (1, k)).ravel())
        self.vals.append(np.ascontiguousarray(blocks).ravel())

    def tocsr(self):
        a = sp.csr_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(self.n, self.n),
        )
        a.sum_duplicates()
        return a


def _volume_blocks(geom):
    lap = geom.laplacians()
    return np.einsum("t,ti,tj->tij", geom.area, lap, lap)


def assemble_volume_norm_matrix(disc):
    """Matrix of the broken Laplacian product sum_T (Lap v, Lap w)_T."""
    cell_dofs = disc.dofmap.cell_dofs
    out = _CooBuilder(disc.dofmap.n_dofs)
    out.add_blocks(cell_dofs, cell_dofs, _volume_blocks(disc.geom))
    return out.tocsr()


def _edge_blocks(disc, groups, include_volume_pairing=True):
    """Penalty plus (optionally) mean-jump coupling blocks for every side pair."""
    bnd, im, ip = groups
    w = _EDGE_RULE.weights
    sign = float(disc.consistency_sign)
    sigma = disc.sigma
    pieces = []

    def pen(a, b):
        return sigma * np.einsum("q,eiq,ejq->eij", w, a.dn, b.dn)

    def coupling(a, b, mean_weight):
        # |e| * [ mean(lap_a) x int(jump_b) + int(jump_a) x mean(lap_b) ]
        jint_a = a.dn @ w
        jint_b = b.dn @ w
        return sign * mean_weight * a.length[:, None, None] * (
            np.einsum("ei,ej->eij", a.lap, jint_b)
            + np.einsum("ei,ej->eij", jint_a, b.lap)
        )

    pairs = [(bnd, bnd, 1.0), (im, im, 0.5), (im, ip, 0.5), (ip, im, 0.5), (ip, ip, 0.5)]
    for a, b, mw in pairs:
        blk = pen(a, b)
        if include_volume_pairing:
            blk = blk + coupling(a, b, mw)
        pieces.append((a.dofs, b.dofs, blk))
    return pieces


def assemble_a_h(disc):
    """The interior penalty bilinear form as a sparse symmetric matrix."""
    cell_dofs = disc.dofmap.cell_dofs
    out = _CooBuilder(disc.dofmap.n_dofs)
    out.add_blocks(cell_dofs, cell_dofs, _volume_blocks(disc.geom))
    for rd, cd, blk in _edge_blocks(disc, edge_side_data(disc)):
        out.add_blocks(rd, cd, blk)
    return out.tocsr()


def assemble_penalty_matrix(disc):
    """Only the sigma/|e| jump penalty part (the edge part of the h-norm)."""
    out = _CooBuilder(disc.dofmap.n_dofs)
    groups = edge_side_data(disc)
    for rd, cd, blk in _edge_blocks(disc, groups, include_volume_pairing=False):
        out.add_blocks(rd, cd, blk)
    return out.tocsr()


def assemble_mean_norm_matrix(disc):
    """Matrix of sum_e |e| || mean(Lap v) ||_e^2 (edge part of the Q_h norm)."""
    out = _CooBuilder(disc.dofmap.n_dofs)
    bnd, im, ip = edge_side_data(disc)
    pairs = [(bnd, bnd, 1.0), (im, im, 0.25), (im, ip, 0.25), (ip, im, 0.25), (ip, ip, 0.25)]
    for a, b, ww in pairs:
        # mean is constant along the edge: |e| * int_e mean*mean = |e|^2 * product
        blk = ww * np.einsum("e,ei,ej->eij", a.length**2, a.lap, b.lap)
        out.add_blocks(a.dofs, b.dofs, blk)
    return out.tocsr()


def assemble_mass(disc):
    """P2 mass matrix."""
    vals = P2.values(_TRI_RULE.points)                  # (Q, 6)
    mref = np.einsum("q,qi,qj->ij", _TRI_RULE.weights, vals, vals)
    blocks = 2.0 * disc.geom.area[:, None, None] * mref
    cell_dofs = disc.dofmap.cell_dofs
    out = _CooBuilder(disc.dofmap.n_dofs)
    out.add_blocks(cell_dofs, cell_dofs, blocks)
    return out.tocsr()


def _field_values(f, x, y, *normal):
    v = np.asarray(f(x, y, *normal), dtype=float)
    return np.broadcast_to(v, x.shape)


def _wants_normal(g2):
    try:
        return len(inspect.signature(g2).parameters) >= 4
    except (TypeError, ValueError):
        return False


def boundary_values(g2, mesh, edges, pts):
    """Flux ``g2`` at points ``pts`` (n, Q, 2) on boundary ``edges``.

    A flux of four arguments ``g2(x, y, nx, ny)`` also receives the outward
    unit normal of each edge.
    """
    normal = ()
    if _wants_normal(g2):
        n = mesh.edge_normal[edges]
        normal = (n[:, None, 0], n[:, None, 1])
    return _field_values(g2, pts[..., 0], pts[..., 1], *normal)


def assemble_load(disc, f):
    """Load vector b_i = int_Omega f N_i by triangle quadrature."""
    geom = disc.geom
    pts = geom.to_physical(_TRI_RULE.points)            # (nt, Q, 2)
    fv = _field_values(f, pts[..., 0], pts[..., 1])
    vals = P2.values(_TRI_RULE.points)
    contrib = 2.0 * geom.area[:, None] * np.einsum("q,tq,qb->tb", _TRI_RULE.weights, fv, vals)
    b = np.zeros(disc.dofmap.n_dofs)
    np.add.at(b, disc.dofmap.cell_dofs, contrib)
    return b


def assemble_boundary_load(disc, g2):
    """Boundary functional b_i = sum_{boundary edges} int_e g2 N_i ds.

    ``g2`` is ``g2(x, y)`` or, for normal-dependent fluxes, ``g2(x, y, nx, ny)``.
    """
    mesh = disc.mesh
    edges = np.flatnonzero(mesh.is_boundary_edge)
    b = np.zeros(disc.dofmap.n_dofs)
    if len(edges) == 0:
        return b
    pts = edge_points(mesh, edges, _EDGE_RULE)
    gv = boundary_values(g2, mesh, edges, pts)
    tri_ids = mesh.edge_t_minus[edges]
    vals = P2.values(disc.geom.to_reference(tri_ids[:, None], pts))  # (ne, Q, 6)
    contrib = mesh.edge_length[edges][:, None] * np.einsum(
        "q,eq,eqb->eb", _EDGE_RULE.weights, gv, vals
    )
    np.add.at(b, disc.dofmap.cell_dofs[tri_ids], contrib)
    return b


def combine_norms(norms, l2sq, hsq, meansq):
    """Named norms from their squared pieces.

    ``hsq`` is the squared h-norm (broken Laplacian plus sigma-weighted
    jumps); the energy norm adds ``l2sq`` to it and the Q_h norm adds
    ``meansq``, the |e|-weighted Laplacian means.  Unused pieces may be None.
    """
    parts = {"l2": (l2sq,), "h": (hsq,), "energy": (hsq, l2sq), "qh": (hsq, meansq)}
    return {n: float(np.sqrt(max(sum(parts[n]), 0.0))) for n in norms}


def matrix_norms(v, disc, norms):
    """Norms of the finite element function ``v``, as {name: value}.

    The norm matrices are those ``disc`` keeps, so each is assembled once
    per discretization; ``norms`` is any subset of ``NORM_NAMES``.
    """
    l2sq = hsq = meansq = None
    if "l2" in norms or "energy" in norms:
        l2sq = float(v @ (disc.M @ v))
    if any(n in norms for n in ("h", "energy", "qh")):
        hsq = float(v @ (disc.norm_h @ v))
    if "qh" in norms:
        meansq = float(v @ (disc.norm_mean @ v))
    return combine_norms(norms, l2sq, hsq, meansq)
