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
norm matrices once assembled.  Every assembler takes it, and one function,
``_assemble``, sums every matrix from element blocks.
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
    "edge_sides",
    "edge_side_group",
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
    factored.  An assembly frees them before it allocates its COO triplets,
    which it writes once (``_assemble``).

    The default sigma = 10 keeps the constrained systems positive definite
    on every built-in domain at every tested level; the observed coercivity
    thresholds peak near 5.9 for fan triangulations containing 120-degree
    triangles (hexagon, pentagon150), so 5 is not enough there.
    """

    def __init__(self, mesh, sigma=10.0, consistency_sign=-1):
        if not sigma >= 1.0:
            raise ValueError(f"penalty parameter sigma must be >= 1, got {sigma}")
        if not np.isfinite(sigma):
            raise ValueError(f"penalty parameter sigma must be finite, got {sigma}")
        if consistency_sign not in (-1, 1):
            raise ValueError("consistency_sign must be -1 or +1")
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
    lap = disc.geom.laplacians()
    return tuple(edge_side_group(disc, side, rule, lap) for side in edge_sides(disc.mesh))


def edge_sides(mesh):
    """(edge ids, adjacent triangles, outward sign) of the boundary,
    interior-minus and interior-plus side groups."""
    boundary = np.flatnonzero(mesh.is_boundary_edge)
    interior = np.flatnonzero(~mesh.is_boundary_edge)
    return (
        (boundary, mesh.edge_t_minus[boundary], +1.0),
        (interior, mesh.edge_t_minus[interior], +1.0),
        (interior, mesh.edge_t_plus[interior], -1.0),
    )


def edge_side_group(disc, side, rule, lap):
    """The ``EdgeSideGroup`` of one side group, or of any slice of its edges.

    ``side`` is an (edges, triangles, outward sign) triple of ``edge_sides``
    and ``lap`` the mesh's ``geom.laplacians()``; every row depends on its
    own edge only, so a slice gives the matching rows of the whole table.
    """
    mesh, geom = disc.mesh, disc.geom
    edges, tri_ids, out_sign = side
    ref = geom.to_reference(tri_ids[:, None], edge_points(mesh, edges, rule))
    gref = P2.gradients(ref)                         # (n, Q, 6, 2)
    nrm = out_sign * mesh.edge_normal[edges]         # outward for this side
    return EdgeSideGroup(
        edges=edges,
        dofs=disc.dofmap.cell_dofs[tri_ids],
        dn=_normal_derivatives(gref, geom.jac_inv[tri_ids], nrm),
        lap=lap[tri_ids],
        length=mesh.edge_length[edges],
    )


def _normal_derivatives(gref, jinv, nrm):
    """Physical normal derivatives (t, b, q) of reference gradients ``gref`` (t, q, b, 2).

    The sums of einsum("tqbj,tjk->tqbk") and einsum("tqbk,tk->tbq"), term for
    term, accumulated in two buffers; ``gref``'s first component is reused
    as scratch once it is consumed.
    """
    g0, g1 = gref[..., 0], gref[..., 1]
    jinv = jinv[:, None, None, :, :]
    dx = g0 * jinv[..., 0, 0]
    dy = g0 * jinv[..., 0, 1]
    np.multiply(g1, jinv[..., 1, 0], out=g0)
    dx += g0
    np.multiply(g1, jinv[..., 1, 1], out=g0)
    dy += g0
    dx *= nrm[:, None, None, 0]
    dy *= nrm[:, None, None, 1]
    dx += dy
    # the einsum's layout, a transposed (t, q, b) array: ``dn @ weights`` sums
    # a C-contiguous (t, b, q) copy in another order and moves A in its last bits
    return dx.transpose(0, 2, 1)


def _assemble(disc, pieces):
    """One CSR matrix summed from a list of (row dofs, column dofs, blocks) pieces.

    The COO triplets are allocated once, at the total entry count, and each
    piece is broadcast into its slice in list order: block entry (e, i, j)
    goes to row ``row_dofs[e, i]`` and column ``col_dofs[e, j]``.  The list
    is emptied as it is written, so each piece's blocks are freed before
    the next is copied and none is alive while scipy builds the CSR.
    """
    total = sum(blocks.size for _, _, blocks in pieces)
    # int32 indices: scipy keeps int32 anyway, but downcasts only after a full int64 copy
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    vals = np.empty(total)
    start = 0
    while pieces:
        row_dofs, col_dofs, blocks = pieces.pop(0)
        stop = start + blocks.size
        rows[start:stop].reshape(blocks.shape)[...] = row_dofs[:, :, None]
        cols[start:stop].reshape(blocks.shape)[...] = col_dofs[:, None, :]
        vals[start:stop].reshape(blocks.shape)[...] = blocks
        start = stop
        del row_dofs, col_dofs, blocks
    n = disc.dofmap.n_dofs
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    a.sum_duplicates()
    return a


def _volume_piece(disc):
    lap = disc.geom.laplacians()
    cell_dofs = disc.dofmap.cell_dofs
    return cell_dofs, cell_dofs, np.einsum("t,ti,tj->tij", disc.geom.area, lap, lap)


def _side_pairs(groups):
    """(side a, side b, mean weight) for every pair of sides sharing an edge."""
    bnd, im, ip = groups
    return [(bnd, bnd, 1.0)] + [(a, b, 0.5) for a in (im, ip) for b in (im, ip)]


def _penalty(disc, a, b):
    return disc.sigma * np.einsum("q,eiq,ejq->eij", _EDGE_RULE.weights, a.dn, b.dn)


def _coupling(disc, a, b, mean_weight):
    # |e| * [ mean(lap_a) x int(jump_b) + int(jump_a) x mean(lap_b) ]
    jint_a, jint_b = a.dn @ _EDGE_RULE.weights, b.dn @ _EDGE_RULE.weights
    return float(disc.consistency_sign) * mean_weight * a.length[:, None, None] * (
        np.einsum("ei,ej->eij", a.lap, jint_b) + np.einsum("ei,ej->eij", jint_a, b.lap)
    )


def assemble_volume_norm_matrix(disc):
    """Matrix of the broken Laplacian product sum_T (Lap v, Lap w)_T."""
    return _assemble(disc, [_volume_piece(disc)])


def assemble_a_h(disc):
    """The interior penalty bilinear form as a sparse symmetric matrix."""
    # every block is computed, and the edge tables freed, before the COO is allocated
    pieces = [_volume_piece(disc)] + [
        (a.dofs, b.dofs, _penalty(disc, a, b) + _coupling(disc, a, b, mw))
        for a, b, mw in _side_pairs(edge_side_data(disc))
    ]
    return _assemble(disc, pieces)


def assemble_penalty_matrix(disc):
    """Only the sigma/|e| jump penalty part (the edge part of the h-norm)."""
    pieces = [
        (a.dofs, b.dofs, _penalty(disc, a, b))
        for a, b, _ in _side_pairs(edge_side_data(disc))
    ]
    return _assemble(disc, pieces)


def assemble_mean_norm_matrix(disc):
    """Matrix of sum_e |e| || mean(Lap v) ||_e^2 (edge part of the Q_h norm)."""
    # the mean is constant along the edge: |e| * int_e mean*mean = |e|^2 * product
    pieces = [
        (a.dofs, b.dofs, mw * mw * np.einsum("e,ei,ej->eij", a.length**2, a.lap, b.lap))
        for a, b, mw in _side_pairs(edge_side_data(disc))
    ]
    return _assemble(disc, pieces)


def assemble_mass(disc):
    """P2 mass matrix."""
    vals = P2.values(_TRI_RULE.points)                  # (Q, 6)
    mref = np.einsum("q,qi,qj->ij", _TRI_RULE.weights, vals, vals)
    cell_dofs = disc.dofmap.cell_dofs
    return _assemble(disc, [(cell_dofs, cell_dofs, 2.0 * disc.geom.area[:, None, None] * mref)])


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
