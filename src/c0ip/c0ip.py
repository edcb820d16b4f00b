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
``_assemble``, sums every matrix from element blocks, ``volume(cells)`` and
``edge(a, b, mean_weight)`` for each ordered pair of an edge's sides.
Every element loop runs over chunks of ``_CHUNK`` edges or triangles, so its
temporaries stay cache-sized.  The loads, the compatibility check and the
exact errors get their quadrature values from ``triangle_values`` and
``edge_values``; only the assembly and the boundary load scatter chunk by
chunk.  Every edge integral reads the ``EdgeSideGroup`` tables of
``edge_side_data``, which carry their own Laplacians and jump integrals.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

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
    "edge_chunks",
    "edge_values",
    "chunks",
    "triangle_values",
]

_TRI_RULE = QuadratureRule.triangle(6)
_EDGE_RULE = QuadratureRule.interval(9)
NORM_NAMES = ("l2", "h", "energy", "qh")
# edges or triangles per chunk of every element loop, so that edge tables,
# blocks and quadrature temporaries stay cache-sized
_CHUNK = 1024
_BLOCK = P2.n_basis**2  # COO entries per element block


class Discretization:
    """The interior penalty discretization of one mesh.

    Holds the P2 geometry and dof map, the penalty weight and the
    edge-coupling sign.  ``A`` (the form a_h), ``M`` (the mass matrix) and
    the two norm matrices are assembled the first time each is used and
    kept.  Edge tables are never kept: whole, at hexagon level 7, they
    would take 66 MB while ``A`` is factored.  An assembly allocates its
    COO triplets once, then builds the tables one chunk of edges at a time
    and writes each chunk's blocks straight into them (``_assemble``).

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
    """Per-side edge data for one side (boundary, interior-minus, interior-plus) of some edges.

    ``dn`` holds the outward normal derivative of the six local shape
    functions of the adjacent triangle at the edge quadrature points, and
    ``jump_integral`` its quadrature sum, the integral over the unit edge.
    """

    dofs: np.ndarray       # (n, 6) global dofs of the adjacent triangle
    dn: np.ndarray         # (n, 6, Q)
    jump_integral: np.ndarray  # (n, 6) dn @ rule.weights
    lap: np.ndarray        # (n, 6) physical Laplacians (constant)
    length: np.ndarray     # (n,)
    points: np.ndarray     # (n, Q, 2) physical quadrature points
    ref: np.ndarray        # (n, Q, 2) the points in this side's reference triangle
    normal: np.ndarray     # (n, 2) outward unit normal of this side


def chunks(n):
    """Slices of ``_CHUNK`` rows that cover range(n) in order.

    A last chunk of one row joins the one before it: numpy multiplies a
    one-row matrix by gemv instead of gemm, whose sums round differently.
    """
    starts = list(range(0, n, _CHUNK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def edge_points(mesh, edges, rule):
    """Physical quadrature points on ``edges``, lower to higher vertex; (n, Q, 2)."""
    pa = mesh.vertices[mesh.edge_vertices[edges, 0]]
    pb = mesh.vertices[mesh.edge_vertices[edges, 1]]
    out = np.empty((len(pa), len(rule.points), 2))
    for i in range(2):
        out[..., i] = pa[:, i, None] + rule.points * (pb[:, i] - pa[:, i])[:, None]
    return out


def edge_sides(mesh):
    """The side groups of the boundary edges and of the interior edges.

    A group is a tuple of (edge ids, adjacent triangles, outward sign)
    sides over the same edges: ``(boundary,)`` and ``(minus, plus)``.
    """
    boundary = np.flatnonzero(mesh.is_boundary_edge)
    interior = np.flatnonzero(~mesh.is_boundary_edge)
    return (
        ((boundary, mesh.edge_t_minus[boundary], +1.0),),
        ((interior, mesh.edge_t_minus[interior], +1.0),
         (interior, mesh.edge_t_plus[interior], -1.0)),
    )


def edge_side_data(disc, sides, rule=_EDGE_RULE):
    """The ``EdgeSideGroup`` tables of a side group of ``edge_sides``, or of one chunk of it.

    Quadrature points run along each edge from its lower to its higher
    vertex index, so the two sides of an interior edge share physical
    points.  Every row depends on its own edge only, so a slice of the sides
    gives the matching rows of the whole tables.
    """
    mesh, geom = disc.mesh, disc.geom
    pts = edge_points(mesh, sides[0][0], rule)
    tables = []
    for edges, tri_ids, out_sign in sides:
        ref = geom.to_reference(tri_ids[:, None], pts)
        nrm = out_sign * mesh.edge_normal[edges]
        dn = _normal_derivatives(P2.gradients(ref), geom.jac_inv[tri_ids], nrm)
        tables.append(
            EdgeSideGroup(
                dofs=disc.dofmap.cell_dofs[tri_ids],
                dn=dn,
                jump_integral=dn @ rule.weights,
                lap=geom.laplacians(tri_ids),
                length=mesh.edge_length[edges],
                points=pts,
                ref=ref,
                normal=nrm,
            )
        )
    return tuple(tables)


def edge_chunks(disc, sides, rule=_EDGE_RULE):
    """The tables of the side group ``sides``, ``_CHUNK`` edges at a time.

    Yields (rows, tables): the chunk's slice of the group's edges and its
    ``edge_side_data``.  No table covers more than one chunk.
    """
    for rows in chunks(len(sides[0][0])):
        yield rows, edge_side_data(disc, [(e[rows], t[rows], s) for e, t, s in sides], rule)


def triangle_values(disc, rule, *fns):
    """Each ``fn(cells, x, y)`` at the points (x, y) of ``rule``, one chunk of triangles at a time.

    Returns one full-length (nt, Q) array per fn.  Reduce only full-length
    arrays: BLAS rounds each row of a matrix-vector product by the row's
    position in its block, so only their sums are independent of ``_CHUNK``.
    """
    geom, nt = disc.geom, disc.mesh.n_triangles
    out = [np.empty((nt, len(rule.weights))) for _ in fns]
    for cells in chunks(nt):
        pts = geom.to_physical(rule.points, cells)
        for values, fn in zip(out, fns):
            values[cells] = fn(cells, pts[..., 0], pts[..., 1])
    return out


def edge_values(disc, sides, rule, *fns):
    """Each ``fn(tables)`` on the ``edge_chunks`` of the side group ``sides``.

    Returns one full-length (n, Q) array per fn over the group's n edges;
    reduce them as those of ``triangle_values``.
    """
    out = [np.empty((len(sides[0][0]), len(rule.weights))) for _ in fns]
    for rows, tables in edge_chunks(disc, sides, rule):
        for values, fn in zip(out, fns):
            values[rows] = fn(tables)
    return out


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


def _assemble(disc, volume=None, edge=None):
    """One CSR matrix summed from element blocks, written chunk by chunk into one COO.

    ``volume(cells)`` gives the (n, 6, 6) blocks of a chunk of triangles
    on their own dofs.  ``edge(a, b, mean_weight)`` gives the blocks of the
    side tables ``a`` and ``b`` of one chunk of edges, for each ordered pair
    of a group's sides, mean_weight being 1 / (sides per edge): entry
    (e, i, j) couples dof i of side a with dof j of side b on edge e.
    """
    rows, cols, vals = _coo_triplets(disc, volume, edge)
    n = disc.dofmap.n_dofs
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    a.sum_duplicates()
    return a


def _coo_triplets(disc, volume, edge):
    """The COO triplets of ``_assemble``: int32 rows and columns, float64 values.

    They are allocated once at the total entry count.  Their pieces are the
    volume blocks, then each side pair of the boundary group, then each of
    the interior group, and every chunk writes straight into its rows of its
    piece.  The entry order, and with it scipy's duplicate sums, is that of
    whole pieces written in turn, yet no table, block or Laplacian array
    covers more than one chunk of edges or triangles, and none is alive
    once this returns.
    """
    mesh, cell_dofs = disc.mesh, disc.dofmap.cell_dofs
    groups = edge_sides(mesh) if edge is not None else ()
    n_blocks = (mesh.n_triangles if volume is not None else 0) + sum(
        len(sides[0][0]) * len(sides) ** 2 for sides in groups
    )
    # int32 indices: scipy keeps int32 anyway, but downcasts only after a full int64 copy
    rows = np.empty(n_blocks * _BLOCK, dtype=np.int32)
    cols = np.empty(n_blocks * _BLOCK, dtype=np.int32)
    vals = np.empty(n_blocks * _BLOCK)

    def write(start, row_dofs, col_dofs, blocks):
        stop = start + blocks.size
        rows[start:stop].reshape(blocks.shape)[...] = row_dofs[:, :, None]
        cols[start:stop].reshape(blocks.shape)[...] = col_dofs[:, None, :]
        vals[start:stop].reshape(blocks.shape)[...] = blocks

    offset = 0
    if volume is not None:
        for cells in chunks(mesh.n_triangles):
            write(_BLOCK * cells.start, cell_dofs[cells], cell_dofs[cells], volume(cells))
        offset = _BLOCK * mesh.n_triangles
    for sides in groups:
        n, k = len(sides[0][0]), len(sides)
        for chunk, tables in edge_chunks(disc, sides):
            for piece, (a, b) in enumerate(product(tables, repeat=2)):
                write(offset + _BLOCK * (piece * n + chunk.start), a.dofs, b.dofs, edge(a, b, 1.0 / k))
        offset += _BLOCK * n * k * k
    return rows, cols, vals


def _volume_blocks(disc, cells):
    lap = disc.geom.laplacians(cells)
    return np.einsum("t,ti,tj->tij", disc.geom.area[cells], lap, lap)


def _penalty(disc, a, b):
    return disc.sigma * np.einsum("q,eiq,ejq->eij", _EDGE_RULE.weights, a.dn, b.dn)


def _coupling(disc, a, b, mean_weight):
    # |e| * [ mean(lap_a) x int(jump_b) + int(jump_a) x mean(lap_b) ], int(jump) = int_e dv/dn
    return float(disc.consistency_sign) * mean_weight * a.length[:, None, None] * (
        np.einsum("ei,ej->eij", a.lap, b.jump_integral)
        + np.einsum("ei,ej->eij", a.jump_integral, b.lap)
    )


def assemble_volume_norm_matrix(disc):
    """Matrix of the broken Laplacian product sum_T (Lap v, Lap w)_T."""
    return _assemble(disc, volume=lambda cells: _volume_blocks(disc, cells))


def assemble_a_h(disc):
    """The interior penalty bilinear form as a sparse symmetric matrix."""

    def edge(a, b, mw):
        return _penalty(disc, a, b) + _coupling(disc, a, b, mw)

    return _assemble(disc, volume=lambda cells: _volume_blocks(disc, cells), edge=edge)


def assemble_penalty_matrix(disc):
    """Only the sigma/|e| jump penalty part (the edge part of the h-norm)."""
    return _assemble(disc, edge=lambda a, b, mw: _penalty(disc, a, b))


def assemble_mean_norm_matrix(disc):
    """Matrix of sum_e |e| || mean(Lap v) ||_e^2 (edge part of the Q_h norm)."""

    def edge(a, b, mw):
        # the mean is constant along the edge: |e| * int_e mean*mean = |e|^2 * product
        return mw * mw * np.einsum("e,ei,ej->eij", a.length**2, a.lap, b.lap)

    return _assemble(disc, edge=edge)


def assemble_mass(disc):
    """P2 mass matrix."""
    vals = P2.values(_TRI_RULE.points)                  # (Q, 6)
    mref = np.einsum("q,qi,qj->ij", _TRI_RULE.weights, vals, vals)
    area = disc.geom.area
    return _assemble(disc, volume=lambda cells: 2.0 * area[cells, None, None] * mref)


def boundary_values(g2, table):
    """Flux ``g2(x, y, nx, ny)`` at the points of a boundary side ``table``; (n, Q).

    ``nx, ny`` are the table's outward unit normals; ``g2`` may return a scalar.
    """
    pts, normal = table.points, table.normal
    values = g2(pts[..., 0], pts[..., 1], normal[:, None, 0], normal[:, None, 1])
    return np.broadcast_to(np.asarray(values, dtype=float), pts.shape[:2])


def assemble_load(disc, f):
    """Load vector b_i = int_Omega f N_i by triangle quadrature."""
    (fv,) = triangle_values(disc, _TRI_RULE, lambda cells, x, y: f(x, y))
    contrib = 2.0 * disc.geom.area[:, None] * np.einsum(
        "q,tq,qb->tb", _TRI_RULE.weights, fv, P2.values(_TRI_RULE.points)
    )
    b = np.zeros(disc.dofmap.n_dofs)
    np.add.at(b, disc.dofmap.cell_dofs, contrib)
    return b


def assemble_boundary_load(disc, g2):
    """Boundary functional b_i = sum_{boundary edges} int_e g2 N_i ds.

    ``g2`` is the flux ``g2(x, y, nx, ny)`` of ``boundary_values``.
    """
    b = np.zeros(disc.dofmap.n_dofs)
    for _, (side,) in edge_chunks(disc, edge_sides(disc.mesh)[0]):
        contrib = side.length[:, None] * np.einsum(
            "q,eq,eqb->eb", _EDGE_RULE.weights, boundary_values(g2, side), P2.values(side.ref)
        )
        np.add.at(b, side.dofs, contrib)
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
