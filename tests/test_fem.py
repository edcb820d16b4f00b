from math import factorial

import numpy as np
import pytest

from c0ip.c0ip import Discretization
from c0ip.fem import P2, QuadratureRule, TriangleGeometry, build_dofmap
from c0ip.mesh import built_in_polygon, mesh_hierarchy, refine_uniform, triangulate_initial

from helpers import dof_nodes, interpolate, jittered_hexagon


def test_nodal_property():
    vals = P2.values(P2.nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_vertex_node_values():
    v = P2.values((0.0, 0.0))
    assert np.allclose(v, [1, 0, 0, 0, 0, 0], atol=1e-15)


def test_partition_of_unity(rng=np.random.default_rng(0)):
    pts = rng.uniform(0, 1, size=(50, 2))
    pts = pts[pts.sum(axis=1) <= 1.0]
    vals = P2.values(pts)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    grads = P2.gradients(pts)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)
    # Hessians are constant and sum to zero
    assert np.allclose(P2.hessians.sum(axis=0), 0.0, atol=1e-14)


def test_midpoint_value_at_barycenter():
    vals = P2.values((1.0 / 3.0, 1.0 / 3.0))
    for k in (3, 4, 5):
        assert vals[k] == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_triangle_quadrature_exactness():
    rule = QuadratureRule.triangle(6)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    for a in range(7):
        for b in range(7 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert got == pytest.approx(exact, rel=1e-13), (a, b)


def test_high_order_triangle_rule_exactness():
    rule = QuadratureRule.triangle(12)
    for a, b in [(6, 6), (12, 0), (5, 7), (0, 12)]:
        exact = factorial(a) * factorial(b) / factorial(a + b + 2)
        got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
        assert got == pytest.approx(exact, rel=1e-12), (a, b)


def test_interval_quadrature_exactness():
    rule = QuadratureRule.interval(9)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(10):
        got = float(rule.weights @ rule.points**k)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13), k


def test_dofmap_counts_two_triangle_square():
    mesh = triangulate_initial(built_in_polygon("unit-square"))
    qh = build_dofmap(mesh)
    assert qh.n_dofs == 4 + 5 == 9
    assert len(qh.boundary_dof_ids) == 8
    # V_h fixes the boundary dofs; the single free dof is the diagonal midpoint
    free = np.setdiff1d(np.arange(qh.n_dofs), qh.boundary_dof_ids)
    assert len(free) == 1
    assert np.allclose(dof_nodes(mesh)[free[0]], [0.5, 0.5])


def test_dofmap_counts_refined_square():
    mesh = refine_uniform(triangulate_initial(built_in_polygon("unit-square")))
    qh = build_dofmap(mesh)
    assert qh.n_dofs == 9 + 16 == 25


def test_dofmap_shared_midpoints():
    mesh = mesh_hierarchy(built_in_polygon("pentagon150"), 2)[2]
    dm = build_dofmap(mesh)
    # each edge dof appears in exactly the triangles adjacent to its edge
    counts = np.zeros(dm.n_dofs, dtype=int)
    np.add.at(counts, dm.cell_dofs, 1)
    ne_interior = int(np.sum(~mesh.is_boundary_edge))
    edge_counts = counts[mesh.n_vertices :]
    assert int(np.sum(edge_counts == 2)) == ne_interior
    assert int(np.sum(edge_counts == 1)) == mesh.n_edges - ne_interior


def test_interpolate_constant_and_linear():
    mesh = refine_uniform(triangulate_initial(built_in_polygon("unit-square")))
    ones = interpolate(mesh, lambda x, y: np.ones_like(x))
    assert np.allclose(ones, 1.0)
    xs = interpolate(mesh, lambda x, y: x)
    assert np.allclose(xs, dof_nodes(mesh)[:, 0], atol=1e-15)


def evaluate(disc, coeffs, points):
    """Point evaluation of a finite element function on ``disc``'s mesh (brute-force location)."""
    geom = disc.geom
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    for k, p in enumerate(pts):
        ref = geom.to_reference(np.arange(disc.mesh.n_triangles), p[None, :])
        lam0 = 1.0 - ref[:, 0] - ref[:, 1]
        inside = (ref[:, 0] >= -1e-12) & (ref[:, 1] >= -1e-12) & (lam0 >= -1e-12)
        hits = np.flatnonzero(inside)
        if len(hits) == 0:
            raise ValueError(f"point {p} lies outside the mesh")
        t = int(hits[0])
        out[k] = P2.values(np.clip(ref[t], 0.0, 1.0)) @ coeffs[disc.dofmap.cell_dofs[t]]
    return out if out.size > 1 else float(out[0])


def test_interpolation_reproduces_quadratics(rng=np.random.default_rng(3)):
    disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 2)[2])
    c = rng.standard_normal(6)
    q = lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
    coeffs = interpolate(disc.mesh, q)
    # evaluate at random interior points and compare
    pts = []
    while len(pts) < 50:
        p = rng.uniform(-0.4, 0.4, size=2)
        pts.append(p)
    vals = evaluate(disc, coeffs, np.array(pts))
    exact = np.array([q(x, y) for x, y in pts])
    assert np.max(np.abs(vals - exact)) <= 1e-12


# -- the geometry maps sum the same two terms as the einsums they replace ----

def _einsum_to_physical(geom, ref_points):
    """The reference for to_physical: an unoptimized einsum over the length-2 axis."""
    return geom.v0[:, None, :] + np.einsum("tij,qj->tqi", geom.jac, ref_points)


def _einsum_to_reference(geom, cells, points):
    """The reference for to_reference, broadcasting like it."""
    d = points - geom.v0[cells]
    return np.einsum("...ij,...j->...i", geom.jac_inv[cells], d)


@pytest.fixture(scope="module")
def pentagon_geometry():
    return TriangleGeometry.from_mesh(mesh_hierarchy(built_in_polygon("pentagon150"), 3)[3])


@pytest.mark.parametrize("degree", [6, 16, 20])
def test_to_physical_bit_identical_to_einsum(pentagon_geometry, degree):
    ref = QuadratureRule.triangle(degree).points
    got = pentagon_geometry.to_physical(ref)
    assert np.array_equal(got, _einsum_to_physical(pentagon_geometry, ref))


def test_to_reference_bit_identical_to_einsum(pentagon_geometry, rng=np.random.default_rng(8)):
    geom = pentagon_geometry
    cells = np.arange(len(geom.area))
    # edge tables: (n, 1) cells against (n, Q, 2) points
    pts = geom.to_physical(QuadratureRule.triangle(6).points)
    got = geom.to_reference(cells[:, None], pts)
    assert np.array_equal(got, _einsum_to_reference(geom, cells[:, None], pts))
    # evaluate: every cell against one (1, 2) point, giving (nt, 2)
    p = rng.uniform(-0.5, 0.5, size=(1, 2))
    got = geom.to_reference(cells, p)
    assert got.shape == (len(cells), 2)
    assert np.array_equal(got, _einsum_to_reference(geom, cells, p))


def _broadcast_gradients(points):
    """The reference for P2.gradients: each shape function broadcast over the length-2 axis."""
    grad_lam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    lam = P2._bary(points)
    out = np.empty(lam.shape[:-1] + (6, 2))
    for i in range(3):
        out[..., i, :] = (4.0 * lam[..., i, None] - 1.0) * grad_lam[i]
    for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        out[..., 3 + k, :] = 4.0 * (lam[..., i, None] * grad_lam[j] + lam[..., j, None] * grad_lam[i])
    return out


def test_gradients_bit_identical_to_broadcast(rng=np.random.default_rng(13)):
    # the nodes and the quarter points make 4 lam - 1 and the products exact
    # zeros of either sign; bit patterns tell -0.0 from 0.0
    quarters = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)), -1)
    for points in (
        P2.nodes,
        quarters.reshape(-1, 2),
        rng.uniform(0.0, 1.0, size=(7, 10, 2)),
        QuadratureRule.triangle(16).points,
    ):
        got, want = P2.gradients(points), _broadcast_gradients(points)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_to_physical_of_some_cells_is_their_rows(pentagon_geometry):
    ref = QuadratureRule.triangle(16).points
    whole = pentagon_geometry.to_physical(ref)
    for cells in (slice(3, 17), np.array([5, 0, 9])):
        assert np.array_equal(pentagon_geometry.to_physical(ref, cells), whole[cells])


@pytest.mark.parametrize(
    "domain", ["unit-square", "hexagon", "pentagon150", "right-triangle", "jittered-hexagon"]
)
def test_laplacians_of_some_cells_are_their_rows(domain):
    """Slices, chunk index arrays and the edge-adjacency gathers of the edge
    tables give the whole-mesh Laplacian rows bit for bit."""
    import c0ip.c0ip as c0ip_mod

    poly = (
        jittered_hexagon(np.random.default_rng(0))
        if domain == "jittered-hexagon"
        else built_in_polygon(domain)
    )
    hierarchy = mesh_hierarchy(poly, 5)
    for level in (1, 3, 5):
        mesh = hierarchy[level]
        geom = TriangleGeometry.from_mesh(mesh)
        whole = geom.laplacians()
        chunks = c0ip_mod.chunks(mesh.n_triangles)
        interior = ~mesh.is_boundary_edge
        gathers = [mesh.edge_t_minus, mesh.edge_t_plus[interior], mesh.edge_t_minus[~interior]]
        for cells in [slice(0, 2), *chunks, *(np.arange(c.start, c.stop) for c in chunks), *gathers]:
            assert np.array_equal(geom.laplacians(cells), whole[cells]), (level, cells)
