import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c0ip.cli import main
from c0ip.fem import build_dofmap
from c0ip.mesh import (
    BUILT_IN_DOMAINS,
    MeshError,
    Polygon,
    build_edges,
    built_in_polygon,
    load_polygon,
    mesh_hierarchy,
    refine_uniform,
    triangulate_initial,
)

from helpers import dof_nodes, perimeter


def shoelace(vertices):
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def test_polygon_rejects_degenerate():
    with pytest.raises(MeshError):
        Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(MeshError):
        Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear
    with pytest.raises(MeshError):
        Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))


def test_polygon_rejects_nonconvex_and_clockwise():
    with pytest.raises(MeshError):
        Polygon(np.array([[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]], dtype=float))
    with pytest.raises(MeshError):
        Polygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float))


def test_polygon_equality_and_hash():
    hexagon = built_in_polygon("hexagon")
    assert hexagon == built_in_polygon("hexagon")
    assert hash(hexagon) == hash(built_in_polygon("hexagon"))
    assert hexagon != built_in_polygon("pentagon150")
    assert hexagon != Polygon(hexagon.vertices, name="other")
    assert hexagon != hexagon.vertices.tolist()
    assert len({hexagon, built_in_polygon("hexagon")}) == 1


def test_unit_square_initial_counts():
    mesh = triangulate_initial(built_in_polygon("unit-square"))
    assert mesh.n_triangles == 2
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 5
    assert int(np.sum(mesh.is_boundary_edge)) == 4
    # canonical diagonal (0,0)-(1,1)
    diag = np.flatnonzero(~mesh.is_boundary_edge)
    assert len(diag) == 1
    vids = mesh.edge_vertices[diag[0]]
    pts = mesh.vertices[vids]
    assert np.allclose(sorted(pts.sum(axis=1)), [0.0, 2.0])


def test_right_triangle_initial():
    mesh = triangulate_initial(built_in_polygon("right-triangle"))
    assert mesh.n_triangles == 1
    assert mesh.n_edges == 3
    assert int(np.sum(mesh.is_boundary_edge)) == 3


def test_hexagon_fan_and_area():
    poly = built_in_polygon("hexagon")
    mesh = triangulate_initial(poly)
    assert mesh.n_triangles == 4
    assert mesh.n_vertices == 6
    exact = 3.0 * np.sqrt(3.0) / 2.0
    assert abs(shoelace(poly.vertices) - exact) < 1e-12
    assert abs(float(mesh.triangle_areas().sum()) - exact) < 1e-12


def test_refine_counts_unit_square():
    mesh = triangulate_initial(built_in_polygon("unit-square"))
    fine = refine_uniform(mesh)
    assert fine.n_triangles == 8
    assert fine.n_vertices == 9
    assert fine.level == 1
    finer = refine_uniform(fine)
    assert finer.n_triangles == 32
    assert finer.n_vertices == 25
    # Euler: E = V + T - 1 for a disk-like region
    assert finer.n_edges == 25 + 32 - 1 == 56
    assert abs(finer.h_max - np.sqrt(2.0) / 4.0) < 1e-15


def test_refine_single_triangle():
    mesh = triangulate_initial(built_in_polygon("right-triangle"))
    fine = refine_uniform(mesh)
    assert fine.n_triangles == 4
    assert fine.n_vertices == 6
    assert fine.n_edges == 9


def test_refined_square_edge_counts():
    mesh = refine_uniform(triangulate_initial(built_in_polygon("unit-square")))
    assert mesh.n_edges == 16
    assert int(np.sum(mesh.is_boundary_edge)) == 8
    assert int(np.sum(~mesh.is_boundary_edge)) == 8


def test_h_halves_exactly():
    hier = mesh_hierarchy(built_in_polygon("pentagon150"), 3)
    hs = [m.h_max for m in hier]
    for a, b in zip(hs, hs[1:]):
        assert b == pytest.approx(a / 2.0, rel=1e-15)


@pytest.mark.parametrize("domain", sorted(BUILT_IN_DOMAINS))
def test_area_preserved_under_refinement(domain):
    poly = built_in_polygon(domain)
    for mesh in mesh_hierarchy(poly, 3):
        total = float(mesh.triangle_areas().sum())
        assert abs(total - poly.area) <= 1e-12 * max(abs(poly.area), 1.0)


def assert_mesh_invariants(mesh):
    """What ``build_edges`` guarantees for every mesh it returns."""
    assert np.all(mesh.triangle_areas() > 0.0)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    # unit normals
    assert np.allclose(np.hypot(*mesh.edge_normal.T), 1.0, rtol=0.0, atol=1e-14)
    # interior normals point strictly from T- to T+
    interior = ~mesh.is_boundary_edge
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    dots = np.einsum(
        "ij,ij->i",
        mesh.edge_normal[interior],
        cent[mesh.edge_t_plus[interior]] - cent[mesh.edge_t_minus[interior]],
    )
    assert np.all(dots > 0.0)
    # T- has the smaller triangle index
    assert np.all(
        mesh.edge_t_minus[interior] < mesh.edge_t_plus[interior]
    )
    # boundary normals point out of the polygon (away from adjacent centroid)
    bnd = mesh.is_boundary_edge
    dots = np.einsum(
        "ij,ij->i",
        mesh.edge_normal[bnd],
        mesh.edge_midpoint[bnd] - cent[mesh.edge_t_minus[bnd]],
    )
    assert np.all(dots > 0.0)
    # deterministic ordering by sorted vertex pair
    keys = mesh.edge_vertices
    assert np.all(keys[:, 0] < keys[:, 1])
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    assert np.array_equal(order, np.arange(len(keys)))


@pytest.mark.parametrize("domain", sorted(BUILT_IN_DOMAINS))
def test_edge_invariants(domain):
    for mesh in mesh_hierarchy(built_in_polygon(domain), 2):
        assert_mesh_invariants(mesh)


@pytest.mark.parametrize("domain", sorted(BUILT_IN_DOMAINS))
def test_boundary_length_matches_perimeter(domain):
    poly = built_in_polygon(domain)
    for mesh in mesh_hierarchy(poly, 2):
        blen = float(mesh.edge_length[mesh.is_boundary_edge].sum())
        assert abs(blen - perimeter(poly)) < 1e-12 * max(perimeter(poly), 1.0)


def test_corner_vertices_persist():
    poly = built_in_polygon("hexagon")
    for mesh in mesh_hierarchy(poly, 3):
        pts = mesh.vertices[mesh.corner_vertex_ids]
        assert np.allclose(pts, poly.vertices, atol=1e-14)
        assert np.all(np.isin(mesh.corner_vertex_ids, build_dofmap(mesh).boundary_dof_ids))


def _nearest_corner_ids(polygon, vertices):
    """Corner ids by a nearest-vertex search: the reference for corner_vertex_ids."""
    ids = []
    for p in polygon.vertices:
        d = np.hypot(vertices[:, 0] - p[0], vertices[:, 1] - p[1])
        j = int(np.argmin(d))
        assert d[j] <= 1e-12
        ids.append(j)
    return np.asarray(ids, dtype=np.int64)


@pytest.mark.parametrize("domain", sorted(BUILT_IN_DOMAINS))
def test_corner_ids_match_nearest_vertex_search(domain):
    for mesh in mesh_hierarchy(built_in_polygon(domain), 4):
        assert mesh.corner_vertex_ids.dtype == np.int64
        assert np.array_equal(
            mesh.corner_vertex_ids, _nearest_corner_ids(mesh.polygon, mesh.vertices)
        )


def test_corners_not_first_rejected():
    poly = built_in_polygon("unit-square")
    verts = np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    tris = np.array([[3, 0, 1], [3, 1, 2]])
    with pytest.raises(MeshError, match="polygon corners must be the first mesh vertices"):
        build_edges(poly, verts, tris, 0)


@st.composite
def convex_polygons(draw):
    """Vertices on an axis-aligned ellipse, CCW, with angular gaps of at least 2*pi/(3n)."""
    n = draw(st.integers(3, 8))
    unit = st.floats(0.0, 1.0)
    gaps = 1.0 + 2.0 * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    angles = draw(unit) * 2.0 * np.pi + 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    radii = 0.5 + 1.5 * np.array(draw(st.lists(unit, min_size=2, max_size=2)))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    return Polygon(center + radii * np.column_stack([np.cos(angles), np.sin(angles)]))


@settings(max_examples=25, deadline=None)
@given(convex_polygons())
def test_prefix_property_on_random_convex_polygons(poly):
    hier = mesh_hierarchy(poly, 3)
    for mesh in hier:
        assert np.array_equal(mesh.corner_vertex_ids, np.arange(len(poly.vertices)))
    for coarse, fine in zip(hier, hier[1:]):
        assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)
        nodes = dof_nodes(coarse)
        assert np.array_equal(dof_nodes(fine)[: len(nodes)], nodes)


def sorted_angles(mesh):
    """Each triangle's interior angles, ascending."""
    v = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = v[:, (k + 1) % 3] - v[:, k]
        b = v[:, (k + 2) % 3] - v[:, k]
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        angles.append(np.arctan2(np.abs(cross), np.einsum("ij,ij->i", a, b)))
    return np.sort(np.stack(angles, axis=1), axis=1)


@settings(max_examples=25, deadline=None)
@given(convex_polygons())
def test_similarity_classes_invariant_under_refinement(poly):
    # red refinement: children 4p..4p+3 are similar to parent p
    hier = mesh_hierarchy(poly, 2)
    for coarse, fine in zip(hier, hier[1:]):
        parent = sorted_angles(coarse)[np.arange(fine.n_triangles) // 4]
        assert np.allclose(sorted_angles(fine), parent, rtol=0.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(convex_polygons())
def test_edge_invariants_on_random_convex_polygons(poly):
    for mesh in mesh_hierarchy(poly, 2):
        assert_mesh_invariants(mesh)


@settings(max_examples=25, deadline=None)
@given(convex_polygons())
def test_check_mesh_accepts_random_convex_polygons(tmp_path_factory, poly):
    path = tmp_path_factory.mktemp("poly") / "vertices.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in poly.vertices.tolist()))
    assert load_polygon(path) == Polygon(poly.vertices, name=str(path))
    with redirect_stdout(io.StringIO()) as out:
        assert main(["check-mesh", str(path), "1..2"]) == 0
    assert len(out.getvalue().splitlines()) == 3


def test_vertex_prefix_stability():
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 3)
    for coarse, fine in zip(hier, hier[1:]):
        nv = coarse.n_vertices
        assert np.array_equal(fine.vertices[:nv], coarse.vertices)
        # new vertices appear in parent-edge order
        assert np.allclose(fine.vertices[nv:], coarse.edge_midpoint)


def test_edge_record_view():
    mesh = triangulate_initial(built_in_polygon("unit-square"))
    e = np.flatnonzero(~mesh.is_boundary_edge)[0]
    assert not mesh.is_boundary_edge[e]
    assert mesh.edge_t_minus[e] == 0 and mesh.edge_t_plus[e] == 1
    assert mesh.edge_length[e] == pytest.approx(np.sqrt(2.0))
    assert np.allclose(mesh.edge_midpoint[e], [0.5, 0.5])
    b = np.flatnonzero(mesh.is_boundary_edge)[0]
    assert mesh.is_boundary_edge[b] and mesh.edge_t_plus[b] == -1
    assert abs(np.hypot(*mesh.edge_normal[b]) - 1.0) < 1e-14


def test_nonconforming_mesh_rejected():
    poly = built_in_polygon("unit-square")
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 2, 4]])
    with pytest.raises(MeshError):
        build_edges(poly, verts, tris, 0)


def _loop_edge_topology(tris):
    """Edge tables by a dict over triangle sides: the reference for build_edges."""
    owners = {}
    for ti, tri in enumerate(tris.tolist()):
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            owners.setdefault((min(a, b), max(a, b)), []).append(ti)
    keys = sorted(owners)
    index = {k: i for i, k in enumerate(keys)}
    t_minus = [owners[k][0] for k in keys]
    t_plus = [owners[k][1] if len(owners[k]) == 2 else -1 for k in keys]
    cell_edges = [
        [index[(min(a, b), max(a, b))] for a, b in ((t[1], t[2]), (t[2], t[0]), (t[0], t[1]))]
        for t in tris.tolist()
    ]
    return np.array(keys), np.array(t_minus), np.array(t_plus), np.array(cell_edges)


@pytest.mark.parametrize("domain", sorted(BUILT_IN_DOMAINS))
def test_edge_topology_matches_loop_reference(domain):
    for mesh in mesh_hierarchy(built_in_polygon(domain), 3):
        got = (mesh.edge_vertices, mesh.edge_t_minus, mesh.edge_t_plus, mesh.cell_edges)
        for a, b in zip(got, _loop_edge_topology(mesh.triangles)):
            assert np.array_equal(a, b)


def test_edge_shared_by_three_triangles_rejected():
    poly = built_in_polygon("unit-square")
    # three counter-clockwise triangles on the same side (0, 1)
    verts = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, 3]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by more than two"):
        build_edges(poly, verts, tris, 0)


def test_load_polygon_roundtrip(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("# a square\n0 0\n2 0\n2 2\n0 2\n")
    poly = load_polygon(path)
    assert poly.area == pytest.approx(4.0)


def test_load_polygon_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n1\n")
    with pytest.raises(MeshError):
        load_polygon(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_polygon_rejects_non_finite_vertices(tmp_path, value):
    p = tmp_path / "bad.txt"
    p.write_text(f"0 0\n1 0\n{value} 1\n0 1\n")
    with pytest.raises(MeshError, match=r"^polygon vertex 2 is not finite"):
        load_polygon(p)


def test_random_convex_polygons_triangulate(rng=np.random.default_rng(7)):
    for _ in range(20):
        n = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.05:
            continue
        radius = rng.uniform(0.5, 2.0)
        verts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        poly = Polygon(verts, name="random")
        mesh = refine_uniform(triangulate_initial(poly))
        assert abs(float(mesh.triangle_areas().sum()) - poly.area) < 1e-12 * max(
            poly.area, 1.0
        )
        euler = mesh.n_vertices - mesh.n_edges + mesh.n_triangles
        assert euler == 1
