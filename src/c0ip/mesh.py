"""Triangulations of convex polygons with uniform red refinement.

``build_edges`` is the one constructor of a ``Triangulation``: every mesh
carries its oriented edge topology (T-, T+ adjacency and unit normals) that
the interior penalty bilinear form needs.  The polygon corners are the first
mesh vertices on every level.  All meshes are immutable after construction.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Polygon",
    "Triangulation",
    "MeshError",
    "built_in_polygon",
    "load_polygon",
    "load_domain",
    "triangulate_initial",
    "refine_uniform",
    "build_edges",
    "BUILT_IN_DOMAINS",
]

_AREA_RTOL = 1e-12


class MeshError(ValueError):
    """Invalid polygon or triangulation input."""


@dataclass(frozen=True, eq=False)
class Polygon:
    """Strictly convex polygon given by counter-clockwise vertices."""

    vertices: np.ndarray
    name: str = "polygon"

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise MeshError("polygon needs at least 3 planar vertices")
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if len(bad):
            raise MeshError(f"polygon vertex {bad[0]} is not finite: {v[bad[0]].tolist()}")
        object.__setattr__(self, "vertices", v)
        n = len(v)
        for i in range(n):
            for j in range(i + 1, n):
                if np.allclose(v[i], v[j], rtol=0.0, atol=1e-14):
                    raise MeshError(f"repeated polygon vertex at index {i} and {j}")
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= 0.0):
            bad = int(np.argmin(cross))
            raise MeshError(
                f"polygon is not strictly convex / counter-clockwise (turn at vertex {(bad + 1) % n})"
            )

    def __eq__(self, other):
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash((self.name, self.vertices.tobytes()))

    @property
    def area(self):
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


@dataclass(frozen=True)
class Triangulation:
    """Conforming triangulation with oriented edge topology; built by ``build_edges``.

    The polygon corners are vertices ``0..n-1``.  Vertices created by
    refinement are appended after their parents in parent-edge order, so
    vertex ids (and with them the vertex-then-edge dof numbering) form a
    stable prefix across refinement levels.
    """

    polygon: Polygon
    vertices: np.ndarray           # (nv, 2)
    triangles: np.ndarray          # (nt, 3) CCW vertex ids
    level: int
    edge_vertices: np.ndarray   # (ne, 2), sorted pairs
    edge_t_minus: np.ndarray    # (ne,)
    edge_t_plus: np.ndarray     # (ne,), -1 on boundary
    edge_normal: np.ndarray     # (ne, 2), T- into T+; outward on boundary
    edge_length: np.ndarray
    edge_midpoint: np.ndarray
    cell_edges: np.ndarray      # (nt, 3), edge opposite local vertex
    corner_vertex_ids: np.ndarray

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edge_vertices.shape[0]

    @property
    def is_boundary_edge(self):
        return self.edge_t_plus < 0

    @property
    def h_max(self):
        """Mesh size h: the largest triangle diameter (= largest edge length)."""
        return float(self.edge_length.max())

    def triangle_areas(self):
        return 0.5 * _signed_areas2(self.vertices, self.triangles)


BUILT_IN_DOMAINS = {
    "unit-square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    "right-triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    # regular hexagon with unit circumradius
    "hexagon": [
        (np.cos(k * np.pi / 3.0), np.sin(k * np.pi / 3.0)) for k in range(6)
    ],
    # irregular convex pentagon; its angles, 100.2 to 120.0 degrees, stay
    # below the 120-180 degree regime the source paper opens
    "pentagon150": [(0.0, 0.0), (1.0, 0.0), (1.5, 0.866), (0.75, 1.5), (-0.25, 0.75)],
}


def built_in_polygon(name):
    """Named built-in domain as a Polygon."""
    try:
        verts = BUILT_IN_DOMAINS[name]
    except KeyError:
        known = ", ".join(sorted(BUILT_IN_DOMAINS))
        raise MeshError(f"unknown domain {name!r} (available: {known})") from None
    return Polygon(np.asarray(verts, dtype=float), name=name)


def load_polygon(path):
    """Read a polygon from UTF-8 text: one ``x y`` pair per line, CCW order.

    The polygon is named by its path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MeshError(f"{path}:{lineno}: expected 'x y', got {raw.strip()!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise MeshError(f"{path}:{lineno}: non-numeric coordinate") from None
    return Polygon(np.asarray(rows, dtype=float), name=str(path))


def load_domain(domain):
    """A built-in domain by name, else the polygon in the vertex file at that path."""
    return built_in_polygon(domain) if domain in BUILT_IN_DOMAINS else load_polygon(domain)


def triangulate_initial(polygon):
    """Coarse conforming triangulation of a convex polygon: the fan from vertex 0.

    The mesh vertices are the polygon corners in order.  The unit square is
    split along its (0,0)-(1,1) diagonal.
    """
    n = len(polygon.vertices)
    tris = np.array([[0, i, i + 1] for i in range(1, n - 1)], dtype=np.int64)
    return build_edges(polygon, polygon.vertices.copy(), tris, 0)


def build_edges(polygon, vertices, triangles, level):
    """The complete triangulation of ``polygon`` with the given vertices and triangles.

    Derives the edge topology: adjacency, oriented normals and corners.  Edges are ordered by their sorted vertex-index
    pair; for interior edges the adjacent triangle with the smaller index is
    T- and the normal points from T- into T+; boundary normals point out of
    the polygon.  The polygon corners must be the first mesh vertices, and
    the triangles must cover the polygon.
    """
    areas2 = _signed_areas2(vertices, triangles)
    if np.any(areas2 <= 0.0):
        bad = int(np.argmin(areas2))
        raise MeshError(f"triangle {bad} is degenerate or not counter-clockwise")

    # Conformity bookkeeping on sorted vertex pairs, one int64 key per
    # triangle side; side k is the edge opposite local vertex k.
    nv = np.int64(len(vertices))
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    keys = (np.minimum(a, b) * nv + np.maximum(a, b)).ravel()
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        key = int(uniq[np.argmax(counts > 2)])
        raise MeshError(f"edge {divmod(key, int(nv))} shared by more than two triangles")
    edge_vertices = np.column_stack([uniq // nv, uniq % nv])
    cell_edges = inverse.reshape(triangles.shape)
    # sides grouped by edge, in ascending triangle order within each edge
    owner = np.argsort(inverse, kind="stable") // 3
    first = np.cumsum(counts) - counts
    t_minus = owner[first]
    t_plus = np.where(counts == 2, owner[np.minimum(first + 1, len(owner) - 1)], -1)

    pa = vertices[edge_vertices[:, 0]]
    pb = vertices[edge_vertices[:, 1]]
    tangent = pb - pa
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
    midpoint = 0.5 * (pa + pb)

    centroids = vertices[triangles].mean(axis=1)
    interior = t_plus >= 0
    # interior: orient from T- to T+; boundary: outward = away from T- centroid
    ref = np.where(
        interior[:, None],
        centroids[np.where(interior, t_plus, 0)] - centroids[t_minus],
        midpoint - centroids[t_minus],
    )
    flip = np.einsum("ij,ij->i", normal, ref) < 0.0
    normal[flip] *= -1.0

    corners = polygon.vertices
    if not np.array_equal(vertices[: len(corners)], corners):
        raise MeshError("polygon corners must be the first mesh vertices")

    total = 0.5 * float(areas2.sum())
    target = polygon.area
    if abs(total - target) > _AREA_RTOL * max(abs(target), 1.0):
        raise MeshError(f"triangle areas sum to {total!r}, polygon area is {target!r}")

    return Triangulation(
        polygon=polygon,
        vertices=vertices,
        triangles=triangles,
        level=level,
        edge_vertices=edge_vertices,
        edge_t_minus=t_minus,
        edge_t_plus=t_plus,
        edge_normal=normal,
        edge_length=length,
        edge_midpoint=midpoint,
        cell_edges=cell_edges,
        corner_vertex_ids=np.arange(len(corners), dtype=np.int64),
    )


def _signed_areas2(verts, tris):
    d1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    d2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def refine_uniform(mesh):
    """Red refinement: split every triangle into four similar children.

    New vertices are exactly the parent edge midpoints, appended in parent
    edge order, so vertex numbering is a prefix of every finer level and h
    halves exactly.
    """
    nv = mesh.n_vertices
    verts = np.vstack([mesh.vertices, mesh.edge_midpoint])

    t = mesh.triangles
    # midpoint vertex opposite local vertex k is on edge cell_edges[:, k]
    m0 = nv + mesh.cell_edges[:, 0]
    m1 = nv + mesh.cell_edges[:, 1]
    m2 = nv + mesh.cell_edges[:, 2]
    children = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    children[0::4] = np.column_stack([t[:, 0], m2, m1])
    children[1::4] = np.column_stack([m2, t[:, 1], m0])
    children[2::4] = np.column_stack([m1, m0, t[:, 2]])
    children[3::4] = np.column_stack([m0, m1, m2])

    return build_edges(mesh.polygon, verts, children, mesh.level + 1)


def mesh_hierarchy(polygon, max_level):
    """Meshes at levels 0..max_level produced by repeated red refinement."""
    meshes = [triangulate_initial(polygon)]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes
