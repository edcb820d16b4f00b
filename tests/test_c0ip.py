import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from c0ip.c0ip import (
    Discretization,
    assemble_a_h,
    assemble_boundary_load,
    assemble_load,
    assemble_mass,
    assemble_mean_norm_matrix,
    assemble_penalty_matrix,
    assemble_volume_norm_matrix,
    edge_points,
    edge_side_data,
    edge_sides,
    matrix_norms,
)
from c0ip.fem import P2, QuadratureRule, build_dofmap
from c0ip.linalg import BandedCholesky, PositiveDefiniteError
from c0ip.mesh import (
    built_in_polygon,
    mesh_hierarchy,
    refine_uniform,
    triangulate_initial,
)

from helpers import dof_nodes, interpolate, jittered_hexagon
from oracle import oracle_a_h, oracle_consistency_defect, oracle_load, oracle_mass
from test_mesh import convex_polygons

PAPER_SIGN = dict(sigma=5.0, consistency_sign=+1)
CONSISTENT5 = dict(sigma=5.0, consistency_sign=-1)


@pytest.fixture(scope="module")
def square0():
    return triangulate_initial(built_in_polygon("unit-square"))


@pytest.fixture(scope="module")
def square2():
    return mesh_hierarchy(built_in_polygon("unit-square"), 2)[2]


def x_squared(mesh):
    return dof_nodes(mesh)[:, 0] ** 2


# -- hand values on the two-triangle square (independent oracle first, then
#    frozen: volume 4, one active boundary edge contributes 2*4 coupling and
#    4*sigma penalty; with sigma = 5 the positive-coupling total is 32 and the
#    consistent-coupling total is 16) ----------------------------------------

def test_a_h_hand_value_positive_coupling(square0):
    disc = Discretization(square0, **PAPER_SIGN)
    p = x_squared(square0)
    A = assemble_a_h(disc)
    value = float(p @ (A @ p))
    oracle = oracle_a_h(square0, disc.dofmap, 5.0, +1)
    assert abs(value - float(p @ (oracle @ p))) < 1e-12
    assert abs(value - 32.0) < 1e-12


def test_a_h_hand_value_consistent_coupling(square0):
    disc = Discretization(square0, **CONSISTENT5)
    p = x_squared(square0)
    A = assemble_a_h(disc)
    value = float(p @ (A @ p))
    oracle = oracle_a_h(square0, disc.dofmap, 5.0, -1)
    assert abs(value - float(p @ (oracle @ p))) < 1e-12
    assert abs(value - 16.0) < 1e-12


def test_norms_hand_values(square0):
    disc = Discretization(square0, **CONSISTENT5)
    p = x_squared(square0)
    norms = matrix_norms(p, disc, ("h", "energy", "qh"))
    assert norms["h"] ** 2 == pytest.approx(24.0, abs=1e-12)
    # energy adds the L2 part: integral of x^4 over the square is 1/5
    assert norms["energy"] ** 2 == pytest.approx(24.2, abs=1e-12)
    # mean term: 4 unit boundary edges give 16, the sqrt(2)-long diagonal
    # gives |e| * int_e 4 ds = sqrt(2) * 4 sqrt(2) = 8, so 24 in total
    assert norms["qh"] ** 2 == pytest.approx(48.0, abs=1e-12)


def test_norm_of_constant_is_zero(square2):
    disc = Discretization(square2, **CONSISTENT5)
    c = np.full(disc.dofmap.n_dofs, 3.7)
    norms = matrix_norms(c, disc, ("h", "qh", "energy"))
    # the form annihilates constants only up to roundoff in the h^-2 entries
    assert norms["h"] < 1e-5
    assert norms["qh"] < 1e-5
    assert norms["energy"] == pytest.approx(3.7, abs=1e-9)  # |c| * sqrt(|Omega|)


def test_global_linear_sees_boundary_penalty(square0):
    for params in (PAPER_SIGN, CONSISTENT5):
        disc = Discretization(square0, **params)
        p = interpolate(square0, lambda x, y: x + 2 * y)
        A = assemble_a_h(disc)
        assert float(p @ (A @ p)) > 1.0


def test_constants_in_kernel(square2):
    disc = Discretization(square2)
    A = assemble_a_h(disc)
    ones = np.ones(disc.dofmap.n_dofs)
    assert np.max(np.abs(A @ ones)) < 1e-10


@pytest.mark.parametrize("domain", ["unit-square", "pentagon150"])
@pytest.mark.parametrize("sign", [-1, +1])
def test_assembly_matches_independent_oracle(domain, sign):
    mesh = refine_uniform(triangulate_initial(built_in_polygon(domain)))
    disc = Discretization(mesh, sigma=5.0, consistency_sign=sign)
    A = assemble_a_h(disc).toarray()
    Ao = oracle_a_h(mesh, disc.dofmap, 5.0, sign)
    scale = np.abs(Ao).max()
    assert np.max(np.abs(A - Ao)) < 1e-11 * scale


@pytest.mark.parametrize("sign", [+1, -1])
def test_symmetry_on_refined_mesh(sign):
    mesh = mesh_hierarchy(built_in_polygon("pentagon150"), 2)[2]
    A = assemble_a_h(Discretization(mesh, consistency_sign=sign))
    d = A - A.T
    assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12 * np.abs(A.data).max()


@settings(max_examples=25, deadline=None)
@given(convex_polygons(), st.integers(0, 2), st.sampled_from([+1, -1]))
def test_symmetric_with_constants_in_kernel_on_random_convex_polygons(poly, level, sign):
    A = assemble_a_h(Discretization(mesh_hierarchy(poly, level)[level], consistency_sign=sign))
    scale = np.abs(A.data).max()
    assert abs(A - A.T).max() <= 1e-12 * scale
    assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-12 * scale


def test_consistency_identity_default_sign(square2, rng=np.random.default_rng(11)):
    """The default coupling sign is exactly Galerkin-orthogonal for the
    clamped polynomial solution; the flipped sign is inconsistent."""
    mesh = square2
    dm = build_dofmap(mesh)

    def lap_u(x, y):
        X = x**2 * (1 - x) ** 2
        Y = y**2 * (1 - y) ** 2
        return (2 - 12 * x + 12 * x**2) * Y + X * (2 - 12 * y + 12 * y**2)

    def f(x, y):
        X = x**2 * (1 - x) ** 2
        Y = y**2 * (1 - y) ** 2
        Xpp = 2 - 12 * x + 12 * x**2
        Ypp = 2 - 12 * y + 12 * y**2
        return 24 * Y + 24 * X + 2 * Xpp * Ypp

    interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dof_ids)
    v = np.zeros(dm.n_dofs)
    v[interior] = rng.standard_normal(len(interior))
    good = oracle_consistency_defect(mesh, dm, v, lap_u, f, sign=-1)
    bad = oracle_consistency_defect(mesh, dm, v, lap_u, f, sign=+1)
    assert abs(good) < 1e-11 * np.linalg.norm(v)
    assert abs(bad) > 1e-2 * np.linalg.norm(v)


# -- mass matrix -------------------------------------------------------------

def test_mass_row_sum_is_area(square2):
    M = assemble_mass(Discretization(square2))
    assert float(M.sum()) == pytest.approx(1.0, abs=1e-12)


def test_mass_spd(square2, rng=np.random.default_rng(5)):
    M = assemble_mass(Discretization(square2))
    for _ in range(10):
        v = rng.standard_normal(M.shape[0])
        assert float(v @ (M @ v)) > 0.0
    assert np.max(np.abs((M - M.T).data)) < 1e-15


def test_mass_vertex_diagonal_single_triangle():
    # symbolic oracle: int_T (lam(2lam-1))^2 = area/30 for a vertex function
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    lam = 1 - x - y
    n1 = lam * (2 * lam - 1)
    exact = sympy.integrate(
        sympy.integrate(n1**2, (y, 0, 1 - x)), (x, 0, 1)
    )  # reference triangle, area 1/2
    assert exact == sympy.Rational(1, 60)  # = (1/2) / 30

    mesh = triangulate_initial(built_in_polygon("right-triangle"))
    M = assemble_mass(Discretization(mesh))
    area = float(mesh.triangle_areas()[0])
    for vid in range(3):
        assert M[vid, vid] == pytest.approx(area / 30.0, rel=1e-13)


def test_mass_matches_oracle(square0):
    disc = Discretization(square0)
    M = assemble_mass(disc).toarray()
    assert np.max(np.abs(M - oracle_mass(square0, disc.dofmap))) < 1e-14


# -- load vectors ------------------------------------------------------------

def test_load_constant_sums_to_area(square2):
    disc = Discretization(square2)
    b = assemble_load(disc, lambda x, y: np.ones_like(x))
    assert float(b.sum()) == pytest.approx(1.0, abs=1e-13)
    z = assemble_load(disc, lambda x, y: np.zeros_like(x))
    assert np.all(z == 0.0)


def test_load_matches_fine_quadrature_oracle(square2):
    disc = Discretization(square2)

    def f(x, y):
        X = x**2 * (1 - x) ** 2
        Y = y**2 * (1 - y) ** 2
        return 24 * (X + Y) + 8 * (6 * x**2 - 6 * x + 1) * (6 * y**2 - 6 * y + 1)

    b = assemble_load(disc, f)
    bo = oracle_load(square2, disc.dofmap, f)
    assert np.max(np.abs(b - bo)) < 1e-10


def test_boundary_load_values(square2):
    disc = Discretization(square2)
    ones = assemble_boundary_load(disc, lambda x, y, nx, ny: np.ones_like(x))
    assert float(ones.sum()) == pytest.approx(4.0, abs=1e-12)  # perimeter
    zeros = assemble_boundary_load(disc, lambda x, y, nx, ny: np.zeros_like(x))
    assert np.all(zeros == 0.0)

    def g2(x, y, nx, ny):
        return np.where(np.abs(y) < 1e-12, x, 0.0)

    b = assemble_boundary_load(disc, g2)
    assert float(b.sum()) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("domain", ["unit-square", "right-triangle", "hexagon", "pentagon150"])
def test_boundary_load_passes_outward_normal(domain):
    """The flux receives the outward normal: by the divergence theorem the
    boundary integral of x . n is 2 |Omega|, and the integrand is a cubic on
    each edge, so the edge rule is exact.  The compatibility check gets the
    same normals, so source 2 balances that flux to roundoff."""
    from c0ip.cahn_hilliard import check_compatibility

    polygon = built_in_polygon(domain)
    disc = Discretization(mesh_hierarchy(polygon, 2)[2])
    flux = lambda x, y, nx, ny: x * nx + y * ny
    b = assemble_boundary_load(disc, flux)
    assert float(b.sum()) == pytest.approx(2.0 * polygon.area, abs=1e-12)
    assert abs(check_compatibility(disc, lambda x, y: 2.0, flux)) < 1e-12


# -- definiteness, kernel, norm equivalence ----------------------------------

@pytest.mark.parametrize("domain", ["unit-square", "right-triangle", "hexagon", "pentagon150"])
def test_default_sigma_positive_definite(domain):
    hier = mesh_hierarchy(built_in_polygon(domain), 3)
    for mesh in hier[1:]:
        disc = Discretization(mesh)
        dm = disc.dofmap
        A = assemble_a_h(disc)
        interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dof_ids)
        BandedCholesky(A[interior][:, interior])  # raises if not SPD


def test_sigma_five_not_definite_on_fan_domains():
    """sigma = 5 sits below the coercivity threshold (about 5.9) of the fan
    triangulations with 120-degree triangles; pinning one corner exposes it."""
    mesh = mesh_hierarchy(built_in_polygon("pentagon150"), 2)[2]
    A = assemble_a_h(Discretization(mesh, **CONSISTENT5))
    pinned = np.setdiff1d(np.arange(A.shape[0]), [0])
    with pytest.raises(PositiveDefiniteError):
        BandedCholesky(A[pinned][:, pinned])


def test_kernel_is_exactly_constants():
    mesh = mesh_hierarchy(built_in_polygon("unit-square"), 2)[2]
    A = assemble_a_h(Discretization(mesh)).toarray()
    w = np.linalg.eigvalsh(A)
    scale = np.abs(w).max()
    assert abs(w[0]) < 1e-10 * scale
    assert w[1] > 1e-6 * scale


def test_norm_equivalence_sampling(rng=np.random.default_rng(17)):
    """Sampled Q_h/h norm ratios stay within level-stable bounds (levels >= 2;
    the coarsest level has too few dofs for the sampled extremes to settle)."""
    mins, maxs = [], []
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 4)
    for mesh in hier[2:]:
        disc = Discretization(mesh)
        ratios = []
        for _ in range(100):
            v = rng.standard_normal(disc.dofmap.n_dofs)
            norms = matrix_norms(v, disc, ("h", "qh"))
            ratios.append(norms["qh"] / norms["h"])
        ratios = np.array(ratios)
        assert np.all(ratios >= 1.0 - 1e-12)  # the Q_h norm dominates by construction
        mins.append(ratios.min())
        maxs.append(ratios.max())
    # level-stable empirical constants
    assert max(maxs) / min(maxs) < 1.2
    assert max(mins) / min(mins) < 1.2


def test_boundedness_and_coercivity_witness(rng=np.random.default_rng(23)):
    """Sampled Rayleigh ratios a(v,v)/||v||_h^2 stay inside a level-stable
    band, witnessing both coercivity and boundedness of the form."""
    lows, highs = [], []
    for mesh in mesh_hierarchy(built_in_polygon("unit-square"), 4)[2:]:
        disc = Discretization(mesh)
        A = disc.A
        lo, hi = np.inf, 0.0
        for _ in range(100):
            v = rng.standard_normal(disc.dofmap.n_dofs)
            r = float(v @ (A @ v)) / matrix_norms(v, disc, ("h",))["h"] ** 2
            lo, hi = min(lo, r), max(hi, r)
        lows.append(lo)
        highs.append(hi)
    assert min(lows) > 0.5
    assert max(highs) < 1.5
    # pair sampling: the empirical continuity constant must not grow
    cs = []
    for mesh in mesh_hierarchy(built_in_polygon("unit-square"), 3)[1:]:
        disc = Discretization(mesh)
        A = disc.A
        worst = 0.0
        for _ in range(50):
            v = rng.standard_normal(disc.dofmap.n_dofs)
            w = rng.standard_normal(disc.dofmap.n_dofs)
            num = abs(float(v @ (A @ w)))
            den = (
                matrix_norms(v, disc, ("h",))["h"]
                * matrix_norms(w, disc, ("h",))["h"]
            )
            worst = max(worst, num / den)
        cs.append(worst)
    assert max(cs) <= 1.5 * cs[0]


# -- the per-mesh discretization ---------------------------------------------

def test_norm_matrices_assembled_once_per_discretization(square2, monkeypatch):
    import c0ip.c0ip as c0ip_mod

    calls = {}

    def counting(name):
        original = getattr(c0ip_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(c0ip_mod, name, wrapper)

    assemblers = (
        "assemble_mass",
        "assemble_volume_norm_matrix",
        "assemble_penalty_matrix",
        "assemble_mean_norm_matrix",
    )
    for name in assemblers:
        counting(name)
    disc = Discretization(square2)
    v = np.arange(disc.dofmap.n_dofs, dtype=float)
    first = matrix_norms(v, disc, ("l2", "h", "energy", "qh"))
    second = matrix_norms(v, disc, ("l2", "h", "energy", "qh"))
    assert first == second
    assert calls == {name: 1 for name in assemblers}


def test_coupling_cancels_between_signs():
    """a_h(+1) + a_h(-1) leaves twice the volume and penalty terms (the h-norm matrix)."""
    mesh = mesh_hierarchy(built_in_polygon("hexagon"), 3)[3]
    plus, minus = (Discretization(mesh, consistency_sign=s) for s in (1, -1))
    twice = 2.0 * plus.norm_h
    diff = plus.A + minus.A - twice
    assert abs(diff).max() <= 1e-12 * abs(twice).max()


def test_discretization_validates_its_inputs(square0):
    with pytest.raises(ValueError, match="penalty parameter sigma must be >= 1, got 0.5"):
        Discretization(square0, sigma=0.5)
    with pytest.raises(ValueError, match="penalty parameter sigma must be finite, got inf"):
        Discretization(square0, sigma=np.inf)
    with pytest.raises(ValueError, match="consistency_sign must be -1 or \\+1"):
        Discretization(square0, consistency_sign=0)


# -- edge tables and the COO path are bit-identical to their references ------

def _einsum_dn(disc, rule):
    """Normal-derivative tables by unoptimized einsums: the reference for edge_side_data."""
    mesh, geom = disc.mesh, disc.geom
    boundary = mesh.is_boundary_edge
    tables = []
    for sel, tri_ids, out_sign in (
        (boundary, mesh.edge_t_minus[boundary], +1.0),
        (~boundary, mesh.edge_t_minus[~boundary], +1.0),
        (~boundary, mesh.edge_t_plus[~boundary], -1.0),
    ):
        edges = np.flatnonzero(sel)
        d = edge_points(mesh, edges, rule) - geom.v0[tri_ids[:, None]]
        ref = np.einsum("...ij,...j->...i", geom.jac_inv[tri_ids[:, None]], d)
        gphys = np.einsum("tqbj,tjk->tqbk", P2.gradients(ref), geom.jac_inv[tri_ids])
        tables.append(np.einsum("tqbk,tk->tbq", gphys, out_sign * mesh.edge_normal[edges]))
    return tables


@pytest.mark.parametrize("degree", [9, 19], ids=["assembly-rule", "error-rule"])
def test_edge_tables_bit_identical_to_einsum(degree):
    rule = QuadratureRule.interval(degree)
    disc = Discretization(mesh_hierarchy(built_in_polygon("pentagon150"), 3)[3])
    tables = [t for sides in edge_sides(disc.mesh) for t in edge_side_data(disc, sides, rule)]
    assert len(tables) == 3
    for group, dn in zip(tables, _einsum_dn(disc, rule)):
        # same strides too: matmuls over dn sum in an order that follows its layout
        assert group.dn.strides == dn.strides
        assert np.array_equal(group.dn, dn)


@pytest.mark.parametrize(
    "domain", ["unit-square", "hexagon", "pentagon150", "right-triangle", "jittered-hexagon"]
)
def test_edge_tables_carry_points_reference_coordinates_and_outward_normals(domain):
    poly = (
        jittered_hexagon(np.random.default_rng(0))
        if domain == "jittered-hexagon"
        else built_in_polygon(domain)
    )
    hierarchy, rule = mesh_hierarchy(poly, 3), QuadratureRule.interval(9)
    for level in (1, 3):
        disc = Discretization(hierarchy[level])
        mesh, geom = disc.mesh, disc.geom
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        for sides in edge_sides(mesh):
            for (edges, tri_ids, _), t in zip(sides, edge_side_data(disc, sides)):
                assert np.array_equal(t.points, edge_points(mesh, edges, rule))
                normal = mesh.edge_normal[edges]
                assert np.all((t.normal == normal).all(axis=1) | (t.normal == -normal).all(axis=1))
                midpoints = mesh.vertices[mesh.edge_vertices[edges]].mean(axis=1)
                assert np.all(np.einsum("ei,ei->e", midpoints - centroids[tri_ids], t.normal) > 0)
                mapped = geom.v0[tri_ids, None] + np.einsum("eij,eqj->eqi", geom.jac[tri_ids], t.ref)
                np.testing.assert_allclose(mapped, t.points, rtol=0.0, atol=1e-14)


def _int64_assemble(disc, pieces):
    """COO assembly from int64 dof indices, downcast by scipy: the reference for _assemble."""
    rows, cols, vals = [], [], []
    for row_dofs, col_dofs, blocks in pieces:
        rows.append(np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel())
        cols.append(np.tile(col_dofs, (1, row_dofs.shape[1])).ravel())
        vals.append(np.ascontiguousarray(blocks).ravel())
    n = disc.dofmap.n_dofs
    a = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    a.sum_duplicates()
    return a


def _whole_table_matrices(disc):
    """A, M, norm_h and norm_mean from whole-mesh blocks and whole edge tables,
    each piece in turn in int64 COO: the reference for the chunked writer."""
    w = QuadratureRule.interval(9).weights
    geom, cell_dofs = disc.geom, disc.dofmap.cell_dofs
    lap = geom.laplacians()
    volume = (cell_dofs, cell_dofs, np.einsum("t,ti,tj->tij", geom.area, lap, lap))
    rule = QuadratureRule.triangle(6)
    vals = P2.values(rule.points)
    mref = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    mass = (cell_dofs, cell_dofs, 2.0 * geom.area[:, None, None] * mref)
    a_h, penalty, mean = [volume], [], []
    for sides in edge_sides(disc.mesh):
        tables = edge_side_data(disc, sides)
        mw = 1.0 / len(tables)
        for a in tables:
            for b in tables:
                pen = disc.sigma * np.einsum("q,eiq,ejq->eij", w, a.dn, b.dn)
                coup = float(disc.consistency_sign) * mw * a.length[:, None, None] * (
                    np.einsum("ei,ej->eij", a.lap, b.dn @ w)
                    + np.einsum("ei,ej->eij", a.dn @ w, b.lap)
                )
                a_h.append((a.dofs, b.dofs, pen + coup))
                penalty.append((a.dofs, b.dofs, pen))
                mean.append(
                    (a.dofs, b.dofs, mw * mw * np.einsum("e,ei,ej->eij", a.length**2, a.lap, b.lap))
                )
    return {
        "A": _int64_assemble(disc, a_h),
        "M": _int64_assemble(disc, [mass]),
        "norm_h": _int64_assemble(disc, [volume]) + _int64_assemble(disc, penalty),
        "norm_mean": _int64_assemble(disc, mean),
    }


def _assert_same_csr(got, want, name):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, (name, part)
        assert np.array_equal(a, b), (name, part)


@pytest.mark.parametrize("domain", ["unit-square", "hexagon", "pentagon150", "right-triangle"])
@pytest.mark.parametrize("sign", [-1, +1])
def test_matrices_bit_identical_to_int64_assembly(domain, sign):
    names = ("A", "M", "norm_h", "norm_mean")
    mesh = mesh_hierarchy(built_in_polygon(domain), 3)[3]
    got = Discretization(mesh, sigma=7.0, consistency_sign=sign)
    got = {name: getattr(got, name) for name in names}
    want = _whole_table_matrices(Discretization(mesh, sigma=7.0, consistency_sign=sign))
    for name in names:
        _assert_same_csr(got[name], want[name], name)


def _whole_mesh_loads(disc, f, g2):
    """Both load vectors from whole-mesh quadrature arrays: the reference for the chunked ones.

    ``g2`` is a flux of four arguments, evaluated here on the outward normals.
    """
    geom, mesh = disc.geom, disc.mesh
    tri, edge = QuadratureRule.triangle(6), QuadratureRule.interval(9)
    pts = geom.to_physical(tri.points)
    fv = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])
    contrib = 2.0 * geom.area[:, None] * np.einsum("q,tq,qb->tb", tri.weights, fv, P2.values(tri.points))
    load = np.zeros(disc.dofmap.n_dofs)
    np.add.at(load, disc.dofmap.cell_dofs, contrib)
    edges = np.flatnonzero(mesh.is_boundary_edge)
    pts = edge_points(mesh, edges, edge)
    tri_ids = mesh.edge_t_minus[edges]
    vals = P2.values(geom.to_reference(tri_ids[:, None], pts))
    n = mesh.edge_normal[edges]
    gv = np.broadcast_to(g2(pts[..., 0], pts[..., 1], n[:, None, 0], n[:, None, 1]), pts.shape[:2])
    contrib = mesh.edge_length[edges][:, None] * np.einsum("q,eq,eqb->eb", edge.weights, gv, vals)
    boundary_load = np.zeros(disc.dofmap.n_dofs)
    np.add.at(boundary_load, disc.dofmap.cell_dofs[tri_ids], contrib)
    return load, boundary_load


@pytest.mark.parametrize(
    "domain", ["unit-square", "hexagon", "pentagon150", "right-triangle", "jittered-hexagon"]
)
@pytest.mark.parametrize("sign", [-1, +1])
def test_chunked_assembly_bit_identical_to_whole_tables(domain, sign, monkeypatch):
    """Built 7 rows at a time, with a partial last chunk, or in one chunk
    above the edge count, every matrix and load vector is the whole-table one."""
    import c0ip.c0ip as c0ip_mod

    poly = (
        jittered_hexagon(np.random.default_rng(0))
        if domain == "jittered-hexagon"
        else built_in_polygon(domain)
    )
    hierarchy = mesh_hierarchy(poly, 4)
    f = lambda x, y: np.cos(3.0 * x) * np.sin(2.0 * y) + x * y
    g2 = lambda x, y, nx, ny: np.sin(x) * nx + np.cos(y) * ny
    for chunk in (7, 10**9):
        monkeypatch.setattr(c0ip_mod, "_CHUNK", chunk)
        for level in (1, 2, 3, 4):
            disc = Discretization(hierarchy[level], sigma=7.0, consistency_sign=sign)
            want = _whole_table_matrices(disc)
            for name in ("A", "M", "norm_h", "norm_mean"):
                _assert_same_csr(getattr(disc, name), want[name], (chunk, level, name))
            for got, ref in zip(
                (assemble_load(disc, f), assemble_boundary_load(disc, g2)),
                _whole_mesh_loads(disc, f, g2),
            ):
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (chunk, level)


def test_chunks_cover_rows_in_order_without_a_one_row_tail(monkeypatch):
    import c0ip.c0ip as c0ip_mod

    monkeypatch.setattr(c0ip_mod, "_CHUNK", 7)
    assert c0ip_mod.chunks(0) == []
    assert c0ip_mod.chunks(1) == [slice(0, 1)]
    assert c0ip_mod.chunks(14) == [slice(0, 7), slice(7, 14)]
    # a one-row product would go to gemv, which rounds unlike gemm
    assert c0ip_mod.chunks(15) == [slice(0, 7), slice(7, 15)]
    assert c0ip_mod.chunks(16) == [slice(0, 7), slice(7, 14), slice(14, 16)]


def test_assemblers_build_edge_tables_one_chunk_at_a_time(monkeypatch):
    """No edge table inside an assembler covers more than one chunk of edges."""
    import c0ip.c0ip as c0ip_mod

    gradients = P2.gradients
    rows = []

    def spy(points):
        rows.append(points.shape[0])
        return gradients(points)

    monkeypatch.setattr(P2, "gradients", spy)
    disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 5)[5])
    mesh = disc.mesh
    n_interior = mesh.n_edges - int(mesh.is_boundary_edge.sum())
    assert n_interior > c0ip_mod._CHUNK
    for assemble in (assemble_a_h, assemble_penalty_matrix, assemble_mean_norm_matrix):
        rows.clear()
        assemble(disc)
        # every side of every edge, once
        assert sum(rows) == mesh.n_edges + n_interior, assemble.__name__
        assert max(rows) <= c0ip_mod._CHUNK, assemble.__name__


def test_assemblers_and_check_map_one_chunk_of_triangles_at_a_time(monkeypatch):
    """No Laplacian or physical-point array inside an assembler or the
    compatibility check covers more than one chunk of triangles or edges."""
    import c0ip.c0ip as c0ip_mod
    from c0ip.cahn_hilliard import check_compatibility
    from c0ip.fem import TriangleGeometry

    rows = []

    def spy(method):
        def counted(self, *args):
            out = method(self, *args)
            rows.append(len(out))
            return out

        return counted

    for name in ("laplacians", "to_physical"):
        monkeypatch.setattr(TriangleGeometry, name, spy(getattr(TriangleGeometry, name)))
    disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 5)[5])
    assert disc.mesh.n_triangles > c0ip_mod._CHUNK
    g1 = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    runs = {
        "a_h": lambda: assemble_a_h(disc),
        "volume norm": lambda: assemble_volume_norm_matrix(disc),
        "penalty": lambda: assemble_penalty_matrix(disc),
        "mean norm": lambda: assemble_mean_norm_matrix(disc),
        "mass": lambda: assemble_mass(disc),  # reads neither
        "load": lambda: assemble_load(disc, g1),
        # a zero flux: the check only needs to run, not to pass
        "check": lambda: check_compatibility(
            disc, lambda x, y: 0.0 * x, lambda x, y, nx, ny: 0.0 * x
        ),
    }
    for name, run in runs.items():
        rows.clear()
        run()
        assert max(rows, default=0) <= c0ip_mod._CHUNK, name
        assert rows or name == "mass", name


def test_assembly_transient_bounded_by_result_size():
    """Assembling a_h peaks at under 14 times the bytes of the CSR it returns.

    On hexagon level 5 the int64 COO path peaks at 29.2 times, the int32
    path built from per-piece lists and concatenated copies at 19.3 times,
    and the COO written once at 12.6 times: 16 bytes per entry of COO plus
    scipy's uncompacted CSR at 12.
    """
    import tracemalloc

    disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 5)[5])
    tracemalloc.start()
    try:
        A = assemble_a_h(disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
