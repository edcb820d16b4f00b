import numpy as np
import pytest

from c0ip.c0ip import NORM_NAMES, Discretization, matrix_norms
from c0ip.fem import build_dofmap
from c0ip.mesh import built_in_polygon, mesh_hierarchy
from c0ip.study import (
    ExactField,
    StudyError,
    _exact_errors,
    eoc,
    get_case,
    Study,
    run_study,
)

from helpers import interpolate, jittered_hexagon, l2_error


def test_eoc_trivial_values():
    assert eoc([1.0, 0.25], [1.0, 0.5]) == [pytest.approx(2.0)]
    assert eoc([1.0, 0.5], [1.0, 0.5]) == [pytest.approx(1.0)]
    assert eoc([0.3, 0.3], [1.0, 0.5]) == [pytest.approx(0.0)]


def test_eoc_length_mismatch():
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0])


def test_error_l2_trivial():
    disc = Discretization(mesh_hierarchy(built_in_polygon("unit-square"), 2)[2])
    q = lambda x, y: 1.0 + 2 * x - y + 0.5 * x * y
    coeffs = interpolate(disc.mesh, q)
    assert l2_error(coeffs, q, disc) <= 1e-12
    zero = np.zeros(disc.dofmap.n_dofs)
    assert l2_error(zero, lambda x, y: np.ones_like(x), disc) == pytest.approx(1.0)


def test_error_l2_against_independent_quadrature():
    mesh = mesh_hierarchy(built_in_polygon("unit-square"), 3)[3]
    dm = build_dofmap(mesh)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    coeffs = interpolate(mesh, f)
    got = l2_error(coeffs, f, Discretization(mesh))
    assert got == pytest.approx(_interp_error_reference(mesh, dm, coeffs, f), rel=1e-9)


def _interp_error_reference(mesh, dm, coeffs, f, n=10):
    # Duffy quadrature of (v_h - f)^2 written directly against the basis
    from c0ip.fem import P2, TriangleGeometry

    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1)
    w = 0.5 * w
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    lam1 = U.ravel()
    lam2 = (V * (1 - U)).ravel()
    wts = (WU * WV * (1 - U)).ravel()
    pts = np.column_stack([lam1, lam2])
    geom = TriangleGeometry.from_mesh(mesh)
    phys = geom.to_physical(pts)
    vals = P2.values(pts)
    vh = coeffs[dm.cell_dofs] @ vals.T
    diff = vh - f(phys[..., 0], phys[..., 1])
    return float(np.sqrt(2.0 * geom.area @ ((diff**2) @ wts)))


def test_error_h_trivial():
    disc = Discretization(mesh_hierarchy(built_in_polygon("unit-square"), 2)[2])
    dm = disc.dofmap
    # global quadratic: interpolation is exact, so the error vanishes
    exact = ExactField(
        value=lambda x, y: x * x + 0.5 * x * y,
        gradient=lambda x, y: (2 * x + 0.5 * y, 0.5 * x),
        laplacian=lambda x, y: 2.0 * np.ones_like(x),
    )
    coeffs = interpolate(disc.mesh, exact.value)
    assert _exact_errors(coeffs, exact, disc, ("h",))["h"] <= 1e-11

    # v = 0 against an exact field with constant Laplacian c and zero
    # boundary normal derivative: the element part alone gives |c| sqrt(area)
    chat = 3.0
    exact2 = ExactField(
        value=lambda x, y: np.zeros_like(x),
        gradient=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        laplacian=lambda x, y: chat * np.ones_like(x),
    )
    zero = np.zeros(dm.n_dofs)
    assert _exact_errors(zero, exact2, disc, ("h",))["h"] == pytest.approx(chat, rel=1e-12)


def test_interpolation_eoc_calibration():
    """Interpolation error alone converges at the expected orders; this
    calibrates the error norms before trusting any solver."""
    case = get_case("bubble")
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 4)
    el2, eh, hs = [], [], []
    for mesh in hier[2:]:
        disc = Discretization(mesh)
        coeffs = interpolate(disc.mesh, case.exact.value)
        el2.append(l2_error(coeffs, case.exact.value, disc))
        eh.append(_exact_errors(coeffs, case.exact, disc, ("h",))["h"])
        hs.append(mesh.h_max)
    rates_l2 = eoc(el2, hs)
    rates_h = eoc(eh, hs)
    assert all(r >= 1.9 for r in rates_l2)
    assert all(r >= 0.9 for r in rates_h)


def test_restriction_is_prefix():
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 3)
    coarse = build_dofmap(hier[1])
    f = lambda x, y: np.sin(x) + np.cos(y)
    res = interpolate(hier[3], f)[: coarse.n_dofs]
    # restriction equals direct interpolation on the coarse mesh because
    # coarse dof nodes are fine vertices with matching indices
    assert np.allclose(res, interpolate(hier[1], f), atol=1e-15)


def test_run_study_clamped_plate_report():
    rep = run_study(Study("bubble", [1, 2], norms=("l2", "h")))
    assert [r.level for r in rep.rows] == [1, 2]
    assert rep.rows[0].h == pytest.approx(np.sqrt(2) / 2)
    assert rep.rows[1].h == pytest.approx(np.sqrt(2) / 4)
    assert rep.rows[0].errors["l2"] > rep.rows[1].errors["l2"]
    assert len(rep.eoc["l2"]) == 1
    csv = rep.to_csv(build_id="test")
    lines = csv.strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "level,h,ndofs,err_l2,err_h,eoc_l2,eoc_h,solver_iters,seconds"
    assert len([l for l in lines if not l.startswith("#")]) == 3


def test_run_study_rejects_bad_input():
    with pytest.raises(ValueError):
        run_study(Study("bubble", []))
    with pytest.raises(ValueError):
        run_study(Study("bubble", [1, 2], norms=("l3",)))
    with pytest.raises(ValueError):
        run_study(Study("bubble", [1], domain="hexagon"))  # bubble needs the unit square
    with pytest.raises(KeyError):
        run_study(Study("no-such-case", [1]))


def test_run_study_rejects_repeated_norms():
    with pytest.raises(ValueError, match="norms must not repeat"):
        run_study(Study("bubble", [1, 2], norms=("l2", "l2", "h")))


def test_run_study_rejects_repeated_levels():
    # a repeated level makes a zero mesh-size ratio and a nan in every EOC column
    with pytest.raises(ValueError, match="levels must not repeat"):
        run_study(Study("bubble", [2, 2]))


def test_study_applies_each_default_once():
    study = Study("reference", [2, 1])
    assert study.case is get_case("reference")
    assert study.levels == (1, 2)
    assert study.domain.name == "unit-square"
    assert study.sigma == 10.0
    assert study.alpha == 0.1
    assert study.norms == NORM_NAMES
    assert study.reference_level == 4
    assert study == Study("reference", [1, 2])
    exact = Study("bubble", [1, 2])
    assert exact.alpha is None and exact.reference_level is None
    hexagon = built_in_polygon("hexagon")
    assert Study("reference", [1], domain=hexagon).domain is hexagon


@pytest.mark.parametrize(
    "case, levels, kwargs, key, message",
    [
        # unquoted, though the error is also the KeyError of a failed lookup
        ("nope", [1], {}, "case", r"^unknown case 'nope' \(available: bubble, "),
        ("bubble", [], {}, "levels", "nonempty list of integers >= 1"),
        ("bubble", [0, 1], {}, "levels", "nonempty list of integers >= 1"),
        ("bubble", [2, 2], {}, "levels", "levels must not repeat"),
        ("bubble", (2.5, 3), {}, "levels", "nonempty list of integers >= 1"),
        ("bubble", [1], {"sigma": 0.5}, "sigma", "sigma must be >= 1"),
        ("bubble", [1], {"sigma": float("inf")}, "sigma", "sigma must be finite"),
        ("cosine", [1], {"alpha": 3.0}, "alpha", "alpha is for dirichlet-control only"),
        ("reference", [1], {"alpha": 0.0}, "alpha", "alpha must be > 0"),
        ("reference", [1], {"alpha": float("inf")}, "alpha", "alpha must be finite"),
        ("bubble", [1], {"norms": ("l3",)}, "norms", "norms must be a subset"),
        ("bubble", [1], {"norms": ()}, "norms", "norms must be a subset"),
        ("bubble", [1], {"norms": ("l2", "l2")}, "norms", "norms must not repeat"),
        ("bubble", [1], {"reference_level": 5}, "reference-level",
         "reference-level is for reference-based cases only"),
        ("zero", [1, 2], {"reference_level": 2}, "reference-level",
         "must exceed the finest level"),
        ("zero", [1, 2], {"reference_level": 9}, "reference-level", "be at most 8"),
        ("cosine-flux", (1, 2), {"domain": "unit-square", "reference_level": 3.5},
         "reference-level", r"reference-level must be an integer, got 3\.5"),
        ("zero", range(2, 8), {}, "levels", "reference level 9 exceeds the maximum of 8"),
        ("bubble", [2, 8], {}, "levels", "finest level 8 exceeds the maximum of 7"),
        ("bubble", (9,), {}, "levels", "finest level 9 exceeds the maximum of 7"),
        ("bubble", [1], {"domain": "hexagon"}, "domain",
         r"defined on \('unit-square',\), not 'hexagon'"),
        ("bubble", [1], {"domain": built_in_polygon("unit-square")}, "domain",
         "not 'unit-square'$"),
        ("zero", [1], {"domain": "no/such/vertices.txt"}, "domain",
         "No such file or directory: 'no/such/vertices.txt'"),
    ],
)
def test_study_refuses_bad_input(case, levels, kwargs, key, message):
    with pytest.raises(StudyError, match=message) as info:
        Study(case, levels, **kwargs)
    assert info.value.key == key


def test_reference_study_zero_case():
    rep = run_study(Study("zero", [1, 2], reference_level=3, norms=("l2", "h")))
    for row in rep.rows:
        assert row.errors["l2"] == 0.0
        assert row.errors["h"] == 0.0


def test_default_reference_level_refused_before_meshing(monkeypatch, tmp_path, capsys):
    """levels 2..7 put the default reference level at 9, past the bound of 8;
    both the library and the CLI refuse it before building any mesh."""
    import c0ip.study
    from c0ip.cli import main

    def no_meshes(*args, **kwargs):
        raise AssertionError("mesh_hierarchy called for a refused study")

    monkeypatch.setattr(c0ip.study, "mesh_hierarchy", no_meshes)
    with pytest.raises(ValueError, match="reference level 9 exceeds the maximum of 8"):
        run_study(Study("reference", range(2, 8)))

    cfg = tmp_path / "ref.cfg"
    cfg.write_text(
        f"problem = dirichlet-control\nlevels = 2..7\noutput = {tmp_path / 'ref.csv'}\n"
    )
    assert main(["run", str(cfg)]) == 1
    assert "reference level 9 exceeds the maximum of 8" in capsys.readouterr().err


def test_csv_deterministic_except_seconds():
    rep1 = run_study(Study("bubble", [1, 2], sigma=5.0, norms=("l2",)))
    rep2 = run_study(Study("bubble", [1, 2], sigma=5.0, norms=("l2",)))

    def strip_seconds(text):
        out = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("level"):
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return "\n".join(out)

    assert strip_seconds(rep1.to_csv("b")) == strip_seconds(rep2.to_csv("b"))


def test_reference_errors_all_norms():
    rep = run_study(
        Study("cosine-flux", [2, 3], reference_level=5, norms=("l2", "h", "energy", "qh"))
    )
    for row in rep.rows:
        assert row.errors["qh"] >= row.errors["h"] > 0.0
        assert row.errors["energy"] >= row.errors["l2"] > 0.0
    for n in ("l2", "h", "energy", "qh"):
        assert rep.rows[0].errors[n] > rep.rows[1].errors[n]


def test_report_h_halves_exactly():
    rep = run_study(Study("bubble", [1, 2, 3], norms=("l2",)))
    hs = [r.h for r in rep.rows]
    assert hs[0] / hs[1] == 2.0
    assert hs[1] / hs[2] == 2.0


def test_reference_discretization_dropped_after_its_solve(monkeypatch):
    """The reference level's discretization, with its assembled matrices,
    is unreachable once its solve returns, before the study levels run."""
    import weakref

    import c0ip.study

    solve = c0ip.study._solve_case_on_mesh
    discs = []

    def spy(case, mesh, sigma, alpha):
        assert all(ref() is None for ref in discs[:1])
        out = solve(case, mesh, sigma, alpha)
        discs.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(c0ip.study, "_solve_case_on_mesh", spy)
    run_study(Study("cosine-flux", [1, 2], reference_level=3, norms=("h",)))
    assert len(discs) == 3
    assert discs[0]() is None


@pytest.mark.parametrize(
    "domain, level", [("hexagon", 3), ("pentagon150", 2), ("unit-square", 3)]
)
def test_exact_error_path_matches_norm_matrices(domain, level, rng=np.random.default_rng(3)):
    """Against a zero field, the quadrature error path gives the matrix norms."""
    disc = Discretization(mesh_hierarchy(built_in_polygon(domain), level)[level])
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    zero = ExactField(zeros, lambda x, y: (zeros(x, y), zeros(x, y)), zeros)
    v = rng.standard_normal(disc.dofmap.n_dofs)
    quad = _exact_errors(v, zero, disc, NORM_NAMES)
    mat = matrix_norms(v, disc, NORM_NAMES)
    for name in NORM_NAMES:
        assert quad[name] == pytest.approx(mat[name], rel=1e-12, abs=0.0)


def _whole_table_errors(v, exact, disc, norms):
    """The exact-error path on whole-mesh arrays and whole edge tables: the
    reference for the chunked one."""
    from c0ip.c0ip import combine_norms, edge_points, edge_side_data, edge_sides
    from c0ip.fem import P2, QuadratureRule

    tri_rule, rule = QuadratureRule.triangle(16), QuadratureRule.interval(19)
    mesh, geom = disc.mesh, disc.geom
    w = rule.weights
    lap = geom.laplacians()
    groups = edge_sides(mesh)
    (bnd,), (im, ip) = (edge_side_data(disc, sides, rule) for sides in groups)
    bnd_edges, int_edges = groups[0][0][0], groups[1][0][0]

    pts = geom.to_physical(tri_rule.points)
    vh = v[disc.dofmap.cell_dofs] @ P2.values(tri_rule.points).T
    diff = vh - exact.value(pts[..., 0], pts[..., 1])
    l2 = float(np.sqrt(2.0 * geom.area @ (diff**2 @ tri_rule.weights)))
    lap_disc = np.einsum("tb,tb->t", lap, v[disc.dofmap.cell_dofs])
    diff = exact.laplacian(pts[..., 0], pts[..., 1]) - lap_disc[:, None]
    vol = float(2.0 * geom.area @ (diff**2 @ tri_rule.weights))
    jump_b = np.einsum("eiq,ei->eq", bnd.dn, v[bnd.dofs])
    pts_b = edge_points(mesh, bnd_edges, rule)
    gx, gy = exact.gradient(pts_b[..., 0], pts_b[..., 1])
    n = mesh.edge_normal[bnd_edges]
    jump_b = jump_b - (
        np.broadcast_to(np.asarray(gx, dtype=float), pts_b.shape[:2]) * n[:, None, 0]
        + np.broadcast_to(np.asarray(gy, dtype=float), pts_b.shape[:2]) * n[:, None, 1]
    )
    jump_i = np.einsum("eiq,ei->eq", im.dn, v[im.dofs]) + np.einsum(
        "eiq,ei->eq", ip.dn, v[ip.dofs]
    )
    hsq = vol + disc.sigma * (float(np.sum((jump_b**2) @ w)) + float(np.sum((jump_i**2) @ w)))

    meansq = 0.0
    for edges, sides, weights in ((bnd_edges, (bnd,), (1.0,)), (int_edges, (im, ip), (0.5, 0.5))):
        mean_disc = np.zeros(len(edges))
        for g, mw in zip(sides, weights):
            mean_disc += mw * np.einsum("ei,ei->e", g.lap, v[g.dofs])
        pts = edge_points(mesh, edges, rule)
        mean_ex = np.broadcast_to(
            np.asarray(exact.laplacian(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
        )
        diff = mean_disc[:, None] - mean_ex
        meansq += float(mesh.edge_length[edges] ** 2 @ ((diff**2) @ w))
    return combine_norms(norms, l2**2, hsq, meansq)


@pytest.mark.parametrize(
    "domain", ["unit-square", "hexagon", "pentagon150", "right-triangle", "jittered-hexagon"]
)
def test_chunked_exact_errors_bit_identical_to_whole_tables(domain, monkeypatch):
    """Built 7 rows at a time, with a partial last chunk in every group, or
    in one chunk above the edge count, the exact-error path gives the
    whole-table values bit for bit, for every subset of norms it serves."""
    import c0ip.c0ip

    rng = np.random.default_rng(29)
    poly = jittered_hexagon(rng) if domain == "jittered-hexagon" else built_in_polygon(domain)
    hierarchy = mesh_hierarchy(poly, 4)
    for chunk in (7, 10**9):
        monkeypatch.setattr(c0ip.c0ip, "_CHUNK", chunk)
        for level in (1, 2, 3, 4):
            disc = Discretization(hierarchy[level])
            v = rng.standard_normal(disc.dofmap.n_dofs)
            for case in ("bubble", "cosine"):
                exact = get_case(case).exact
                want = _whole_table_errors(v, exact, disc, NORM_NAMES)
                assert _exact_errors(v, exact, disc, NORM_NAMES) == want, (chunk, level, case)
                for norms in (("l2",), ("h",), ("l2", "energy")):
                    got = _exact_errors(v, exact, disc, norms)
                    assert got == {n: want[n] for n in norms}, (chunk, level, case, norms)
                assert l2_error(v, exact.value, disc) == want["l2"]


def test_exact_errors_build_edge_tables_one_chunk_at_a_time(monkeypatch):
    """No edge table or triangle quadrature array inside the exact-error path
    covers more than one chunk of edges or triangles."""
    import c0ip.c0ip
    from c0ip.fem import P2, TriangleGeometry

    gradients, to_physical = P2.gradients, TriangleGeometry.to_physical
    edge_rows, cell_rows = [], []

    def gradients_spy(points):
        edge_rows.append(points.shape[0])
        return gradients(points)

    def to_physical_spy(self, ref_points, cells=slice(None)):
        out = to_physical(self, ref_points, cells)
        cell_rows.append(len(out))
        return out

    monkeypatch.setattr(P2, "gradients", gradients_spy)
    monkeypatch.setattr(TriangleGeometry, "to_physical", to_physical_spy)
    disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 5)[5])
    v = np.random.default_rng(31).standard_normal(disc.dofmap.n_dofs)
    _exact_errors(v, get_case("bubble").exact, disc, NORM_NAMES)
    mesh, chunk = disc.mesh, c0ip.c0ip._CHUNK
    n_interior = mesh.n_edges - int(mesh.is_boundary_edge.sum())
    assert n_interior > chunk and mesh.n_triangles > chunk
    # every side of every edge, once; every triangle, once
    assert sum(edge_rows) == mesh.n_edges + n_interior
    assert max(edge_rows) <= chunk
    assert sum(cell_rows) == mesh.n_triangles
    assert max(cell_rows) <= chunk
