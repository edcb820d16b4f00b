import numpy as np
import pytest

from c0ip.c0ip import NORM_NAMES, Discretization, matrix_norms
from c0ip.fem import build_dofmap, interpolate
from c0ip.mesh import built_in_polygon, mesh_hierarchy
from c0ip.study import (
    ExactField,
    _exact_errors,
    eoc,
    error_h,
    error_l2,
    get_case,
    restrict_to_level,
    run_study,
)


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
    coeffs = interpolate(disc.dofmap, q)
    assert error_l2(coeffs, q, disc) <= 1e-12
    zero = np.zeros(disc.dofmap.n_dofs)
    assert error_l2(zero, lambda x, y: np.ones_like(x), disc) == pytest.approx(1.0)


def test_error_l2_against_independent_quadrature():
    mesh = mesh_hierarchy(built_in_polygon("unit-square"), 3)[3]
    dm = build_dofmap(mesh)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    coeffs = interpolate(dm, f)
    got = error_l2(coeffs, f, Discretization(mesh))
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
    coeffs = interpolate(dm, exact.value)
    assert error_h(coeffs, exact, disc) <= 1e-11

    # v = 0 against an exact field with constant Laplacian c and zero
    # boundary normal derivative: the element part alone gives |c| sqrt(area)
    chat = 3.0
    exact2 = ExactField(
        value=lambda x, y: np.zeros_like(x),
        gradient=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        laplacian=lambda x, y: chat * np.ones_like(x),
    )
    zero = np.zeros(dm.n_dofs)
    assert error_h(zero, exact2, disc) == pytest.approx(chat, rel=1e-12)


def test_interpolation_eoc_calibration():
    """Interpolation error alone converges at the expected orders; this
    calibrates the error norms before trusting any solver."""
    case = get_case("bubble")
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 4)
    el2, eh, hs = [], [], []
    for mesh in hier[2:]:
        disc = Discretization(mesh)
        coeffs = interpolate(disc.dofmap, case.exact.value)
        el2.append(error_l2(coeffs, case.exact.value, disc))
        eh.append(error_h(coeffs, case.exact, disc))
        hs.append(mesh.h_max)
    rates_l2 = eoc(el2, hs)
    rates_h = eoc(eh, hs)
    assert all(r >= 1.9 for r in rates_l2)
    assert all(r >= 0.9 for r in rates_h)


def test_restriction_is_prefix():
    hier = mesh_hierarchy(built_in_polygon("unit-square"), 3)
    coarse = build_dofmap(hier[1])
    fine = build_dofmap(hier[3])
    f = lambda x, y: np.sin(x) + np.cos(y)
    res = restrict_to_level(interpolate(fine, f), coarse)
    # restriction equals direct interpolation on the coarse mesh because
    # coarse dof nodes are fine vertices with matching indices
    assert np.allclose(res, interpolate(coarse, f), atol=1e-15)


def test_run_study_clamped_plate_report():
    rep = run_study("bubble", [1, 2], norms=("l2", "h"))
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
        run_study("bubble", [])
    with pytest.raises(ValueError):
        run_study("bubble", [1, 2], norms=("l3",))
    with pytest.raises(ValueError):
        run_study("bubble", [1], domain="hexagon")  # bubble needs the unit square
    with pytest.raises(KeyError):
        run_study("no-such-case", [1])


def test_reference_study_zero_case():
    rep = run_study("zero", [1, 2], reference_level=3, norms=("l2", "h"))
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
        run_study("reference", range(2, 8))

    cfg = tmp_path / "ref.cfg"
    cfg.write_text(
        f"problem = dirichlet-control\nlevels = 2..7\noutput = {tmp_path / 'ref.csv'}\n"
    )
    assert main(["run", str(cfg)]) == 1
    assert "reference level 9 exceeds the maximum of 8" in capsys.readouterr().err


def test_csv_deterministic_except_seconds():
    rep1 = run_study("bubble", [1, 2], sigma=5.0, norms=("l2",))
    rep2 = run_study("bubble", [1, 2], sigma=5.0, norms=("l2",))

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
    rep = run_study("cosine-flux", [2, 3], reference_level=5, norms=("l2", "h", "energy", "qh"))
    for row in rep.rows:
        assert row.errors["qh"] >= row.errors["h"] > 0.0
        assert row.errors["energy"] >= row.errors["l2"] > 0.0
    for n in ("l2", "h", "energy", "qh"):
        assert rep.rows[0].errors[n] > rep.rows[1].errors[n]


def test_report_h_halves_exactly():
    rep = run_study("bubble", [1, 2, 3], norms=("l2",))
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
    run_study("cosine-flux", [1, 2], reference_level=3, norms=("h",))
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
