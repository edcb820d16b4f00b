import numpy as np
import pytest

from c0ip.c0ip import Discretization, assemble_a_h, assemble_load, assemble_mass
from c0ip.cahn_hilliard import (
    ChProblem,
    CompatibilityError,
    check_compatibility,
    default_pin_corner,
    solve_ch,
)
from c0ip.mesh import built_in_polygon, mesh_hierarchy

from helpers import l2_error
from oracle import oracle_integral

PI = np.pi


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_flux(x, y, nx, ny):
    return np.zeros_like(np.asarray(x, dtype=float))


def cos_source(x, y):
    return 4 * PI**4 * np.cos(PI * x) * np.cos(PI * y)


def cos_exact(x, y):
    return np.cos(PI * x) * np.cos(PI * y) - 1.0


def _problem(mesh, g1, g2, pinned_corner=None):
    return ChProblem(Discretization(mesh), g1, g2, pinned_corner=pinned_corner)


@pytest.fixture(scope="module")
def square_hierarchy():
    return mesh_hierarchy(built_in_polygon("unit-square"), 4)


def test_compatibility_zero_data(square_hierarchy):
    assert check_compatibility(Discretization(square_hierarchy[1]), zero, zero_flux) == 0.0


def test_compatibility_constant_data(square_hierarchy):
    # g1 = 1 integrates to the area 1; g2 = 1/4 integrates to 1 over the
    # perimeter 4
    defect = check_compatibility(
        Discretization(square_hierarchy[1]),
        lambda x, y: np.ones_like(x),
        lambda x, y, nx, ny: np.full_like(x, 0.25),
    )
    assert abs(defect) < 1e-13


def test_compatibility_cosine(square_hierarchy):
    defect = check_compatibility(Discretization(square_hierarchy[2]), cos_source, zero_flux)
    assert abs(defect) < 1e-10
    # sanity against an independent volume quadrature
    assert abs(oracle_integral(square_hierarchy[2], cos_source)) < 1e-10


@pytest.mark.parametrize("domain", ["hexagon", "pentagon150"])
def test_compatibility_defect_independent_of_chunk_size(domain, monkeypatch):
    """The check reduces its boundary values over one full-length array, so
    chunks of 7 edges give the defect of the default chunks bit for bit."""
    import c0ip.c0ip
    from c0ip.study import _cos_flux

    hierarchy = mesh_hierarchy(built_in_polygon(domain), 4)
    for level in (3, 4):
        disc = Discretization(hierarchy[level])
        default = check_compatibility(disc, cos_source, _cos_flux)
        monkeypatch.setattr(c0ip.c0ip, "_CHUNK", 7)
        assert check_compatibility(disc, cos_source, _cos_flux) == default, level
        monkeypatch.undo()


def test_incompatible_data_rejected(square_hierarchy):
    with pytest.raises(CompatibilityError):
        check_compatibility(
            Discretization(square_hierarchy[1]), lambda x, y: np.ones_like(x), zero_flux
        )


def test_study_checks_compatibility_once_on_its_last_level(monkeypatch):
    import c0ip.cahn_hilliard as ch_mod
    from c0ip.study import Study, run_study

    calls = []

    def spy(disc, g1, g2):
        calls.append((disc.mesh.level, check_compatibility(disc, g1, g2)))
        return calls[-1][1]

    monkeypatch.setattr(ch_mod, "check_compatibility", spy)
    rep = run_study(
        Study("cosine-flux", [1, 2], reference_level=3, domain="hexagon", norms=("h",))
    )
    assert len(calls) == 1
    level, defect = calls[0]
    assert level == 2
    assert np.float64(rep.compatibility_defect).tobytes() == np.float64(defect).tobytes()


def test_study_rejects_incompatible_data_before_any_factor(monkeypatch):
    from c0ip.linalg import BandedCholesky
    from c0ip.study import ManufacturedCase, Study, run_study

    factors = []
    init = BandedCholesky.__init__

    def spy(self, *args, **kwargs):
        factors.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BandedCholesky, "__init__", spy)
    case = ManufacturedCase(
        name="incompatible",
        problem="cahn-hilliard",
        description="unit source with zero flux",
        data={"g1": lambda x, y: np.ones_like(x), "g2": zero_flux},
    )
    with pytest.raises(CompatibilityError):
        run_study(Study(case, [1, 2], reference_level=3))
    assert factors == []


def test_default_pin_is_lexicographic_smallest():
    mesh = mesh_hierarchy(built_in_polygon("pentagon150"), 1)[1]
    pin = default_pin_corner(mesh)
    assert np.allclose(mesh.vertices[pin], [-0.25, 0.75])
    mesh = mesh_hierarchy(built_in_polygon("unit-square"), 1)[1]
    assert np.allclose(mesh.vertices[default_pin_corner(mesh)], [0.0, 0.0])


def test_pin_must_be_corner(square_hierarchy):
    with pytest.raises(ValueError):
        _problem(square_hierarchy[1], zero, zero_flux, pinned_corner=10**6)


def test_zero_data_zero_solution(square_hierarchy):
    psi, _ = solve_ch(_problem(square_hierarchy[2], zero, zero_flux))
    assert np.all(psi == 0.0)


def test_pinned_value_exactly_zero(square_hierarchy):
    psi, report = solve_ch(_problem(square_hierarchy[2], cos_source, zero_flux))
    assert psi[0] == 0.0
    assert report.relative_residual <= 1e-10


def test_residual_orthogonality(square_hierarchy):
    mesh = square_hierarchy[2]
    prob = _problem(mesh, cos_source, zero_flux)
    psi, _ = solve_ch(prob)
    dm = prob.disc.dofmap
    A = assemble_a_h(prob.disc)
    b = assemble_load(prob.disc, cos_source)
    res = A @ psi - b
    free = np.setdiff1d(np.arange(dm.n_dofs), [prob.pinned_corner])
    assert np.linalg.norm(res[free]) <= 1e-10 * np.linalg.norm(b[free])


def test_cosine_errors_decrease(square_hierarchy):
    from c0ip.study import _exact_errors, get_case

    case = get_case("cosine")
    errs_h, errs_l2 = [], []
    for lev in (2, 3, 4):
        prob = _problem(square_hierarchy[lev], cos_source, zero_flux)
        psi, _ = solve_ch(prob)
        errs_h.append(_exact_errors(psi, case.exact, prob.disc, ("h",))["h"])
        errs_l2.append(l2_error(psi, cos_exact, prob.disc))
    assert errs_h[0] > errs_h[1] > errs_h[2]
    assert errs_l2[0] > errs_l2[1] > errs_l2[2]
    # rate-one behavior in the h-norm between the last two levels
    assert 0.8 <= np.log2(errs_h[1] / errs_h[2]) <= 1.2


def test_pin_choice_changes_little(square_hierarchy):
    """Pinning a different corner shifts the solution by roughly a constant;
    after mean adjustment the difference is at discretization-error scale."""
    mesh = square_hierarchy[3]
    psi_a, _ = solve_ch(_problem(mesh, cos_source, zero_flux))
    corner_b = int(mesh.corner_vertex_ids[2])
    psi_b, _ = solve_ch(_problem(mesh, cos_source, zero_flux, pinned_corner=corner_b))

    M = assemble_mass(Discretization(mesh))
    area = float(M.sum())
    diff = psi_a - psi_b
    mean = float((M @ diff).sum()) / area
    adjusted = diff - mean
    l2 = float(np.sqrt(adjusted @ (M @ adjusted)))
    # discretization error in L2 at this level is about 1e-2
    assert l2 <= 5e-2


@pytest.mark.parametrize("domain", ["unit-square", "right-triangle", "hexagon", "pentagon150"])
def test_pinned_system_definite_at_default_sigma(domain):
    mesh = mesh_hierarchy(built_in_polygon(domain), 3)[3]
    psi, _ = solve_ch(_problem(mesh, zero, zero_flux))
    assert np.all(psi == 0.0)


def test_solution_satisfies_oracle_equation(square_hierarchy):
    """The pinned solve satisfies the discrete equation with the operator
    assembled by the independent slow oracle.

    The load keeps the production quadrature: against the oracle's
    near-exact load the defect is exactly the quadrature gap of the
    oscillatory source, not a solver error, so it is bounded separately.
    """
    from oracle import oracle_a_h, oracle_load

    mesh = square_hierarchy[1]
    prob = _problem(mesh, cos_source, zero_flux)
    psi, _ = solve_ch(prob)
    dm = prob.disc.dofmap
    A = oracle_a_h(mesh, dm, prob.disc.sigma, prob.disc.consistency_sign)
    b = assemble_load(prob.disc, cos_source)
    free = np.setdiff1d(np.arange(dm.n_dofs), [prob.pinned_corner])
    res = (A @ psi - b)[free]
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(b[free])
    gap = b - oracle_load(mesh, dm, cos_source)
    assert np.linalg.norm(gap) <= 1e-3 * np.linalg.norm(b)
