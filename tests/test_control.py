import numpy as np
import pytest

from c0ip import control as ctl
from c0ip.c0ip import Discretization
from c0ip.mesh import built_in_polygon, mesh_hierarchy

from kkt_reference import objective, solve_kkt_monolithic, vh_free


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def u_desired(x, y):
    return x * (1 - x) * y * (1 - y)


def _problem(mesh, f, u_d, alpha):
    return ctl.ControlProblem(Discretization(mesh), f, u_d, alpha=alpha)


def _lift(problem, q):
    """T q = q + w with a(w, v) = -a(q, v) for all v in V_h."""
    return q + problem.state_factor.solve(-(problem.A @ q))


@pytest.fixture(scope="module")
def hierarchy():
    return mesh_hierarchy(built_in_polygon("unit-square"), 4)


@pytest.fixture(scope="module")
def problem2(hierarchy):
    return _problem(hierarchy[2], one, u_desired, alpha=0.1)


def test_alpha_must_be_positive(hierarchy):
    with pytest.raises(ValueError):
        _problem(hierarchy[1], one, u_desired, alpha=0.0)


def test_alpha_must_be_finite(hierarchy):
    with pytest.raises(ValueError, match="alpha must be finite, got inf"):
        _problem(hierarchy[1], one, u_desired, alpha=np.inf)


def test_forward_zero_data(hierarchy):
    prob = _problem(hierarchy[1], zero, zero, alpha=1.0)
    v = ctl.forward_solve(prob, np.zeros(prob.disc.dofmap.n_dofs))
    assert np.all(v == 0.0)


def test_forward_constant_control_equals_plain_solve(problem2):
    n = problem2.disc.dofmap.n_dofs
    v_plain = ctl.forward_solve(problem2, None)
    v_const = ctl.forward_solve(problem2, np.full(n, 2.5))
    assert np.allclose(v_const, v_plain, atol=1e-9)


def test_lift_of_constant_is_constant(problem2):
    n = problem2.disc.dofmap.n_dofs
    out = _lift(problem2, np.full(n, 3.0))
    assert np.allclose(out, 3.0, atol=1e-9)


def test_lift_of_vh_function_is_zero(problem2, rng=np.random.default_rng(4)):
    dm = problem2.disc.dofmap
    p = np.zeros(dm.n_dofs)
    interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dof_ids)
    p[interior] = rng.standard_normal(len(interior))
    out = _lift(problem2, p)
    assert np.max(np.abs(out)) <= 1e-9 * max(np.max(np.abs(p)), 1.0)


def test_lift_residual_orthogonality(problem2, rng=np.random.default_rng(6)):
    dm = problem2.disc.dofmap
    p = rng.standard_normal(dm.n_dofs)
    out = _lift(problem2, p)
    res = (problem2.A @ out)
    interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dof_ids)
    assert np.linalg.norm(res[interior]) <= 1e-9 * np.linalg.norm(problem2.A @ p)


def test_zero_data_gives_exact_zero_triple(hierarchy):
    prob = _problem(hierarchy[2], zero, zero, alpha=0.5)
    sol = ctl.solve_kkt(prob)
    assert np.all(sol.u_f_h == 0.0)
    assert np.all(sol.q_h == 0.0)
    assert np.all(sol.phi_h == 0.0)
    assert objective(prob, sol.q_h) == 0.0


def test_constant_desired_state_sanity(hierarchy):
    # u_d = lift of a constant: the minimizer beats simple competitors
    prob = _problem(hierarchy[2], zero, lambda x, y: np.full_like(x, 0.8), alpha=0.3)
    sol = ctl.solve_kkt(prob)
    n = prob.disc.dofmap.n_dofs
    # the constant control reproduces u_d exactly, so both costs sit at
    # cancellation roundoff; compare with a matching slack
    j_h = objective(prob, sol.q_h)
    assert j_h <= objective(prob, np.zeros(n)) + 1e-9
    assert j_h <= objective(prob, np.full(n, 0.8)) + 1e-9
    assert abs(j_h) < 1e-9


def test_desired_state_evaluated_only_at_load_points(hierarchy):
    # u_d enters the solve through its degree-6 load vector alone: 12 points
    # per triangle, each triangle once
    shapes = []

    def spy(x, y):
        shapes.append(np.shape(x))
        return u_desired(x, y)

    mesh = hierarchy[2]
    ctl.solve_kkt(_problem(mesh, one, spy, alpha=0.1))
    assert {s[1:] for s in shapes} == {(12,)}
    assert sum(s[0] for s in shapes) == mesh.n_triangles


def test_kkt_residuals_small(problem2):
    sol = ctl.solve_kkt(problem2)
    assert max(sol.residuals.values()) <= 1e-10


@pytest.mark.parametrize(
    "domain, level",
    [("unit-square", 1), ("unit-square", 2), ("unit-square", 3), ("unit-square", 4),
     ("hexagon", 3)],
    ids=["1", "2", "3", "4", "hexagon-3"],
)
def test_reduced_matches_monolithic(hierarchy, domain, level):
    if domain != "unit-square":
        hierarchy = mesh_hierarchy(built_in_polygon(domain), level)
    prob = _problem(hierarchy[level], one, u_desired, alpha=0.1)
    red = ctl.solve_kkt(prob)
    mono = solve_kkt_monolithic(prob)
    for a, b in ((red.q_h, mono.q_h), (red.u_h, mono.u_h), (red.phi_h, mono.phi_h)):
        assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("level", [2, 3])
def test_monolithic_reports_true_block_residual(hierarchy, level):
    # the block rows rebuilt from the solution's fields: state and adjoint
    # equations on V_h, the gradient equation on Q_h
    prob = _problem(hierarchy[level], one, u_desired, alpha=0.1)
    sol = solve_kkt_monolithic(prob)
    A, M, f, d, free = prob.A, prob.M, prob.load_f, prob.load_ud, vh_free(prob)
    r = np.concatenate([
        (A @ sol.u_f_h + A @ sol.q_h - f)[free],
        (A @ sol.phi_h - M @ sol.u_h + d)[free],
        prob.alpha * (A @ sol.q_h) + M @ sol.u_h - A @ sol.phi_h - d,
    ])
    rel = np.linalg.norm(r) / np.linalg.norm(np.concatenate([f[free], -d[free], d]))
    rep = sol.report
    assert rep.method == "lu"
    assert rep.relative_residual > 0.0
    # the two sums round differently at this level of residual
    assert rep.relative_residual == pytest.approx(rel, rel=0.1)
    assert rep.success == (rep.relative_residual <= 1e-10)


def test_objective_trivial_values(hierarchy):
    prob = _problem(hierarchy[1], zero, zero, alpha=1.0)
    n = prob.disc.dofmap.n_dofs
    assert objective(prob, np.zeros(n)) == pytest.approx(0.0, abs=1e-15)
    c = 1.3
    assert objective(prob, np.full(n, c)) == pytest.approx(0.5 * c * c, rel=1e-10)


def test_objective_gradient_matches_finite_differences(
    problem2, rng=np.random.default_rng(8)
):
    n = problem2.disc.dofmap.n_dofs
    p0 = 0.1 * rng.standard_normal(n)
    g = ctl.reduced_hessian_apply(problem2, p0) - ctl.reduced_rhs(problem2)
    eps = 1e-5
    for _ in range(10):
        d = rng.standard_normal(n)
        fd = (
            objective(problem2, p0 + eps * d) - objective(problem2, p0 - eps * d)
        ) / (2 * eps)
        assert abs(float(g @ d) - fd) <= 1e-6 * max(abs(fd), 1e-10)


def test_reduced_hessian_symmetry(problem2, rng=np.random.default_rng(9)):
    n = problem2.disc.dofmap.n_dofs
    for _ in range(10):
        d1 = rng.standard_normal(n)
        d2 = rng.standard_normal(n)
        h12 = float(ctl.reduced_hessian_apply(problem2, d1) @ d2)
        h21 = float(ctl.reduced_hessian_apply(problem2, d2) @ d1)
        assert abs(h12 - h21) <= 1e-9 * max(abs(h12), abs(h21))


def test_reduced_hessian_positivity(problem2, rng=np.random.default_rng(10)):
    n = problem2.disc.dofmap.n_dofs
    A = problem2.A
    for _ in range(10):
        d = rng.standard_normal(n)
        lhs = float(ctl.reduced_hessian_apply(problem2, d) @ d)
        rhs = problem2.alpha * float(d @ (A @ d))
        assert lhs >= rhs - 1e-9 * abs(lhs)
        assert lhs > 0.0
    # strictly positive on constants through the tracking term
    c = np.ones(n)
    assert float(ctl.reduced_hessian_apply(problem2, c) @ c) == pytest.approx(
        1.0, rel=1e-8
    )  # lift of a constant is itself; its mass energy is |Omega|


def test_solution_is_a_minimizer(problem2, rng=np.random.default_rng(12)):
    sol = ctl.solve_kkt(problem2)
    j_h = objective(problem2, sol.q_h)
    for t in (1e-2, -1e-2, 1e-3, -1e-3):
        for _ in range(5):
            d = rng.standard_normal(problem2.disc.dofmap.n_dofs)
            assert j_h <= objective(problem2, sol.q_h + t * d) + 1e-12


def test_kkt_solution_satisfies_oracle_equations(hierarchy):
    """The reduced-space solution satisfies the three optimality equations
    assembled by the independent slow oracle."""
    from oracle import oracle_a_h, oracle_load, oracle_mass

    mesh = hierarchy[1]
    prob = _problem(mesh, one, u_desired, alpha=0.1)
    sol = ctl.solve_kkt(prob)

    dm = prob.disc.dofmap
    A = oracle_a_h(mesh, dm, prob.disc.sigma, prob.disc.consistency_sign)
    M = oracle_mass(mesh, dm)
    F = oracle_load(mesh, dm, lambda x, y: 1.0)
    D = oracle_load(mesh, dm, lambda x, y: x * (1 - x) * y * (1 - y))
    free = vh_free(prob)

    scale = np.linalg.norm(F)
    r_state = (A @ sol.u_f_h + A @ sol.q_h - F)[free]
    r_adjoint = (A @ sol.phi_h - M @ sol.u_h + D)[free]
    r_gradient = prob.alpha * (A @ sol.q_h) - A @ sol.phi_h + M @ sol.u_h - D
    assert np.linalg.norm(r_state) <= 1e-9 * scale
    assert np.linalg.norm(r_adjoint) <= 1e-9 * scale
    assert np.linalg.norm(r_gradient) <= 1e-9 * scale
