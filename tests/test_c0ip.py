import numpy as np
import pytest

from c0ip.c0ip import (
    Discretization,
    assemble_a_h,
    assemble_boundary_load,
    assemble_load,
    assemble_mass,
    matrix_norms,
)
from c0ip.fem import build_dofmap, interpolate
from c0ip.linalg import BandedCholesky, PositiveDefiniteError
from c0ip.mesh import (
    Triangulation,
    built_in_polygon,
    mesh_hierarchy,
    refine_uniform,
    triangulate_initial,
)

from oracle import oracle_a_h, oracle_consistency_defect, oracle_load, oracle_mass

PAPER_SIGN = dict(sigma=5.0, consistency_sign=+1)
CONSISTENT5 = dict(sigma=5.0, consistency_sign=-1)


@pytest.fixture(scope="module")
def square0():
    return triangulate_initial(built_in_polygon("unit-square"))


@pytest.fixture(scope="module")
def square2():
    return mesh_hierarchy(built_in_polygon("unit-square"), 2)[2]


def x_squared(dofmap):
    return dofmap.nodes[:, 0] ** 2


# -- hand values on the two-triangle square (independent oracle first, then
#    frozen: volume 4, one active boundary edge contributes 2*4 coupling and
#    4*sigma penalty; with sigma = 5 the positive-coupling total is 32 and the
#    consistent-coupling total is 16) ----------------------------------------

def test_a_h_hand_value_positive_coupling(square0):
    disc = Discretization(square0, **PAPER_SIGN)
    p = x_squared(disc.dofmap)
    A = assemble_a_h(disc)
    value = float(p @ (A @ p))
    oracle = oracle_a_h(square0, disc.dofmap, 5.0, +1)
    assert abs(value - float(p @ (oracle @ p))) < 1e-12
    assert abs(value - 32.0) < 1e-12


def test_a_h_hand_value_consistent_coupling(square0):
    disc = Discretization(square0, **CONSISTENT5)
    p = x_squared(disc.dofmap)
    A = assemble_a_h(disc)
    value = float(p @ (A @ p))
    oracle = oracle_a_h(square0, disc.dofmap, 5.0, -1)
    assert abs(value - float(p @ (oracle @ p))) < 1e-12
    assert abs(value - 16.0) < 1e-12


def test_norms_hand_values(square0):
    disc = Discretization(square0, **CONSISTENT5)
    p = x_squared(disc.dofmap)
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
        p = interpolate(disc.dofmap, lambda x, y: x + 2 * y)
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


def test_symmetry_on_refined_mesh():
    mesh = mesh_hierarchy(built_in_polygon("pentagon150"), 2)[2]
    A = assemble_a_h(Discretization(mesh))
    d = A - A.T
    assert np.max(np.abs(d.data)) if d.nnz else 0.0 <= 1e-12 * np.abs(A.data).max()


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
    ones = assemble_boundary_load(disc, lambda x, y: np.ones_like(x))
    assert float(ones.sum()) == pytest.approx(4.0, abs=1e-12)  # perimeter
    zeros = assemble_boundary_load(disc, lambda x, y: np.zeros_like(x))
    assert np.all(zeros == 0.0)

    def g2(x, y):
        return np.where(np.abs(y) < 1e-12, x, 0.0)

    b = assemble_boundary_load(disc, g2)
    assert float(b.sum()) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("domain", ["hexagon", "pentagon150"])
def test_boundary_load_passes_outward_normal(domain):
    """A four-argument flux receives the outward normal: by the divergence
    theorem the boundary integral of x . n is 2 |Omega|, and the integrand
    is a cubic on each edge, so the edge rule is exact."""
    polygon = built_in_polygon(domain)
    mesh = mesh_hierarchy(polygon, 2)[2]
    b = assemble_boundary_load(Discretization(mesh), lambda x, y, nx, ny: x * nx + y * ny)
    assert float(b.sum()) == pytest.approx(2.0 * polygon.area, abs=1e-12)


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
    bare = Triangulation(
        polygon=square0.polygon, vertices=square0.vertices, triangles=square0.triangles, level=0
    )
    with pytest.raises(ValueError, match="mesh has no edge topology; call build_edges first"):
        Discretization(bare)
