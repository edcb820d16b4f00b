import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from c0ip import linalg
from c0ip.c0ip import Discretization
from c0ip.cahn_hilliard import default_pin_corner
from c0ip.cli import main
from c0ip.linalg import (
    BandedCholesky,
    PositiveDefiniteError,
    cg_solve,
    cholesky_solve,
    constrain,
)
from c0ip.mesh import built_in_polygon, mesh_hierarchy


def test_cholesky_identity():
    A = sp.identity(7, format="csr")
    b = np.arange(7, dtype=float)
    x, rep = cholesky_solve(A, b)
    assert np.allclose(x, b)
    assert rep.success and rep.method == "cholesky"


def test_cholesky_two_by_two_closed_form():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, rep = cholesky_solve(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-14)
    assert rep.relative_residual <= 1e-10


def test_cholesky_zero_rhs():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, rep = cholesky_solve(A, np.zeros(2))
    assert np.all(x == 0.0)
    assert rep.success


def test_cholesky_rejects_indefinite():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(PositiveDefiniteError):
        cholesky_solve(A, np.array([1.0, 1.0]))


def test_cholesky_zero_rhs_still_checks_definiteness():
    # a zero load is factored like any other, so an indefinite system is
    # refused whatever the right-hand side
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(PositiveDefiniteError):
        cholesky_solve(A, np.zeros(2))


def _a_h(domain, level):
    """a_h on Q_h, with its mesh and dof map."""
    disc = Discretization(mesh_hierarchy(built_in_polygon(domain), level)[level])
    return disc.A, disc.mesh, disc.dofmap


def _vh_system(domain, level):
    """a_h restricted to the interior dofs, the V_h system of the clamped plate."""
    A, _, dm = _a_h(domain, level)
    return constrain(A, dm.boundary_dof_ids)[0]


@pytest.mark.parametrize("system", ["vh", "pinned"])
def test_fixed_dofs_bit_identical_to_explicit_elimination(
    system, rng=np.random.default_rng(5)
):
    # the factor gathers b[free[perm]] where the explicit path gathered
    # b[free] and then permuted: the same entries, so the same bits
    A, mesh, dm = _a_h("hexagon", 4)
    fixed = dm.boundary_dof_ids if system == "vh" else [default_pin_corner(mesh)]
    b = rng.standard_normal(dm.n_dofs)
    free = np.setdiff1d(np.arange(dm.n_dofs), fixed)
    expected = np.zeros(dm.n_dofs)
    expected[free] = BandedCholesky(A[free][:, free]).solve(b[free])
    F = BandedCholesky(A, fixed)
    assert F.n == len(free)
    assert np.array_equal(F.solve(b), expected)


def test_banded_solve_is_zero_on_fixed_dofs():
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    b = np.array([5.0, 1.0, 0.0])
    x = BandedCholesky(A, [0]).solve(b)
    assert x.shape == (3,) and x[0] == 0.0
    r = (A @ x - b)[1:]
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b[1:])
    x_once, rep = cholesky_solve(A, b, [0])
    assert np.array_equal(x_once, x)
    assert rep.relative_residual <= 1e-10 and rep.success


def test_cholesky_on_vh_system(rng=np.random.default_rng(1)):
    Af = _vh_system("unit-square", 3)
    b = rng.standard_normal(Af.shape[0])
    x, rep = cholesky_solve(Af, b)
    assert rep.relative_residual <= 1e-10
    assert rep.success


def test_banded_factor_bit_identical_to_c_ordered_copy():
    # LAPACK gets the same band whether scipy copies a C-ordered array or
    # factors a Fortran-ordered one in place, so the factor must not move
    A = _vh_system("hexagon", 4)
    F = BandedCholesky(A)
    bw = F.bandwidth
    Ap = A[F.perm][:, F.perm].tocoo()
    keep = Ap.row <= Ap.col
    rows, cols = Ap.row[keep], Ap.col[keep]
    ab = np.zeros((bw + 1, F.n))
    ab[bw - (cols - rows), cols] = Ap.data[keep]
    assert ab.flags.c_contiguous and not ab.flags.f_contiguous
    expected = sla.cholesky_banded(ab, lower=False, check_finite=False)
    assert np.array_equal(F._factor, expected)


def test_banded_factor_holds_one_band_buffer():
    A = _vh_system("hexagon", 5)
    tracemalloc.start()
    try:
        F = BandedCholesky(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (F.n, F.bandwidth) == (8001, 319)
    band_bytes = (F.bandwidth + 1) * F.n * 8
    assert peak < 1.5 * band_bytes, f"peak {peak / band_bytes:.2f} band sizes"


def test_banded_factor_refuses_band_larger_than_memory(monkeypatch):
    monkeypatch.setattr(linalg, "_physical_memory_bytes", lambda: 16)
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(MemoryError, match=r"2 dofs with bandwidth 1 needs .* GiB"):
        BandedCholesky(A)


def test_banded_factor_refuses_non_finite_entries():
    for bad in (np.inf, np.nan):
        A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            BandedCholesky(A)
        # only the reduced matrix is checked: a fixed dof may carry the bad entry
        assert BandedCholesky(A, fixed=[2]).solve(np.ones(3))[2] == 0.0


def test_cli_reports_memory_preflight(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(linalg, "_physical_memory_bytes", lambda: 16)
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(
        f"problem = clamped-plate\nlevels = 1..2\noutput = {tmp_path / 'plate.csv'}\n"
    )
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: banded Cholesky of ")
    assert "GiB of physical memory" in err
    assert not (tmp_path / "plate.csv").exists()


def test_cg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = cg_solve(lambda v: v, b, tol=1e-12)
    assert np.allclose(x, b)
    assert rep.iterations == 1


def test_cg_diagonal_finite_termination():
    n = 40
    d = np.arange(1.0, n + 1)
    b = np.ones(n)
    x, rep = cg_solve(lambda v: d * v, b, tol=1e-12, max_iter=n + 5)
    assert rep.success
    assert rep.iterations <= n
    assert np.linalg.norm(d * x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_zero_rhs():
    x, rep = cg_solve(lambda v: v, np.zeros(5))
    assert np.all(x == 0.0)
    assert rep.iterations == 0 and rep.success


def test_cg_max_iter_flagged():
    n = 50
    d = np.linspace(1.0, 1e6, n)
    x, rep = cg_solve(lambda v: d * v, np.ones(n), tol=1e-14, max_iter=3)
    assert not rep.success
    assert rep.iterations == 3


def test_cg_reports_true_residual(rng=np.random.default_rng(2)):
    # on this system the recursive residual drifts well below the true one
    Af = _vh_system("unit-square", 4)
    b = rng.standard_normal(Af.shape[0])
    x, rep = cg_solve(lambda v: Af @ v, b, tol=1e-12)
    true_rel = np.linalg.norm(b - Af @ x) / np.linalg.norm(b)
    assert rep.success
    assert rep.relative_residual == pytest.approx(true_rel, rel=1e-9)
    assert rep.relative_residual > 1e-12


def test_cg_cholesky_cross_oracle(rng=np.random.default_rng(2)):
    Af = _vh_system("unit-square", 2)
    b = rng.standard_normal(Af.shape[0])
    xc, _ = cholesky_solve(Af, b)
    xi, rep = cg_solve(lambda v: Af @ v, b, tol=1e-13, max_iter=5000)
    assert rep.success
    assert np.linalg.norm(xc - xi) <= 1e-8 * np.linalg.norm(xc)


def test_constrain_fix_all():
    A = sp.identity(3, format="csr")
    A_red, free = constrain(A, [0, 1, 2])
    assert A_red.shape == (0, 0)
    assert free.size == 0
    assert np.array_equal(BandedCholesky(A, [0, 1, 2]).solve(np.ones(3)), np.zeros(3))


def test_constrain_fix_none():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    A_red, free = constrain(A, [])
    assert np.allclose(A_red.toarray(), A.toarray())
    assert np.array_equal(free, [0, 1])


def test_constrain_matches_hand_elimination():
    # Poisson-like 3x3 with a homogeneous Dirichlet value at dof 0
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    A_red, free = constrain(A, [0])
    assert np.allclose(A_red.toarray(), [[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(free, [1, 2])
