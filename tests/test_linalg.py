import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from c0ip import linalg
from c0ip.c0ip import Discretization
from c0ip.cahn_hilliard import default_pin_corner
from c0ip.cli import main
from c0ip.linalg import (
    BandedCholesky,
    PositiveDefiniteError,
    SuperLUFactor,
    cg_solve,
    cholesky_solve,
    constrain,
)
from c0ip.mesh import built_in_polygon, mesh_hierarchy

from helpers import jittered_hexagon

FACTORS = pytest.mark.parametrize("factor", [BandedCholesky, SuperLUFactor])


def _superlu_solve(A, b):
    return SuperLUFactor(A).solve(b)


# both direct paths, each refusing what it cannot factor
SOLVES = pytest.mark.parametrize(
    "solve", [cholesky_solve, _superlu_solve], ids=["cholesky_solve", "SuperLUFactor"]
)


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


@SOLVES
def test_cholesky_rejects_indefinite(solve):
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(PositiveDefiniteError):
        solve(A, np.array([1.0, 1.0]))


@SOLVES
def test_cholesky_zero_rhs_still_checks_definiteness(solve):
    # a zero load is factored like any other, so an indefinite system is
    # refused whatever the right-hand side
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(PositiveDefiniteError):
        solve(A, np.zeros(2))


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


@FACTORS
def test_banded_solve_is_zero_on_fixed_dofs(factor):
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    b = np.array([5.0, 1.0, 0.0])
    F = factor(A, [0])
    assert (F.n, F.n_full) == (2, 3) and np.array_equal(F.free, [1, 2])
    x = F.solve(b)
    assert x.shape == (3,) and x[0] == 0.0
    r = (A @ x - b)[1:]
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b[1:])
    x_once, rep = cholesky_solve(A, b, [0])
    assert np.array_equal(x_once, BandedCholesky(A, [0]).solve(b))
    assert rep.relative_residual <= 1e-10 and rep.success


@pytest.mark.parametrize("domain", ["unit-square", "jittered-hexagon"])
@pytest.mark.parametrize("system", ["vh", "alpha-a-plus-m"])
def test_superlu_agrees_with_banded_cholesky(domain, system, rng=np.random.default_rng(4)):
    # the two factors of the control's systems solve alike; they differ by
    # roundoff only, which grows with the condition number (about 2e6 for
    # the level-4 V_h system, where they differ by 2e-12)
    polygon = (
        jittered_hexagon(np.random.default_rng(0))
        if domain == "jittered-hexagon"
        else built_in_polygon(domain)
    )
    meshes = mesh_hierarchy(polygon, 4)
    for level in range(1, 5):
        disc = Discretization(meshes[level])
        A, fixed = {
            "vh": (disc.A, disc.dofmap.boundary_dof_ids),
            "alpha-a-plus-m": (1e-4 * disc.A + disc.M, []),
        }[system]
        b = rng.standard_normal(A.shape[0])
        want = BandedCholesky(A, fixed).solve(b)
        F = SuperLUFactor(A, fixed)
        got = F.solve(b)
        assert np.all(got[fixed] == 0.0)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want), level
        # and each is backward stable on the free rows
        for x in (got, want):
            r = (A @ x - b)[F.free]
            scale = sp.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf)
            assert np.linalg.norm(r, np.inf) <= 1e-14 * scale, level


def test_cholesky_on_vh_system(rng=np.random.default_rng(1)):
    Af = _vh_system("unit-square", 3)
    b = rng.standard_normal(Af.shape[0])
    x, rep = cholesky_solve(Af, b)
    assert rep.relative_residual <= 1e-10
    assert rep.success


@pytest.mark.parametrize("domain", ["hexagon", "unit-square"])
@pytest.mark.parametrize("system", ["vh", "pinned", "alpha-a-plus-m"])
def test_banded_factor_bit_identical_to_sliced_c_ordered_band(
    domain, system, rng=np.random.default_rng(11)
):
    # the reference band is built the way the factor once built it, by
    # permuting and slicing A, and in C order, which scipy copies before
    # LAPACK runs; the factor fills a Fortran-ordered band in place by index
    # arithmetic, with the same values at the same places, so factor and
    # solve keep every bit
    disc = Discretization(mesh_hierarchy(built_in_polygon(domain), 4)[4])
    A, fixed = {
        "vh": (disc.A, disc.dofmap.boundary_dof_ids),
        "pinned": (disc.A, [default_pin_corner(disc.mesh)]),
        "alpha-a-plus-m": (1e-4 * disc.A + disc.M, []),
    }[system]
    F = BandedCholesky(A, fixed)
    A_red, free = constrain(A, fixed)
    perm = reverse_cuthill_mckee(A_red, symmetric_mode=True)
    Ap = A_red[perm][:, perm].tocoo()
    keep = Ap.row <= Ap.col
    rows, cols = Ap.row[keep], Ap.col[keep]
    bw = int((cols - rows).max())
    ab = np.zeros((bw + 1, F.n))
    ab[bw - (cols - rows), cols] = Ap.data[keep]
    assert ab.flags.c_contiguous and not ab.flags.f_contiguous
    factor = sla.cholesky_banded(ab, lower=False, check_finite=False)
    b = rng.standard_normal(A.shape[0])
    x = np.zeros(A.shape[0])
    x[free[perm]] = sla.cho_solve_banded((factor, False), b[free[perm]])
    assert np.array_equal(F.perm, perm) and F.bandwidth == bw
    assert np.array_equal(F._factor, factor)
    assert np.array_equal(F.solve(b), x)


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
    # 1.093 band sizes; filling the band through index temporaries read 1.126
    assert peak < 1.11 * band_bytes, f"peak {peak / band_bytes:.3f} band sizes"


_HEAP_RELEASE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from c0ip.c0ip import Discretization
from c0ip.linalg import BandedCholesky
from c0ip.mesh import built_in_polygon, mesh_hierarchy

def status_kb(key):
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith(key + ":"))

disc = Discretization(mesh_hierarchy(built_in_polygon("hexagon"), 6)[6])
A, fixed = disc.A, disc.dofmap.boundary_dof_ids
big = np.ones(30 * 2**20 // 8)  # freeing an mmapped chunk raises the mmap threshold
del big
chunks = [np.ones(2**20 // 8) for _ in range(150)]  # now carved from the heap
del chunks[:-1]  # the last chunk pins the heap top: nothing is trimmed on free
rss0 = status_kb("VmRSS")
F = BandedCholesky(A, fixed)
print((status_kb("VmHWM") - rss0) * 1024 / ((F.bandwidth + 1) * F.n * 8))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or linalg._malloc_trim is None,
    reason="needs /proc/self/status and glibc malloc_trim",
)
def test_band_is_allocated_on_released_heap():
    # 149 MB of freed 1 MB blocks stay resident below the live top chunk;
    # the factor hands them back before its band is allocated, so the peak
    # grows by much less than the band (about 1.0 band without the release)
    proc = subprocess.run(
        [sys.executable, "-c", _HEAP_RELEASE, str(Path(linalg.__file__).parents[1])],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    growth = float(proc.stdout)
    assert growth < 0.75, f"peak grew by {growth:.2f} band sizes"


def test_duplicate_entries_are_summed():
    # [[4,1,0],[1,4,1],[0,1,4]] with its (0, 0) entry stored as 2 + 2
    data = np.array([2.0, 2.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0])
    indices = np.array([0, 0, 1, 0, 1, 2, 1, 2])
    A = sp.csr_matrix((data, indices, [0, 3, 6, 8]), shape=(3, 3))
    b = np.array([1.0, 2.0, 3.0])
    x = BandedCholesky(A).solve(b)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-14)
    # the caller's arrays are left as they were
    assert np.array_equal(A.data, data) and np.array_equal(A.indices, indices)


@pytest.mark.parametrize("bad", [7, 3, -1])
def test_out_of_range_fixed_dof_is_refused(bad):
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match=f"fixed dof id {bad} is outside"):
        BandedCholesky(A, [0, bad])


@FACTORS
def test_banded_factor_refuses_band_larger_than_memory(monkeypatch, factor):
    monkeypatch.setattr(linalg, "_physical_memory_bytes", lambda: 16)
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(MemoryError, match=r"2 dofs with bandwidth 1 needs .* GiB"):
        factor(A)


@FACTORS
def test_banded_factor_refuses_non_finite_entries(factor):
    for bad in (np.inf, np.nan):
        A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            factor(A)
        # only the reduced matrix is checked: a fixed dof may carry the bad entry
        assert factor(A, fixed=[2]).solve(np.ones(3))[2] == 0.0


@FACTORS
@pytest.mark.parametrize(
    "A",
    [sp.csr_matrix(np.ones((2, 3))), sp.csr_matrix(np.eye(3, 2) * 2.0)],
    ids=["2x3", "3x2"],
)
def test_non_square_matrix_is_refused(factor, A):
    rows, cols = A.shape
    with pytest.raises(ValueError, match=rf"non-square matrix of shape \({rows}, {cols}\)"):
        factor(A)


@FACTORS
@pytest.mark.parametrize(
    "fixed", [[True, False, False], [0.5], np.array([1.0])], ids=["mask", "half", "float"]
)
def test_non_integer_fixed_dofs_are_refused(factor, fixed):
    # cast to int64, the mask [True, False, False] reads as ids [1, 0, 0] and 0.5 as 0
    with pytest.raises(ValueError, match="fixed dof ids must be integers"):
        factor(sp.identity(3, format="csr"), fixed)


@FACTORS
@pytest.mark.parametrize(
    "fixed", [(), np.array([], dtype=float), np.array([2], dtype=np.uint32)]
)
def test_empty_or_integer_fixed_dofs_are_accepted(factor, fixed):
    F = factor(sp.identity(3, format="csr"), fixed)
    assert F.n == 3 - len(fixed)


@FACTORS
@pytest.mark.parametrize("fixed", [[0], [0, 1, 2]], ids=["one-fixed", "all-fixed"])
@pytest.mark.parametrize("length", [2, 4])
def test_wrong_length_rhs_is_refused(factor, fixed, length):
    F = factor(sp.identity(3, format="csr"), fixed)
    with pytest.raises(ValueError, match=rf"has shape \({length},\), not \(3,\)"):
        F.solve(np.ones(length))


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


@FACTORS
def test_constrain_fix_all(factor):
    A = sp.identity(3, format="csr")
    A_red, free = constrain(A, [0, 1, 2])
    assert A_red.shape == (0, 0)
    assert free.size == 0
    F = factor(A, [0, 1, 2])
    assert (F.n, F.bandwidth) == (0, 0)
    assert np.array_equal(F.solve(np.ones(3)), np.zeros(3))


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


@pytest.mark.parametrize("system", ["vh", "pinned", "repeated", "all", "non-canonical"])
def test_constrain_bit_identical_to_fancy_indexing(system):
    """The one-mask reduction gives A[free][:, free] array for array, dtypes included."""
    A, mesh, dm = _a_h("pentagon150", 3)
    fixed = {
        "vh": dm.boundary_dof_ids,
        "pinned": [default_pin_corner(mesh)],
        "repeated": [0, 5, 5, dm.n_dofs - 1],
        "all": np.arange(dm.n_dofs),
        "non-canonical": dm.boundary_dof_ids,
    }[system]
    if system == "non-canonical":
        # every entry stored twice, as halves, in shuffled order within its row
        rows = np.tile(np.repeat(np.arange(dm.n_dofs), np.diff(A.indptr)), 2)
        order = np.lexsort((np.random.default_rng(3).random(len(rows)), rows))
        A = sp.csr_matrix(
            (np.tile(0.5 * A.data, 2)[order], np.tile(A.indices, 2)[order], 2 * A.indptr),
            shape=A.shape,
        )
        assert not A.has_canonical_format
    data, indices = A.data.copy(), A.indices.copy()
    got, free = constrain(A, fixed)
    canonical = A.copy()
    canonical.sum_duplicates()
    want_free = np.setdiff1d(np.arange(dm.n_dofs), fixed)
    want = canonical[want_free][:, want_free]
    assert np.array_equal(free, want_free) and free.dtype == want_free.dtype
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    # the caller's arrays are left as they were
    assert np.array_equal(A.data, data) and np.array_equal(A.indices, indices)
