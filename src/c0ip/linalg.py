"""Sparse symmetric solves: banded Cholesky behind RCM, CG, and constraints.

Matrices are scipy CSR throughout; assembly produces
canonical (sorted, duplicate-free) matrices.  Direct solves permute with
reverse Cuthill-McKee and factor the resulting band with LAPACK, which
doubles as the positive-definiteness check: a non-positive pivot raises
``PositiveDefiniteError``.  The band is allocated in Fortran order and
factored in place, so a factor holds one buffer of (bw + 1) * n * 8 bytes;
a band larger than the machine's physical memory raises ``MemoryError``
before it is allocated.
"""

from dataclasses import dataclass
import os

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "SolveReport",
    "PositiveDefiniteError",
    "BandedCholesky",
    "cholesky_solve",
    "cg_solve",
    "constrain",
    "Expansion",
    "write_coo_text",
]

class PositiveDefiniteError(np.linalg.LinAlgError):
    """Factorization hit a non-positive pivot.

    For interior penalty systems this signals sigma below the coercivity
    threshold or a wrong constraint set.
    """


@dataclass(frozen=True)
class SolveReport:
    method: str                      # "cholesky" | "cg"
    iterations: int
    relative_residual: float
    success: bool


def _physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class BandedCholesky:
    """Reusable Cholesky factor of a sparse SPD matrix.

    The matrix is permuted by reverse Cuthill-McKee and stored in LAPACK
    upper band form, a Fortran-ordered array of (bw + 1) * n * 8 bytes that
    LAPACK factors in place: that one buffer is both the band and the
    factor.  A band larger than physical memory raises ``MemoryError``
    before allocation.
    """

    def __init__(self, A):
        A = sp.csr_matrix(A)
        n = A.shape[0]
        self.n = n
        if n == 0:
            self._factor = None
            return
        self.perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True))
        Ap = A[self.perm][:, self.perm].tocoo()
        keep = Ap.row <= Ap.col
        rows, cols, vals = Ap.row[keep], Ap.col[keep], Ap.data[keep]
        bw = int((cols - rows).max()) if len(rows) else 0
        need, have = (bw + 1) * n * 8, _physical_memory_bytes()
        if need > have:
            raise MemoryError(
                f"banded Cholesky of {n} dofs with bandwidth {bw} needs "
                f"{need / 2**30:.1f} GiB of band storage; this machine has "
                f"{have / 2**30:.1f} GiB of physical memory"
            )
        ab = np.zeros((bw + 1, n), order="F")
        ab[bw - (cols - rows), cols] = vals
        try:
            self._factor = sla.cholesky_banded(
                ab, overwrite_ab=True, lower=False, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise PositiveDefiniteError(str(exc)) from exc
        self.bandwidth = bw

    def solve(self, b):
        if self.n == 0:
            return np.zeros(0)
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        xp = sla.cho_solve_banded(
            (self._factor, False), b[self.perm], check_finite=False
        )
        x[self.perm] = xp
        return x


def cholesky_solve(A, b):
    """Direct SPD solve; returns the solution and a residual report."""
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b), SolveReport("cholesky", 0, 0.0, True)
    factor = BandedCholesky(A)
    x = factor.solve(b)
    rel = float(np.linalg.norm(A @ x - b)) / nb
    return x, SolveReport("cholesky", 0, rel, rel <= 1e-10)


def cg_solve(apply_A, b, tol=1e-12, max_iter=None, precond=None):
    """Conjugate gradients on a symmetric positive definite operator.

    ``apply_A`` maps a vector to A @ v; ``precond``, when given, applies an
    SPD approximation of A^{-1}.  Convergence, and so the report's
    ``success``, is tested on the recursively updated residual r.  The
    report's relative residual is the true ||b - A x|| / ||b||, recomputed at
    exit with one extra ``apply_A``.  In floating point the two drift apart,
    so a successful solve can report a residual well above ``tol``.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros(n), SolveReport("cg", 0, 0.0, True)
    if max_iter is None:
        max_iter = max(10 * n, 100)

    x = np.zeros(n)
    r = b.copy()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    it = 0
    res = float(np.linalg.norm(r))
    while res > tol * nb and it < max_iter:
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise PositiveDefiniteError(
                f"operator produced non-positive curvature p.Ap = {pAp} at iteration {it}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    true_res = float(np.linalg.norm(b - apply_A(x)))
    return x, SolveReport("cg", it, true_res / nb, res <= tol * nb)


@dataclass(frozen=True)
class Expansion:
    """Reinserts eliminated dofs into a reduced solution vector."""

    n: int
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray

    def expand(self, x_reduced):
        x = np.empty(self.n)
        x[self.free] = x_reduced
        x[self.fixed] = self.fixed_values
        return x


def constrain(A, b, fixed_dofs, fixed_values=None):
    """Eliminate fixed dofs symmetrically.

    Returns the reduced matrix and right-hand side (corrected by the
    fixed-value columns) plus the expansion map.
    """
    n = A.shape[0]
    fixed = np.asarray(fixed_dofs, dtype=np.int64)
    if fixed_values is None:
        fixed_values = np.zeros(len(fixed))
    fixed_values = np.asarray(fixed_values, dtype=float)
    free = np.setdiff1d(np.arange(n), fixed)
    A = sp.csr_matrix(A)
    A_red = A[free][:, free]
    b_red = np.asarray(b, dtype=float)[free]
    if len(fixed) and np.any(fixed_values != 0.0):
        b_red = b_red - A[free][:, fixed] @ fixed_values
    return A_red, b_red, Expansion(n=n, free=free, fixed=fixed, fixed_values=fixed_values)


def write_coo_text(A, path):
    """Dump a sparse matrix as 'i j value' lines (debugging aid)."""
    coo = sp.coo_matrix(A)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{int(i)} {int(j)} {float(v)!r}\n")
