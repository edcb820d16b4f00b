"""Sparse symmetric solves: banded Cholesky behind RCM, CG, and constraints.

Matrices are scipy CSR throughout; assembly produces
canonical (sorted, duplicate-free) matrices.  Direct solves permute with
reverse Cuthill-McKee and factor the resulting band with LAPACK, which
doubles as the positive-definiteness check: a non-positive pivot raises
``PositiveDefiniteError``.  The band is allocated in Fortran order and
factored in place, so a factor holds one buffer of (bw + 1) * n * 8 bytes;
a band larger than the machine's physical memory raises ``MemoryError``
before it is allocated.

Fixed dofs (the boundary of V_h, a pinned corner) are eliminated inside the
factor: ``BandedCholesky(A, fixed)`` factors A restricted to the free dofs,
and its solves take and return full-length vectors that are zero on the
fixed dofs.  ``cholesky_solve`` is the one-shot path with a residual report.
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
]

class PositiveDefiniteError(np.linalg.LinAlgError):
    """Factorization hit a non-positive pivot.

    For interior penalty systems this signals sigma below the coercivity
    threshold or a wrong constraint set.
    """


@dataclass(frozen=True)
class SolveReport:
    method: str                      # "cholesky" | "cg" | "lu"
    iterations: int
    relative_residual: float
    success: bool


_TINY = 1e-300


def _physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class BandedCholesky:
    """Reusable Cholesky factor of a sparse SPD matrix on its free dofs.

    The rows and columns of ``fixed`` are eliminated first; ``n`` is the
    number of free dofs that are factored.  The reduced matrix is permuted
    by reverse Cuthill-McKee and stored in LAPACK upper band form, a
    Fortran-ordered array of (bw + 1) * n * 8 bytes that LAPACK factors in
    place: that one buffer is both the band and the factor.  A band larger
    than physical memory raises ``MemoryError`` before allocation, and a
    reduced matrix with non-finite entries raises ``ValueError``.

    ``solve`` takes a full-length right-hand side and returns a full-length
    solution that is zero on ``fixed``; the gather of the free dofs and the
    RCM permutation are one index array.
    """

    def __init__(self, A, fixed=()):
        self.n_full = A.shape[0]
        A, self.free = constrain(A, fixed)
        if not np.isfinite(A.data).all():
            raise ValueError("cannot factor a matrix with non-finite entries")
        n = A.shape[0]
        self.n = n
        if n == 0:
            self._factor = None
            return
        self.perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True))
        self._gather = self.free[self.perm]
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
        x = np.zeros(self.n_full)
        if self.n == 0:
            return x
        b = np.asarray(b, dtype=float)
        x[self._gather] = sla.cho_solve_banded(
            (self._factor, False), b[self._gather], check_finite=False
        )
        return x


def cholesky_solve(A, b, fixed=()):
    """Direct SPD solve with ``fixed`` dofs eliminated (their values are zero).

    Returns the full-length solution and a report of the true relative
    residual ||A x - b|| / ||b|| over the free rows.
    """
    factor = BandedCholesky(A, fixed)
    x = factor.solve(b)
    b_free = np.asarray(b, dtype=float)[factor.free]
    res = float(np.linalg.norm((A @ x)[factor.free] - b_free))
    rel = res / max(float(np.linalg.norm(b_free)), _TINY)
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


def constrain(A, fixed_dofs):
    """Eliminate fixed dofs symmetrically: returns A[free][:, free] and free."""
    A = sp.csr_matrix(A)
    fixed = np.asarray(fixed_dofs, dtype=np.int64)
    free = np.setdiff1d(np.arange(A.shape[0]), fixed)
    return (A[free][:, free] if len(fixed) else A), free
