"""Sparse symmetric solves: banded Cholesky behind RCM, SuperLU, CG, and constraints.

Matrices are scipy CSR throughout; assembly produces
canonical (sorted, duplicate-free) matrices, and ``constrain`` sums the
duplicates of any other input on a copy.  Direct solves permute with
reverse Cuthill-McKee and factor the resulting band with LAPACK, which
doubles as the positive-definiteness check: a non-positive pivot raises
``PositiveDefiniteError``.  The band is allocated in Fortran order and
factored in place, so a factor holds one buffer of (bw + 1) * n * 8 bytes;
a band larger than the machine's physical memory raises ``MemoryError``
before it is allocated.  The permuted upper triangle is computed by index
arithmetic on the reduced CSR, the reduced matrix is dropped, and the freed
heap is handed back to the OS (glibc ``malloc_trim``) just before the band
is allocated, so the band lands on live memory only.

Fixed dofs (the boundary of V_h, a pinned corner) are eliminated inside the
factor: ``BandedCholesky(A, fixed)`` factors A restricted to the free dofs,
and its solves take and return full-length vectors that are zero on the
fixed dofs.  ``cholesky_solve`` is the one-shot path with a residual report.

Which factor a system gets depends on how often it is solved.  A system
solved once per factor (the plate, the Cahn-Hilliard levels and their
reference) uses ``BandedCholesky``: the band is the cheaper factor to
build, and the Cahn-Hilliard reference values frozen by the benchmark hold
the band's roundoff.  A system solved hundreds of times (the control's
state and preconditioner factors, three solves per reduced-CG iteration)
uses ``SuperLUFactor``: under a minimum degree ordering its L and U take
about two thirds of the band's memory and solve in about half its time.
It is a ``BandedCholesky`` whose factored band is the definiteness verdict
and is then dropped, not the signs of U's diagonal: reading the LU
factor's ``U`` attribute makes scipy build and keep L and U as separate
matrices, which costs more memory than the band.
"""

import ctypes
from dataclasses import dataclass
import os

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

__all__ = [
    "SolveReport",
    "PositiveDefiniteError",
    "BandedCholesky",
    "SuperLUFactor",
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
    method: str                      # "cholesky" | "cg" ("lu": tests/kkt_reference.py only)
    iterations: int
    relative_residual: float
    success: bool


_TINY = 1e-300


def _physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _release_freed_heap():
    """Return freed but still resident heap pages to the OS (glibc only)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


class BandedCholesky:
    """Reusable Cholesky factor of a sparse SPD matrix on its free dofs.

    The rows and columns of ``fixed`` are eliminated first; ``n`` is the
    number of free dofs that are factored.  The reduced matrix is permuted
    by reverse Cuthill-McKee and stored in LAPACK upper band form, a
    Fortran-ordered array of (bw + 1) * n * 8 bytes that LAPACK factors in
    place: that one buffer is both the band and the factor.  Entry (i, j),
    i <= j, of the permuted matrix sits at row bw - (j - i), column j of
    the band.  Before the band is allocated the reduced matrix is dropped
    and freed heap is returned to the OS; the (row, column, value) triples
    that fill it are dropped before LAPACK runs.  A band larger than
    physical memory raises ``MemoryError`` before allocation, and a reduced
    matrix with non-finite entries raises ``ValueError``.  ``bandwidth`` is
    0 when every dof is fixed.

    ``solve`` takes a full-length right-hand side (any other shape raises
    ``ValueError``) and returns a full-length solution that is zero on
    ``fixed``; the gather of the free dofs and the RCM permutation are one
    index array.
    """

    def __init__(self, A, fixed=()):
        self.n_full = A.shape[0]
        A, self.free = constrain(A, fixed)
        if not np.isfinite(A.data).all():
            raise ValueError("cannot factor a matrix with non-finite entries")
        n = A.shape[0]
        self.n = n
        if n == 0:
            self._factor, self.bandwidth = None, 0
            return
        self.perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True))
        self._gather = self.free[self.perm]
        # the permuted upper triangle by index arithmetic: entry (i, j) of A
        # lands at (iperm[i], iperm[j]) of A[perm][:, perm]
        iperm = np.empty(n, dtype=A.indices.dtype)
        iperm[self.perm] = np.arange(n, dtype=A.indices.dtype)
        rows = np.repeat(iperm, np.diff(A.indptr))
        cols = iperm[A.indices]
        keep = rows <= cols
        rows, cols, vals = rows[keep], cols[keep], A.data[keep]
        del A, iperm, keep
        # rows becomes the band row bw - (j - i) in place, so filling the
        # band allocates no index temporaries
        rows -= cols
        bw = int(-rows.min()) if len(rows) else 0
        rows += bw
        need, have = (bw + 1) * n * 8, _physical_memory_bytes()
        if need > have:
            raise MemoryError(
                f"banded Cholesky of {n} dofs with bandwidth {bw} needs "
                f"{need / 2**30:.1f} GiB of band storage; this machine has "
                f"{have / 2**30:.1f} GiB of physical memory"
            )
        _release_freed_heap()
        ab = np.zeros((bw + 1, n), order="F")
        ab[rows, cols] = vals
        del rows, cols, vals
        try:
            self._factor = sla.cholesky_banded(
                ab, overwrite_ab=True, lower=False, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise PositiveDefiniteError(str(exc)) from exc
        self.bandwidth = bw

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n_full,):
            raise ValueError(f"right-hand side has shape {b.shape}, not ({self.n_full},)")
        x = np.zeros(self.n_full)
        if self.n:
            x[self._gather] = self._solve_free(b[self._gather])
        return x

    def _solve_free(self, b):
        """Solve on the free dofs in ``_gather`` order; a subclass swaps the factor here."""
        return sla.cho_solve_banded((self._factor, False), b, check_finite=False)


class SuperLUFactor(BandedCholesky):
    """``BandedCholesky``'s contract, solved by a sparse LU factor.

    For systems solved many times (see the module docstring).  The band
    built by ``BandedCholesky.__init__`` is the definiteness verdict, so the
    same inputs raise the same errors; it is dropped before SuperLU factors
    the reduced matrix with a minimum degree ordering on A + A' and diagonal
    pivots.  The factor's L and U are never read.
    """

    def __init__(self, A, fixed=()):
        super().__init__(A, fixed)
        # drop the verdict's band and gather before SuperLU allocates
        self._factor, self._gather = None, self.free
        if self.n:
            self._lu = splu(
                constrain(A, fixed)[0].tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )

    def _solve_free(self, b):
        return self._lu.solve(b)


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
    """Eliminate fixed dofs symmetrically: returns A[free][:, free] and free.

    The reduced CSR is read off A's own arrays through one mask of the
    entries whose row and column are both free, with no intermediate copy.
    A non-canonical A has its duplicate entries summed on a copy, so the
    caller's arrays are never touched.  A non-square A, fixed ids that are
    not integers (a boolean mask included) and a fixed id outside [0, n)
    raise ``ValueError``.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"cannot constrain a non-square matrix of shape {A.shape}")
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    fixed = np.asarray(fixed_dofs)
    if fixed.size and fixed.dtype.kind not in "iu":
        raise ValueError(f"fixed dof ids must be integers, got dtype {fixed.dtype}")
    fixed = fixed.astype(np.int64, copy=False)
    bad = fixed[(fixed < 0) | (fixed >= n)]
    if len(bad):
        raise ValueError(f"fixed dof id {bad[0]} is outside [0, {n})")
    is_free = np.ones(n, dtype=bool)
    is_free[fixed] = False
    free = np.flatnonzero(is_free)
    if not len(fixed):
        return A, free
    keep = is_free[A.indices]
    keep &= np.repeat(is_free, np.diff(A.indptr))
    # kept_before[k] counts the kept entries among the first k, so at a free
    # row's start and end it gives that row's extent in the result
    kept_before = np.zeros(len(keep) + 1, dtype=A.indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    new_col = np.cumsum(is_free, dtype=A.indices.dtype) - 1
    reduced = sp.csr_matrix(
        (A.data[keep], new_col[A.indices[keep]], kept_before[A.indptr[np.append(free, n)]]),
        shape=(len(free), len(free)),
    )
    return reduced, free
