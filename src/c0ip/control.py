"""Discrete Dirichlet-control optimality system and its forward/lift solves.

State and adjoint live in the boundary-vanishing space, the control in the
full P2 space.  The optimality system is solved in reduced form: eliminating
state and adjoint through direct inner solves leaves a symmetric positive
definite operator on the control space,

    H q = alpha A q + T' M T q,        T q = lift_apply(q),

which is driven by preconditioned CG (preconditioner alpha A + M).  A and
M are those of the problem's ``Discretization``.  The inner V_h solves use
one factor of A with the boundary dofs fixed inside it; its solves take and
return full-length vectors, zero on the boundary.  The assembled
three-by-three block system is kept as an independent cross-check.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .c0ip import assemble_load
from .fem import QuadratureRule
from .linalg import BandedCholesky, SolveReport, cg_solve

__all__ = [
    "ControlProblem",
    "KktSolution",
    "forward_solve",
    "solve_kkt",
    "solve_kkt_monolithic",
    "objective",
    "objective_gradient",
    "reduced_hessian_apply",
    "kkt_residuals",
]

_TINY = 1e-300


class ControlProblem:
    """Data and assembled operators of one discrete control problem."""

    def __init__(self, disc, f, u_d, alpha):
        if not alpha > 0.0:
            raise ValueError(f"regularization parameter alpha must be > 0, got {alpha}")
        if not np.isfinite(alpha):
            raise ValueError(f"regularization parameter alpha must be finite, got {alpha}")
        self.disc = disc
        self.f = f
        self.u_d = u_d
        self.alpha = float(alpha)
        dofmap = disc.dofmap
        # V_h is Q_h minus the boundary dofs
        self.vh_free = np.setdiff1d(np.arange(dofmap.n_dofs), dofmap.boundary_dof_ids)
        self.A = disc.A
        self.M = disc.M
        self.load_f = assemble_load(disc, f)
        self.load_ud = assemble_load(disc, u_d)
        # the constant part of the tracking term; its degree-16 quadrature
        # runs here, before any factor holds memory
        rule = QuadratureRule.triangle(16)
        pts = disc.geom.to_physical(rule.points)
        vals = np.broadcast_to(
            np.asarray(u_d(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
        )
        self.ud_sq_integral = float(2.0 * disc.geom.area @ (vals**2 @ rule.weights))

    @cached_property
    def state_factor(self):
        """Cholesky factor of the stiffness matrix on V_h (boundary dofs fixed)."""
        return BandedCholesky(self.A, self.disc.dofmap.boundary_dof_ids)

    @cached_property
    def precond_factor(self):
        """Cholesky factor of alpha A + M (reduced-space preconditioner)."""
        return BandedCholesky(self.alpha * self.A + self.M)

    # -- V_h solves ---------------------------------------------------------

    def lift_apply(self, q):
        """T q = w + q with a(w, v) = -a(q, v) for all v in V_h."""
        return q + self.state_factor.solve(-(self.A @ q))

    def lift_transpose_apply(self, y):
        """T' y = y - A w with w the V_h solve of y's restriction."""
        return y - self.A @ self.state_factor.solve(y)


def forward_solve(problem, p_h=None):
    """State solve: a(v, w) = (f, w) - a(p, w) for all w in V_h."""
    rhs = problem.load_f.copy()
    if p_h is not None:
        rhs -= problem.A @ p_h
    return problem.state_factor.solve(rhs)


def reduced_hessian_apply(problem, q):
    """Action of the reduced operator alpha A + T' M T."""
    return problem.alpha * (problem.A @ q) + problem.lift_transpose_apply(
        problem.M @ problem.lift_apply(q)
    )


def _reduced_rhs(problem):
    uf0 = forward_solve(problem, None)
    return -problem.lift_transpose_apply(problem.M @ uf0 - problem.load_ud)


def _cost(problem, u, q):
    track = float(u @ (problem.M @ u) - 2.0 * (u @ problem.load_ud)) + problem.ud_sq_integral
    reg = float(q @ (problem.A @ q))
    return 0.5 * track + 0.5 * problem.alpha * reg


def objective(problem, p_h):
    """Discrete cost: tracking misfit plus the alpha-weighted form energy."""
    return _cost(problem, forward_solve(problem, p_h) + p_h, p_h)


def objective_gradient(problem, p_h):
    """Gradient of the discrete cost; equals the optimality-equation defect."""
    u = forward_solve(problem, p_h) + p_h
    return problem.alpha * (problem.A @ p_h) + problem.lift_transpose_apply(
        problem.M @ u - problem.load_ud
    )


@dataclass(frozen=True)
class KktSolution:
    u_f_h: np.ndarray
    q_h: np.ndarray
    phi_h: np.ndarray
    u_h: np.ndarray
    j_h: float
    residuals: dict
    report: SolveReport


def kkt_residuals(problem, u_f, q, phi):
    """Relative defects of the three optimality equations."""
    free = problem.vh_free
    A, M = problem.A, problem.M
    u = u_f + q

    r1 = (A @ u_f + A @ q - problem.load_f)[free]
    s1 = np.linalg.norm((problem.load_f - A @ q)[free])
    r2 = (A @ phi - M @ u + problem.load_ud)[free]
    s2 = np.linalg.norm((M @ u - problem.load_ud)[free])
    r3 = problem.alpha * (A @ q) - A @ phi + M @ u - problem.load_ud
    s3 = max(
        np.linalg.norm(problem.alpha * (A @ q)),
        np.linalg.norm(A @ phi),
        np.linalg.norm(M @ u - problem.load_ud),
    )
    return {
        "state": float(np.linalg.norm(r1) / max(s1, _TINY)),
        "adjoint": float(np.linalg.norm(r2) / max(s2, _TINY)),
        "gradient": float(np.linalg.norm(r3) / max(s3, _TINY)),
    }


def _solution(problem, u_f, q, phi, report):
    u = u_f + q
    return KktSolution(
        u_f_h=u_f,
        q_h=q,
        phi_h=phi,
        u_h=u,
        j_h=_cost(problem, u, q),
        residuals=kkt_residuals(problem, u_f, q, phi),
        report=report,
    )


def _finish(problem, q, report):
    u_f = forward_solve(problem, q)
    phi = problem.state_factor.solve(problem.M @ (u_f + q) - problem.load_ud)
    return _solution(problem, u_f, q, phi, report)


def solve_kkt(problem, tol=1e-10, max_iter=2000):
    """Reduced-space solve of the discrete optimality system."""
    q, report = cg_solve(
        lambda v: reduced_hessian_apply(problem, v),
        _reduced_rhs(problem),
        tol=tol,
        max_iter=max_iter,
        precond=problem.precond_factor.solve,
    )
    if not report.success:
        raise RuntimeError(
            f"reduced CG stagnated: {report.iterations} iterations, "
            f"relative residual {report.relative_residual:.3e}"
        )
    return _finish(problem, q, report)


def solve_kkt_monolithic(problem):
    """Direct solve of the assembled three-by-three block system.

    Kept as an independent cross-check of the reduced path; unknowns are
    (state, control, adjoint) with the state/adjoint blocks restricted to
    the boundary-vanishing dofs.  The block system is nonsymmetric and is
    solved by sparse LU; the report holds its true relative residual
    ||K s - rhs|| / ||rhs||.
    """
    free = problem.vh_free
    A, M = problem.A, problem.M
    alpha = problem.alpha
    A_ff = A[free][:, free]
    A_fq = A[free]
    M_ff = M[free][:, free]
    M_fq = M[free]

    K = sp.bmat(
        [
            [A_ff, A_fq, None],
            [-M_ff, -M_fq, A_ff],
            [M_fq.T, alpha * A + M, -A_fq.T],
        ],
        format="csc",
    )
    rhs = np.concatenate(
        [problem.load_f[free], -problem.load_ud[free], problem.load_ud]
    )
    sol = spla.spsolve(K, rhs)
    nf = len(free)
    n = problem.disc.dofmap.n_dofs
    u_f = np.zeros(n)
    u_f[free] = sol[:nf]
    q = sol[nf : nf + n]
    phi = np.zeros(n)
    phi[free] = sol[nf + n :]
    rel = float(np.linalg.norm(K @ sol - rhs)) / max(float(np.linalg.norm(rhs)), _TINY)
    return _solution(problem, u_f, q, phi, SolveReport("lu", 0, rel, rel <= 1e-10))
