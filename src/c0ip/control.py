"""Discrete Dirichlet-control optimality system and its forward/lift solves.

State and adjoint live in the boundary-vanishing space, the control in the
full P2 space.  The optimality system is solved in reduced form: eliminating
state and adjoint through direct inner solves leaves a symmetric positive
definite operator on the control space,

    H q = alpha A q + T' M T q,

where the lift T q = q + w adds to q the w in V_h with a(w, v) = -a(q, v)
for all v in V_h: T q has q's boundary values and is a-orthogonal to V_h.
H is driven by preconditioned CG (preconditioner alpha A + M).  A and M
are those of the problem's ``Discretization``.  The inner V_h solves use
one factor of A with the boundary dofs fixed inside it; its solves take and
return full-length vectors, zero on the boundary.  Both factors are
``SuperLUFactor``s, because each CG iteration solves three times (the
policy is stated in ``c0ip.linalg``).  ``solve_kkt`` constructs both
before it solves with either, so both definiteness verdicts come before
either LU factorization, which runs at its factor's first solve.  The
discrete cost and the assembled three-by-three block system, an
independent cross-check of the reduced path, live with the tests
(``tests/kkt_reference.py``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .c0ip import assemble_load
from .linalg import SolveReport, SuperLUFactor, cg_solve

__all__ = [
    "ControlProblem",
    "KktSolution",
    "forward_solve",
    "solve_kkt",
    "reduced_hessian_apply",
    "reduced_rhs",
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
        self.A = disc.A
        self.M = disc.M
        self.load_f = assemble_load(disc, f)
        self.load_ud = assemble_load(disc, u_d)

    @cached_property
    def state_factor(self):
        """Sparse LU factor of the stiffness matrix on V_h (boundary dofs fixed)."""
        return SuperLUFactor(self.A, self.disc.dofmap.boundary_dof_ids)

    @cached_property
    def precond_factor(self):
        """Sparse LU factor of alpha A + M (reduced-space preconditioner)."""
        return SuperLUFactor(self.alpha * self.A + self.M)

    # -- V_h solves ---------------------------------------------------------

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
    a_q = problem.A @ q
    lift_q = q + problem.state_factor.solve(-a_q)  # T q
    return problem.alpha * a_q + problem.lift_transpose_apply(problem.M @ lift_q)


def reduced_rhs(problem):
    """Right-hand side of the reduced system H q = reduced_rhs(problem).

    The gradient of the reduced cost at q is
    ``reduced_hessian_apply(problem, q) - reduced_rhs(problem)``.
    """
    uf0 = forward_solve(problem, None)
    return -problem.lift_transpose_apply(problem.M @ uf0 - problem.load_ud)


@dataclass(frozen=True)
class KktSolution:
    u_f_h: np.ndarray
    q_h: np.ndarray
    phi_h: np.ndarray
    u_h: np.ndarray
    residuals: dict
    report: SolveReport


def kkt_residuals(problem, u_f, q, phi):
    """Relative defects of the three optimality equations."""
    dofmap = problem.disc.dofmap
    free = np.setdiff1d(np.arange(dofmap.n_dofs), dofmap.boundary_dof_ids)  # V_h
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


def solve_kkt(problem):
    """Reduced-space solve of the discrete optimality system."""
    # construct both factors before solving with either: each builds its LU
    # at its first solve, so neither verdict band meets a finished LU
    precond = problem.precond_factor.solve
    q, report = cg_solve(
        lambda v: reduced_hessian_apply(problem, v),
        reduced_rhs(problem),
        tol=1e-10,
        max_iter=2000,
        precond=precond,
    )
    if not report.success:
        raise RuntimeError(
            f"reduced CG stagnated: {report.iterations} iterations, "
            f"relative residual {report.relative_residual:.3e}"
        )
    u_f = forward_solve(problem, q)
    u = u_f + q
    phi = problem.state_factor.solve(problem.M @ u - problem.load_ud)
    return KktSolution(
        u_f_h=u_f,
        q_h=q,
        phi_h=phi,
        u_h=u,
        residuals=kkt_residuals(problem, u_f, q, phi),
        report=report,
    )
