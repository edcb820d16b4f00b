"""Test-side references for the control solver: the discrete cost and the
monolithic block solve.

Both use the package's assembled ``problem.A``, ``problem.M`` and loads, so
they are not oracles (``oracle.py`` never uses the package's assembly).
They check the reduced path against quantities a solve does not need: the
cost the optimal control minimizes, and the three-by-three block system the
reduced system was eliminated from.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from c0ip.control import _TINY, KktSolution, forward_solve, kkt_residuals
from c0ip.fem import QuadratureRule
from c0ip.linalg import SolveReport


def vh_free(problem):
    """The dofs of V_h: every dof off the boundary."""
    dofmap = problem.disc.dofmap
    return np.setdiff1d(np.arange(dofmap.n_dofs), dofmap.boundary_dof_ids)


def tracking_constant(problem):
    """int u_d^2 dx by degree-16 quadrature: the constant part of the tracking term."""
    disc = problem.disc
    rule = QuadratureRule.triangle(16)
    pts = disc.geom.to_physical(rule.points)
    vals = np.broadcast_to(
        np.asarray(problem.u_d(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
    )
    return float(2.0 * disc.geom.area @ (vals**2 @ rule.weights))


def objective(problem, p_h):
    """Discrete cost: tracking misfit plus the alpha-weighted form energy."""
    u = forward_solve(problem, p_h) + p_h
    track = float(u @ (problem.M @ u) - 2.0 * (u @ problem.load_ud)) + tracking_constant(
        problem
    )
    reg = float(p_h @ (problem.A @ p_h))
    return 0.5 * track + 0.5 * problem.alpha * reg


def solve_kkt_monolithic(problem):
    """Direct solve of the assembled three-by-three block system.

    Unknowns are (state, control, adjoint) with the state/adjoint blocks
    restricted to the boundary-vanishing dofs.  The block system is
    nonsymmetric and is solved by sparse LU; the report holds its true
    relative residual ||K s - rhs|| / ||rhs||.
    """
    free = vh_free(problem)
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
    return KktSolution(
        u_f_h=u_f,
        q_h=q,
        phi_h=phi,
        u_h=u_f + q,
        residuals=kkt_residuals(problem, u_f, q, phi),
        report=SolveReport("lu", 0, rel, rel <= 1e-10),
    )
