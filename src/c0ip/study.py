"""Manufactured solutions, error norms, and convergence-order studies.

Cases with a closed-form solution measure errors against the exact fields;
cases without one (general domains, the control problem) measure
self-convergence against a finer reference solve.  Under red refinement the
dof numbering of a coarse level is a prefix of every finer level, so the
nodal restriction of a reference vector is an exact array slice.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cahn_hilliard as ch
from . import control as ctl
from .c0ip import (
    NORM_NAMES,
    Discretization,
    assemble_load,
    combine_norms,
    edge_points,
    edge_side_data,
    matrix_norms,
)
from .fem import P2, QuadratureRule
from .linalg import cholesky_solve
from .mesh import built_in_polygon, mesh_hierarchy

__all__ = [
    "ExactField",
    "ManufacturedCase",
    "CASES",
    "get_case",
    "error_l2",
    "error_h",
    "eoc",
    "ConvergenceReport",
    "run_study",
    "restrict_to_level",
    "MAX_REFERENCE_LEVEL",
]

# assembly stays at degree 6; error integrands of non-polynomial fields
# need a much finer rule to keep measurement error out of the EOC columns
_TRI_RULE = QuadratureRule.triangle(16)
_EDGE_RULE = QuadratureRule.interval(19)
# finest mesh level a reference solve may use
MAX_REFERENCE_LEVEL = 8


@dataclass(frozen=True)
class ExactField:
    value: Callable
    gradient: Callable     # returns (du/dx, du/dy)
    laplacian: Callable


@dataclass(frozen=True)
class ManufacturedCase:
    name: str
    problem: str                     # clamped-plate | cahn-hilliard | dirichlet-control
    description: str
    data: dict
    exact: Optional[ExactField] = None
    domains: Optional[tuple] = None  # None: any convex polygon


def _bubble_value(x, y):
    return x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2


def _bubble_gradient(x, y):
    X = x**2 * (1 - x) ** 2
    Y = y**2 * (1 - y) ** 2
    Xp = 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
    Yp = 2 * y * (1 - y) ** 2 - 2 * y**2 * (1 - y)
    return Xp * Y, X * Yp


def _bubble_laplacian(x, y):
    X = x**2 * (1 - x) ** 2
    Y = y**2 * (1 - y) ** 2
    Xpp = 2 - 12 * x + 12 * x**2
    Ypp = 2 - 12 * y + 12 * y**2
    return Xpp * Y + X * Ypp


def _bubble_biharmonic(x, y):
    X = x**2 * (1 - x) ** 2
    Y = y**2 * (1 - y) ** 2
    Xpp = 2 - 12 * x + 12 * x**2
    Ypp = 2 - 12 * y + 12 * y**2
    return 24 * Y + 24 * X + 2 * Xpp * Ypp


_PI = np.pi


def _cos_value(x, y):
    return np.cos(_PI * x) * np.cos(_PI * y) - 1.0


def _cos_gradient(x, y):
    return (
        -_PI * np.sin(_PI * x) * np.cos(_PI * y),
        -_PI * np.cos(_PI * x) * np.sin(_PI * y),
    )


def _cos_laplacian(x, y):
    return -2.0 * _PI**2 * np.cos(_PI * x) * np.cos(_PI * y)


def _cos_source(x, y):
    return 4.0 * _PI**4 * np.cos(_PI * x) * np.cos(_PI * y)


def _cos_flux(x, y, nx, ny):
    # normal derivative of the Laplacian of the cosine field
    gx = 2.0 * _PI**3 * np.sin(_PI * x) * np.cos(_PI * y)
    gy = 2.0 * _PI**3 * np.cos(_PI * x) * np.sin(_PI * y)
    return gx * nx + gy * ny


CASES = {
    "bubble": ManufacturedCase(
        name="bubble",
        problem="clamped-plate",
        description="polynomial bubble with clamped boundary on the unit square",
        data={"f": _bubble_biharmonic},
        exact=ExactField(_bubble_value, _bubble_gradient, _bubble_laplacian),
        domains=("unit-square",),
    ),
    "cosine": ManufacturedCase(
        name="cosine",
        problem="cahn-hilliard",
        description="cosine product with zero flux, pinned at the origin",
        data={"g1": _cos_source, "g2": lambda x, y: np.zeros_like(np.asarray(x, dtype=float))},
        exact=ExactField(_cos_value, _cos_gradient, _cos_laplacian),
        domains=("unit-square",),
    ),
    "cosine-flux": ManufacturedCase(
        name="cosine-flux",
        problem="cahn-hilliard",
        description="cosine source with its normal flux data; reference-based errors",
        data={"g1": _cos_source, "g2": _cos_flux},
        exact=None,
        domains=None,
    ),
    "reference": ManufacturedCase(
        name="reference",
        problem="dirichlet-control",
        description="smooth data f=1, u_d=x(1-x)y(1-y); reference-based errors",
        data={"f": lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
              "u_d": lambda x, y: x * (1 - x) * y * (1 - y)},
        exact=None,
        domains=None,
    ),
    "zero": ManufacturedCase(
        name="zero",
        problem="dirichlet-control",
        description="zero data; the unique solution is the zero triple",
        data={"f": lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
              "u_d": lambda x, y: np.zeros_like(np.asarray(x, dtype=float))},
        exact=None,
        domains=None,
    ),
}


def get_case(name):
    try:
        return CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise KeyError(f"unknown manufactured case {name!r} (available: {known})") from None


# ---------------------------------------------------------------------------
# error norms against exact fields
# ---------------------------------------------------------------------------

def error_l2(v, exact_value, disc):
    """L2 norm of v_h minus the exact field, by triangle quadrature."""
    geom = disc.geom
    pts = geom.to_physical(_TRI_RULE.points)
    vh = v[disc.dofmap.cell_dofs] @ P2.values(_TRI_RULE.points).T
    diff = vh - exact_value(pts[..., 0], pts[..., 1])
    return float(np.sqrt(2.0 * geom.area @ (diff**2 @ _TRI_RULE.weights)))


def _error_h_sq(v, exact, disc, groups):
    """Squared h-norm error: broken Laplacian part plus sigma-weighted jumps."""
    mesh, geom = disc.mesh, disc.geom
    pts = geom.to_physical(_TRI_RULE.points)
    lap_disc = np.einsum("tb,tb->t", geom.laplacians(), v[disc.dofmap.cell_dofs])
    diff = exact.laplacian(pts[..., 0], pts[..., 1]) - lap_disc[:, None]
    vol = float(2.0 * geom.area @ (diff**2 @ _TRI_RULE.weights))

    bnd, im, ip = groups
    w = _EDGE_RULE.weights
    jump_b = np.einsum("eiq,ei->eq", bnd.dn, v[bnd.dofs])
    # exact normal derivative on boundary edges
    pts_b = edge_points(mesh, bnd.edges, _EDGE_RULE)
    gx, gy = exact.gradient(pts_b[..., 0], pts_b[..., 1])
    n = mesh.edge_normal[bnd.edges]
    jump_b = jump_b - (
        np.broadcast_to(np.asarray(gx, dtype=float), pts_b.shape[:2]) * n[:, None, 0]
        + np.broadcast_to(np.asarray(gy, dtype=float), pts_b.shape[:2]) * n[:, None, 1]
    )
    jump_i = np.einsum("eiq,ei->eq", im.dn, v[im.dofs]) + np.einsum(
        "eiq,ei->eq", ip.dn, v[ip.dofs]
    )
    edge = disc.sigma * (float(np.sum((jump_b**2) @ w)) + float(np.sum((jump_i**2) @ w)))
    return vol + edge


def _error_mean_sq(v, exact, mesh, groups):
    """Squared |e|-weighted error of the Laplacian means over all edges."""
    bnd, im, ip = groups
    w = _EDGE_RULE.weights
    total = 0.0
    for sides, weights in (((bnd,), (1.0,)), ((im, ip), (0.5, 0.5))):
        edges = sides[0].edges
        mean_disc = np.zeros(len(edges))
        for g, mw in zip(sides, weights):
            mean_disc += mw * np.einsum("ei,ei->e", g.lap, v[g.dofs])
        pts = edge_points(mesh, edges, _EDGE_RULE)
        mean_ex = np.broadcast_to(
            np.asarray(exact.laplacian(pts[..., 0], pts[..., 1]), dtype=float),
            pts.shape[:2],
        )
        diff = mean_disc[:, None] - mean_ex
        total += float(mesh.edge_length[edges] ** 2 @ ((diff**2) @ w))
    return total


def _exact_errors(v, exact, disc, norms):
    """Errors of v_h against the exact fields, each squared piece computed once."""
    l2sq = hsq = meansq = None
    if "l2" in norms or "energy" in norms:
        # squaring is exact to undo: sqrt(x**2) == x in binary floating point
        l2sq = error_l2(v, exact.value, disc) ** 2
    if any(n in norms for n in ("h", "energy", "qh")):
        groups = edge_side_data(disc, rule=_EDGE_RULE)
        hsq = _error_h_sq(v, exact, disc, groups)
        if "qh" in norms:
            meansq = _error_mean_sq(v, exact, disc.mesh, groups)
    return combine_norms(norms, l2sq, hsq, meansq)


def error_h(v, exact, disc):
    """Broken h-norm of v_h minus the exact field."""
    return _exact_errors(v, exact, disc, ("h",))["h"]


# ---------------------------------------------------------------------------
# EOC and reports
# ---------------------------------------------------------------------------

def eoc(errors, hs):
    """Orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}) between consecutive rows."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must align")
    out = []
    for i in range(len(errors) - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1])))
    return out


@dataclass(frozen=True)
class StudyRow:
    level: int
    h: float
    ndofs: int
    errors: dict
    solver_iters: int
    seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    case: str
    problem: str
    domain: str
    sigma: float
    alpha: Optional[float]
    norms: tuple
    rows: list
    eoc: dict
    compatibility_defect: Optional[float] = None
    reference_level: Optional[int] = None

    def to_csv(self, build_id="unknown"):
        lines = [
            "# c0ip convergence report",
            f"# case={self.case} problem={self.problem} domain={self.domain}",
            f"# sigma={_fmt(self.sigma)} alpha={_fmt(self.alpha) if self.alpha is not None else 'n/a'}"
            f" build={build_id}",
        ]
        if self.reference_level is not None:
            lines.append(f"# reference_level={self.reference_level}")
        if self.compatibility_defect is not None:
            lines.append(f"# compatibility_defect={_fmt(self.compatibility_defect)}")
        err_cols = [f"err_{n}" for n in self.norms]
        eoc_cols = [f"eoc_{n}" for n in self.norms]
        lines.append(
            ",".join(["level", "h", "ndofs"] + err_cols + eoc_cols + ["solver_iters", "seconds"])
        )
        for i, row in enumerate(self.rows):
            errs = [_fmt(row.errors[n]) for n in self.norms]
            rates = ["" if i == 0 else _fmt(self.eoc[n][i - 1]) for n in self.norms]
            lines.append(
                ",".join(
                    [str(row.level), _fmt(row.h), str(row.ndofs)]
                    + errs
                    + rates
                    + [str(row.solver_iters), f"{row.seconds:.3f}"]
                )
            )
        return "\n".join(lines) + "\n"

    def final_eoc_line(self):
        if len(self.rows) < 2:
            return "eoc: n/a (single level)"
        parts = [f"{n}={_fmt(self.eoc[n][-1])}" for n in self.norms]
        last = self.rows[-1]
        return f"final eoc (level {self.rows[-2].level}->{last.level}): " + " ".join(parts)


def _fmt(x):
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# running studies
# ---------------------------------------------------------------------------

def _solve_case_on_mesh(case, mesh, sigma, alpha):
    """One solve on a new discretization of ``mesh``.

    Returns (discretization, coefficients, iterations, extra) for the case.
    """
    disc = Discretization(mesh, sigma)
    if case.problem == "clamped-plate":
        A = disc.A
        b = assemble_load(disc, case.data["f"])
        x, _ = cholesky_solve(A, b, disc.dofmap.boundary_dof_ids)
        return disc, x, 0, {}
    if case.problem == "cahn-hilliard":
        prob = ch.ChProblem(disc, case.data["g1"], case.data["g2"])
        sol = ch.solve_ch(prob)
        return disc, sol.psi_h, 0, {"compatibility_defect": prob.compatibility_defect}
    if case.problem == "dirichlet-control":
        prob = ctl.ControlProblem(disc, case.data["f"], case.data["u_d"], alpha=alpha)
        sol = ctl.solve_kkt(prob)
        return disc, sol.q_h, sol.report.iterations, {}
    raise ValueError(f"unknown problem kind {case.problem!r}")


def restrict_to_level(fine_coeffs, coarse_dofmap):
    """Nodal restriction of a finer-level vector: an exact prefix slice."""
    return np.asarray(fine_coeffs)[: coarse_dofmap.n_dofs].copy()


# errors against a finer reference solve: matrix norms of the restricted difference
_reference_errors = matrix_norms


def run_study(
    case,
    levels,
    sigma=10.0,
    alpha=0.1,
    norms=None,
    domain=None,
    reference_level=None,
):
    """Solve a manufactured case across a refinement hierarchy.

    Exact-field cases measure errors against the closed form; the others
    solve once more on a finer reference level and measure the restricted
    difference.  Returns a ConvergenceReport.
    """
    if isinstance(case, str):
        case = get_case(case)
    levels = sorted(int(l) for l in levels)
    if len(levels) < 1 or levels[0] < 1:
        raise ValueError("levels must be a nonempty list of integers >= 1")
    domain = domain or "unit-square"
    if case.domains is not None and domain not in case.domains:
        raise ValueError(
            f"case {case.name!r} is defined on {case.domains}, not {domain!r}"
        )
    needs_reference = case.exact is None
    if needs_reference and reference_level is None:
        reference_level = levels[-1] + 2
    if needs_reference and reference_level <= levels[-1]:
        raise ValueError("reference level must exceed the finest study level")
    if needs_reference and reference_level > MAX_REFERENCE_LEVEL:
        raise ValueError(
            f"reference level {reference_level} exceeds the maximum of "
            f"{MAX_REFERENCE_LEVEL}; the default is the finest study level + 2, "
            "so choose coarser study levels or an explicit reference level"
        )
    norms = tuple(norms) if norms else NORM_NAMES
    for n in norms:
        if n not in NORM_NAMES:
            raise ValueError(f"unknown norm {n!r} (choose from {NORM_NAMES})")

    polygon = built_in_polygon(domain) if isinstance(domain, str) else domain
    max_level = reference_level if needs_reference else levels[-1]
    hierarchy = mesh_hierarchy(polygon, max_level)
    h0 = hierarchy[0].h_max

    ref_coeffs = None
    compat = None
    if needs_reference:
        # the reference discretization is dropped here, before the study levels
        ref_coeffs, _, extra = _solve_case_on_mesh(
            case, hierarchy[reference_level], sigma, alpha
        )[1:]
        compat = extra.get("compatibility_defect")

    rows = []
    for lev in levels:
        t0 = time.perf_counter()
        disc, v, iters, extra = _solve_case_on_mesh(case, hierarchy[lev], sigma, alpha)
        seconds = time.perf_counter() - t0
        if needs_reference:
            diff = v - restrict_to_level(ref_coeffs, disc.dofmap)
            errors = _reference_errors(diff, disc, norms)
        else:
            errors = _exact_errors(v, case.exact, disc, norms)
        compat = extra.get("compatibility_defect", compat)
        rows.append(
            StudyRow(
                level=lev,
                h=h0 / 2.0**lev,
                ndofs=disc.dofmap.n_dofs,
                errors=errors,
                solver_iters=iters,
                seconds=seconds,
            )
        )

    hs = [r.h for r in rows]
    rates = {n: eoc([r.errors[n] for r in rows], hs) for n in norms}
    return ConvergenceReport(
        case=case.name,
        problem=case.problem,
        domain=domain if isinstance(domain, str) else polygon.name,
        sigma=sigma,
        alpha=alpha if case.problem == "dirichlet-control" else None,
        norms=norms,
        rows=rows,
        eoc=rates,
        compatibility_defect=compat,
        reference_level=reference_level if needs_reference else None,
    )
