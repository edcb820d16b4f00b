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
    edge_sides,
    edge_values,
    matrix_norms,
    triangle_values,
)
from .fem import P2, QuadratureRule
from .linalg import PositiveDefiniteError, cholesky_solve
from .mesh import BUILT_IN_DOMAINS, MeshError, Polygon, load_domain, mesh_hierarchy

__all__ = [
    "ExactField",
    "ManufacturedCase",
    "CASES",
    "DEFAULT_CASE",
    "get_case",
    "Study",
    "StudyError",
    "eoc",
    "ConvergenceReport",
    "run_study",
    "MAX_LEVEL",
    "MAX_REFERENCE_LEVEL",
]

# assembly stays at degree 6; error integrands of non-polynomial fields
# need a much finer rule to keep measurement error out of the EOC columns
_TRI_RULE = QuadratureRule.triangle(16)
_EDGE_RULE = QuadratureRule.interval(19)
# finest mesh level a study may solve on, and a reference solve may use
MAX_LEVEL = 7
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
        data={"g1": _cos_source, "g2": lambda x, y, nx, ny: 0.0},
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


# the case a problem kind runs when none is named; its keys are the problem kinds
DEFAULT_CASE = {
    "clamped-plate": "bubble",
    "dirichlet-control": "reference",
    "cahn-hilliard": "cosine",
}


class StudyError(ValueError):
    """A refused study input; ``key`` names the config key that sets it."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


class _UnknownCase(StudyError, KeyError):
    # a failed lookup in CASES, so also a KeyError, printed without quotes
    __str__ = StudyError.__str__


def _require(ok, key, message):
    if not ok:
        raise StudyError(key, message)


def get_case(name):
    try:
        return CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise _UnknownCase("case", f"unknown case {name!r} (available: {known})") from None


@dataclass(frozen=True)
class Study:
    """One convergence study: a case, its levels and domain, and its parameters.

    The constructor applies every default and refuses every bad input with
    a ``StudyError``.  ``case`` (a name or a ManufacturedCase) becomes the
    case, and ``domain`` (a built-in name, a vertex-file path or a Polygon)
    the Polygon; an exact-error case takes only its built-in domain, by
    name.  ``levels`` lie within [1, ``MAX_LEVEL``].  ``alpha`` (default
    0.1) is for control cases only and ``reference_level`` (default finest
    level + 2) for reference-based cases only; either is refused on any
    other case.
    """

    case: object
    levels: tuple
    domain: object = "unit-square"
    sigma: float = 10.0
    alpha: Optional[float] = None
    norms: tuple = NORM_NAMES
    reference_level: Optional[int] = None

    def __post_init__(self):
        case = get_case(self.case) if isinstance(self.case, str) else self.case
        levels = tuple(self.levels)
        _require(levels and all(isinstance(l, (int, np.integer)) and l >= 1 for l in levels),
                 "levels", "levels must be a nonempty list of integers >= 1")
        levels = tuple(sorted(int(l) for l in levels))
        _require(len(set(levels)) == len(levels), "levels",
                 f"levels must not repeat, got {list(levels)}")
        _require(self.sigma >= 1.0, "sigma", "sigma must be >= 1")
        _require(np.isfinite(self.sigma), "sigma", "sigma must be finite")

        alpha = self.alpha
        if case.problem == "dirichlet-control":
            alpha = 0.1 if alpha is None else alpha
            _require(alpha > 0.0, "alpha", "alpha must be > 0")
            _require(np.isfinite(alpha), "alpha", "alpha must be finite")
        else:
            _require(alpha is None, "alpha",
                     f"alpha is for dirichlet-control only, not case {case.name!r}")

        norms = tuple(self.norms)
        _require(norms and all(n in NORM_NAMES for n in norms), "norms",
                 f"norms must be a subset of {{{', '.join(NORM_NAMES)}}}")
        repeated = sorted({n for n in norms if norms.count(n) > 1})
        _require(not repeated, "norms",
                 f"repeated norm {', '.join(repeated)}: norms must not repeat")

        ref = self.reference_level
        if case.exact is not None:
            _require(ref is None, "reference-level", "reference-level is for "
                     f"reference-based cases only, not case {case.name!r}")
        elif ref is None:
            ref = levels[-1] + 2
            _require(ref <= MAX_REFERENCE_LEVEL, "levels",
                     f"reference level {ref} exceeds the maximum of {MAX_REFERENCE_LEVEL}; "
                     "the default is the finest study level + 2, so choose coarser study "
                     "levels or an explicit reference level")
        else:
            _require(isinstance(ref, (int, np.integer)), "reference-level",
                     f"reference-level must be an integer, got {ref!r}")
            _require(levels[-1] < ref <= MAX_REFERENCE_LEVEL, "reference-level",
                     "reference-level must exceed the finest level and be at most "
                     f"{MAX_REFERENCE_LEVEL}, got {ref}")

        domain = self.domain
        name = domain.name if isinstance(domain, Polygon) else str(domain)
        _require(case.domains is None or domain in case.domains, "domain",
                 f"case {case.name!r} is defined on {case.domains}, not {name!r}")
        if not isinstance(domain, Polygon):
            try:
                domain = load_domain(domain)
            except (OSError, MeshError) as exc:
                builtins = ", ".join(sorted(BUILT_IN_DOMAINS))
                raise StudyError("domain", f"domain must be a built-in name ({builtins}) "
                                 f"or a vertex file: {exc}") from None

        # checked last, so an input refused above keeps that message
        _require(levels[-1] <= MAX_LEVEL, "levels",
                 f"finest level {levels[-1]} exceeds the maximum of {MAX_LEVEL}")

        resolved = dict(case=case, levels=levels, domain=domain, alpha=alpha, norms=norms,
                        reference_level=ref)
        for key, value in resolved.items():
            object.__setattr__(self, key, value)


# ---------------------------------------------------------------------------
# error norms against exact fields
# ---------------------------------------------------------------------------

def _edge_error_sq(v, exact, disc, means):
    """Edge parts of the squared h-norm and Q_h-norm errors.

    Returns the squared normal-derivative jumps of v_h minus the exact field
    (its normal derivative on boundary edges) and, if ``means``, the
    |e|-weighted squared errors of the Laplacian means (else None).  Both
    integrands are evaluated on one pass of each group's tables.
    """
    mesh, w = disc.mesh, _EDGE_RULE.weights

    def jump(tables):
        jump = sum(np.einsum("eiq,ei->eq", t.dn, v[t.dofs]) for t in tables)
        if len(tables) == 1:  # a boundary edge: the exact field's normal derivative
            pts, nrm = tables[0].points, tables[0].normal
            gx, gy = exact.gradient(pts[..., 0], pts[..., 1])
            jump = jump - (gx * nrm[:, None, 0] + gy * nrm[:, None, 1])
        return jump**2

    def mean(tables):
        pts = tables[0].points
        mean_disc = sum((1.0 / len(tables)) * np.einsum("ei,ei->e", t.lap, v[t.dofs])
                        for t in tables)
        return (mean_disc[:, None] - exact.laplacian(pts[..., 0], pts[..., 1])) ** 2

    jump_sq, mean_sq = 0.0, 0.0 if means else None
    for sides in edge_sides(mesh):
        jump_e, *mean_e = edge_values(disc, sides, _EDGE_RULE, jump, *([mean] if means else []))
        jump_sq += float(np.sum(jump_e @ w))
        if means:
            mean_sq += float(mesh.edge_length[sides[0][0]] ** 2 @ (mean_e[0] @ w))
    return jump_sq, mean_sq


def _exact_errors(v, exact, disc, norms):
    """Errors of v_h against the exact fields, each squared piece computed once."""
    l2sq = hsq = meansq = None
    want_l2 = "l2" in norms or "energy" in norms
    want_h = any(n in norms for n in ("h", "energy", "qh"))
    geom, coeffs = disc.geom, v[disc.dofmap.cell_dofs]
    basis = P2.values(_TRI_RULE.points).T
    integrands = []
    if want_l2:
        integrands.append(lambda cells, x, y: (coeffs[cells] @ basis - exact.value(x, y)) ** 2)
    if want_h:
        integrands.append(lambda cells, x, y: (exact.laplacian(x, y) - np.einsum(
            "tb,tb->t", geom.laplacians(cells), coeffs[cells])[:, None]) ** 2)
    vol = [float(2.0 * geom.area @ (sq @ _TRI_RULE.weights))
           for sq in triangle_values(disc, _TRI_RULE, *integrands)]
    if want_l2:
        # squaring is exact to undo: sqrt(x**2) == x in binary floating point
        l2sq = float(np.sqrt(vol.pop(0))) ** 2
    if want_h:
        jump_sq, meansq = _edge_error_sq(v, exact, disc, "qh" in norms)
        hsq = vol[0] + disc.sigma * jump_sq
    return combine_norms(norms, l2sq, hsq, meansq)


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
    study: Study
    rows: list
    eoc: dict
    compatibility_defect: Optional[float] = None

    def to_csv(self, build_id="unknown"):
        study = self.study
        alpha = "n/a" if study.alpha is None else _fmt(study.alpha)
        lines = [
            "# c0ip convergence report",
            f"# case={study.case.name} problem={study.case.problem} domain={study.domain.name}",
            f"# sigma={_fmt(study.sigma)} alpha={alpha} build={build_id}",
        ]
        if study.reference_level is not None:
            lines.append(f"# reference_level={study.reference_level}")
        if self.compatibility_defect is not None:
            lines.append(f"# compatibility_defect={_fmt(self.compatibility_defect)}")
        norms = study.norms
        err_cols = [f"err_{n}" for n in norms]
        eoc_cols = [f"eoc_{n}" for n in norms]
        lines.append(
            ",".join(["level", "h", "ndofs"] + err_cols + eoc_cols + ["solver_iters", "seconds"])
        )
        for i, row in enumerate(self.rows):
            errs = [_fmt(row.errors[n]) for n in norms]
            rates = ["" if i == 0 else _fmt(self.eoc[n][i - 1]) for n in norms]
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
        parts = [f"{n}={_fmt(self.eoc[n][-1])}" for n in self.study.norms]
        last = self.rows[-1]
        return f"final eoc (level {self.rows[-2].level}->{last.level}): " + " ".join(parts)


def _fmt(x):
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# running studies
# ---------------------------------------------------------------------------

def _solve_case_on_mesh(case, mesh, sigma, alpha):
    """One solve on a new discretization of ``mesh``.

    Returns (discretization, coefficients, iterations) for the case.  A failed
    factorization is re-raised with the mesh level, problem kind and sigma.
    """
    disc = Discretization(mesh, sigma)
    try:
        if case.problem == "clamped-plate":
            A = disc.A
            b = assemble_load(disc, case.data["f"])
            x, _ = cholesky_solve(A, b, disc.dofmap.boundary_dof_ids)
            return disc, x, 0
        if case.problem == "cahn-hilliard":
            prob = ch.ChProblem(disc, case.data["g1"], case.data["g2"])
            psi, _ = ch.solve_ch(prob)
            return disc, psi, 0
        if case.problem == "dirichlet-control":
            prob = ctl.ControlProblem(disc, case.data["f"], case.data["u_d"], alpha=alpha)
            sol = ctl.solve_kkt(prob)
            return disc, sol.q_h, sol.report.iterations
    except PositiveDefiniteError as exc:
        raise PositiveDefiniteError(
            f"level {mesh.level} ({case.problem}, sigma {sigma:g}): {exc}"
        ) from exc
    raise ValueError(f"unknown problem kind {case.problem!r}")


# errors against a finer reference solve: matrix norms of the restricted difference
_reference_errors = matrix_norms


def run_study(study):
    """Solve a Study's case across its refinement hierarchy.

    Exact-field cases measure errors against the closed form; the others
    solve once more on the finer reference level and measure the restricted
    difference.  Returns a ConvergenceReport.
    """
    case, levels, sigma, alpha = study.case, study.levels, study.sigma, study.alpha
    reference_level, norms = study.reference_level, study.norms
    hierarchy = mesh_hierarchy(study.domain, reference_level or levels[-1])
    h0 = hierarchy[0].h_max

    compat = None
    if case.problem == "cahn-hilliard":
        # one check per study, on the last study level, whose defect the CSV prints
        compat = ch.check_compatibility(
            Discretization(hierarchy[levels[-1]], sigma), case.data["g1"], case.data["g2"]
        )

    ref_coeffs = None
    if reference_level is not None:
        # the reference discretization is dropped here, before the study levels
        ref_coeffs = _solve_case_on_mesh(case, hierarchy[reference_level], sigma, alpha)[1]

    rows = []
    for lev in levels:
        t0 = time.perf_counter()
        disc, v, iters = _solve_case_on_mesh(case, hierarchy[lev], sigma, alpha)
        seconds = time.perf_counter() - t0
        if reference_level is not None:
            diff = v - ref_coeffs[: disc.dofmap.n_dofs]
            errors = _reference_errors(diff, disc, norms)
        else:
            errors = _exact_errors(v, case.exact, disc, norms)
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
    return ConvergenceReport(study=study, rows=rows, eoc=rates, compatibility_defect=compat)
