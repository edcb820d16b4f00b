"""Batch front end: run configs, case listing, and mesh checking.

Configs are plain text, one ``key = value`` per line with ``#`` comments:

    problem = clamped-plate
    domain  = unit-square
    levels  = 2..5
    sigma   = 10
    output  = plate.csv

``c0ip run <config>`` writes the CSV convergence report and prints the final
EOC row; ``c0ip list-cases`` shows the manufactured cases; ``c0ip check-mesh
<domain> <levels>`` builds the hierarchy and verifies mesh invariants.
"""

import argparse
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .mesh import (
    BUILT_IN_DOMAINS,
    MeshError,
    built_in_polygon,
    load_polygon,
    mesh_hierarchy,
)
from .study import CASES, MAX_REFERENCE_LEVEL, NORM_NAMES, get_case, run_study

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

PROBLEMS = ("clamped-plate", "dirichlet-control", "cahn-hilliard")
_DEFAULT_CASE = {
    "clamped-plate": "bubble",
    "cahn-hilliard": "cosine",
    "dirichlet-control": "reference",
}


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    problem: str
    levels: tuple
    domain: str = "unit-square"
    sigma: float = 10.0
    alpha: float = 0.1
    case: Optional[str] = None
    output: Optional[str] = None
    norms: tuple = NORM_NAMES
    reference_level: Optional[int] = None

    @property
    def case_name(self):
        return self.case or _DEFAULT_CASE[self.problem]

    @property
    def output_path(self):
        return self.output or f"{self.problem}.csv"


def _parse_levels(text, where):
    """Level range from ``text``; errors name ``where`` it came from."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"{where}: levels must be 'a..b' or an integer") from None
    if not (1 <= lo <= hi <= 7):
        raise ConfigError(f"{where}: levels must lie within [1, 7]")
    return tuple(range(lo, hi + 1))


def parse_config(text):
    """Parse and validate a run configuration."""
    values = {}
    linenos = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
        linenos[key] = lineno

    known = {
        "problem", "domain", "levels", "sigma", "alpha",
        "case", "output", "norms", "reference-level",
    }
    for key in values:
        if key not in known:
            raise ConfigError(f"line {linenos[key]}: unknown key {key!r}")

    for required in ("problem", "levels"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")

    problem = values["problem"]
    if problem not in PROBLEMS:
        raise ConfigError(
            f"line {linenos['problem']}: problem must be one of {', '.join(PROBLEMS)}"
        )
    levels = _parse_levels(values["levels"], f"line {linenos['levels']}")

    sigma = 10.0
    if "sigma" in values:
        try:
            sigma = float(values["sigma"])
        except ValueError:
            raise ConfigError(f"line {linenos['sigma']}: sigma must be a number") from None
        if not sigma >= 1.0:
            raise ConfigError(f"line {linenos['sigma']}: sigma must be >= 1")
        if not np.isfinite(sigma):
            raise ConfigError(f"line {linenos['sigma']}: sigma must be finite")

    alpha = 0.1
    if "alpha" in values:
        try:
            alpha = float(values["alpha"])
        except ValueError:
            raise ConfigError(f"line {linenos['alpha']}: alpha must be a number") from None
        if not alpha > 0.0:
            raise ConfigError(f"line {linenos['alpha']}: alpha must be > 0")
        if not np.isfinite(alpha):
            raise ConfigError(f"line {linenos['alpha']}: alpha must be finite")

    case = values.get("case")
    if case is not None:
        if case not in CASES:
            raise ConfigError(f"line {linenos['case']}: unknown case {case!r}")
        if CASES[case].problem != problem:
            raise ConfigError(
                f"line {linenos['case']}: case {case!r} belongs to problem "
                f"{CASES[case].problem!r}"
            )

    norms = NORM_NAMES
    if "norms" in values:
        norms = tuple(s.strip() for s in values["norms"].replace(",", " ").split())
        bad = [n for n in norms if n not in NORM_NAMES]
        if bad or not norms:
            raise ConfigError(
                f"line {linenos['norms']}: norms must be a subset of {{{', '.join(NORM_NAMES)}}}"
            )
        repeated = sorted({n for n in norms if norms.count(n) > 1})
        if repeated:
            raise ConfigError(f"line {linenos['norms']}: repeated norm {', '.join(repeated)}")

    reference_level = None
    if "reference-level" in values:
        try:
            reference_level = int(values["reference-level"])
        except ValueError:
            raise ConfigError(
                f"line {linenos['reference-level']}: reference-level must be an integer"
            ) from None
        if reference_level <= levels[-1] or reference_level > MAX_REFERENCE_LEVEL:
            raise ConfigError(
                f"line {linenos['reference-level']}: reference-level must exceed the "
                f"finest level and be at most {MAX_REFERENCE_LEVEL}"
            )

    domain = values.get("domain", "unit-square")
    if domain not in BUILT_IN_DOMAINS and not Path(domain).exists():
        raise ConfigError(
            f"line {linenos['domain']}: domain must be a built-in name "
            f"({', '.join(sorted(BUILT_IN_DOMAINS))}) or a vertex-file path"
        )

    return RunConfig(
        problem=problem,
        levels=levels,
        domain=domain,
        sigma=sigma,
        alpha=alpha,
        case=case,
        output=values.get("output"),
        norms=norms,
        reference_level=reference_level,
    )


def build_identifier():
    """Version plus git describe when available."""
    base = f"c0ip-{__version__}"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{base}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return base


def run(config):
    """Execute one configured study; returns a process exit status."""
    try:
        domain = (
            config.domain
            if config.domain in BUILT_IN_DOMAINS
            else load_polygon(config.domain)
        )
        report = run_study(
            get_case(config.case_name),
            config.levels,
            sigma=config.sigma,
            alpha=config.alpha,
            norms=config.norms,
            domain=domain,
            reference_level=config.reference_level,
        )
    except Exception as exc:  # solver/config/mesh failures -> nonzero status
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = report.to_csv(build_id=build_identifier())
    path = Path(config.output_path)
    try:
        path.write_text(csv_text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    if report.compatibility_defect is not None:
        print(f"compatibility defect: {report.compatibility_defect:.6e}")
    print(report.final_eoc_line())
    print(f"wrote {path}")
    return 0


def _check_mesh(domain, levels):
    polygon = built_in_polygon(domain) if domain in BUILT_IN_DOMAINS else load_polygon(domain)
    hierarchy = mesh_hierarchy(polygon, levels[-1])
    print("level  vertices  triangles  edges  h            area_defect   checks")
    status = 0
    base_classes = None
    for lev in levels:
        mesh = hierarchy[lev]
        areas = mesh.triangle_areas()
        defect = abs(float(areas.sum()) - polygon.area)
        checks = []
        if np.any(areas <= 0):
            checks.append("NEGATIVE-AREA")
        if not np.allclose(np.hypot(*mesh.edge_normal.T), 1.0, atol=1e-14):
            checks.append("BAD-NORMALS")
        interior = ~mesh.is_boundary_edge
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        sign = np.einsum(
            "ij,ij->i",
            mesh.edge_normal[interior],
            cent[mesh.edge_t_plus[interior]] - cent[mesh.edge_t_minus[interior]],
        )
        if np.any(sign <= 0):
            checks.append("BAD-ORIENTATION")
        euler = mesh.n_vertices - mesh.n_edges + mesh.n_triangles
        if euler != 1:
            checks.append(f"EULER={euler}")
        classes = _similarity_classes(mesh)
        if base_classes is None:
            base_classes = classes
        elif not np.allclose(classes, base_classes, atol=1e-9):
            checks.append("SHAPE-DRIFT")
        if checks:
            status = 1
        print(
            f"{lev:>5}  {mesh.n_vertices:>8}  {mesh.n_triangles:>9}  {mesh.n_edges:>5}"
            f"  {mesh.h_max:<11.6g}  {defect:<12.3e}  {' '.join(checks) or 'ok'}"
        )
    return status


def _similarity_classes(mesh):
    v = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = v[:, (k + 1) % 3] - v[:, k]
        b = v[:, (k + 2) % 3] - v[:, k]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
        )
        angles.append(np.arccos(np.clip(cosang, -1, 1)))
    trip = np.sort(np.stack(angles, axis=1), axis=1)
    return np.unique(np.round(trip, 9), axis=0)


def _list_cases():
    for name in sorted(CASES):
        case = CASES[name]
        doms = ", ".join(case.domains) if case.domains else "any convex polygon"
        print(f"{name:<12} {case.problem:<18} [{doms}]  {case.description}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="c0ip",
        description="interior penalty solvers and convergence studies for "
        "fourth-order problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration file")
    p_run.add_argument("config", help="path to a key = value config file")

    sub.add_parser("list-cases", help="list the manufactured cases")

    p_mesh = sub.add_parser("check-mesh", help="build a hierarchy and verify invariants")
    p_mesh.add_argument("domain", help="built-in domain name or vertex-file path")
    p_mesh.add_argument("levels", help="level range 'a..b' or single level")

    args = parser.parse_args(argv)
    if args.command == "list-cases":
        return _list_cases()
    if args.command == "check-mesh":
        try:
            levels = _parse_levels(args.levels, "argument levels")
            return _check_mesh(args.domain, levels)
        except (ConfigError, MeshError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # run
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
