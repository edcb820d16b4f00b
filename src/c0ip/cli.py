"""Batch front end: run configs, case listing, and mesh checking.

Configs are plain text, one ``key = value`` per line with ``#`` comments:

    problem = clamped-plate
    domain  = unit-square
    levels  = 2..5
    sigma   = 10
    output  = plate.csv

``c0ip run <config>`` writes the CSV convergence report and prints the final
EOC row; ``c0ip list-cases`` shows the manufactured cases; ``c0ip check-mesh
<domain> <levels>`` builds the hierarchy and prints its sizes.  ``Polygon``
and ``build_edges`` refuse any mesh that breaks an invariant, so a hierarchy
that builds is valid.  Config and vertex files must be UTF-8 text, and
``output`` must not be a directory.
"""

import argparse
import subprocess
import sys
from pathlib import Path

from . import __version__
from .mesh import MeshError, load_domain, mesh_hierarchy
from .study import CASES, DEFAULT_CASE, MAX_LEVEL, Study, StudyError, get_case, run_study

__all__ = ["ConfigError", "parse_config", "run", "main"]

_KEYS = ("problem", "domain", "levels", "sigma", "alpha", "case", "output", "norms",
         "reference-level")


class ConfigError(ValueError):
    """Malformed run configuration."""


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
    if lo > hi:
        raise ConfigError(f"{where}: the lower level {lo} must not exceed the upper level {hi}")
    if not (1 <= lo <= hi <= MAX_LEVEL):
        raise ConfigError(f"{where}: levels must lie within [1, {MAX_LEVEL}]")
    return tuple(range(lo, hi + 1))


def parse_config(text):
    """The Study a run configuration describes, and the CSV path to write."""
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
        linenos[key] = f"line {lineno}"
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"{linenos[key]}: unknown key {key!r}")

    for required in ("problem", "levels"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    problem = values["problem"]
    if problem not in DEFAULT_CASE:
        raise ConfigError(
            f"{linenos['problem']}: problem must be one of {', '.join(DEFAULT_CASE)}"
        )

    given = {"levels": _parse_levels(values["levels"], linenos["levels"])}
    if "domain" in values:
        given["domain"] = values["domain"]
    if "norms" in values:
        given["norms"] = values["norms"].replace(",", " ").split()
    for key, kind in (("sigma", float), ("alpha", float), ("reference-level", int)):
        if key in values:
            try:
                given[key.replace("-", "_")] = kind(values[key])
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ConfigError(f"{linenos[key]}: {key} must be {noun}") from None
    try:
        case = get_case(values.get("case", DEFAULT_CASE[problem]))
        if case.problem != problem:
            raise StudyError("case", f"case {case.name!r} belongs to problem {case.problem!r}")
        study = Study(case, **given)
    except StudyError as exc:
        raise ConfigError(f"{linenos[exc.key]}: {exc}") from None
    output = values.get("output", f"{problem}.csv")
    where = f"{linenos['output']}: output" if "output" in values else "default output"
    folder = Path(output).parent
    if not folder.is_dir():
        raise ConfigError(f"{where} directory {str(folder)!r} does not exist")
    if Path(output).is_dir():
        raise ConfigError(f"{where} {output!r} is a directory")
    return study, output


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


def run(study, output):
    """Execute one study and write its CSV to ``output``; returns a process exit status."""
    try:
        report = run_study(study)
    except Exception as exc:  # solver and mesh failures -> nonzero status
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = report.to_csv(build_id=build_identifier())
    path = Path(output)
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
    polygon = load_domain(domain)
    hierarchy = mesh_hierarchy(polygon, levels[-1])
    print("level  vertices  triangles  edges  h            area_defect")
    for lev in levels:
        mesh = hierarchy[lev]
        defect = abs(float(mesh.triangle_areas().sum()) - polygon.area)
        print(
            f"{lev:>5}  {mesh.n_vertices:>8}  {mesh.n_triangles:>9}  {mesh.n_edges:>5}"
            f"  {mesh.h_max:<11.6g}  {defect:.3e}"
        )
    return 0


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

    p_mesh = sub.add_parser("check-mesh", help="build a hierarchy and print its sizes")
    p_mesh.add_argument("domain", help="built-in domain name or vertex-file path")
    p_mesh.add_argument("levels", help="level range 'a..b' or single level")

    args = parser.parse_args(argv)
    if args.command == "list-cases":
        return _list_cases()
    try:
        if args.command == "check-mesh":
            return _check_mesh(args.domain, _parse_levels(args.levels, "argument levels"))
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        study, output = parse_config(text)
    except (ConfigError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(study, output)


if __name__ == "__main__":
    sys.exit(main())
