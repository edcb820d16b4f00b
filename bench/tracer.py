"""Outside-in tracer: wraps c0ip's layer functions where they are looked up.

Several c0ip modules import functions by name (``from .linalg import
BandedCholesky``), so patching only the defining module would silently miss
those call sites.  ``Tracer.install`` therefore replaces every binding of a
traced function in every loaded ``c0ip`` module, wraps methods on their
class, and refuses to run if any binding of an original survives.

Spans (id, name, parent, start, end, plus a few attributes) are kept in
memory; the caller writes them out when the study ends.
"""

import functools
import os
import sys
import time

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2.0**20


def _rss_mb():
    # resident set size from the process's own statm (second field, pages)
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _level(args, result):
    """Refinement level of the largest mesh among the arguments or result."""
    levels = [
        obj.level
        for obj in (*args, result)
        if hasattr(obj, "triangles") and hasattr(obj, "level")
    ]
    return max(levels) if levels else None


def _refine_attrs(args, result):
    return {"level": result.level, "triangles": int(result.n_triangles)}


def _level_attrs(args, result):
    return {"level": _level(args, result)}


def _factor_attrs(args, result):
    return {"dofs": int(args[0].n)}


def _cg_attrs(args, result):
    return {"iters": int(result[1].iterations)}


def _kkt_attrs(args, result):
    return {"kkt_gradient_residual": float(result.residuals["gradient"])}


# (span name, module, attribute or Class.method, attribute extractor)
TARGETS = [
    ("cli.run", "c0ip.cli", "run", None),
    ("mesh.load_polygon", "c0ip.mesh", "load_polygon", None),
    ("mesh.hierarchy", "c0ip.mesh", "mesh_hierarchy", None),
    ("mesh.refine", "c0ip.mesh", "refine_uniform", _refine_attrs),
    ("mesh.build_edges", "c0ip.mesh", "build_edges", _level_attrs),
    ("fem.dofmap", "c0ip.fem", "build_dofmap", _level_attrs),
    ("c0ip.assemble_a_h", "c0ip.c0ip", "assemble_a_h", _level_attrs),
    ("c0ip.edge_side_data", "c0ip.c0ip", "edge_side_data", _level_attrs),
    ("c0ip.norm_matrix", "c0ip.c0ip", "assemble_volume_norm_matrix", _level_attrs),
    ("c0ip.norm_matrix", "c0ip.c0ip", "assemble_penalty_matrix", _level_attrs),
    ("c0ip.norm_matrix", "c0ip.c0ip", "assemble_mean_norm_matrix", _level_attrs),
    ("c0ip.mass", "c0ip.c0ip", "assemble_mass", _level_attrs),
    ("c0ip.load", "c0ip.c0ip", "assemble_load", _level_attrs),
    ("c0ip.load", "c0ip.c0ip", "assemble_boundary_load", _level_attrs),
    ("linalg.factor", "c0ip.linalg", "BandedCholesky.__init__", _factor_attrs),
    ("linalg.solve", "c0ip.linalg", "BandedCholesky.solve", None),
    ("linalg.cg", "c0ip.linalg", "cg_solve", _cg_attrs),
    ("linalg.constrain", "c0ip.linalg", "constrain", None),
    ("control.problem", "c0ip.control", "ControlProblem.__init__", _level_attrs),
    ("control.hessian_apply", "c0ip.control", "reduced_hessian_apply", None),
    ("control.solve_kkt", "c0ip.control", "solve_kkt", _kkt_attrs),
    ("cahn_hilliard.problem", "c0ip.cahn_hilliard", "ChProblem.__init__", _level_attrs),
    ("cahn_hilliard.solve", "c0ip.cahn_hilliard", "solve_ch", None),
    ("study.run_study", "c0ip.study", "run_study", None),
    ("study.solve_case", "c0ip.study", "_solve_case_on_mesh", _level_attrs),
    ("study.errors", "c0ip.study", "_exact_errors", _level_attrs),
    ("study.errors", "c0ip.study", "_reference_errors", _level_attrs),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, attrs, track_rss):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            if track_rss:
                rss0 = _rss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if track_rss:
                span["rss_growth_mb"] = _rss_mb() - rss0
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def install(self):
        """Wrap every target; raise if a target is missing or stays unwrapped."""
        modules = [m for n, m in sys.modules.items() if n == "c0ip" or n.startswith("c0ip.")]
        originals = []
        for name, module_name, attr, attrs in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn, attrs, name == "linalg.factor"))
                originals.append(fn)
                continue
            fn = getattr(module, attr)
            traced = self._wrap(name, fn, attrs, False)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
            originals.append(fn)
        stale = [
            f"{mod.__name__}.{key}"
            for mod in modules
            for key, value in vars(mod).items()
            if any(value is fn for fn in originals)
        ]
        if stale:
            raise RuntimeError(f"tracer left unwrapped bindings: {', '.join(stale)}")
