#!/usr/bin/env python3
"""Convergence-study benchmark of c0ip, end to end and layer by layer.

    python3 bench/run.py --workload ch-reference --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload plate-exact --seed 3 --trace 1 --smoke

One study is one closed-loop request: ``c0ip.cli.main(["run", cfg])`` in a
fresh interpreter (``child.py``), one study at a time and one client, so
the peak memory of a study process belongs to its workload.  The program
sees only the generated config and vertex file.

``--trace 0`` first runs ``SETUP_PROBES`` set-up-only processes, then
studies back to back until ``--seconds`` have passed (at least
``MIN_STUDIES``), and reports the end-to-end metrics.

``--trace 1`` ignores ``--seconds``.  It runs one untraced study of the
workload, then one traced study of every workload, because each layer is
measured on the workload where it matters (``LAYER_METRICS``); the
workload-dependent metrics come from the named workload.  It fails if any
traced function recorded no span on any workload, and writes the spans to
``.bench_work/trace-<workload>-seed<seed>.json``.

Every study's CSV is checked (``check.py``): for seed 0 and the held-out
seed ``HELD_OUT_SEED`` against the values ``freeze.py`` took from commit
3074835 (the code before any optimisation), against invariants for any
other seed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs levels 1..2 with reference level 3, so the
harness, tracer and checker can be exercised in seconds.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

HELD_OUT_SEED = 7
SETUP_PROBES = 6
MIN_STUDIES = 2
RUN_LIMIT_S = 170.0  # every child process ends within this, from the start of the run


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    seeded: bool         # domain is a jittered hexagon generated from the seed
    reference_level: int  # 0 for exact-error cases
    eoc_window: float    # invariant check: |final eoc_l2 - frozen| for unfrozen seeds
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plate-exact",
            {"problem": "clamped-plate", "case": "bubble", "domain": "unit-square",
             "levels": "2..6"},
            seeded=False,
            reference_level=0,
            eoc_window=0.0,
            why="exact-error path (degree-16 triangle, 10-point edge rules, edge tables "
            "rebuilt per norm) is two thirds of the work and factors are small; unseeded "
            "because the bubble solution is defined on the unit square only",
        ),
        Workload(
            "ch-reference",
            {"problem": "cahn-hilliard", "case": "cosine-flux", "levels": "2..5"},
            seeded=True,
            reference_level=7,
            eoc_window=0.4,
            why="one level-7 reference factorization (131,841 dofs) dominates time and "
            "peak memory; the compatibility check and edge building are visible too",
        ),
        Workload(
            "control-cg",
            {"problem": "dirichlet-control", "case": "reference", "levels": "2..4",
             "alpha": "0.0001", "reference-level": "6"},
            seeded=True,
            reference_level=6,
            eoc_window=0.2,
            why="38-48 reduced-CG iterations per level make hundreds of triangular "
            "solves dominate, with factoring a sixth: linalg used the opposite way",
        ),
    )
}
SMOKE_LEVELS = "1..2"
SMOKE_REFERENCE_LEVEL = 3

# per-layer metric -> (unit, workload it is taken from; None: the named workload)
LAYER_METRICS = {
    "mesh.refine_s": ("s", "ch-reference"),
    "mesh.build_edges_s": ("s", "ch-reference"),
    "mesh.triangles": ("count", "ch-reference"),
    "fem.dofmap_calls": ("count", None),
    "c0ip.assemble_a_h_s": ("s", None),
    "c0ip.assemble_a_h_calls": ("count", None),
    "c0ip.edge_side_data_s": ("s", "plate-exact"),
    "c0ip.edge_side_data_calls": ("count", "plate-exact"),
    "c0ip.norm_matrix_s": ("s", "ch-reference"),
    "c0ip.norm_matrix_calls": ("count", "ch-reference"),
    "c0ip.load_s": ("s", None),
    "linalg.factor_s": ("s", "ch-reference"),
    "linalg.factor_calls": ("count", "ch-reference"),
    "linalg.factor_dofs": ("count", "ch-reference"),
    "linalg.factor_rss_mb": ("MB", "ch-reference"),
    "linalg.solve_s": ("s", "control-cg"),
    "linalg.solve_calls": ("count", "control-cg"),
    "linalg.cg_s": ("s", "control-cg"),
    "linalg.cg_iters": ("count", "control-cg"),
    "linalg.constrain_s": ("s", "ch-reference"),
    "control.problem_s": ("s", "control-cg"),
    "control.hessian_apply_s": ("s", "control-cg"),
    "control.hessian_apply_calls": ("count", "control-cg"),
    "control.kkt_gradient_residual": ("rel", "control-cg"),
    "cahn_hilliard.compat_s": ("s", "ch-reference"),
    "cahn_hilliard.compat_calls": ("count", "ch-reference"),
    "cahn_hilliard.solve_s": ("s", "ch-reference"),
    "study.errors_s": ("s", "plate-exact"),
    "study.reference_s": ("s", "ch-reference"),
    "cli.report_s": ("s", None),
    "proc.cpu_s": ("s", None),
    "trace.overhead_frac": ("ratio", None),
}


class StudyFailed(Exception):
    pass


def jittered_hexagon(seed):
    """Regular unit hexagon, each vertex moved <= 0.08 rad in angle, <= 5 % in radius."""
    rng = random.Random(seed)
    points = []
    for k in range(6):
        angle = k * math.pi / 3.0 + rng.uniform(-0.08, 0.08)
        radius = 1.0 + rng.uniform(-0.05, 0.05)
        points.append((radius * math.cos(angle), radius * math.sin(angle)))
    return points


def write_inputs(workload, seed, smoke, workdir):
    """Config (and vertex file) for one workload; returns (config, csv) paths."""
    config = dict(workload.config)
    if workload.seeded:
        domain = workdir / f"hexagon-seed{seed}.txt"
        domain.write_text("".join(f"{x!r} {y!r}\n" for x, y in jittered_hexagon(seed)))
        config["domain"] = str(domain)
    if smoke:
        config["levels"] = SMOKE_LEVELS
        if workload.reference_level:
            config["reference-level"] = str(SMOKE_REFERENCE_LEVEL)
    csv_path = workdir / f"{workload.name}.csv"
    config["output"] = str(csv_path)
    config_path = workdir / f"{workload.name}.cfg"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    return config_path, csv_path


def run_child(config_path, workdir, deadline, trace=False, setup_only=False):
    """Run child.py once; returns its result dict or raises StudyFailed."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--config", str(config_path), "--result", str(result_path),
           "--spawned-at", repr(spawned_at)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        raise StudyFailed("study process timed out") from None
    if proc.returncode != 0 or not result_path.exists():
        raise StudyFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    if result["status"] != 0:
        raise StudyFailed(f"c0ip run exited {result['status']}: {proc.stderr.strip()[-2000:]}")
    return result


def load_expected(smoke):
    return json.loads(EXPECTED.read_text())["smoke" if smoke else "full"]


def frozen_rows(expected, workload, seed):
    """Frozen rows for this seed, or None when only invariants apply."""
    rows = expected[workload.name]
    if not workload.seeded:
        return rows["0"]
    return rows.get(str(seed))


def check_csv(csv_path, workload, seed, expected, smoke):
    comments, rows = check.parse_csv(csv_path.read_text())
    frozen = frozen_rows(expected, workload, seed)
    if frozen is not None:
        return check.compare_frozen(rows, frozen)
    window = math.inf if smoke else workload.eoc_window
    return check.check_invariants(
        comments, rows, expected[workload.name]["0"], window,
        has_compat=workload.config["problem"] == "cahn-hilliard",
    )


def checker_self_test(expected, workload):
    """The frozen CSV must pass and a copy with err_l2 off by 1e-3 must not."""
    rows = expected[workload.name]["0"]
    _, parsed = check.parse_csv(check.to_csv(rows))
    if check.compare_frozen(parsed, rows):
        return "frozen CSV rejected"
    perturbed = [dict(r) for r in rows]
    perturbed[-1]["err_l2"] *= 1.0 + 1e-3
    _, parsed = check.parse_csv(check.to_csv(perturbed))
    if not check.compare_frozen(parsed, rows):
        return "CSV with err_l2 off by 1e-3 relative accepted"
    return None


def tail_percentile(values):
    """Highest of a few percentiles with >= 10 samples beyond it, or None."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(values, n=1000)[round(q * 10) - 1]
    return None


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(spans, reference_level):
    """Per-layer metrics of one traced study (totals include child spans)."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    by_name = {}
    for s in spans:
        s["self"] = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s["self"] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def values(name, key):
        return [s[key] for s in by_name.get(name, ())]

    by_id = {s["id"]: s for s in spans}

    def outermost_on_reference(s):
        if reference_level is None or s.get("level") != reference_level:
            return False
        parent = s["parent"]
        while parent is not None:
            if by_id[parent].get("level") == reference_level:
                return False
            parent = by_id[parent]["parent"]
        return True

    return {
        "mesh.refine_s": total("mesh.refine"),
        "mesh.build_edges_s": self_time("mesh.build_edges"),
        "mesh.triangles": sum(values("mesh.refine", "triangles")),
        "fem.dofmap_calls": count("fem.dofmap"),
        "c0ip.assemble_a_h_s": total("c0ip.assemble_a_h"),
        "c0ip.assemble_a_h_calls": count("c0ip.assemble_a_h"),
        "c0ip.edge_side_data_s": self_time("c0ip.edge_side_data"),
        "c0ip.edge_side_data_calls": count("c0ip.edge_side_data"),
        "c0ip.norm_matrix_s": total("c0ip.norm_matrix"),
        "c0ip.norm_matrix_calls": count("c0ip.norm_matrix"),
        "c0ip.load_s": total("c0ip.load"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.factor_calls": count("linalg.factor"),
        "linalg.factor_dofs": sum(values("linalg.factor", "dofs")),
        "linalg.factor_rss_mb": max(values("linalg.factor", "rss_growth_mb"), default=0.0),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.solve_calls": count("linalg.solve"),
        "linalg.cg_s": self_time("linalg.cg"),
        "linalg.cg_iters": sum(values("linalg.cg", "iters")),
        "linalg.constrain_s": total("linalg.constrain"),
        "control.problem_s": total("control.problem"),
        "control.hessian_apply_s": self_time("control.hessian_apply"),
        "control.hessian_apply_calls": count("control.hessian_apply"),
        "control.kkt_gradient_residual": max(
            values("control.solve_kkt", "kkt_gradient_residual"), default=0.0),
        # ChProblem construction minus its dof map: the compatibility check
        "cahn_hilliard.compat_s": self_time("cahn_hilliard.problem"),
        "cahn_hilliard.compat_calls": count("cahn_hilliard.problem"),
        "cahn_hilliard.solve_s": total("cahn_hilliard.solve"),
        "study.errors_s": total("study.errors"),
        "study.reference_s": sum(
            s["end"] - s["start"] for s in spans if outermost_on_reference(s)),
        # cli.run minus run_study and polygon loading: CSV text, build id, write
        "cli.report_s": self_time("cli.run"),
    }


def top_self_spans(spans, k=5):
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["self"]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def end_to_end_run(workload, seed, seconds, smoke, workdir, deadline, expected):
    config_path, csv_path = write_inputs(workload, seed, smoke, workdir)
    setups, studies, rss, problems = [], [], [], []
    env = None
    attempted = failed = 0
    for _ in range(SETUP_PROBES):
        try:
            result = run_child(config_path, workdir, deadline, setup_only=True)
        except StudyFailed as exc:
            return {}, {}, 1, 1, [f"set-up probe: {exc}"], env
        setups.append(result["setup_s"])
        env = result["env"]
    started = time.monotonic()
    while True:
        attempted += 1
        t0 = time.monotonic()
        try:
            result = run_child(config_path, workdir, deadline)
            found = check_csv(csv_path, workload, seed, expected, smoke)
        except StudyFailed as exc:
            found = [str(exc)]
        if found:
            failed += 1
            problems += [f"study {attempted}: {p}" for p in found]
        else:
            studies.append(result["study_s"])
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
        step = time.monotonic() - t0
        elapsed = time.monotonic() - started
        if attempted >= MIN_STUDIES and elapsed + step > seconds:
            break
        if time.monotonic() + 2 * step > deadline:
            break

    def median(values):
        return statistics.median(values) if values else None

    metrics = {
        "study_s": (median(studies), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    tail = tail_percentile(studies)
    notes = {
        "study_s": f"median of {len(studies)} studies "
        f"(min {min(studies, default=0):.4f}, max {max(studies, default=0):.4f}); "
        + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
           "no percentile has >= 10 samples beyond it (needs >= 20 studies)"),
        "setup_s": f"median of {len(setups)} set-ups ({SETUP_PROBES} set-up-only, "
        f"{len(studies)} from studies)",
        "peak_rss_mb": f"median over {len(rss)} studies, max {max(rss, default=0):.1f} MB",
    }
    return metrics, notes, attempted, failed, problems, env


def traced_run(workload, seed, smoke, workdir, deadline, expected):
    attempted = failed = 0
    problems = []
    per_workload = {}
    untraced = None
    env = None
    others = [n for n in WORKLOADS if n != workload.name]
    runs = [(workload.name, False), (workload.name, True)] + [(n, True) for n in others]
    for name, traced in runs:
        wl = WORKLOADS[name]
        sub = workdir / f"{'traced' if traced else 'untraced'}-{name}"
        sub.mkdir()
        config_path, csv_path = write_inputs(wl, seed, smoke, sub)
        attempted += 1
        try:
            result = run_child(config_path, sub, deadline, trace=traced)
            found = check_csv(csv_path, wl, seed, expected, smoke)
        except StudyFailed as exc:
            found = [str(exc)]
        if found:
            failed += 1
            problems += [f"{name} ({'traced' if traced else 'untraced'}): {p}" for p in found]
            continue
        env = result["env"]
        if not traced:
            untraced = result
            continue
        ref = (SMOKE_REFERENCE_LEVEL if smoke else wl.reference_level) or None
        layers = layer_metrics(result["spans"], ref)
        per_workload[name] = (result, layers)

    names = {t[0] for t in tracer.TARGETS}
    seen = {s["name"] for result, _ in per_workload.values() for s in result["spans"]}
    missing = sorted(names - seen)
    if missing:
        problems.append(f"no spans recorded on any workload for: {', '.join(missing)}")

    metrics, notes = {}, {}
    if len(per_workload) == len(WORKLOADS) and untraced is not None:
        own_result, own_layers = per_workload[workload.name]
        own_layers = dict(own_layers)
        own_layers["proc.cpu_s"] = untraced["cpu_s"]
        own_layers["trace.overhead_frac"] = own_result["study_s"] / untraced["study_s"] - 1.0
        for metric, (unit, source) in LAYER_METRICS.items():
            layers = own_layers if source is None else per_workload[source][1]
            metrics[metric] = (layers[metric], unit)
            notes[metric] = f"on {source or workload.name}"
        notes["trace.overhead_frac"] = (
            f"traced {own_result['study_s']:.4f} s vs untraced {untraced['study_s']:.4f} s")
        for name, (result, layers) in per_workload.items():
            print(f"-- traced {name}: study {result['study_s']:.4f} s, "
                  f"{len(result['spans'])} spans")
            for metric, value in layers.items():
                print(f"   {metric:<32} {value:.6g}")
            top = ", ".join(f"{n} {t:.3f} s" for n, t in top_self_spans(result["spans"]))
            print(f"   largest self time: {top}")
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {name: result["spans"] for name, (result, _) in per_workload.items()}))
        print(f"spans written to {spans_path}")
    return metrics, notes, attempted, failed, problems, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"levels {SMOKE_LEVELS}, reference level {SMOKE_REFERENCE_LEVEL}")
    args = parser.parse_args(argv)

    if not (SRC / "c0ip" / "cli.py").is_file():
        print(f"error: no c0ip source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    expected = load_expected(args.smoke)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            run = traced_run(workload, args.seed, args.smoke, workdir, deadline, expected)
        else:
            run = end_to_end_run(workload, args.seed, args.seconds, args.smoke, workdir,
                                 deadline, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, notes, attempted, failed, problems, env = run

    self_test = checker_self_test(expected, workload)
    if self_test:
        problems.append(f"checker self-test: {self_test}")
    correct = (failed == 0 and not problems and bool(metrics)
               and all(value is not None for value, _ in metrics.values()))

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}"
          f"  {'smoke' if args.smoke else 'full'}  ({workload.why})")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<32} {shown:>12} {unit:<6} {notes.get(name, '')}")
    print(f"{'failed_frac':<32} {failed / attempted:>12.6g} {'1':<6} "
          f"{failed} of {attempted} studies failed (exit status or correctness check)")
    print(f"checker self-test: {self_test or 'frozen CSV accepted, 1e-3 perturbed CSV rejected'}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
