#!/usr/bin/env python3
"""Freeze the reference values the benchmark's correctness check compares to.

    python3 bench/freeze.py

Runs every workload, in full and smoke size, on seed 0 and on the held-out
seed (seed 0 only for unseeded workloads), and writes the parsed CSV rows
to ``bench/expected.json``.  Run it only on the commit whose results are
the reference; a later change must match these values, not re-freeze them.
"""

import json
import shutil
import sys
import time

import check
import run


def main():
    run.WORK.mkdir(exist_ok=True)
    out = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        out[mode] = {}
        for workload in run.WORKLOADS.values():
            seeds = (0, run.HELD_OUT_SEED) if workload.seeded else (0,)
            out[mode][workload.name] = {}
            for seed in seeds:
                workdir = run.WORK / f"freeze-{workload.name}-{seed}"
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir()
                config_path, csv_path = run.write_inputs(workload, seed, smoke, workdir)
                result = run.run_child(config_path, workdir, time.monotonic() + 600.0)
                comments, rows = check.parse_csv(csv_path.read_text())
                out[mode][workload.name][str(seed)] = rows
                print(f"{mode} {workload.name} seed {seed}: {result['study_s']:.2f} s, "
                      f"final eoc_l2 {rows[-1]['eoc_l2']}, "
                      f"compat {comments.get('compatibility_defect')}")
                shutil.rmtree(workdir)
    run.EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
