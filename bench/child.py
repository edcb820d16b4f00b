"""One study in a fresh interpreter, timed from the outside in.

Run by ``run.py``; not meant to be called by hand.  It imports c0ip from the
given source tree, optionally installs the tracer, calls the public CLI
entry ``c0ip.cli.main(["run", config])`` and writes a JSON result: exit
status, wall times, peak RSS, CPU time, the runtime environment and, when
traced, the spans.

``--setup-only`` stops at the call into ``run_study``: it measures the
interpreter start, ``import c0ip`` and the config parse and nothing more.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path


class _SetupDone(BaseException):
    """Raised at the call into run_study when only set-up is measured."""


def _blas_threads():
    """Thread count of every OpenBLAS library loaded into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import c0ip.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"c0ip imported from {cli.__file__}, not from {args.src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    run_study = cli.run_study

    def run_study_entry(*a, **kw):
        marks["run_study"] = time.monotonic()
        if args.setup_only:
            raise _SetupDone
        return run_study(*a, **kw)

    cli.run_study = run_study_entry

    t0 = time.monotonic()
    try:
        status = cli.main(["run", args.config])
    except _SetupDone:
        status = 0
    t1 = time.monotonic()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    import scipy

    result = {
        "status": status,
        "study_s": t1 - t0,
        "setup_s": marks["run_study"] - args.spawned_at if "run_study" in marks else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads": _blas_threads(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
