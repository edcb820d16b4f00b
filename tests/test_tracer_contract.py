"""The benchmark's tracer must find every layer function it wraps.

``bench/tracer.py`` wraps c0ip functions by module and name and refuses to
run when a name is missing or a binding escapes it; a refactor that deletes
or rebinds a traced name would otherwise surface only in the benchmark's
own test run.  A wrapped name that is no longer called (say, a function
inlined into its caller) installs cleanly but never fires, so the three
benchmark workloads are also run at smoke size under the tracer, and the
control's reduced-CG solves must appear as solve spans.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(body, *args):
    code = textwrap.dedent(
        f"""\
        import sys
        sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]
        import c0ip.cli
        import tracer
        t = tracer.Tracer()
        t.install()
        """
    ) + textwrap.dedent(body)
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_current_sources():
    proc = _run_traced("")
    assert proc.returncode == 0, proc.stderr


def test_every_traced_span_fires_on_smoke_workloads(tmp_path):
    proc = _run_traced(
        """\
        from pathlib import Path
        import run
        for name, workload in sorted(run.WORKLOADS.items()):
            cfg, _ = run.write_inputs(workload, 0, True, Path(sys.argv[1]))
            assert c0ip.cli.main(["run", str(cfg)]) == 0, name
        fired = {span["name"] for span in t.spans}
        missing = sorted({name for name, *_ in tracer.TARGETS} - fired)
        assert not missing, f"spans that never fired: {missing}"

        def ancestors(span):
            while span["parent"] is not None:
                span = t.spans[span["parent"]]
                yield span["name"]

        # the control's factors solve through the one traced ``solve``
        assert any(
            span["name"] == "linalg.solve" and "control.hessian_apply" in ancestors(span)
            for span in t.spans
        ), "no linalg.solve span under control.hessian_apply"
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
