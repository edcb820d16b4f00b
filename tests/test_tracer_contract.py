"""The benchmark's tracer must find every layer function it wraps.

``bench/tracer.py`` wraps c0ip functions by module and name and refuses to
run when a name is missing or a binding escapes it; a refactor that deletes
or rebinds a traced name would otherwise surface only in the benchmark's
own test run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_current_sources():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "import c0ip.cli\n"
        "import tracer\n"
        "tracer.Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
