"""Fast tests of the benchmark harness, tracer and checker (smoke size).

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checker_accepts_frozen_and_rejects_perturbed(name, smoke):
    expected = run.load_expected(smoke)
    assert run.checker_self_test(expected, run.WORKLOADS[name]) is None


def test_invariants_reject_nonpositive_error_and_large_defect():
    rows = run.load_expected(False)["ch-reference"]["0"]
    bad = [dict(r) for r in rows]
    bad[1]["err_h"] = 0.0
    problems = check.check_invariants(
        {"compatibility_defect": "2e-8"}, bad, rows, 0.05, has_compat=True)
    assert len(problems) == 2


def test_jittered_hexagon_is_seeded_and_bounded():
    assert run.jittered_hexagon(3) == run.jittered_hexagon(3)
    assert run.jittered_hexagon(3) != run.jittered_hexagon(4)
    for k, (x, y) in enumerate(run.jittered_hexagon(5)):
        assert abs(math.hypot(x, y) - 1.0) <= 0.05 + 1e-12
        offset = (math.atan2(y, x) - k * math.pi / 3 + math.pi) % (2 * math.pi) - math.pi
        assert abs(offset) <= 0.08 + 1e-12


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_end_to_end_unfrozen_seed():
    proc = _bench("--workload", "ch-reference", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.MIN_STUDIES
    assert set(out["metrics"]) == {"study_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_reports_every_layer_metric():
    proc = _bench("--workload", "control-cg", "--seed", str(run.HELD_OUT_SEED),
                  "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] and out["attempted"] == len(run.WORKLOADS) + 1
    assert set(out["metrics"]) == set(run.LAYER_METRICS)


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "plate-exact", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
