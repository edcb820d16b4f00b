"""The benchmark's frozen values, checked at smoke size on every test run.

For each benchmark workload at seeds 0 and 7 this writes the smoke inputs
with ``bench/run.py``'s ``write_inputs``, runs ``c0ip run`` in-process and
asserts that ``check_csv`` finds nothing wrong.  Smoke size (levels 1..2,
reference level 3) cannot catch roundoff drift in the level-7 reference
solve: a sparse LU reference passes here yet moves the full-size level-5
``err_l2`` by 4e-5 relative, past the checker's 1e-5.  The bit-identity test
of the banded factor in ``test_linalg.py`` is the guard for that.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

from c0ip.cli import main  # noqa: E402


@pytest.mark.parametrize("seed", [0, bench_run.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(bench_run.WORKLOADS))
def test_smoke_csv_matches_frozen_values(name, seed, tmp_path):
    workload = bench_run.WORKLOADS[name]
    cfg, csv_path = bench_run.write_inputs(workload, seed, True, tmp_path)
    assert main(["run", str(cfg)]) == 0
    expected = bench_run.load_expected(True)
    assert bench_run.check_csv(csv_path, workload, seed, expected, True) == []
