"""The benchmark's workloads run against this checkout.

Each workload of perfbench/workloads.py runs operation 0 of round 0, seed 5,
through its own prepare, run and check, so a change to the API the benchmark
builds on fails here, not only in a benchmark run.  perfbench/ is imported
read-only; its inputs go to a temporary directory.  Each workload also runs
once through perfbench/run.py with --trace 1, whose tracer imports every
module of the package, so a module that breaks on import fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operation_passes_its_check(tmp_path, name):
    w = WORKLOADS[name]
    op = w.prepare(inputs.round_rng(name, 5, 0), str(tmp_path / "r0"))[0]
    assert w.check(op, w.run(op)) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes(name):
    # one traced benchmark run of the workload, from the root of the
    # checkout as the benchmark runs it; it writes only to perfbench/work/
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
