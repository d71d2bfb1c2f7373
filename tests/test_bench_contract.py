"""The benchmark's workloads run against this checkout.

Each workload of perfbench/workloads.py runs operation 0 of round 0, seed 5,
through its own prepare, run and check, so a change to the API the benchmark
builds on fails here, not only in a benchmark run.  perfbench/ is imported
read-only; its inputs go to a temporary directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operation_passes_its_check(tmp_path, name):
    w = WORKLOADS[name]
    op = w.prepare(inputs.round_rng(name, 5, 0), str(tmp_path / "r0"))[0]
    assert w.check(op, w.run(op)) is None
