"""The benchmark's tiny ``query`` workload, run in process.

perfbench/workloads.py holds the query requests and their expected
answers, computed with ``isqrt`` and never by obd.  Running its short
version here makes a read-path regression fail the test suite, not only
the benchmark.  perfbench/ is read, never changed.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_query_answers_match_the_oracles(tmp_path, seed):
    workloads = load_workloads()
    workload = workloads.make("query", seed, tiny=True)
    workload.setup(tmp_path)
    checks = workloads.Checks()
    kinds = set()
    for _ in range(4):
        latencies = []
        _, outcome = workload.run_pass(tmp_path, latencies)
        workload.check_pass(outcome, checks)
        kinds |= {kind for _, _, kind in latencies}
    assert kinds == set(workloads.KINDS)
    assert checks.attempted == 4 * workload.block
    assert checks.failed == 0, checks.notes
