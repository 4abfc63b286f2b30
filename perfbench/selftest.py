"""Self-test: tiny versions of every workload, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the JSON result with
every metric BENCHMARK.json names for that mode, each with its unit, that
the tiny runs pass their checks, and that corrupting one expected value
makes checks fail.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, perturb: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                result = run(workload, trace)
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, result.keys()
                assert result["correct"] and result["failed"] == 0, result
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, f"{workload}: metrics {got} != {want}"
                print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                      f"{result['attempted']} checks")
            bad = run(workload, 0, perturb=True)
            assert not bad["correct"] and bad["failed"] > 0, bad
            print(f"ok  {workload} perturbed: {bad['failed']} of "
                  f"{bad['attempted']} checks fail")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
