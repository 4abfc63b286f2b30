"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload compile-small --seed 1 --seconds 20 --trace 0

Each workload runs in processes of its own (worker.py), from the root of a
source checkout: first the extra set-up samples, each a fresh process that
sets up and exits, then the measured run.  ``--trace 0`` prints every
end-to-end metric named in BENCHMARK.json, ``--trace 1`` every per-layer
one.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples per run (the measured run's own set-up is one of them);
# query's set-up compiles two scripts, so it gets fewer
SETUP_SAMPLES = {"compile-small": 5, "compile-large": 5, "query": 2}
TIME_LIMIT_S = 175


class BenchError(RuntimeError):
    pass


def spawn(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    # a fixed hash seed removes one source of run-to-run variation
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += extra + ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="obd benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="short inputs, for the self-test")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one expected value, for the self-test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "obd" / "__init__.py").is_file():
        print(f"error: no obd sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        setups = []
        if not args.trace:
            samples = 2 if args.tiny else SETUP_SAMPLES[args.workload]
            for _ in range(samples - 1):
                setups.append(spawn(args, ["--setup-only"], deadline)["setup_s"])
        run = spawn(args, [], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    run["setup_s"] = statistics.median(setups)
    source = run["per_layer"] if args.trace else run

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"passes {run['passes']}  requests {run['requests']}  "
          f"set-up samples {len(setups)}")
    print(f"speed probe {run['probe_ms']:.3f} ms on average, reference "
          f"{run['probe_nominal_ms']:g} ms; unscaled script_s "
          f"{run['raw_script_s']:.4f} s")
    print("share of request time by kind: " + ", ".join(
        f"{k} {v:.3f}" for k, v in run["kind_share"].items()))
    if "trace_file" in run:
        print(f"spans written to {run['trace_file']}")
    metrics = {}
    for m in wanted:
        value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"  {'check_fail_ratio':<40} {ratio:>14.6g} "
          f"({run['failed']} of {run['attempted']} checks failed)")
    for note in run["failures"]:
        print(f"  FAILED: {note}")
    print(json.dumps({"correct": run["attempted"] > 0 and run["failed"] == 0,
                      "attempted": max(run["attempted"], 1),
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
