"""One benchmark process: set a workload up, run timed passes, check them.

Started by run.py, once per set-up sample and once for the measured run.
Prints one JSON object as the last line of its standard output.

    python3 perfbench/worker.py --workload query --seed 1 --seconds 20 \\
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / "work"
TRACE_ROOT = ROOT / "perfbench" / "out"


def environment() -> dict:
    import numpy
    from obd import _kernels
    return {
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "obd_pure_python": bool(os.environ.get("OBD_PURE_PYTHON")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(wl, workdir: Path, seconds: float, tracer, probe) -> dict:
    """Timed passes until they add up to ``seconds``, at least one.

    Passes and requests are timed on a clock that leaves out the speed
    probe, and each time is scaled to reference speed by the probe samples
    taken during it, or around it for a short request (speed.py).  Latency
    percentiles are taken within each pass and the median over passes is
    reported, so they do not depend on how many passes fit.  With a
    tracer, passes alternate untraced and traced (at least one of each);
    per-layer numbers come from the traced passes, the end-to-end ones from
    the untraced.  Request time is also summed by request kind (untraced
    passes), to show which kind a change in the latency metrics comes
    from.  Every pass is checked.
    """
    from workloads import Checks
    checks = Checks()
    untraced: list[float] = []
    raw: list[float] = []
    traced: list[float] = []
    traced_scales: list[float] = []
    p50: list[float] = []
    p99: list[float] = []
    requests = 0
    kind_s: dict[str, float] = {}
    kind_n: dict[str, int] = {}
    measured = 0.0
    while True:
        use_trace = tracer is not None and len(traced) < len(untraced)
        timed: list[tuple[float, float, str]] = []
        mark = probe.mark()
        if use_trace:
            tracer.install()
        try:
            elapsed, outcome = wl.run_pass(workdir, timed,
                                           tracer if use_trace else None,
                                           probe.clock)
        finally:
            if use_trace:
                tracer.uninstall()
        scale = probe.factor(mark)
        measured += elapsed
        wl.check_pass(outcome, checks)
        if use_trace:
            traced.append(elapsed)
            traced_scales.append(scale)
        else:
            latencies = probe.scale_requests([(t, d) for t, d, _ in timed])
            for (_, _, kind), latency in zip(timed, latencies):
                kind_s[kind] = kind_s.get(kind, 0.0) + latency
                kind_n[kind] = kind_n.get(kind, 0) + 1
            raw.append(elapsed)
            untraced.append(elapsed * scale)
            requests += len(latencies)
            p50.append(statistics.median(latencies) * 1e6)
            p99.append(statistics.quantiles(latencies, n=100,
                                            method="inclusive")[98] * 1e6)
        if measured >= seconds and (tracer is None or traced):
            break
    result = {
        "passes": len(untraced),
        "script_s": statistics.median(untraced),
        "raw_script_s": statistics.median(raw),
        "requests": requests,
        "requests_per_s": requests / sum(untraced),
        "request_p50_us": statistics.median(p50),
        "request_p99_us": statistics.median(p99),
        "kind_share": {k: v / sum(kind_s.values())
                       for k, v in sorted(kind_s.items())},
        "kind_mean_us": {k: 1e6 * v / kind_n[k] for k, v in kind_s.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.notes,
    }
    if tracer is not None:
        result["traced"] = (traced, traced_scales)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args(argv)

    import speed
    probe = speed.SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny,
                        perturb=args.perturb)
    tracer = tracing.Tracer(probe.clock_ns) if args.trace else None
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl.setup(workdir, tracer)
        setup_s = time.monotonic() - args.spawned_at - probe.spent_ns * 1e-9
        # a short set-up (imports only) holds too few probe samples to
        # correct by; its median over fresh processes is steady enough
        if probe.mark() >= speed.MIN_SAMPLES:
            setup_s *= probe.factor(0)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_spans = tracer.take() if tracer is not None else []
        result = measure(wl, workdir, args.seconds, tracer, probe)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    result["setup_s"] = setup_s
    result["env"] = environment()
    result["probe_ms"] = 1e3 * sum(probe.samples) / len(probe.samples)
    result["probe_nominal_ms"] = 1e3 * speed.NOMINAL_S
    if tracer is not None:
        pass_spans = tracer.spans
        traced, scales = result.pop("traced")
        per_layer = tracing.per_layer_metrics(
            pass_spans, setup_spans, tracer.counters, traced,
            statistics.mean(scales))
        for kind in workloads.KINDS:
            per_layer[f"query.{kind}.mean_us"] = result["kind_mean_us"].get(
                kind, 0.0)
        per_layer["trace.overhead_ratio"] = statistics.median(
            t * f for t, f in zip(traced, scales)) / result["script_s"]
        result["per_layer"] = per_layer
        path = TRACE_ROOT / (f"trace-{args.workload}-seed{args.seed}-"
                             f"{os.getpid()}.jsonl.gz")
        tracing.dump(path, {"workload": args.workload, "seed": args.seed,
                            "run_id": f"{args.workload}-{args.seed}-{os.getpid()}",
                            "env": result["env"]},
                     {"setup": setup_spans, "pass": pass_spans})
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
