"""ghelab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ghelab source checkout; the package is imported
from its `src/`. Workloads are listed in BENCHMARK.json and defined in
workloads.py.

--trace 0 measures the end-to-end metrics with tracing off. Operations
repeat for about S seconds, longer if the latency percentiles need more
samples; setup_s is the median wall time of SETUP_REPEATS fresh
processes that each import the package, make the inputs and warm up.

--trace 1 measures S seconds, installing the span wrappers of tracing.py
for every other operation, and reports the per-layer metrics of
layers.py; the difference between traced and untraced operations is the
tracing overhead. The spans are written to .perfbench_out/ in the
checkout.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Any failed operation or check exits 1; a checkout without ghelab, or a
traced name that no longer exists, exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import tracing
from workloads import EXPECTED_SPANS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_LATENCY_SAMPLES = 100   # p90 then has at least 10 samples beyond it
MAX_SECONDS_FACTOR = 3      # hard stop on measuring, as a multiple of --seconds


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ghelab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ghelab
    except ImportError as exc:
        die(f"cannot import ghelab from {src}: {exc}")
    if src.resolve() not in Path(ghelab.__file__).resolve().parents:
        die(f"ghelab imported from {ghelab.__file__}, not from {src}")


def usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "sys_s": me.ru_stime + kids.ru_stime,
        "minflt": me.ru_minflt + kids.ru_minflt,
        # ru_maxrss is in KiB on Linux; children: the largest one waited for
        "rss_mb": (me.ru_maxrss + kids.ru_maxrss) / 1024.0,
    }


class Run:
    """Operations, latencies, resource use and failures of one run.

    op_seconds, latencies, paths and usage cover untraced operations only;
    traced_seconds holds the wall time of traced ones.
    """

    def __init__(self):
        self.op_seconds, self.traced_seconds, self.latencies = [], [], []
        self.errors = []
        self.paths = self.attempted = 0
        self.first = None
        self.usage = {"cpu_s": 0.0, "sys_s": 0.0, "minflt": 0, "rss_mb": 0.0}


def measure(workload, seconds, min_latencies, run: Run, tracer=None) -> None:
    """Repeat operations for `seconds`; with a tracer, trace every other one.

    Alternating traced and untraced operations keeps drift in the
    machine's speed out of the tracing overhead.
    """
    min_ops = 1 if tracer is None else 2
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if run.attempted >= min_ops:
            # stop before an operation that would, at the mean pace, end past `seconds`
            projected = elapsed * (run.attempted + 1) / run.attempted
            enough = projected > seconds and len(run.latencies) >= min_latencies
            if enough or elapsed >= MAX_SECONDS_FACTOR * seconds:
                break
        run.attempted += 1
        traced = tracer is not None and run.attempted % 2 == 0
        if traced:
            tracing.install(tracer)
            span = tracer.begin_op(run.attempted, workload.op_name)
        before = usage()
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception:
            run.errors.append(f"op {run.attempted} raised:\n{traceback.format_exc()}")
            continue
        finally:
            if traced:
                tracer.end(span)
                tracing.uninstall()
        seconds_taken = time.perf_counter() - t0
        after = usage()
        if traced:
            run.traced_seconds.append(seconds_taken)
        else:
            run.op_seconds.append(seconds_taken)
            run.latencies.extend(result.latencies)
            run.paths += result.paths
            for k in ("cpu_s", "sys_s", "minflt"):
                run.usage[k] += after[k] - before[k]
        run.usage["rss_mb"] = after["rss_mb"]
        run.first = run.first or result
        err = workload.check_op(run.first, result)
        if err:
            run.errors.append(f"op {run.attempted}: {err}")


def final_checks(workload, first) -> tuple[int, list[str]]:
    try:
        checks = workload.final_checks(first)
    except Exception:
        return 1, [f"final checks raised:\n{traceback.format_exc()}"]
    return len(checks), [f"{name}: {err}" for name, err in checks if err]


def setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def fail_without_result(run: Run):
    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"perfbench: no operation succeeded in {run.attempted} attempts", file=sys.stderr)
    sys.exit(1)


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args, run: Run) -> tuple[dict, dict]:
    setup = setup_seconds(args)
    values = {
        # a mean over the run, not a median of operations: the machine's speed
        # drifts on a scale of tens of seconds, and a mean straddles the drift
        "paths_per_s": run.paths / sum(run.op_seconds),
        "latency_p50_ms": percentile(run.latencies, 50) * 1e3,
        "latency_p90_ms": percentile(run.latencies, 90) * 1e3,
        "cpu_s_per_path": run.usage["cpu_s"] / run.paths,
        "rss_peak_mb": run.usage["rss_mb"],
        "setup_s": statistics.median(setup),
    }
    samples = {
        "paths_per_s": run.paths, "latency_p50_ms": len(run.latencies),
        "latency_p90_ms": len(run.latencies), "cpu_s_per_path": run.paths,
        "rss_peak_mb": 1, "setup_s": len(setup),
    }
    return values, samples


def per_layer(args, workload, run: Run) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # fails before any measuring if a name is gone
    except tracing.TraceTargetMissing as exc:
        die(str(exc))
    tracing.uninstall()
    measure(workload, args.seconds, 0, run, tracer)
    if not run.traced_seconds:
        fail_without_result(run)
    try:
        values = layers.layer_metrics(
            tracer.spans, EXPECTED_SPANS[args.workload], run.op_seconds, run.paths,
            run.usage, run.traced_seconds)
    except layers.TraceIncomplete as exc:
        die(f"traced run misattributes time: {exc}")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps([s.to_json() for s in tracer.spans]))
    print(f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
    return values, {name: len(run.traced_seconds) for name in values}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, make inputs, warm up, exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    import_ghelab()

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload.setup(args.seed, workdir)
        if args.setup_only:
            return 0
        run = Run()
        if args.trace:
            values, samples = per_layer(args, workload, run)
            wanted = spec["per_layer"]
        else:
            measure(workload, args.seconds, MIN_LATENCY_SAMPLES, run)
            if not run.op_seconds:
                fail_without_result(run)
            values, samples = end_to_end(args, run)
            wanted = spec["end_to_end"]
        checks, errors = final_checks(workload, run.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = run.errors + errors
    attempted = run.attempted + checks
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} operations, "
          f"{checks} checks, failed_ratio {len(errors) / attempted:.4f}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if not math.isfinite(value):
            errors.append(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:32s} {value:14.6g} {m['unit']:8s} n={samples[m['name']]}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
