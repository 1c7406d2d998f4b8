"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 10 [--workloads a,b] [--trace 1] [--out FILE]

Runs BENCHMARK.json's command once per (workload, seed) from the
checkout root, then prints, per workload and metric, the median of the
runs and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is flagged. With --out, the runs,
the summary and a description of the machine are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    """nproc, CPU, caches, versions and thread settings of this machine."""
    import numpy
    import scipy

    cpu = caches = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        caches = {
            f"L{(d / 'level').read_text().strip()}{(d / 'type').read_text().strip()[0].lower()}":
                (d / "size").read_text().strip()
            for d in sorted(base.glob("index*"))
        }
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def run_once(cmd, workload, seed, seconds, trace) -> dict:
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(spec["command"], workload, s, args.seconds, args.trace)
                for s in seeds]
        summary = {}
        print(f"{workload}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}"
              f"..{max(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            sp = spread(values) if len(values) > 1 else float("nan")
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound and sp > bound / 3 else ""
            summary[name] = {"median": med, "spread": sp,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:32s} median {med:12.6g}  spread {sp:7.2%}"
                  f"{'' if bound is None else f'  bound {bound:.2f}'}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
