"""Per-layer metrics from the spans of a traced run.

Every value is a per-path, per-call or per-cell figure, so it does not
depend on how many operations fit in the run. A layer that a workload
does not reach reports 0 (for example `io.load_ms` outside ghe_series).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_seconds

SIM_KINDS = {
    "msm.simulate_ms": "MsmParams",
    "generators.simulate_ms.stable": "StableParams",
    "generators.simulate_ms.fbm": "FbmParams",
    "generators.simulate_ms.arfima": "ArfimaParams",
}
SERIES_CALLS = ("shuffle", "build_variable", "demean")


class TraceIncomplete(RuntimeError):
    """A layer the workload must reach recorded no span."""


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, expected, op_seconds, op_paths, usage, traced_seconds) -> dict:
    """Metrics from traced spans; proc.* and the overhead from untraced ops."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    missing = [n for n in expected if not by_name[n]]
    if missing:
        raise TraceIncomplete("no spans recorded for " + ", ".join(missing))

    paths = by_name["_path_stats"]
    n_paths = len(paths)
    for p in paths:
        names = {c.name for c in children[p.id]}
        if not {"simulate_returns", "_grid_stats"} <= names:
            raise TraceIncomplete(f"path span {p.id} lacks simulate or engine spans")
    path_ids = {p.id for p in paths}
    m = {}

    sims = by_name["simulate_returns"]
    for metric, kind in SIM_KINDS.items():
        m[metric] = _mean([s.seconds * 1e3 for s in sims if s.attrs["kind"] == kind])
    per_op = defaultdict(list)
    for s in sims:
        per_op[s.op].append(tuple(map(str, s.attrs["key"])))
    m["ensemble.unique_sim_ratio"] = (
        sum(len(set(keys)) for keys in per_op.values()) / len(sims))

    series = [s for n in SERIES_CALLS for s in by_name[n] if s.parent in path_ids]
    m["series.shuffle_build_ms"] = sum(s.seconds for s in series) * 1e3 / n_paths
    m["series.rows_built"] = len(by_name["build_variable"]) / n_paths

    engine = by_name["_grid_stats"]
    m["ghe.engine_ms"] = sum(s.seconds for s in engine) * 1e3 / n_paths
    m["ghe.rows"] = _mean([s.attrs["rows"] for s in engine])
    elements = sum(s.attrs["rows"] * s.attrs["n"] * s.attrs["tau_max"] for s in engine)
    m["ghe.ns_per_element"] = sum(s.seconds for s in engine) * 1e9 / elements
    m["ghe.single_ms"] = _mean([s.seconds * 1e3 for s in by_name["generalized_hurst"]])

    cells = by_name["run_ensemble"]
    startup, drain, busy, capacity, self_ms = [], [], 0.0, 0.0, []
    for c in cells:
        kids = [k for k in children[c.id] if k.name == "_path_stats"]
        startup.append(min(k.start for k in kids) - c.start)
        drain.append(c.end - max(k.end for k in kids))
        busy += sum(k.seconds for k in kids)
        capacity += c.attrs["threads"] * c.seconds
        self_ms.append(self_seconds(c, kids) * 1e3)
    m["ensemble.path_ms"] = _mean([p.seconds * 1e3 for p in paths])
    m["ensemble.self_ms"] = _mean(self_ms)
    m["ensemble.pool_startup_ms"] = _mean(startup) * 1e3
    m["ensemble.pool_drain_ms"] = _mean(drain) * 1e3
    m["ensemble.worker_busy_share"] = busy / capacity
    m["ensemble.spec_pickle_bytes"] = _mean([c.attrs["spec_bytes"] for c in cells])

    m["tables.overhead_ms"] = _mean([
        self_seconds(t, [k for k in children[t.id] if k.name == "run_ensemble"]) * 1e3
        for t in by_name["reproduce_table"]
    ])
    m["io.write_ms"] = _mean([s.seconds * 1e3 for s in by_name["write_result_csv"]])
    loads = by_name["load_price_csv"]
    m["io.load_ms"] = _mean([s.seconds * 1e3 for s in loads])
    load_s = sum(s.seconds for s in loads)
    m["io.rows_per_s"] = sum(s.attrs["rows"] for s in loads) / load_s if loads else 0.0

    m["proc.sys_s_per_path"] = usage["sys_s"] / op_paths
    m["proc.minflt_per_path"] = usage["minflt"] / op_paths
    base = statistics.median(op_seconds)
    overhead = statistics.median(traced_seconds) - base
    m["trace.overhead_ms"] = overhead * 1e3
    m["trace.overhead_share"] = overhead / base
    return m
