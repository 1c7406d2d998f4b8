"""In-memory span tracing around the functions ghelab's layers call.

`install` replaces, in the modules that call them, the names listed in
TARGETS with wrappers that record a span (id, parent, operation id, name,
start, end, attributes) per call. Spans stay in memory and are written
once, when the run ends.

Path work may run in forked pool workers. The `_path_stats` wrapper
collects the spans a worker records for one path and attaches them to the
result dict as a `_Parcel`; unpickling the parcel in the parent adds the
spans to the parent's tracer. `run_ensemble` ignores keys it does not
read, so the parcel does not change any report.

The module-level `_active` tracer is the lookup point that forked workers
and the unpickling hook need; `install` sets it and `uninstall` clears it.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import time

# Names ghelab.ensemble, ghelab.tables and ghelab.cli call into, per module
# that binds them. `_grid_stats` and `_path_stats` are private, but they are
# the engine's batch entry point and the per-path unit the pool maps over.
TARGETS = {
    "ghelab.ensemble": (
        "run_ensemble", "_path_stats", "simulate_returns", "demean", "shuffle",
        "build_variable", "_grid_stats",
    ),
    "ghelab.tables": ("run_ensemble", "load_price_csv", "write_result_csv"),
    "ghelab.cli": (
        "run_ensemble", "generalized_hurst", "build_variable", "load_price_csv",
        "write_result_csv",
    ),
}

PARCEL_KEY = "_perfbench_spans"

_active = None


class TraceTargetMissing(RuntimeError):
    """A traced name no longer exists, so its time cannot be attributed."""


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, id, parent, op, name, start, attrs):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


class Tracer:
    """Span recorder for one process; forked workers continue a copy."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._pid = os.getpid()
        self._next_id = 1

    def _new_id(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # a forked worker: ids must not collide with the parent's or a sibling's
            self._pid = pid
            self._next_id = pid << 32
        self._next_id += 1
        return self._next_id

    def begin(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._new_id(), parent, self._op, name, time.perf_counter(), attrs)
        self._stack.append(span.id)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> Span:
        self._op = op_id
        return self.begin(name)


class _Parcel:
    """Worker spans of one path, merged into the parent tracer on unpickling."""

    def __init__(self, spans):
        self.spans = spans

    def __reduce__(self):
        return (_absorb, (self.spans,))


def _absorb(spans):
    if _active is not None and os.getpid() == _active.owner_pid:
        _active.tracer.spans.extend(spans)
    return _Parcel(spans)


def _span_attrs(name, args, kwargs):
    if name == "simulate_returns":
        generator, length, rng = args[:3]
        ss = rng.bit_generator.seed_seq
        return {
            "kind": type(generator).__name__,
            "key": [hash(generator), int(length), str(ss.entropy), list(ss.spawn_key)],
        }
    if name == "_grid_stats":
        xs, cfg = args[:2]
        return {"rows": int(xs.shape[0]), "n": int(xs.shape[1]),
                "tau_max": int(cfg.tau_max_range[1])}
    if name == "run_ensemble":
        spec = args[0]
        threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
        return {"threads": int(threads), "n_paths": int(spec.n_paths),
                "spec_bytes": len(pickle.dumps(spec))}
    return None


# fn(*args) keeps the argument tuple alive until fn returns. A callee that
# drops an argument early, as `_grid_stats` drops its input matrix once it
# has detrended a copy, would then free it later than in an untraced run,
# and the allocator would reuse memory differently: in a measurement the
# traced runs had a third fewer page faults. These calls pop each argument
# off a list onto the call, so the wrapper holds no reference during it.
_MOVING_CALLS = {
    1: lambda fn, a: fn(a.pop()),
    2: lambda fn, a: fn(a.pop(0), a.pop()),
    3: lambda fn, a: fn(a.pop(0), a.pop(0), a.pop()),
}


def _wrap(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active.tracer
        span = tracer.begin(name, _span_attrs(name, args, kwargs))
        moving = None if kwargs else _MOVING_CALLS.get(len(args))
        try:
            if moving is None:
                result = fn(*args, **kwargs)
            else:
                a = list(args)
                del args
                result = moving(fn, a)
        finally:
            tracer.end(span)
        if name == "load_price_csv":
            span.attrs = {"rows": len(result)}
        return result

    return wrapper


def _wrap_path_stats(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active.tracer
        first = len(tracer.spans)
        span = tracer.begin("_path_stats", {"pid": os.getpid()})
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if os.getpid() != _active.owner_pid:
            result = dict(result)
            result[PARCEL_KEY] = _Parcel(tracer.spans[first:])
            del tracer.spans[first:]
        return result

    return wrapper


class _Installation:
    def __init__(self, tracer):
        self.tracer = tracer
        self.owner_pid = os.getpid()
        self.saved = []


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS name; raise TraceTargetMissing if one is gone."""
    global _active
    if _active is not None:
        raise RuntimeError("tracing is already installed")
    missing = []
    for mod_name, names in TARGETS.items():
        module = importlib.import_module(mod_name)
        missing += [f"{mod_name}.{n}" for n in names if not hasattr(module, n)]
    if missing:
        raise TraceTargetMissing(
            "traced names not found (renamed or removed?): " + ", ".join(missing)
        )
    inst = _Installation(tracer)
    for mod_name, names in TARGETS.items():
        module = importlib.import_module(mod_name)
        for n in names:
            original = getattr(module, n)
            inst.saved.append((module, n, original))
            wrapped = _wrap_path_stats(original) if n == "_path_stats" else _wrap(n, original)
            setattr(module, n, wrapped)
    _active = inst


def uninstall() -> None:
    global _active
    if _active is None:
        return
    for module, n, original in reversed(_active.saved):
        setattr(module, n, original)
    _active = None


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span time minus the part of it that its child spans cover."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda s: s.start):
        s, e = max(c.start, span.start), min(c.end, span.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.seconds - covered
