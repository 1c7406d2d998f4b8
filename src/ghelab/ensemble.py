"""Monte Carlo ensembles and the shuffle decomposition.

For each simulated path the variable of interest is analyzed twice:
as generated, and as the average over n_shuffles random permutations of
its returns. Shuffling preserves the return distribution and destroys
temporal order, so comparing delta_h against delta_h_shuff attributes
measured multifractality to fat tails (survives shuffling) versus
correlation structure (does not).

Seeding: path i simulates from SeedSequence(master_seed, spawn_key=(i, 0))
and shuffle j of path i draws from spawn_key=(i, j). Every work item is
therefore independently recomputable and results are identical for any
degree of parallelism; aggregation walks paths in index order.

Path work for threads > 1 runs in one pool of fork-started worker
processes that lives until the interpreter exits and is reused by every
run_ensemble call with the same thread count, as long as _path_stats is
not rebound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import InvalidParams, _count, _instance, _member, _real, _seed
from .generators import (
    ArfimaParams,
    FbmParams,
    StableParams,
    sample_stable,
    simulate_arfima,
    simulate_fbm,
)
from .ghe import GheConfig, _check_headroom, _grid_stats, _sample_std
from .msm import MsmParams, simulate_msm
from .series import (
    ReturnKind,
    ReturnSeries,
    VariableKind,
    build_variable,
    demean,
    shuffle,
)

REJECT_Z = 1.96  # two-sided 5% normal critical value


@dataclass(frozen=True, eq=False)
class EmpiricalSeries:
    """Observed returns wrapped as a one-path 'generator'."""

    series_id: str
    returns: ReturnSeries

    def __post_init__(self):
        _instance("series_id", self.series_id, str)
        _instance("returns", self.returns, ReturnSeries)
        bad = np.flatnonzero(~np.isfinite(self.returns.values))
        if bad.size:
            raise InvalidParams(f"return at position {bad[0]} of {self.series_id!r} is not finite")


def _arfima_label(p: ArfimaParams) -> str:
    ar = "".join(f",ar{i}={c}" for i, c in enumerate(p.ar_coeffs, start=1))
    return f"alpha={p.stable.alpha},d={p.d}{ar}"


# The generator union, one row per member type: the name reports give it,
# its default param_set label, and how it makes `length` returns from an
# rng. An empirical series is its own returns whatever the length; fBm
# draws the requested length, not the one its params hold.
_GENERATORS = {
    MsmParams: ("msm", lambda p: f"m0={p.m0},sigma={p.sigma},k={p.k}", simulate_msm),
    StableParams: ("stable", lambda p: f"alpha={p.alpha}",
                   lambda p, n, rng: ReturnSeries(sample_stable(p, rng, size=n),
                                                  ReturnKind.DIFFERENCE)),
    FbmParams: ("fbm", lambda p: f"H={p.hurst}",
                lambda p, n, rng: simulate_fbm(replace(p, length=n), rng)),
    ArfimaParams: ("arfima", _arfima_label, simulate_arfima),
    EmpiricalSeries: ("empirical", lambda s: s.series_id, lambda s, n, rng: s.returns),
}


def _generator_row(generator) -> tuple:
    """(kind, label, simulate) of generator, whose exact type must be a member of the union."""
    row = _GENERATORS.get(type(generator))
    if row is None:
        raise InvalidParams(f"unsupported generator {type(generator).__name__}")
    return row


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """One ensemble study: generator, sample sizes, estimator settings."""

    generator: object
    n_paths: int = 1000
    path_length: int = 8700
    variable_kind: VariableKind = VariableKind.PRICE
    ghe: GheConfig = GheConfig()
    n_shuffles: int = 33
    master_seed: int = 0
    demean_returns: bool = False

    def __post_init__(self):
        _generator_row(self.generator)
        object.__setattr__(
            self, "variable_kind", _member("variable_kind", VariableKind, self.variable_kind)
        )
        _instance("ghe", self.ghe, GheConfig)
        _instance("demean_returns", self.demean_returns, bool)
        object.__setattr__(self, "master_seed", _seed("master_seed", self.master_seed))
        for name, least in (("n_paths", 1), ("path_length", 1), ("n_shuffles", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        if isinstance(self.generator, EmpiricalSeries):
            if self.n_paths != 1:
                raise InvalidParams("an empirical series is a single path")
            n_returns = len(self.generator.returns)
            if self.path_length != n_returns:
                raise InvalidParams(
                    f"path_length {self.path_length} != {n_returns} empirical returns"
                )
        # the level count the engine sees: price has one level more than returns
        _check_headroom(self.path_length + (self.variable_kind is VariableKind.PRICE), self.ghe)


@dataclass(frozen=True)
class IdentityTest:
    """Two-sample z decision for 'same Hurst exponent' at the 95% level."""

    statistic: float
    reject_at_95: bool


@dataclass(frozen=True)
class EnsembleReport:
    """Cross-path moments of the per-path exponent estimates.

    original_std is the dispersion across paths. shuffled_mean/std
    describe per-path estimates already averaged over the shuffle
    replicas; shuffled_within_std is the mean across paths of the
    dispersion among the replicas themselves. When n_paths == 1 there
    is no cross-path dispersion, so original_std is the dispersion
    across the tau_max grid and shuffled_std is shuffled_within_std.
    delta_h = H(1) - H(3) is aggregated exactly like any H(q) column,
    per path and per replica first, so delta_h_std and
    delta_h_shuff_std follow the same rules. Fields in the shuffled
    block are None when the run was configured with zero shuffles, and
    the delta fields are None unless q holds both 1 and 3.
    """

    generator: str
    param_set: str
    variable: VariableKind
    q_values: tuple
    n_paths: int
    n_shuffles: int
    original_mean: tuple
    original_std: tuple
    shuffled_mean: tuple | None
    shuffled_std: tuple | None
    shuffled_within_std: tuple | None
    delta_h: float | None
    delta_h_std: float | None
    delta_h_shuff: float | None
    delta_h_shuff_std: float | None


def path_rng(master_seed: int, path_index: int, slot: int = 0) -> np.random.Generator:
    """Generator for one work item; slot 0 simulates, slot j >= 1 shuffles."""
    key = (_count("path_index", path_index, least=0), _count("slot", slot, least=0))
    ss = np.random.SeedSequence(_seed("master_seed", master_seed), spawn_key=key)
    return np.random.default_rng(ss)


def simulate_returns(
    generator, length: int, rng: np.random.Generator
) -> ReturnSeries:
    """`length` returns of a member of the generator union, drawn from rng.

    The exact type of generator must be a member; a subclass of one is
    refused, as EnsembleSpec refuses it. An empirical series returns its
    own returns whatever the length.
    """
    length = _count("length", length, least=1)
    _instance("rng", rng, np.random.Generator)
    _, _, simulate = _generator_row(generator)
    return simulate(generator, length, rng)


def _path_returns(spec: EnsembleSpec, index: int) -> ReturnSeries:
    """Path `index`'s returns as the ensemble analyzes them: slot 0's draw, demeaned if set."""
    r = simulate_returns(spec.generator, spec.path_length, path_rng(spec.master_seed, index, 0))
    return demean(r) if spec.demean_returns else r


def _path_stats(spec: EnsembleSpec, index: int) -> dict:
    """Exponents of one path and its shuffle replicas.

    "h" is the (1 + n_shuffles, n_q) grid-averaged H(q), row 0 being the
    path as generated; "grid" is row 0's (n_q, n_tau_max) H. Cross-path
    aggregation happens in run_ensemble so the result cannot depend on
    scheduling. The levels of all rows go into one buffer that the
    engine then owns and detrends in place. A draw or level that
    overflows reaches the engine's finiteness check, which raises
    DegenerateSeries, so numpy's own overflow warnings stay silent.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = _path_returns(spec, index)
            kind = spec.variable_kind
            levels = np.empty((1 + spec.n_shuffles, len(r) + (kind is VariableKind.PRICE)))
            levels[0] = build_variable(r, kind)
            for j in range(1, spec.n_shuffles + 1):
                levels[j] = build_variable(shuffle(r, path_rng(spec.master_seed, index, j)), kind)
            h, _ = _grid_stats(levels, spec.ghe)
    except Exception as exc:
        exc.args = (f"path {index}: {exc}",)
        raise
    return {"h": h.mean(axis=-1), "grid": h[0].copy()}


_OWN_PATH_STATS = _path_stats

# Long-lived worker pools by owner pid: {pid: (threads, own, executor, stop)},
# `own` telling whether the workers were forked running this module's own
# _path_stats. A forked child keeps its copy of the parent's entry and never
# uses it: the parent's workers answer only the parent.
_pools = {}


def _drop_pool() -> None:
    entry = _pools.pop(os.getpid(), None)
    if entry is not None:
        entry[-1]()


# The pool machinery (multiprocessing, concurrent.futures and the logging,
# socket and subprocess modules they load) is imported by the functions
# below, so a process that never starts a pool never pays for it.
def _new_pool(threads: int, own: bool):
    """Replace this process's pool with one of `threads` workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize

    _drop_pool()
    # fork, not the platform default (forkserver on Linux from Python 3.14):
    # workers must inherit a rebound _path_stats and skip re-importing
    pool = ProcessPoolExecutor(max_workers=threads, mp_context=multiprocessing.get_context("fork"))
    # Runs once: when dropped, or at exit, where a process that
    # multiprocessing started would otherwise wait forever on the workers.
    # It must run before the finalizer of the pool's call queue (priority
    # 10), which stops the thread that sends the workers their stop signal.
    stop = Finalize(None, pool.shutdown, kwargs={"cancel_futures": True}, exitpriority=20)
    _pools[os.getpid()] = (threads, own, pool, stop)
    return pool


def _pool_map(worker, indices: range, threads: int) -> list:
    """worker over indices on `threads` processes, results in index order."""
    from concurrent.futures.process import BrokenProcessPool

    chunk = max(1, len(indices) // (threads * 4))
    # Workers run the _path_stats they were forked with, so a rebound one
    # (perfbench's span tracer, a test patch) replaces the pool on every
    # call: its workers also keep the state of the call that forked them.
    # This stays until the benchmark carries spans back from a reused pool.
    own = _path_stats is _OWN_PATH_STATS
    while True:
        entry = _pools.get(os.getpid())
        reused = own and entry is not None and entry[:2] == (threads, True)
        pool = entry[2] if reused else _new_pool(threads, own)
        try:
            return list(pool.map(worker, indices, chunksize=chunk))
        except BrokenProcessPool:
            # a worker died; one that died between calls costs a fresh pool
            _drop_pool()
            if not reused:
                raise


def run_ensemble(spec: EnsembleSpec, threads: int = 1) -> EnsembleReport:
    """Simulate, analyze, and aggregate the whole ensemble.

    `threads` only distributes path work across processes; any value
    yields the identical report.
    """
    _instance("spec", spec, EnsembleSpec)
    threads = _count("threads", threads, least=1)
    indices = range(spec.n_paths)
    worker = partial(_path_stats, spec)
    if threads > 1 and spec.n_paths > 1:
        stats = _pool_map(worker, indices, threads)
    else:
        stats = [worker(i) for i in indices]

    # Both arrays keep q on their last axis, in C order: numpy's summation
    # order follows memory layout, and this layout fixes the bits of every
    # moment below whichever process computed the per-path arrays.
    qs = spec.ghe.q_values
    h = np.stack([s["h"] for s in stats])  # (paths, 1 + n_shuffles, n_q)
    grid = np.ascontiguousarray(stats[0]["grid"].T)  # (n_tau_max, n_q)
    want_delta = 1.0 in qs and 3.0 in qs
    if want_delta:
        # delta_h = H(1) - H(3) becomes one more column
        i1, i3 = qs.index(1.0), qs.index(3.0)
        h, grid = (
            np.concatenate((a, a[..., i1, None] - a[..., i3, None]), axis=-1)
            for a in (h, grid)
        )
    single = spec.n_paths == 1
    orig = h[:, 0]
    orig_mean = orig.mean(axis=0)
    orig_std = _sample_std(grid if single else orig, 0)
    sh_mean = sh_std = sh_within = None
    if spec.n_shuffles >= 1:
        per_path = h[:, 1:].mean(axis=1)
        within = _sample_std(h[:, 1:], 1)
        sh_mean = per_path.mean(axis=0)
        sh_std = within[0] if single else _sample_std(per_path, 0)
        sh_within = within.mean(axis=0)

    n_q = len(qs)

    def q_part(a):
        return None if a is None else tuple(a[:n_q].tolist())

    def delta_part(a):
        return float(a[-1]) if want_delta and a is not None else None

    kind, label, _ = _generator_row(spec.generator)
    return EnsembleReport(
        generator=kind,
        param_set=label(spec.generator),
        variable=spec.variable_kind,
        q_values=qs,
        n_paths=spec.n_paths,
        n_shuffles=spec.n_shuffles,
        original_mean=q_part(orig_mean),
        original_std=q_part(orig_std),
        shuffled_mean=q_part(sh_mean),
        shuffled_std=q_part(sh_std),
        shuffled_within_std=q_part(sh_within),
        delta_h=delta_part(orig_mean),
        delta_h_std=delta_part(orig_std),
        delta_h_shuff=delta_part(sh_mean),
        delta_h_shuff_std=delta_part(sh_std),
    )


def identity_test(
    emp_mean: float, emp_std: float, sim_mean: float, sim_std: float
) -> IdentityTest:
    """z = (emp - sim) / sqrt(emp_std^2 + sim_std^2), rejected beyond 1.96.

    Each input must be a finite real number, neither std may be negative
    and not both may be zero; InvalidParams otherwise.
    """
    args = {"emp_mean": emp_mean, "emp_std": emp_std, "sim_mean": sim_mean, "sim_std": sim_std}
    for name, value in args.items():
        if not math.isfinite(_real(name, value)):
            raise InvalidParams(f"{name} must be finite, got {value!r}")
    if emp_std < 0 or sim_std < 0:
        raise InvalidParams("negative standard deviation")
    var = emp_std * emp_std + sim_std * sim_std
    if var == 0.0:
        raise InvalidParams("both dispersions are zero")
    z = (emp_mean - sim_mean) / np.sqrt(var)
    return IdentityTest(statistic=float(z), reject_at_95=bool(abs(z) > REJECT_Z))

