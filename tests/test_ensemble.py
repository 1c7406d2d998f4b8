import functools
import math
import multiprocessing
import os
import signal
import tracemalloc
from multiprocessing.connection import wait

import numpy as np
import pytest

from ghelab import (
    ArfimaParams,
    DegenerateSeries,
    EmpiricalSeries,
    EnsembleSpec,
    FbmParams,
    GheConfig,
    InvalidParams,
    MsmParams,
    ReturnKind,
    ReturnSeries,
    StableParams,
    TauTooLarge,
    VariableKind,
    generalized_hurst,
    identity_test,
    path_rng,
    run_ensemble,
    simulate_returns,
)
from ghelab import ensemble
from ghelab.ensemble import _GENERATORS, _path_stats

from brute_force import report_moments

STABLE16 = StableParams(alpha=1.6)


def empirical(values, series_id="x"):
    r = ReturnSeries(values=np.asarray(values, dtype=float), kind=ReturnKind.DIFFERENCE)
    return EmpiricalSeries(series_id=series_id, returns=r)


def test_spec_validation():
    EnsembleSpec(generator=STABLE16, n_paths=1, path_length=76)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=STABLE16, n_paths=0)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=STABLE16, n_shuffles=-1)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=STABLE16, path_length=75)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=STABLE16, master_seed=-1)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=STABLE16, master_seed=2**64)
    with pytest.raises(InvalidParams):
        EnsembleSpec(generator=empirical(np.ones(100)), n_paths=2)
    # an empirical series is one path of exactly its own length
    with pytest.raises(InvalidParams, match="path_length 8700 != 50"):
        EnsembleSpec(generator=empirical(np.ones(50)), n_paths=1)
    with pytest.raises(InvalidParams, match="path_length 299 != 300"):
        EnsembleSpec(generator=empirical(np.ones(300)), n_paths=1, path_length=299)
    for field in ("n_paths", "n_shuffles", "path_length", "master_seed"):
        for bad in (2.5, 100.0, "100"):
            with pytest.raises(InvalidParams, match=field):
                EnsembleSpec(generator=STABLE16, **{field: bad})
    with pytest.raises(InvalidParams, match="n_paths"):
        EnsembleSpec(generator=STABLE16, n_paths=True)
    with pytest.raises(InvalidParams, match="variable_kind"):
        EnsembleSpec(generator=STABLE16, variable_kind="foo")
    # the cumulative variables have one level fewer than the price path; the
    # shortest spec that constructs is one the engine can fit
    for kind in (VariableKind.CUM_ABS_RETURN, VariableKind.CUM_SQ_RETURN):
        with pytest.raises(TauTooLarge, match="76 levels"):
            EnsembleSpec(generator=STABLE16, n_paths=1, path_length=76, variable_kind=kind)
        run_ensemble(EnsembleSpec(generator=STABLE16, n_paths=1, path_length=77,
                                  variable_kind=kind, n_shuffles=0))
    for bad in (0, -80):
        with pytest.raises(InvalidParams, match="path_length must be >= 1"):
            EnsembleSpec(generator=STABLE16, path_length=bad)
    spec = EnsembleSpec(generator=STABLE16, n_paths=np.int64(2), path_length=np.int32(100))
    assert type(spec.n_paths) is int and type(spec.path_length) is int
    # the generator union, the estimator settings and the demean flag are
    # checked when the spec is built, not in path 0
    for bad in ("foo", None, STABLE16.alpha):
        with pytest.raises(InvalidParams, match="unsupported generator"):
            EnsembleSpec(generator=bad, path_length=200)
    with pytest.raises(InvalidParams, match="ghe"):
        EnsembleSpec(generator=STABLE16, ghe="x")
    for bad in ("no", 1, None):
        with pytest.raises(InvalidParams, match="demean_returns"):
            EnsembleSpec(generator=STABLE16, demean_returns=bad)


def test_empirical_series_validation():
    r = ReturnSeries(values=np.ones(10), kind=ReturnKind.DIFFERENCE)
    for bad in (3, None, b"x"):
        with pytest.raises(InvalidParams, match="series_id"):
            EmpiricalSeries(series_id=bad, returns=r)
    for bad in (None, np.ones(10), "x"):
        with pytest.raises(InvalidParams, match="returns"):
            EmpiricalSeries(series_id="x", returns=bad)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(300)
        values[7] = bad
        with pytest.raises(InvalidParams, match="position 7"):
            empirical(values)


def test_path_rng_rejects_bad_seed():
    for bad in (-1, 2**64, 1.5, True):
        with pytest.raises(InvalidParams, match="master_seed"):
            path_rng(bad, 0)
    for bad in (-1, 1.5, "a", True, None):
        with pytest.raises(InvalidParams, match="path_index"):
            path_rng(0, bad)
        with pytest.raises(InvalidParams, match="slot"):
            path_rng(0, 0, bad)
    assert path_rng(2**64 - 1, 0).random() == path_rng(np.uint64(2**64 - 1), 0).random()


def test_path_rng_streams():
    assert path_rng(7, 3, 0).random(4).tolist() == path_rng(7, 3, 0).random(4).tolist()
    a = path_rng(7, 3, 0).random(4)
    b = path_rng(7, 4, 0).random(4)
    c = path_rng(7, 3, 1).random(4)
    d = path_rng(8, 3, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_spec_headroom_is_the_estimator_rule():
    # 75 returns make 76 price levels: the spec and the estimator refuse them alike
    with pytest.raises(TauTooLarge) as from_spec:
        EnsembleSpec(generator=STABLE16, n_paths=1, path_length=75)
    with pytest.raises(TauTooLarge) as from_estimate:
        generalized_hurst(np.cumsum(np.ones(76)))
    assert str(from_spec.value) == str(from_estimate.value)
    assert str(from_spec.value) == "tau_max=19 needs more than 76 levels, got 76"
    assert isinstance(from_spec.value, InvalidParams)


def test_simulate_returns_dispatch():
    rng = np.random.default_rng(0)
    msm_params = MsmParams(m0=1.4, sigma=0.01, k=3)
    msm = simulate_returns(msm_params, 50, rng)
    assert len(msm) == 50 and msm.kind is ReturnKind.DIFFERENCE
    st = simulate_returns(STABLE16, 50, rng)
    assert len(st) == 50 and st.kind is ReturnKind.DIFFERENCE
    # the requested length overrides the length baked into FbmParams
    fbm_params = FbmParams(hurst=0.7, length=10)
    fbm = simulate_returns(fbm_params, 500, rng)
    assert len(fbm) == 500
    arfima_params = ArfimaParams(ar_coeffs=(), d=0.1, stable=STABLE16)
    arf = simulate_returns(arfima_params, 50, rng)
    assert len(arf) == 50
    emp = empirical(np.arange(30.0))
    assert simulate_returns(emp, 9999, rng) is emp.returns
    with pytest.raises(InvalidParams):
        simulate_returns("not a generator", 50, rng)
    # every generator checks its length the same way, before drawing
    for generator in (STABLE16, fbm_params, arfima_params, msm_params, emp):
        for length in (0, -1):
            with pytest.raises(InvalidParams, match="length must be >= 1"):
                simulate_returns(generator, length, rng)
        for length in (2.5, True, "5"):
            with pytest.raises(InvalidParams, match="length must be an integer"):
                simulate_returns(generator, length, rng)


def test_a_subclass_of_a_member_is_refused():
    # the spec and simulate_returns admit the same types: the exact member types
    class Stable(StableParams):
        pass

    sub = Stable(alpha=1.6)
    with pytest.raises(InvalidParams, match="^unsupported generator Stable$"):
        EnsembleSpec(generator=sub, path_length=200)
    with pytest.raises(InvalidParams, match="^unsupported generator Stable$"):
        simulate_returns(sub, 10, np.random.default_rng(0))


def test_generator_labels():
    def labels(generator):
        kind, label, _ = _GENERATORS[type(generator)]
        return kind, label(generator)

    assert labels(STABLE16) == ("stable", "alpha=1.6")
    assert labels(FbmParams(hurst=0.3, length=2)) == ("fbm", "H=0.3")
    msm = MsmParams(m0=1.437, sigma=0.012, k=10)
    assert labels(msm) == ("msm", "m0=1.437,sigma=0.012,k=10")
    arf = ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=STABLE16)
    assert labels(arf) == ("arfima", "alpha=1.6,d=0.1,ar1=0.4")
    arf2 = ArfimaParams(ar_coeffs=(0.4, -0.2), d=0.1, stable=STABLE16)
    assert labels(arf2) == ("arfima", "alpha=1.6,d=0.1,ar1=0.4,ar2=-0.2")
    arf0 = ArfimaParams(ar_coeffs=(), d=0.1, stable=STABLE16)
    assert labels(arf0) == ("arfima", "alpha=1.6,d=0.1")
    assert labels(empirical(np.ones(5), "Dow")) == ("empirical", "Dow")


def test_report_shape():
    spec = EnsembleSpec(generator=STABLE16, n_paths=3, path_length=256,
                        n_shuffles=2, master_seed=1)
    rep = run_ensemble(spec)
    assert rep.generator == "stable"
    assert rep.param_set == "alpha=1.6"
    assert rep.variable is VariableKind.PRICE
    assert rep.q_values == (1.0, 2.0, 3.0)
    assert (rep.n_paths, rep.n_shuffles) == (3, 2)
    for block in (rep.original_mean, rep.original_std, rep.shuffled_mean,
                  rep.shuffled_std, rep.shuffled_within_std):
        assert isinstance(block, tuple) and len(block) == 3
    assert rep.delta_h is not None and rep.delta_h_shuff is not None


def test_report_without_shuffles():
    spec = EnsembleSpec(generator=STABLE16, n_paths=2, path_length=256,
                        n_shuffles=0, master_seed=1)
    rep = run_ensemble(spec)
    assert rep.shuffled_mean is None
    assert rep.shuffled_std is None
    assert rep.shuffled_within_std is None
    assert rep.delta_h is not None
    assert rep.delta_h_shuff is None


def test_report_without_delta_qs():
    spec = EnsembleSpec(generator=STABLE16, n_paths=2, path_length=256,
                        ghe=GheConfig(q_values=(2.0,)), n_shuffles=2, master_seed=1)
    rep = run_ensemble(spec)
    assert rep.delta_h is None


def test_threads_do_not_change_the_report():
    spec = EnsembleSpec(generator=MsmParams(m0=1.4, sigma=0.01, k=5),
                        n_paths=6, path_length=512, n_shuffles=3, master_seed=9)
    assert run_ensemble(spec, threads=1) == run_ensemble(spec, threads=2)


POOL_SPEC = EnsembleSpec(generator=STABLE16, n_paths=6, path_length=256,
                         n_shuffles=2, master_seed=9)


def test_a_killed_pool_worker_is_replaced():
    serial = run_ensemble(POOL_SPEC, threads=1)
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    assert wait([workers[0].sentinel], timeout=30)
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    assert len(multiprocessing.active_children()) == 2


def test_path_errors_from_pool_workers_carry_the_index():
    # a scale this small underflows |X|^3 to zero on path 2 of this seed, and
    # only there
    bad = EnsembleSpec(generator=MsmParams(m0=1.99, sigma=1e-108, k=5), n_paths=4,
                       path_length=256, n_shuffles=1, master_seed=2)
    serial = run_ensemble(POOL_SPEC, threads=1)
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    workers = {p.pid for p in multiprocessing.active_children()}
    for threads in (1, 2):
        with pytest.raises(DegenerateSeries, match="^path 2: "):
            run_ensemble(bad, threads=threads)
    # the same workers go on serving
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    assert {p.pid for p in multiprocessing.active_children()} == workers


def test_pool_follows_the_thread_count():
    serial = run_ensemble(POOL_SPEC, threads=1)
    for threads in (2, 3, 2, 3):
        assert run_ensemble(POOL_SPEC, threads=threads) == serial
        # the old pool's workers are gone and the new one's stay warm
        assert len(multiprocessing.active_children()) == threads


def test_a_rebound_path_stats_replaces_the_pool(monkeypatch):
    # workers run the _path_stats they were forked with, so a rebound one
    # gets fresh workers on every call, and never beside an idle pool
    serial = run_ensemble(POOL_SPEC, threads=1)

    def workers():
        return {p.pid for p in multiprocessing.active_children()}

    assert run_ensemble(POOL_SPEC, threads=2) == serial
    own = workers()

    @functools.wraps(_path_stats)
    def rebound_path_stats(*args):
        return _path_stats(*args)

    monkeypatch.setattr(ensemble, "_path_stats", rebound_path_stats)
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    rebound = workers()
    assert len(rebound) == 2 and not rebound & own
    monkeypatch.undo()
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    restored = workers()
    assert len(restored) == 2 and not restored & rebound
    assert run_ensemble(POOL_SPEC, threads=2) == serial
    assert workers() == restored


def _pool_in_child(queue):
    report = run_ensemble(POOL_SPEC, threads=2)
    queue.put((report, [p.pid for p in multiprocessing.active_children()]))


def test_a_forked_child_runs_its_own_pool_and_exits():
    # the child inherits the parent's live pool but not the thread that
    # feeds its workers; it must neither use it nor wait on its own at exit
    serial = run_ensemble(POOL_SPEC, threads=2)
    fork = multiprocessing.get_context("fork")
    queue = fork.Queue()
    child = fork.Process(target=_pool_in_child, args=(queue,))
    child.start()
    workers = ()
    try:
        report, workers = queue.get(timeout=120)
        child.join(timeout=60)
    finally:
        if child.is_alive():
            for pid in (child.pid, *workers):
                os.kill(pid, signal.SIGKILL)
            child.join()
    assert child.exitcode == 0
    assert report == serial


def _oracle(spec):
    """Every report field, recomputed with 1-D loops over the per-path output."""
    stats = [_path_stats(spec, i) for i in range(spec.n_paths)]
    return report_moments([s["h"] for s in stats], stats[0]["grid"], spec.ghe.q_values)


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("n_shuffles", [0, 1, 4])
@pytest.mark.parametrize("qs", [(1.0, 2.0, 3.0), (2.0,)], ids=["q123", "q2"])
def test_report_matches_per_path_oracle(n_paths, n_shuffles, qs):
    spec = EnsembleSpec(generator=STABLE16, n_paths=n_paths, path_length=256,
                        ghe=GheConfig(q_values=qs), n_shuffles=n_shuffles, master_seed=3)
    rep = run_ensemble(spec)
    fields, with_delta = _oracle(spec)
    n_q = len(qs)
    for name, expected in fields.items():
        got = getattr(rep, name)
        if not expected:
            assert got is None, name
            continue
        assert got == pytest.approx(tuple(expected[:n_q]), rel=0, abs=1e-12), name
    delta_fields = {
        "delta_h": "original_mean", "delta_h_std": "original_std",
        "delta_h_shuff": "shuffled_mean", "delta_h_shuff_std": "shuffled_std",
    }
    for name, source in delta_fields.items():
        got = getattr(rep, name)
        if not with_delta or not fields[source]:
            assert got is None, name
        else:
            assert got == pytest.approx(fields[source][-1], rel=0, abs=1e-12), name
    assert (rep.delta_h is None) == (not {1.0, 3.0} <= set(qs))
    assert (rep.delta_h_shuff is None) == (rep.delta_h is None or n_shuffles == 0)


def test_gaussian_single_path_hurst():
    spec = EnsembleSpec(generator=MsmParams(m0=1.0, sigma=0.01, k=10),
                        n_paths=1, path_length=8192, n_shuffles=0, master_seed=4)
    rep = run_ensemble(spec)
    assert abs(rep.original_mean[1] - 0.5) < 0.05


def test_paths_are_independent():
    spec = EnsembleSpec(generator=STABLE16, n_paths=100, path_length=256,
                        n_shuffles=0, master_seed=5)
    h2 = np.array([_path_stats(spec, i)["h"][0, 1] for i in range(100)])
    lag1 = np.corrcoef(h2[:-1], h2[1:])[0, 1]
    assert abs(lag1) < 0.2


def test_shuffling_destroys_correlation():
    spec = EnsembleSpec(generator=FbmParams(hurst=0.7, length=2),
                        n_paths=30, path_length=2048, n_shuffles=8, master_seed=6)
    rep = run_ensemble(spec)
    assert rep.original_mean[1] > 0.65
    assert 0.48 < rep.shuffled_mean[1] < 0.52


def test_iid_tails_survive_shuffling():
    # for iid stable returns the shuffle must not move delta_h
    spec = EnsembleSpec(generator=STABLE16, n_paths=50, path_length=4096,
                        n_shuffles=8, master_seed=7)
    rep = run_ensemble(spec)
    assert rep.delta_h > 0.2
    assert abs(rep.delta_h - rep.delta_h_shuff) < 0.05
    assert not identity_test(rep.delta_h, rep.delta_h_std,
                             rep.delta_h_shuff, rep.delta_h_shuff_std).reject_at_95


def test_identity_test_examples():
    same = identity_test(0.5, 0.01, 0.5, 0.02)
    assert same.statistic == 0.0 and not same.reject_at_95
    dow = identity_test(0.602, 0.038, 0.513, 0.010)
    assert dow.statistic == pytest.approx(2.265, abs=0.001)
    assert dow.reject_at_95
    tb3 = identity_test(0.536, 0.004, 0.548, 0.014)
    assert tb3.statistic == pytest.approx(-0.824, abs=0.001)
    assert not tb3.reject_at_95


def test_identity_test_antisymmetric():
    a = identity_test(0.61, 0.02, 0.54, 0.03)
    b = identity_test(0.54, 0.03, 0.61, 0.02)
    assert a.statistic == -b.statistic


def test_identity_test_degenerate():
    with pytest.raises(InvalidParams, match="^both dispersions are zero$"):
        identity_test(0.5, 0.0, 0.6, 0.0)
    with pytest.raises(InvalidParams, match="^negative standard deviation$"):
        identity_test(0.5, -0.1, 0.6, 0.02)
    names = ("emp_mean", "emp_std", "sim_mean", "sim_std")
    for i, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf, "a", None, True, 1j):
            args = [0.5, 0.1, 0.6, 0.1]
            args[i] = bad
            with pytest.raises(InvalidParams, match=name):
                identity_test(*args)


def test_path_errors_carry_the_index():
    # and numpy does not warn on the way: the finiteness check is the report
    spec = EnsembleSpec(generator=empirical(np.ones(100)), n_paths=1,
                        path_length=100, n_shuffles=0)
    with pytest.raises(DegenerateSeries, match="path 0:"):
        run_ensemble(spec)
    # returns this wide overflow to inf; they used to come back as nan exponents
    spec = EnsembleSpec(MsmParams(m0=1.4, sigma=1e300, k=5), n_paths=3, path_length=256)
    with pytest.raises(DegenerateSeries, match="^path 0: .*not finite"):
        run_ensemble(spec)


def test_path_peak_memory_is_about_its_level_buffer():
    # the rows are built into one buffer that the engine detrends in place;
    # a copy of the batch on the way would double the peak
    spec = EnsembleSpec(generator=STABLE16, n_paths=2, path_length=8192, master_seed=3)
    buffer_bytes = (1 + spec.n_shuffles) * (spec.path_length + 1) * 8
    _path_stats(spec, 0)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        _path_stats(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * buffer_bytes, (peak, buffer_bytes)


def test_threads_must_be_positive():
    spec = EnsembleSpec(generator=STABLE16, n_paths=2, path_length=256,
                        n_shuffles=1, master_seed=5)
    for threads in (0, -3, "2", 2.5, None):
        with pytest.raises(InvalidParams, match="threads"):
            run_ensemble(spec, threads=threads)
