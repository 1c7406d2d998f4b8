import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ghelab import (
    DegenerateSeries,
    FbmParams,
    GheConfig,
    InvalidParams,
    ReturnSeries,
    TauTooLarge,
    VariableKind,
    build_variable,
    generalized_hurst,
    structure_function_rows,
)
from ghelab import ghe
from ghelab.generators import simulate_fbm
from ghelab.ghe import _detrend_rows, _grid_stats, _log_structure_matrix, _row_dots

from brute_force import chunked_row_dots


def path(values):
    return np.asarray(values, dtype=float)


def brownian_path(n, seed):
    rng = np.random.default_rng(seed)
    r = ReturnSeries(values=rng.standard_normal(n))
    return build_variable(r, VariableKind.PRICE)


def single_fit(p, q, tau_max):
    """The estimate for one q from the single fit over tau = 1..tau_max, no detrending."""
    return generalized_hurst(p, GheConfig((q,), (tau_max, tau_max), detrend=False))


def detrend(values):
    xs = np.array([values], dtype=float)
    _detrend_rows(xs)
    return xs[0]


def log_k(values, qs, hi):
    return _log_structure_matrix(np.asarray(values, dtype=float)[np.newaxis, :], qs, hi)[0]


def test_estimate_drift_examples():
    # detrending subtracts eta*t, so X(1) - X'(1) is the estimated drift eta
    assert 1.0 - detrend([0, 1, 2, 3])[1] == 1.0
    assert 5.0 - detrend([5, 5, 5])[1] == 0.0
    assert abs((0.3 - detrend([0, 0.3, 0.1, 0.9])[1]) - 0.3) < 1e-15
    with pytest.raises(TauTooLarge):
        generalized_hurst(path([1.0]))


def test_detrend_linear_examples():
    assert np.array_equal(detrend([0, 1, 2, 3]), [0, 0, 0, 0])
    np.testing.assert_allclose(detrend([0, 0.3, 0.1, 0.9]), [0, 0, -0.5, 0],
                               rtol=0, atol=1e-15)


def test_detrend_kills_drift():
    rng = np.random.default_rng(3)
    for _ in range(10):
        out = detrend(np.cumsum(rng.normal(0.2, 1.0, 300)))
        assert abs((out[-1] - out[0]) / (out.size - 1)) < 1e-12


def test_detrend_in_place_matches_the_broadcast_form():
    # a path's 34-row level batch loses its drift in place, with the bits of
    # the one-expression form
    rng = np.random.default_rng(4)
    xs = np.cumsum(rng.standard_t(3, size=(34, 8701)), axis=1)
    t = np.arange(xs.shape[1], dtype=float)
    want = xs - ((xs[:, -1] - xs[:, 0]) / (xs.shape[1] - 1))[:, np.newaxis] * t
    _detrend_rows(xs)
    assert np.array_equal(xs, want)


def test_structure_function_examples():
    # X = [0,1,0,1,0,1]: five increments of size 1, mean level 0.5
    assert log_k([0, 1, 0, 1, 0, 1], (1.0,), 1)[0, 0] == np.log(2.0)
    assert log_k([0, 2], (2.0,), 1)[0, 0] == np.log(2.0)
    with pytest.raises(DegenerateSeries, match="^K_q vanished on the fit grid$"):
        log_k([3, 3, 3, 3], (2.0,), 1)  # K_2(1) = 0


def test_structure_function_errors():
    with pytest.raises(DegenerateSeries):
        log_k([0, 0, 0, 0], (1.0,), 1)
    # q and the lag grid are validated where they enter, in GheConfig
    with pytest.raises(InvalidParams):
        GheConfig(tau_max_range=(0, 0))
    with pytest.raises(InvalidParams):
        GheConfig(q_values=(0.0,))


def test_structure_function_sign_flip_invariance():
    p = brownian_path(200, seed=11)
    qs = (2.0, 1.0, 3.0)
    assert np.array_equal(log_k(p, qs, 7), log_k(-p, qs, 7))


def test_structure_function_scale_invariance():
    p = brownian_path(200, seed=12)
    qs = (0.5, 1.0, 2.0, 3.0)
    a = np.exp(log_k(p, qs, 5)[:, 4])
    for c in (2.0, -3.0, 0.5, 10.0):
        b = np.exp(log_k(c * p, qs, 5)[:, 4])
        assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a))


def test_fit_hurst_ramp_is_exact():
    # linear ramp: |X(t+tau)-X(t)| = tau exactly, so H(q) = 1 for every q
    p = path(np.arange(100.0))
    for q in (0.5, 1.0, 2.0, 3.0):
        assert abs(single_fit(p, q=q, tau_max=10).h_mean[0] - 1.0) < 1e-12


def test_fit_hurst_injected_power_law(monkeypatch):
    # feed the prefix fits log K_q(tau) = 0.5 q log tau directly
    qs = (0.5, 1.0, 2.0, 3.0)
    taus = np.arange(1, 20)
    injected = np.log(taus[np.newaxis, :] ** (0.5 * np.array(qs)[:, np.newaxis]))
    monkeypatch.setattr(ghe, "_log_structure_matrix",
                        lambda xs, q_values, hi: injected[np.newaxis, :, :hi])
    cfg = GheConfig(q_values=qs, tau_max_range=(5, 19), detrend=False)
    h, r2 = _grid_stats(np.zeros((1, 80)), cfg)
    assert np.all(np.abs(h - 0.5) < 1e-12)
    assert np.all(np.abs(r2 - 1.0) < 1e-12)


def test_fit_hurst_gaussian_random_walk():
    h = np.mean([single_fit(brownian_path(8192, seed=s), q=1, tau_max=19).h_mean[0]
                 for s in range(10)])
    assert abs(h - 0.5) < 0.01


def test_fit_hurst_errors():
    with pytest.raises(InvalidParams):
        single_fit(brownian_path(100, seed=0), q=1, tau_max=1)
    alternating = path(np.tile([0.0, 1.0], 16))
    with pytest.raises(DegenerateSeries, match="^K_q vanished on the fit grid$"):
        single_fit(alternating, q=1, tau_max=5)


def test_generalized_hurst_ramp_exact():
    cfg = GheConfig(detrend=False)
    res = generalized_hurst(path(np.arange(100.0)), cfg)
    for h, s, r2 in zip(res.h_mean, res.h_std, res.scaling_r2):
        assert abs(h - 1.0) < 1e-12
        assert s < 1e-12  # every tau_max fit identical
        assert abs(r2 - 1.0) < 1e-12
    assert abs(res.delta_h) < 1e-12


def test_generalized_hurst_detrended_ramp_degenerates():
    with pytest.raises(DegenerateSeries):
        generalized_hurst(path(np.arange(100.0)), GheConfig())


def test_generalized_hurst_is_pure():
    # the engine detrends its batch in place; the caller's levels stay as given
    p = brownian_path(600, seed=21)
    before = p.tobytes()
    a = generalized_hurst(p)
    b = generalized_hurst(p)
    assert a.h_mean == b.h_mean
    assert a.h_std == b.h_std
    assert a.scaling_r2 == b.scaling_r2
    assert p.tobytes() == before
    assert structure_function_rows(p, GheConfig()) == structure_function_rows(p, GheConfig())
    assert p.tobytes() == before


def test_generalized_hurst_delta_definition():
    res = generalized_hurst(brownian_path(2000, seed=22))
    assert res.delta_h == res.h_mean[0] - res.h_mean[2]


def test_generalized_hurst_takes_one_level_series():
    p = brownian_path(200, seed=25)
    assert generalized_hurst(list(p)) == generalized_hurst(p)
    for bad in (np.stack([p, p]), 3.0, p[np.newaxis, :]):
        with pytest.raises(InvalidParams, match="1-D"):
            generalized_hurst(bad)


def test_level_series_must_be_finite():
    # one non-finite level used to come back as an all-nan estimate
    p = brownian_path(200, seed=26)
    for bad in (np.nan, np.inf):
        levels = p.copy()
        levels[100] = bad
        with pytest.raises(InvalidParams, match="finite"):
            generalized_hurst(levels)
        with pytest.raises(InvalidParams, match="finite"):
            structure_function_rows(levels, GheConfig())


def test_level_series_must_hold_real_numbers():
    # these used to escape both single-series fronts as a raw ValueError or TypeError
    ragged = [[1.0, 2.0], [3.0]] + [[4.0, 5.0]] * 98
    complex_levels = brownian_path(99, seed=27) + 1j
    for bad in (["a"] * 100, ragged, complex_levels):
        with pytest.raises(InvalidParams, match="real numbers"):
            generalized_hurst(bad)
        with pytest.raises(InvalidParams, match="real numbers"):
            structure_function_rows(bad, GheConfig())


def test_generalized_hurst_tau_needs_headroom():
    # the plotted log K rows pass the same check as the estimate
    cfg = GheConfig(tau_max_range=(5, 19))
    for levels in (brownian_path(39, seed=28), brownian_path(75, seed=23)):
        with pytest.raises(TauTooLarge):
            generalized_hurst(levels, cfg)
        with pytest.raises(TauTooLarge):
            structure_function_rows(levels, cfg)
    generalized_hurst(brownian_path(76, seed=23), cfg)  # 77 levels > 4*19
    assert len(structure_function_rows(brownian_path(76, seed=23), cfg)) == 3 * 19


def test_ghe_config_validation():
    with pytest.raises(InvalidParams):
        GheConfig(q_values=(0.0, 1.0))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidParams):
            GheConfig(q_values=(1.0, bad))
    with pytest.raises(InvalidParams):
        GheConfig(q_values=(2, 2))
    with pytest.raises(InvalidParams):
        GheConfig(q_values=(1.0, 2.0, 2))
    with pytest.raises(InvalidParams):
        GheConfig(tau_max_range=(1, 19))
    with pytest.raises(InvalidParams):
        GheConfig(tau_max_range=(8, 7))
    for bad in ((5.7, 19), ("a", 19), (5, 19, 3), 19):
        with pytest.raises(InvalidParams, match="tau_max_range"):
            GheConfig(tau_max_range=bad)
    for bad in (("x",), 2.0, ("1.5",), (True,), (2.0, True), "12", None, (10**400,)):
        with pytest.raises(InvalidParams, match="q_values"):
            GheConfig(q_values=bad)
    for bad in ("no", 0, None):
        with pytest.raises(InvalidParams, match="detrend"):
            GheConfig(detrend=bad)
    with pytest.warns(UserWarning):
        GheConfig(q_values=(1.0, 4.0))


def test_structure_matrix_rows_independent_of_batch_position():
    # a row's bytes must not depend on its neighbours: the batch is a path
    # plus its shuffles, and reports are promised identical for any --threads
    rng = np.random.default_rng(27)
    xs = np.cumsum(rng.standard_t(3, size=(34, 8700)), axis=1)
    qs = (0.5, 1.0, 2.0, 3.0)
    batch = _log_structure_matrix(xs, qs, 19)
    assert batch.shape == (34, 4, 19)
    for i in range(xs.shape[0]):
        assert np.array_equal(batch[i], _log_structure_matrix(xs[i:i + 1], qs, 19)[0])


def test_structure_matrix_matches_fsum_oracle():
    # log K from math.fsum sums of the same terms; the error of log K is the
    # relative error of K, so it is counted in ulps of max(|log K|, 1)
    rng = np.random.default_rng(31)
    xs = np.cumsum(rng.standard_t(3, size=(3, 80)), axis=1)
    qs, hi = (0.5, 1.0, 2.0, 3.0), 19
    got = _log_structure_matrix(xs, qs, hi)
    for r, x in enumerate(xs.tolist()):
        n = len(x)
        for j, q in enumerate(qs):
            denom = math.fsum(abs(v) ** q for v in x) / n
            for tau in range(1, hi + 1):
                num = math.fsum(abs(x[t + tau] - x[t]) ** q for t in range(n - tau))
                want = math.log(num / (n - tau) / denom)
                ulps = abs(got[r, j, tau - 1] - want) / np.spacing(max(abs(want), 1.0))
                assert ulps <= 4, (r, q, tau, ulps)


def test_row_dots_add_chunks_in_column_order():
    # the q = 2 and q = 3 sums must keep the bits of one dot per chunk added
    # left to right, whatever the width's remainder and the input's strides
    rng = np.random.default_rng(41)
    for w in (1, 100, 4095, 4096, 4097, 8191, 8192, 8193, 12288, 12289):
        for m in (1, 3, 8):
            x, y = rng.random((m, 2 * w)), rng.random((2 * m, 2 * w))
            if m > 1:  # an inf row, a NaN row and an all-zero row beside the plain ones
                x[-3, 0], x[-2, w - 1], x[-1] = np.inf, np.nan, 0.0
            for a, b in ((x[:, :w], y[:m, :w]), (x[:, ::2], y[::2, 1::2])):
                got = np.empty(m)
                _row_dots(a, b, got)
                want = chunked_row_dots(a, b, ghe._DOT_COLUMNS)
                assert np.array_equal(got, want, equal_nan=True), (w, m)


def test_structure_matrix_scratch_does_not_grow_with_the_batch():
    # the kernel's own memory is two _ROW_BLOCK-row scratch buffers and a few
    # arrays the size of its output, for a path with 33 shuffles or 67
    n, qs, hi = 8701, (1.0, 2.0, 3.0), 19
    rng = np.random.default_rng(43)
    for rows in (34, 68):
        xs = np.cumsum(rng.standard_normal((rows, n)), axis=1)
        tracemalloc.start()
        try:
            _log_structure_matrix(xs, qs, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * ghe._ROW_BLOCK * n * 8 + 4 * rows * len(qs) * hi * 8 + 16 * 1024
        assert peak <= bound, (rows, peak, bound)


_BLAS_THREADS_PROBE = """
import sys
import numpy as np
from ghelab.ghe import _log_structure_matrix
rng = np.random.default_rng(5)
xs = np.cumsum(rng.standard_t(3, size=(3, 25001)), axis=1)
sys.stdout.write(_log_structure_matrix(xs, (1.0, 2.0, 3.0), 19).tobytes().hex())
"""


def test_structure_matrix_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product longer than 10 000 elements over its
    # threads, so rows this long show whether the q = 2 and 3 dots are chunked
    src = str(Path(ghe.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        out[threads] = run.stdout
    assert out["1"] and out["1"] == out["2"]


def test_scaling_function_brownian_line():
    # zeta(q) = q H(q) is the line q/2 for a random walk
    p = brownian_path(4096, seed=24)
    res = generalized_hurst(p, GheConfig(q_values=(0.5, 1.0, 2.0, 3.0)))
    for q, h in zip(res.q_values, res.h_mean):
        assert abs(q * h - 0.5 * q) < 0.1 * q


def test_scaling_diagnostic():
    assert abs(single_fit(path(np.arange(50.0)), q=2, tau_max=10).scaling_r2[0] - 1.0) < 1e-12
    # alternating path with a slight tilt: no power-law scaling in tau
    t = np.arange(64.0)
    wobble = path((-1.0) ** t + 0.001 * t)
    assert single_fit(wobble, q=1, tau_max=10).scaling_r2[0] < 0.95
    fbm_path = build_variable(
        simulate_fbm(FbmParams(hurst=0.6, length=8192), np.random.default_rng(26)),
        VariableKind.PRICE,
    )
    assert single_fit(fbm_path, q=2, tau_max=19).scaling_r2[0] >= 0.99
