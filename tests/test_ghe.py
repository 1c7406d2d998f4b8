import numpy as np
import pytest

from ghelab import (
    DegenerateSeries,
    FbmParams,
    GheConfig,
    InvalidParams,
    NonPositiveStructureFunction,
    ReturnKind,
    ReturnSeries,
    SeriesPath,
    TauTooLarge,
    TooShort,
    VariableKind,
    build_variable,
    detrend_linear,
    estimate_drift,
    fit_hurst,
    generalized_hurst,
    scaling_diagnostic,
    scaling_function,
    simulate_fbm,
    structure_function,
)
from ghelab.ghe import _log_structure_matrix, _ols_loglog


def path(values):
    return SeriesPath(values=np.asarray(values, dtype=float),
                      variable_kind=VariableKind.PRICE)


def brownian_path(n, seed):
    rng = np.random.default_rng(seed)
    r = ReturnSeries(values=rng.standard_normal(n), kind=ReturnKind.DIFFERENCE,
                     demeaned=False)
    return build_variable(r, VariableKind.PRICE)


def test_estimate_drift_examples():
    assert estimate_drift(path([0, 1, 2, 3])).eta == 1.0
    assert estimate_drift(path([5, 5, 5])).eta == 0.0
    assert abs(estimate_drift(path([0, 0.3, 0.1, 0.9])).eta - 0.3) < 1e-15
    with pytest.raises(TooShort):
        estimate_drift(path([1.0]))


def test_detrend_linear_examples():
    p = path([0, 1, 2, 3])
    out = detrend_linear(p, estimate_drift(p))
    assert np.array_equal(out.values, [0, 0, 0, 0])
    p = path([0, 0.3, 0.1, 0.9])
    out = detrend_linear(p, estimate_drift(p))
    np.testing.assert_allclose(out.values, [0, 0, -0.5, 0], rtol=0, atol=1e-15)


def test_detrend_kills_drift():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = path(np.cumsum(rng.normal(0.2, 1.0, 300)))
        out = detrend_linear(p, estimate_drift(p))
        assert abs(estimate_drift(out).eta) < 1e-12


def test_structure_function_examples():
    # X = [0,1,0,1,0,1]: five increments of size 1, mean level 0.5
    assert structure_function(path([0, 1, 0, 1, 0, 1]), q=1, tau=1) == 2.0
    assert structure_function(path([3, 3, 3, 3]), q=2, tau=1) == 0.0
    assert structure_function(path([0, 2]), q=2, tau=1) == 2.0


def test_structure_function_errors():
    p = path([0, 1, 2, 3])
    with pytest.raises(TauTooLarge):
        structure_function(p, q=1, tau=4)
    with pytest.raises(TauTooLarge):
        structure_function(p, q=1, tau=0)
    with pytest.raises(DegenerateSeries):
        structure_function(path([0, 0, 0, 0]), q=1, tau=1)
    with pytest.raises(InvalidParams):
        structure_function(p, q=0, tau=1)


def test_structure_function_sign_flip_invariance():
    p = brownian_path(200, seed=11)
    flipped = path(-p.values)
    for q in (2.0, 1.0, 3.0):
        for tau in (1, 3, 7):
            assert structure_function(p, q, tau) == structure_function(flipped, q, tau)


def test_structure_function_scale_invariance():
    p = brownian_path(200, seed=12)
    for c in (2.0, -3.0, 0.5, 10.0):
        scaled = path(c * p.values)
        for q in (0.5, 1.0, 2.0, 3.0):
            a = structure_function(p, q, 5)
            b = structure_function(scaled, q, 5)
            assert abs(a - b) <= 1e-10 * abs(a)


def test_fit_hurst_ramp_is_exact():
    # linear ramp: |X(t+tau)-X(t)| = tau exactly, so H(q) = 1 for every q
    p = path(np.arange(100.0))
    for q in (0.5, 1.0, 2.0, 3.0):
        assert abs(fit_hurst(p, q=q, tau_max=10) - 1.0) < 1e-12


def test_fit_hurst_injected_power_law():
    taus = np.arange(1, 20)
    for q in (0.5, 1.0, 2.0, 3.0):
        slope, r2 = _ols_loglog(taus, taus ** (0.5 * q))
        assert abs(slope / q - 0.5) < 1e-12
        assert abs(r2 - 1.0) < 1e-12


def test_fit_hurst_gaussian_random_walk():
    h = np.mean([fit_hurst(brownian_path(8192, seed=s), q=1, tau_max=19)
                 for s in range(10)])
    assert abs(h - 0.5) < 0.01


def test_fit_hurst_errors():
    with pytest.raises(InvalidParams):
        fit_hurst(brownian_path(100, seed=0), q=1, tau_max=1)
    alternating = path(np.tile([0.0, 1.0], 16))
    with pytest.raises(NonPositiveStructureFunction):
        fit_hurst(alternating, q=1, tau_max=5)


def test_generalized_hurst_ramp_exact():
    cfg = GheConfig(detrend=False)
    res = generalized_hurst(path(np.arange(100.0)), cfg)
    for h, s, r2 in zip(res.h_mean, res.h_std, res.scaling_r2):
        assert abs(h - 1.0) < 1e-12
        assert s < 1e-12  # every tau_max fit identical
        assert abs(r2 - 1.0) < 1e-12
    assert abs(res.delta_h) < 1e-12
    assert res.h_for(2) == res.h_mean[1]


def test_generalized_hurst_detrended_ramp_degenerates():
    with pytest.raises(DegenerateSeries):
        generalized_hurst(path(np.arange(100.0)), GheConfig())


def test_generalized_hurst_is_pure():
    p = brownian_path(600, seed=21)
    a = generalized_hurst(p)
    b = generalized_hurst(p)
    assert a.h_mean == b.h_mean
    assert a.h_std == b.h_std
    assert a.scaling_r2 == b.scaling_r2


def test_generalized_hurst_delta_definition():
    res = generalized_hurst(brownian_path(2000, seed=22))
    assert res.delta_h == res.h_mean[0] - res.h_mean[2]


def test_generalized_hurst_tau_needs_headroom():
    cfg = GheConfig(tau_max_range=(5, 19))
    with pytest.raises(TauTooLarge):
        generalized_hurst(brownian_path(75, seed=23), cfg)
    generalized_hurst(brownian_path(76, seed=23), cfg)  # 77 levels > 4*19


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


def test_scaling_function_brownian_line():
    p = brownian_path(4096, seed=24)
    pairs = scaling_function(p, [0.5, 1.0, 2.0, 3.0])
    for q, zeta in pairs:
        assert abs(zeta - 0.5 * q) < 0.1 * q


def test_scaling_function_matches_generalized_hurst():
    p = brownian_path(1024, seed=25)
    cfg = GheConfig()
    pairs = scaling_function(p, [1.0, 2.0, 3.0], cfg)
    res = generalized_hurst(p, cfg)
    for (q, zeta), h in zip(pairs, res.h_mean):
        assert abs(zeta - q * h) < 1e-12


def test_scaling_diagnostic():
    assert abs(scaling_diagnostic(path(np.arange(50.0)), q=2, tau_max=10) - 1.0) < 1e-12
    # alternating path with a slight tilt: no power-law scaling in tau
    t = np.arange(64.0)
    wobble = path((-1.0) ** t + 0.001 * t)
    assert scaling_diagnostic(wobble, q=1, tau_max=10) < 0.95
    fbm_path, _ = simulate_fbm(FbmParams(hurst=0.6, length=8192),
                               np.random.default_rng(26))
    assert scaling_diagnostic(fbm_path, q=2, tau_max=19) >= 0.99
