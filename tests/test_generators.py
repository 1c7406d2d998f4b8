import math
from dataclasses import fields

import numpy as np
import pytest

from ghelab import (
    ArfimaParams,
    FbmParams,
    InvalidParams,
    StableParams,
)
from ghelab.generators import (
    STANDARD_SCALE,
    _embedding_eigs,
    _fft_length,
    _fractional_ma_coeffs,
    sample_stable,
    simulate_arfima,
    simulate_fbm,
)

from ghelab.tables import _grid_cells

from brute_force import arfima_reference, stable_cf


def ecf(x, u):
    return np.exp(1j * u * x).mean()


def test_stable_params_validation():
    StableParams(alpha=2.0)
    StableParams(alpha=1e-300)
    for bad in (0.0, -1.0, 2.1, float("nan"), float("inf"), "1.6", True, None, 10**400):
        with pytest.raises(InvalidParams):
            StableParams(alpha=bad)
    assert [f.name for f in fields(StableParams)] == ["alpha"]


def test_fbm_params_validation():
    FbmParams(hurst=0.5, length=2)
    for bad in (dict(hurst=0.0), dict(hurst=1.0), dict(length=1),
                dict(hurst="0.5"), dict(hurst=True), dict(hurst=float("nan")),
                dict(length="10"), dict(length=10.5), dict(length=100.0),
                dict(length=True), dict(length=None)):
        with pytest.raises(InvalidParams):
            FbmParams(**dict(hurst=0.5, length=100) | bad)
    assert type(FbmParams(hurst=0.5, length=np.int64(100)).length) is int


def test_arfima_params_validation():
    inn = StableParams(alpha=1.6)
    ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=inn)
    ArfimaParams(ar_coeffs=(), d=0.49, stable=StableParams(alpha=2.0))
    with pytest.raises(InvalidParams):
        ArfimaParams(ar_coeffs=(), d=0.2, stable=StableParams(alpha=1.2))
    with pytest.raises(InvalidParams):
        ArfimaParams(ar_coeffs=(), d=-0.5, stable=inn)
    with pytest.raises(InvalidParams):
        ArfimaParams(ar_coeffs=(), d=0.5, stable=StableParams(alpha=2.0))
    with pytest.raises(InvalidParams):
        ArfimaParams(ar_coeffs=(), d=0.1, stable=StableParams(alpha=1.0))
    for coeffs in ((1.0,), (1.5,), (-1.0,)):
        with pytest.raises(InvalidParams, match="AR inverse root"):
            ArfimaParams(ar_coeffs=coeffs, d=0.1, stable=inn)
    with pytest.raises(InvalidParams, match="ar_coeffs holds at most one coefficient"):
        ArfimaParams(ar_coeffs=(0.5, 0.5), d=0.1, stable=inn)
    # wrongly typed fields are InvalidParams too, never a raw numpy or
    # Python error
    for bad in (dict(d="0.1"), dict(d=True), dict(d=None),
                dict(ar_coeffs=("x",)), dict(ar_coeffs=(float("nan"),)),
                dict(ar_coeffs=(float("inf"),)), dict(ar_coeffs=(True,)),
                dict(ar_coeffs=(10**400,)),
                dict(ar_coeffs=None), dict(ar_coeffs=0.4), dict(stable="x"),
                dict(stable=None)):
        with pytest.raises(InvalidParams):
            ArfimaParams(**dict(ar_coeffs=(0.4,), d=0.1, stable=inn) | bad)
    assert ArfimaParams(ar_coeffs=[np.float64(0.4)], d=0.1, stable=inn).ar_coeffs == (0.4,)
    # a subnormal coefficient is stationary (its root is huge), not a LinAlgError
    ArfimaParams(ar_coeffs=(2.225073858507e-311,), d=0.0, stable=StableParams(alpha=2.0))
    assert [f.name for f in fields(ArfimaParams)] == ["ar_coeffs", "d", "stable"]


def test_arfima_takes_at_most_one_ar_coefficient():
    # the tables vary only phi_1, so a second lag is refused even when stationary
    for coeffs in ((0.5, -0.2), (0.0, 0.3), (0.3, -0.2, 0.1)):
        with pytest.raises(InvalidParams, match="ar_coeffs holds at most one coefficient"):
            ArfimaParams(coeffs, 0.1, StableParams(alpha=1.6))


def test_sample_stable_size_is_required():
    rng = np.random.default_rng(0)
    p = StableParams(alpha=1.5)
    assert sample_stable(p, rng, size=5).shape == (5,)
    assert sample_stable(p, rng, np.int64(1)).shape == (1,)
    for bad in (0, 2.5, True, "5", None):
        with pytest.raises(InvalidParams, match="size"):
            sample_stable(p, rng, size=bad)
    with pytest.raises(TypeError):
        sample_stable(p, rng)


def test_sample_stable_reproducible():
    p = StableParams(alpha=1.3)
    a = sample_stable(p, np.random.default_rng(42), size=100)
    b = sample_stable(p, np.random.default_rng(42), size=100)
    assert np.array_equal(a, b)


def test_cauchy_draws_are_tan_v():
    # at alpha = 1 the general formula is sin V / cos V = tan V, the Cauchy law
    n = 10**5
    x = sample_stable(StableParams(alpha=1.0), np.random.default_rng(8), size=n)
    v = np.random.default_rng(8).uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    expected = STANDARD_SCALE * np.tan(v)
    assert np.all(np.abs(x - expected) <= 2e-15 * np.abs(expected))


@pytest.mark.parametrize("alpha", [0.7, 1.2, 1.6, 2.0])
def test_stable_draws_are_the_cms_expression(alpha):
    rng = np.random.default_rng(9)
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=1000)
    w = rng.standard_exponential(1000)
    z = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
         * (np.cos(v - alpha * v) / w) ** ((1.0 - alpha) / alpha))
    x = sample_stable(StableParams(alpha=alpha), np.random.default_rng(9), size=1000)
    assert np.array_equal(x, STANDARD_SCALE * z)


def test_sample_stable_gaussian_limit():
    # the scale sqrt(2)/2 makes alpha = 2 a unit Gaussian
    rng = np.random.default_rng(1)
    x = sample_stable(StableParams(alpha=2.0), rng, size=10**6)
    assert abs(x.mean()) < 0.004
    assert abs(x.var() - 1.0) < 0.01


def test_sample_stable_median_at_delta():
    # the law is symmetric about its location delta = 0 whatever alpha is
    rng = np.random.default_rng(2)
    for alpha in (0.6, 1.0, 1.5):
        x = sample_stable(StableParams(alpha=alpha), rng, size=10**6)
        assert abs(np.median(x)) < 0.01
        assert abs((x > 0).mean() - 0.5) < 0.002


def test_sample_stable_heavy_tails():
    rng = np.random.default_rng(3)
    x = sample_stable(StableParams(alpha=1.2), rng, size=10**6)
    assert np.abs(x).max() > 100.0


@pytest.mark.parametrize("p,us", [
    (StableParams(alpha=1.6), (0.5, 1.0, 2.0)),
    (StableParams(alpha=1.3), (0.5, 1.0)),
    (StableParams(alpha=1.0), (0.5, 1.0, 2.0)),
    (StableParams(alpha=0.8), (0.7, 1.4)),
    (StableParams(alpha=0.5), (1.0, 3.0)),
])
def test_sampler_matches_characteristic_function(p, us):
    rng = np.random.default_rng(4)
    x = sample_stable(p, rng, size=2 * 10**5)
    for u in us:
        assert abs(ecf(x, u) - stable_cf(p, u)) < 0.01


def test_stable_cf_examples():
    p = StableParams(alpha=2.0)
    assert stable_cf(p, 0.0) == 1.0
    assert stable_cf(p, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-14)
    cauchy = StableParams(alpha=1.0)
    assert stable_cf(cauchy, 2.0) == pytest.approx(math.exp(-math.sqrt(2.0)), abs=1e-14)
    assert STANDARD_SCALE == math.sqrt(2.0) / 2.0


def test_stable_cf_symmetry_and_bound():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        p = StableParams(alpha=alpha)
        for u in (-3.0, -0.7, 0.3, 2.0):
            phi = stable_cf(p, u)
            assert 0.0 < phi <= 1.0
            assert phi == stable_cf(p, -u)


def test_fbm_output_contract():
    rng = np.random.default_rng(5)
    for length in (2, 3, 37):  # 2 is the shortest length, 3 the first to round m up
        inc = simulate_fbm(FbmParams(hurst=0.6, length=length), rng)
        assert len(inc.values) == length
        assert np.all(np.isfinite(inc.values))


def test_fbm_reproducible():
    p = FbmParams(hurst=0.7, length=256)
    a = simulate_fbm(p, np.random.default_rng(6))
    b = simulate_fbm(p, np.random.default_rng(6))
    assert np.array_equal(a.values, b.values)


def test_fbm_circulant_embedding_is_nonnegative():
    # simulate_fbm clips the circulant eigenvalues at 0; this bounds what the
    # clip removes, for H across (0, 1) and every padded length m = 2 ... 16384
    # (simulate_fbm pads to powers of two)
    edges = [1e-12, 1e-9, 1e-6, 1e-3, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
    hursts = np.concatenate([edges, np.linspace(0.0, 1.0, 401)[1:-1]])
    for m in (1 << e for e in range(1, 15)):
        for h in hursts:
            g = _embedding_eigs(float(h), m)
            assert g.min() >= -1e-8 * g.max(), (h, m, g.min() / g.max())


def test_fbm_half_is_white_noise():
    rng = np.random.default_rng(7)
    inc = simulate_fbm(FbmParams(hurst=0.5, length=10**6), rng)
    x = inc.values
    assert abs(x.var() - 1.0) < 0.01
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) < 0.003


def test_fbm_antipersistent_lag_one():
    # rho(1) = (2^(2H) - 2)/2 = -0.2421 at H = 0.3
    rng = np.random.default_rng(8)
    inc = simulate_fbm(FbmParams(hurst=0.3, length=10**6), rng)
    x = inc.values
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - (2.0**0.6 - 2.0) / 2.0) < 0.01


def test_fbm_autocovariance_long_memory():
    rng = np.random.default_rng(9)
    inc = simulate_fbm(FbmParams(hurst=0.7, length=2**20), rng)
    x = inc.values - inc.values.mean()
    j = np.arange(7, dtype=float)
    want = 0.5 * ((j + 1.0) ** 1.4 - 2.0 * j**1.4 + np.abs(j - 1.0) ** 1.4)
    for lag in range(6):
        got = (x[: x.size - lag] * x[lag:]).mean()
        assert abs(got - want[lag]) < 0.01


def test_fractional_ma_coeffs_examples():
    np.testing.assert_allclose(_fractional_ma_coeffs(0.2, 2), [1.0, 0.2, 0.12],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(_fractional_ma_coeffs(-0.1, 1), [1.0, -0.1],
                               rtol=0, atol=1e-15)
    assert np.array_equal(_fractional_ma_coeffs(0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])
    assert _fractional_ma_coeffs(0.3, 0).tolist() == [1.0]


def test_fractional_ma_coeffs_recurrence():
    for d in (0.4, 0.1, -0.3):
        n = 500
        psi = _fractional_ma_coeffs(d, n)
        j = np.arange(1, n + 1, dtype=float)
        factors = (j - 1.0 + d) / j
        assert np.array_equal(psi[1:], psi[:-1] * factors)
        assert np.all(np.abs(psi[1:]) < 1.0)


def test_arfima_white_noise_case():
    p = ArfimaParams(ar_coeffs=(), d=0.0, stable=StableParams(alpha=2.0))
    r = simulate_arfima(p, 10**5, np.random.default_rng(10))
    assert len(r.values) == 10**5
    x = r.values
    assert abs(x.var() - 1.0) < 0.02
    assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 0.01


def test_arfima_ar1_autocorrelation():
    p = ArfimaParams(ar_coeffs=(0.4,), d=0.0, stable=StableParams(alpha=2.0))
    x = simulate_arfima(p, 10**5, np.random.default_rng(11)).values
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - 0.4) < 0.01


def test_arfima_fractional_lag_one():
    # ARFIMA(0, d, 0) has rho(1) = d/(1 - d)
    p = ArfimaParams(ar_coeffs=(), d=0.2, stable=StableParams(alpha=2.0))
    x = simulate_arfima(p, 2 * 10**5, np.random.default_rng(12)).values
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - 0.25) < 0.01


def test_arfima_reproducible():
    p = ArfimaParams(ar_coeffs=(0.3,), d=0.1, stable=StableParams(alpha=1.8))
    a = simulate_arfima(p, 500, np.random.default_rng(14))
    b = simulate_arfima(p, 500, np.random.default_rng(14))
    assert np.array_equal(a.values, b.values)


def _valid_cells(table_id):
    return [g for _, g in _grid_cells(table_id) if g]


@pytest.mark.parametrize("cells", [
    pytest.param(_valid_cells("T7"), id="T7"),
    pytest.param(_valid_cells("T8"), id="T8"),
])
def test_arfima_matches_the_scipy_filters_bit_for_bit(cells):
    for p in cells:
        for length in (1, 300, 8192):
            for seed in (5, 6):
                got = simulate_arfima(p, length, np.random.default_rng(seed)).values
                want = arfima_reference(p, length, np.random.default_rng(seed))
                assert np.array_equal(got, want), (p, length, seed)


def test_fft_length_is_scipys_real_fast_length():
    from scipy.fft import next_fast_len

    for n in range(1, 20_001):
        assert _fft_length(n) == next_fast_len(n, True), n
