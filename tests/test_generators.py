import cmath
import math

import numpy as np
import pytest

from ghelab import (
    STANDARD_SCALE,
    ArfimaParams,
    FbmParams,
    InvalidParams,
    NonStationaryAR,
    ReturnKind,
    StableParams,
    fractional_ma_coeffs,
    sample_stable,
    simulate_arfima,
    simulate_fbm,
    stable_cf,
)
from ghelab.generators import _embedding_eigs


def ecf(x, u):
    return np.exp(1j * u * x).mean()


def test_stable_params_validation():
    StableParams(alpha=2.0)
    StableParams(alpha=0.5, beta=-1.0, gamma=3.0, delta=-2.0)
    for bad in (dict(alpha=0.0), dict(alpha=2.1), dict(beta=1.5),
                dict(beta=-1.5), dict(gamma=0.0), dict(gamma=-1.0),
                dict(gamma=float("inf")), dict(gamma=float("nan")),
                dict(delta=float("nan")), dict(delta=float("inf")),
                dict(alpha="1.6"), dict(gamma="1"), dict(alpha=True),
                dict(beta=False), dict(gamma=10**400), dict(delta=10**400)):
        with pytest.raises(InvalidParams):
            StableParams(**dict(alpha=1.5) | bad)


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
    with pytest.raises(InvalidParams):
        ArfimaParams(ar_coeffs=(), d=0.1, stable=inn, ma_truncation=0)
    for coeffs in ((1.0,), (0.5, 0.5)):
        with pytest.raises(NonStationaryAR):
            ArfimaParams(ar_coeffs=coeffs, d=0.1, stable=inn)
    # wrongly typed fields are InvalidParams too, never a raw numpy or
    # Python error
    for bad in (dict(d="0.1"), dict(d=True), dict(d=None),
                dict(ar_coeffs=("x",)), dict(ar_coeffs=(float("nan"),)),
                dict(ar_coeffs=(float("inf"),)), dict(ar_coeffs=(True,)),
                dict(ar_coeffs=(10**400,)),
                dict(ar_coeffs=None), dict(ar_coeffs=0.4), dict(stable="x"),
                dict(stable=None), dict(ma_truncation="x"), dict(ma_truncation=None),
                dict(ma_truncation=1000.0), dict(ma_truncation=True)):
        with pytest.raises(InvalidParams):
            ArfimaParams(**dict(ar_coeffs=(0.4,), d=0.1, stable=inn) | bad)
    assert ArfimaParams(ar_coeffs=[np.float64(0.4)], d=0.1, stable=inn).ar_coeffs == (0.4,)
    # a subnormal coefficient is stationary (its root is huge), not a LinAlgError
    ArfimaParams(ar_coeffs=(2.225073858507e-311,), d=0.0, stable=StableParams(alpha=2.0))


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
    p = StableParams(alpha=1.3, beta=0.5)
    a = sample_stable(p, np.random.default_rng(42), size=100)
    b = sample_stable(p, np.random.default_rng(42), size=100)
    assert np.array_equal(a, b)


def test_sample_stable_gaussian_limit():
    # gamma = sqrt(2)/2 makes alpha = 2 a unit Gaussian
    rng = np.random.default_rng(1)
    x = sample_stable(StableParams(alpha=2.0, gamma=STANDARD_SCALE), rng, size=10**6)
    assert abs(x.mean()) < 0.004
    assert abs(x.var() - 1.0) < 0.01


def test_sample_stable_median_at_delta():
    # beta = 0 is symmetric about delta regardless of alpha
    rng = np.random.default_rng(2)
    x = sample_stable(StableParams(alpha=1.5, gamma=1.0, delta=5.0), rng, size=10**6)
    assert abs(np.median(x) - 5.0) < 0.01


def test_sample_stable_heavy_tails():
    rng = np.random.default_rng(3)
    x = sample_stable(StableParams(alpha=1.2, gamma=1.0), rng, size=10**6)
    assert np.abs(x).max() > 100.0


@pytest.mark.parametrize("p,us", [
    (StableParams(alpha=1.6), (0.5, 1.0, 2.0)),
    (StableParams(alpha=1.3, beta=0.8, gamma=1.0), (0.5, 1.0)),
    (StableParams(alpha=1.0, beta=0.5, gamma=1.0), (0.5, 1.0)),
    (StableParams(alpha=1.0, beta=-1.0, gamma=2.0, delta=1.0), (0.7,)),
    (StableParams(alpha=0.8, beta=0.3, gamma=0.5, delta=-1.0), (1.0,)),
])
def test_sampler_matches_characteristic_function(p, us):
    rng = np.random.default_rng(4)
    x = sample_stable(p, rng, size=2 * 10**5)
    for u in us:
        assert abs(ecf(x, u) - stable_cf(p, u)) < 0.01


def test_stable_cf_examples():
    p = StableParams(alpha=2.0, gamma=STANDARD_SCALE)
    assert stable_cf(p, 0.0) == 1.0 + 0.0j
    assert stable_cf(p, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-14)
    # at alpha = 2 the skew term vanishes
    skew = StableParams(alpha=2.0, beta=1.0, gamma=STANDARD_SCALE)
    assert abs(stable_cf(skew, 1.3) - stable_cf(p, 1.3)) < 1e-12
    cauchy = StableParams(alpha=1.0, gamma=1.0)
    assert stable_cf(cauchy, 2.0) == pytest.approx(cmath.exp(-2.0), abs=1e-14)


def test_stable_cf_symmetry_and_bound():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for beta in (-1.0, 0.0, 0.7):
            p = StableParams(alpha=alpha, beta=beta, gamma=0.9, delta=0.3)
            for u in (-3.0, -0.7, 0.3, 2.0):
                phi = stable_cf(p, u)
                assert abs(phi) <= 1.0 + 1e-12
                assert abs(phi - stable_cf(p, -u).conjugate()) < 1e-14


def test_fbm_output_contract():
    rng = np.random.default_rng(5)
    inc = simulate_fbm(FbmParams(hurst=0.6, length=37), rng)
    assert inc.kind is ReturnKind.DIFFERENCE
    assert len(inc.values) == 37


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
    np.testing.assert_allclose(fractional_ma_coeffs(0.2, 2), [1.0, 0.2, 0.12],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(fractional_ma_coeffs(-0.1, 1), [1.0, -0.1],
                               rtol=0, atol=1e-15)
    assert np.array_equal(fractional_ma_coeffs(0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])
    assert fractional_ma_coeffs(0.3, 0).tolist() == [1.0]
    with pytest.raises(InvalidParams):
        fractional_ma_coeffs(1.0, 5)
    with pytest.raises(InvalidParams, match="n must be >= 0, got -1"):
        fractional_ma_coeffs(0.2, -1)
    for bad in (2.5, "5", True):
        with pytest.raises(InvalidParams, match="n must be an integer"):
            fractional_ma_coeffs(0.1, bad)


def test_fractional_ma_coeffs_recurrence():
    for d in (0.4, 0.1, -0.3):
        n = 500
        psi = fractional_ma_coeffs(d, n)
        j = np.arange(1, n + 1, dtype=float)
        factors = (j - 1.0 + d) / j
        assert np.array_equal(psi[1:], psi[:-1] * factors)
        assert np.all(np.abs(psi[1:]) < 1.0)


def test_arfima_white_noise_case():
    p = ArfimaParams(ar_coeffs=(), d=0.0, stable=StableParams(alpha=2.0))
    r = simulate_arfima(p, 10**5, np.random.default_rng(10))
    assert r.kind is ReturnKind.DIFFERENCE
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


def test_arfima_truncation_floor():
    # rejected at construction, not when path 0 is simulated
    for bad in (50, 99):
        with pytest.raises(InvalidParams):
            ArfimaParams(ar_coeffs=(), d=0.1, stable=StableParams(alpha=1.6),
                         ma_truncation=bad)
    p = ArfimaParams(ar_coeffs=(), d=0.1, stable=StableParams(alpha=1.6),
                     ma_truncation=100)
    assert simulate_arfima(p, 100, np.random.default_rng(13)).values.size == 100


def test_arfima_reproducible():
    p = ArfimaParams(ar_coeffs=(0.3,), d=0.1, stable=StableParams(alpha=1.8))
    a = simulate_arfima(p, 500, np.random.default_rng(14))
    b = simulate_arfima(p, 500, np.random.default_rng(14))
    assert np.array_equal(a.values, b.values)
