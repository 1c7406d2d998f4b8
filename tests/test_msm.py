import numpy as np
import pytest

from ghelab import (
    EnsembleSpec,
    InvalidParams,
    MsmParams,
    ReturnKind,
    VariableKind,
    gmm_estimates,
    run_ensemble,
)
from ghelab.msm import _transition_probs, simulate_msm


def test_params_validation():
    MsmParams(m0=1.0, sigma=0.01, k=1)
    MsmParams(m0=2.0, sigma=0.01, k=30)
    MsmParams(m0=1.4, sigma=10**30, k=5, b=10**30)  # ints beyond int64 are numbers too
    for bad in (
        dict(m0=0.9), dict(m0=2.1), dict(sigma=0.0), dict(sigma=-1.0),
        dict(sigma=float("inf")), dict(sigma=float("nan")),
        dict(k=0), dict(b=1.0), dict(b=float("nan")), dict(b=float("inf")),
        dict(gamma_k=-0.1), dict(gamma_k=1.1), dict(m0="1.4"), dict(k=None),
        dict(k=True), dict(k=5.0), dict(k=2.5), dict(k=float("inf")),
        dict(k=float("nan")), dict(m0=True), dict(sigma=None),
        dict(sigma=10**400), dict(b=10**400),
    ):
        kwargs = dict(m0=1.4, sigma=0.01, k=5) | bad
        with pytest.raises(InvalidParams):
            MsmParams(**kwargs)


def probs(k, b=2.0, gamma_k=0.5):
    return _transition_probs(MsmParams(m0=1.5, sigma=1.0, k=k, b=b, gamma_k=gamma_k))


def test_transition_probs_examples():
    assert np.array_equal(probs(1), [0.5])
    five = probs(5)
    expected = [1.0 - 0.5 ** (2.0 ** (i - 5)) for i in range(1, 6)]
    np.testing.assert_allclose(five, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(five[:2], [0.04239671930142572, 0.08299595679532876],
                               rtol=0, atol=1e-15)
    assert np.array_equal(probs(4, gamma_k=0.0), np.zeros(4))


def test_transition_probs_monotone_and_exact_at_k():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(1, 25))
        b = float(rng.uniform(1.1, 5.0))
        gk = float(rng.uniform(0.01, 0.99))
        p = probs(k, b, gk)
        assert p[-1] == 1.0 - (1.0 - gk)
        assert np.all(np.diff(p) > 0) or k == 1
        assert np.all((p >= 0) & (p <= 1))


def test_simulate_msm_output_contract():
    r = simulate_msm(MsmParams(m0=1.4, sigma=0.01, k=8), 257, np.random.default_rng(4))
    assert len(r) == 257
    assert r.kind is ReturnKind.DIFFERENCE


def test_simulate_msm_reproducible():
    params = MsmParams(m0=1.5, sigma=0.02, k=6)
    a = simulate_msm(params, 500, np.random.default_rng(99))
    b = simulate_msm(params, 500, np.random.default_rng(99))
    assert np.array_equal(a.values, b.values)


def matrix_msm(params, length, rng):
    """The cascade as one (k, length) matrix of multipliers, multiplied over k."""
    k = params.k
    probs = _transition_probs(params)
    bits = rng.integers(0, 2, size=(k, length + 1))
    cand = np.where(bits == 0, params.m0, 2.0 - params.m0)
    renew = rng.random((k, length)) < probs[:, np.newaxis]
    steps = np.arange(1, length + 1)
    last = np.maximum.accumulate(np.where(renew, steps, 0), axis=1)
    mult = np.take_along_axis(cand, last, axis=1)
    vol = params.sigma * np.sqrt(np.prod(mult, axis=0))
    return vol * rng.standard_normal(length)


def test_simulate_msm_matches_the_matrix_oracle():
    # simulate_msm builds the product one component at a time; the draws and
    # the product order are those of the matrix form, so the bits are too.
    # It builds each component's path from the runs between its renewals;
    # with gamma_k = 1 every component renews at every step, so its first
    # run is empty and every other run is one step long
    lengths = (1, 2, 3, 4097, 8700)
    cases = [(p, n) for p in gmm_estimates().values() for n in lengths]
    cases += [(MsmParams(m0=1.4, sigma=0.01, k=1, b=3.0, gamma_k=g), n)
              for g in (0.0, 1.0) for n in lengths]
    cases += [(MsmParams(m0=1.4, sigma=0.01, k=20, gamma_k=1.0), n) for n in lengths]
    for seed, (params, n) in enumerate(cases):
        got = simulate_msm(params, n, np.random.default_rng(seed)).values
        assert np.array_equal(got, matrix_msm(params, n, np.random.default_rng(seed))), (params, n)


def test_simulate_msm_moments():
    params = MsmParams(m0=1.437, sigma=0.012, k=10)
    r = simulate_msm(params, 10**6, np.random.default_rng(5)).values
    se = r.std() / np.sqrt(r.size)
    assert abs(r.mean()) < 4 * se
    assert abs((r**2).mean() - params.sigma**2) < 0.05 * params.sigma**2


def test_simulate_msm_squared_return_autocovariance_law():
    # the components renew independently, so for tau >= 1
    # E[r_t^2 r_{t+tau}^2] / sigma^4 = prod_i (1 + (1 - gamma_i)^tau (m0 - 1)^2)
    # (Calvet & Fisher 2004, J. Fin. Econometrics 2:49); the product pins the
    # set of gamma_i from _transition_probs, not their order
    params = MsmParams(m0=1.4, sigma=1.0, k=3)
    gammas = _transition_probs(params)
    # seed-to-seed std of one 200 000-step estimate: 0.020 at lag 1, 0.013 at
    # lag 5; each bound is 4 standard errors of the 10-seed mean
    bounds = {1: 0.025, 5: 0.016}
    sq = [simulate_msm(params, 200_000, np.random.default_rng(seed)).values ** 2
          for seed in range(10)]
    for tau, bound in bounds.items():
        law = np.prod(1.0 + (1.0 - gammas) ** tau * (params.m0 - 1.0) ** 2)
        got = np.mean([np.mean(x[:-tau] * x[tau:]) for x in sq])
        assert abs(got - law) < bound, (tau, got, law)


def test_simulate_msm_gaussian_degenerate_case():
    # m0 = 1 collapses every multiplier to 1: iid N(0, sigma^2)
    params = MsmParams(m0=1.0, sigma=0.01, k=10)
    r = simulate_msm(params, 10**5, np.random.default_rng(6)).values
    assert abs(r.std() / params.sigma - 1.0) < 0.01
    assert abs(np.corrcoef(r[:-1], r[1:])[0, 1]) < 0.01
    spec = EnsembleSpec(generator=params, n_paths=10, path_length=8192,
                        n_shuffles=0, master_seed=6)
    rep = run_ensemble(spec)
    for h in rep.original_mean:
        assert abs(h - 0.5) < 0.01


def test_msm_volatility_scaling_dow_k20():
    # published ensemble mean for the Dow k=20 fit, sum |r| variable
    params = gmm_estimates()[("Dow", 20)]
    assert (params.m0, params.sigma) == (1.318, 0.011)
    spec = EnsembleSpec(generator=params, n_paths=50, path_length=8700,
                        variable_kind=VariableKind.CUM_ABS_RETURN,
                        n_shuffles=0, master_seed=7)
    rep = run_ensemble(spec)
    assert abs(rep.original_mean[0] - 0.789) < 0.02


def test_gmm_estimates_fixture():
    table = gmm_estimates()
    assets = {asset for asset, _ in table}
    assert assets == {"Dow", "Nik", "DM/US", "US/UK", "TB1", "TB2", "TB3", "TB5", "TB10"}
    assert len(table) == 36
    assert {k for _, k in table} == {5, 10, 15, 20}
    nik = table[("Nik", 10)]
    assert (nik.m0, nik.sigma, nik.k) == (1.437, 0.012, 10)
    for params in table.values():
        assert 1.0 <= params.m0 <= 2.0
        assert params.sigma > 0
