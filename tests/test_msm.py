from dataclasses import fields

import numpy as np
import pytest

from ghelab import (
    EnsembleSpec,
    InvalidParams,
    MsmParams,
    VariableKind,
    gmm_estimates,
    run_ensemble,
)
from ghelab.msm import _transition_probs, simulate_msm

from brute_force import matrix_msm


def test_params_validation():
    MsmParams(m0=1.0, sigma=0.01, k=1)
    MsmParams(m0=2.0, sigma=0.01, k=30)
    MsmParams(m0=1.4, sigma=10**30, k=5)  # ints beyond int64 are numbers too
    for bad in (
        dict(m0=0.9), dict(m0=2.1), dict(sigma=0.0), dict(sigma=-1.0),
        dict(sigma=float("inf")), dict(sigma=float("nan")),
        dict(k=0), dict(m0="1.4"), dict(k=None),
        dict(k=True), dict(k=5.0), dict(k=2.5), dict(k=float("inf")),
        dict(k=float("nan")), dict(m0=True), dict(sigma=None),
        dict(sigma=10**400),
    ):
        kwargs = dict(m0=1.4, sigma=0.01, k=5) | bad
        with pytest.raises(InvalidParams):
            MsmParams(**kwargs)
    assert [f.name for f in fields(MsmParams)] == ["m0", "sigma", "k"]


def test_transition_probs_examples():
    # b = 2, gamma_k = 0.5
    assert np.array_equal(_transition_probs(1), [0.5])
    five = _transition_probs(5)
    expected = [1.0 - 0.5 ** (2.0 ** (i - 5)) for i in range(1, 6)]
    np.testing.assert_allclose(five, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(five[:2], [0.04239671930142572, 0.08299595679532876],
                               rtol=0, atol=1e-15)


def test_transition_probs_monotone_and_exact_at_k():
    for k in range(1, 31):
        p = _transition_probs(k)
        assert p.shape == (k,)
        assert p[-1] == 0.5
        assert np.all(np.diff(p) > 0)
        assert np.all((p > 0) & (p < 1))


def test_simulate_msm_output_contract():
    r = simulate_msm(MsmParams(m0=1.4, sigma=0.01, k=8), 257, np.random.default_rng(4))
    assert len(r) == 257


def test_simulate_msm_reproducible():
    params = MsmParams(m0=1.5, sigma=0.02, k=6)
    a = simulate_msm(params, 500, np.random.default_rng(99))
    b = simulate_msm(params, 500, np.random.default_rng(99))
    assert np.array_equal(a.values, b.values)


def test_simulate_msm_matches_the_matrix_oracle(monkeypatch):
    # simulate_msm builds the product one component at a time; the draws and
    # the product order are those of the matrix form, so the bits are too.
    # It builds each component's path from the runs between its renewals.
    # The edge cases come from patched renewal probabilities: at 1 every
    # component renews at every step, so its first run is empty and every
    # other run is one step long; at 0 none renews, so one run covers the path
    lengths = (1, 2, 3, 4097, 8700)
    cases = [(p, n, None) for p in gmm_estimates().values() for n in lengths]
    cases += [(MsmParams(m0=1.4, sigma=0.01, k=k), n, g)
              for k in (1, 20) for g in (0.0, 1.0) for n in lengths]
    for seed, (params, n, g) in enumerate(cases):
        probs = _transition_probs(params.k) if g is None else np.full(params.k, g)
        monkeypatch.setattr("ghelab.msm._transition_probs", lambda k: probs)
        got = simulate_msm(params, n, np.random.default_rng(seed)).values
        want = matrix_msm(params, n, np.random.default_rng(seed), probs)
        assert np.array_equal(got, want), (params, n, g)


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
    gammas = _transition_probs(params.k)
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
