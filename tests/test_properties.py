"""Every parameter constructor either returns or raises a GhelabError.

Each field is drawn from valid values mixed with junk (None, bools,
strings, nan and inf, negative or non-integral numbers, tuples), so a
field of the wrong type or domain must be reported as InvalidParams
(or another GhelabError), never as a raw TypeError, ValueError or numpy
error.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghelab import (
    ArfimaParams,
    EmpiricalSeries,
    EnsembleSpec,
    FbmParams,
    GheConfig,
    GhelabError,
    MsmParams,
    ReturnKind,
    ReturnSeries,
    StableParams,
    VariableKind,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1, -2.5, 0.5, 2.5, 10**30,
                     10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.tuples(st.integers(-5, 40), st.integers(-5, 40)),
    st.tuples(),
)


def field(valid):
    # junk one time in four, so most examples break one field at a time (a
    # plain one_of would flatten JUNK's branches and draw junk far more often)
    return st.integers(0, 3).flatmap(lambda i: JUNK if i == 0 else valid)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def builds_or_rejects(make):
    """Call make(); a GhelabError is a valid outcome, anything else raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            make()
        except GhelabError:
            pass


STABLE = st.builds(StableParams, alpha=reals(1.05, 2.0), beta=reals(-1.0, 1.0))
GENERATORS = st.sampled_from([
    StableParams(alpha=1.6),
    FbmParams(hurst=0.7, length=1024),
    ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=StableParams(alpha=1.6)),
    MsmParams(m0=1.4, sigma=0.01, k=5),
    EmpiricalSeries("x", ReturnSeries(values=np.ones(300), kind=ReturnKind.DIFFERENCE)),
])


@SETTINGS
@given(m0=field(reals(1.0, 2.0)), sigma=field(reals(1e-6, 1.0)),
       k=field(st.integers(1, 30)), b=field(reals(1.01, 10.0)),
       gamma_k=field(reals(0.0, 1.0)))
def test_msm_params_build_or_reject(m0, sigma, k, b, gamma_k):
    builds_or_rejects(lambda: MsmParams(m0=m0, sigma=sigma, k=k, b=b, gamma_k=gamma_k))


@SETTINGS
@given(alpha=field(reals(0.1, 2.0)), beta=field(reals(-1.0, 1.0)),
       gamma=field(reals(1e-3, 10.0)), delta=field(reals(-10.0, 10.0)))
def test_stable_params_build_or_reject(alpha, beta, gamma, delta):
    builds_or_rejects(lambda: StableParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta))


@SETTINGS
@given(hurst=field(reals(0.01, 0.99)), length=field(st.integers(2, 10**6)))
def test_fbm_params_build_or_reject(hurst, length):
    builds_or_rejects(lambda: FbmParams(hurst=hurst, length=length))


@SETTINGS
@given(ar_coeffs=field(st.lists(field(reals(-0.9, 0.9)), max_size=3)),
       d=field(reals(-0.45, 0.45)), stable=field(STABLE),
       ma_truncation=field(st.integers(100, 2000)))
def test_arfima_params_build_or_reject(ar_coeffs, d, stable, ma_truncation):
    builds_or_rejects(lambda: ArfimaParams(
        ar_coeffs=ar_coeffs, d=d, stable=stable, ma_truncation=ma_truncation))


@SETTINGS
@given(q_values=field(st.lists(field(reals(0.1, 4.0)), max_size=4)),
       tau_max_range=field(st.tuples(st.integers(2, 10), st.integers(10, 30))),
       detrend=field(st.booleans()))
def test_ghe_config_builds_or_rejects(q_values, tau_max_range, detrend):
    builds_or_rejects(lambda: GheConfig(
        q_values=q_values, tau_max_range=tau_max_range, detrend=detrend))


@SETTINGS
@given(generator=field(GENERATORS), n_paths=field(st.integers(1, 5)),
       path_length=field(st.integers(50, 10**4)),
       variable_kind=field(st.sampled_from([*VariableKind, "price", "cum_abs_return"])),
       ghe=field(st.just(GheConfig())), n_shuffles=field(st.integers(0, 40)),
       master_seed=field(st.integers(0, 2**64 - 1)), demean_returns=field(st.booleans()))
def test_ensemble_spec_builds_or_rejects(generator, n_paths, path_length, variable_kind,
                                         ghe, n_shuffles, master_seed, demean_returns):
    builds_or_rejects(lambda: EnsembleSpec(
        generator=generator, n_paths=n_paths, path_length=path_length,
        variable_kind=variable_kind, ghe=ghe, n_shuffles=n_shuffles,
        master_seed=master_seed, demean_returns=demean_returns))


@SETTINGS
@given(values=field(st.one_of(
           st.lists(field(reals(-1.0, 1.0)), max_size=5),
           st.lists(st.lists(reals(-1.0, 1.0), max_size=2), max_size=3))),
       kind=field(st.sampled_from([*ReturnKind, "log_return", "difference"])))
def test_return_series_builds_or_rejects(values, kind):
    builds_or_rejects(lambda: ReturnSeries(values=values, kind=kind))


@SETTINGS
@given(series_id=field(st.text(max_size=4)),
       returns=field(st.builds(ReturnSeries, values=st.lists(st.floats(), max_size=5),
                               kind=st.sampled_from(ReturnKind))))
def test_empirical_series_builds_or_rejects(series_id, returns):
    builds_or_rejects(lambda: EmpiricalSeries(series_id=series_id, returns=returns))
