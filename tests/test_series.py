import dataclasses
import math
import warnings

import numpy as np
import pytest

from ghelab import (
    InvalidParams,
    NonPositivePrice,
    ReturnKind,
    ReturnSeries,
    TooShort,
    VariableKind,
    build_variable,
    demean,
    make_returns,
    shuffle,
)


def returns(values):
    return ReturnSeries(values=np.asarray(values, dtype=float))


def test_log_returns_of_exponential_prices():
    r = make_returns([1.0, math.e, math.e**2], ReturnKind.LOG_RETURN)
    np.testing.assert_allclose(r.values, [1.0, 1.0], rtol=0, atol=1e-15)


def test_difference_returns_of_constant_prices():
    r = make_returns([2.0, 2.0, 2.0], ReturnKind.DIFFERENCE)
    assert np.array_equal(r.values, [0.0, 0.0])


def test_log_returns_values():
    r = make_returns([100.0, 101.0, 99.99], ReturnKind.LOG_RETURN)
    np.testing.assert_allclose(
        r.values, [0.009950330853155723, -0.010050335853501441], rtol=0, atol=1e-12
    )


def test_log_returns_reject_non_positive_price():
    with pytest.raises(NonPositivePrice, match="position 1"):
        make_returns([100.0, -1.0, 50.0], ReturnKind.LOG_RETURN)
    with pytest.raises(NonPositivePrice):
        make_returns([0.0, 1.0], ReturnKind.LOG_RETURN)


def test_difference_returns_allow_non_positive_levels():
    r = make_returns([1.0, -2.0, 0.0], ReturnKind.DIFFERENCE)
    assert np.array_equal(r.values, [-3.0, 2.0])


def test_return_series_validation():
    # values become a 1-D float64 array; float64 input is kept, not copied
    r = ReturnSeries(values=[1, 2, 3])
    assert r.values.dtype == np.float64
    v = np.arange(4.0)
    assert ReturnSeries(values=v).values is v
    # a bool among numbers is a flag, though numpy would cast it to 1.0
    for bad in (None, 3.0, [[1.0, 2.0]], ["a", "b"], [True, False], [[1.0], [1.0, 2.0]],
                [0.5, True], (0.5, np.False_)):
        with pytest.raises(InvalidParams, match="values"):
            ReturnSeries(values=bad)


def test_return_series_holds_only_values():
    # how the returns were formed from levels is make_returns' argument alone
    assert [f.name for f in dataclasses.fields(ReturnSeries)] == ["values"]


def test_make_returns_too_short():
    with pytest.raises(TooShort):
        make_returns([100.0], ReturnKind.LOG_RETURN)


def test_make_returns_rejects_bad_prices():
    for kind in ReturnKind:
        for bad in (None, 3.0, [[1.0, 2.0]], ["a", "b"], [True, False], [[1.0], [1.0, 2.0]],
                    [100.0, True]):
            with pytest.raises(InvalidParams, match="prices"):
                make_returns(bad, kind)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams, match="position 1"):
                make_returns([1.0, bad, 2.0], kind)


def test_make_returns_overflowing_difference():
    # two finite prices whose difference overflows: no numpy warning, and the
    # error names the 0-based position of the return and both prices
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prices, message in (
            ([1e308, -1e308, 5.0], "return at position 0 from price 1e+308 to -1e+308"),
            ([5.0, -1e308, 1e308], "return at position 1 from price -1e+308 to 1e+308"),
        ):
            with pytest.raises(InvalidParams) as info:
                make_returns(prices, ReturnKind.DIFFERENCE)
            assert str(info.value) == f"{message} is not finite"


def test_make_returns_rejects_unknown_kind():
    with pytest.raises(InvalidParams, match="kind"):
        make_returns([1.0, 2.0, 3.0], "x")


def test_demean_examples():
    r = demean(returns([1.0, 2.0, 3.0]))
    assert np.array_equal(r.values, [-1.0, 0.0, 1.0])
    r = demean(returns([0.01, -0.03, 0.05]))
    np.testing.assert_allclose(r.values, [0.0, -0.04, 0.04], rtol=0, atol=1e-17)


def test_demean_idempotent():
    rng = np.random.default_rng(5)
    once = demean(returns(rng.normal(0.3, 1.0, 257)))
    twice = demean(once)
    np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12)
    assert abs(twice.values.mean()) < 1e-12


def test_build_variable_examples():
    r = returns([1.0, -1.0, 2.0])
    price = build_variable(r, VariableKind.PRICE)
    assert price.dtype == np.float64
    assert np.array_equal(price, [0.0, 1.0, 0.0, 2.0])
    assert np.array_equal(build_variable(r, VariableKind.CUM_ABS_RETURN), [1.0, 2.0, 4.0])
    assert np.array_equal(
        build_variable(returns([0.5, -0.5]), VariableKind.CUM_SQ_RETURN), [0.25, 0.5]
    )


def test_build_variable_length_contract():
    rng = np.random.default_rng(6)
    r = returns(rng.normal(0, 1, 37))
    assert len(build_variable(r, VariableKind.PRICE)) == 38
    assert len(build_variable(r, VariableKind.CUM_ABS_RETURN)) == 37
    assert len(build_variable(r, VariableKind.CUM_SQ_RETURN)) == 37


def test_build_variable_too_short():
    with pytest.raises(TooShort):
        build_variable(returns([1.0]), VariableKind.PRICE)


def test_build_variable_rejects_unknown_kind():
    with pytest.raises(InvalidParams, match="variable_kind"):
        build_variable(returns([1.0, 2.0, 3.0]), "x")


def test_volatility_variables_non_decreasing():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = returns(rng.normal(0, 1, 64) * rng.integers(0, 2, 64))
        for kind in (VariableKind.CUM_ABS_RETURN, VariableKind.CUM_SQ_RETURN):
            x = build_variable(r, kind)
            assert np.all(np.diff(x) >= 0)


def test_shuffle_fixed_point_and_multiset():
    rng = np.random.default_rng(8)
    single = shuffle(returns([7.0]), rng)
    assert np.array_equal(single.values, [7.0])
    for _ in range(20):
        r = returns(rng.normal(0, 1, 101))
        s = shuffle(r, rng)
        assert np.array_equal(np.sort(s.values), np.sort(r.values))


def test_shuffle_uniform_over_orderings():
    # all 3! = 6 orderings of a 3-element series, each expected 1/6
    rng = np.random.default_rng(9)
    base = returns([1.0, 2.0, 3.0])
    counts = {}
    trials = 60000
    for _ in range(trials):
        key = tuple(shuffle(base, rng).values)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for count in counts.values():
        assert abs(count / trials - 1.0 / 6.0) < 0.01


def test_shuffle_reproducible():
    r = returns(np.arange(50.0))
    a = shuffle(r, np.random.default_rng(123))
    b = shuffle(r, np.random.default_rng(123))
    assert np.array_equal(a.values, b.values)


def test_log_return_round_trip():
    rng = np.random.default_rng(10)
    r = rng.normal(0.0, 0.01, 500)
    prices = np.exp(np.concatenate(([0.0], np.cumsum(r))))
    back = make_returns(prices, ReturnKind.LOG_RETURN)
    np.testing.assert_allclose(back.values, r, rtol=0, atol=1e-10)
