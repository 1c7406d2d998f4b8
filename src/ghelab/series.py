"""Return series and the stochastic variables built from them.

Three variables are supported for scaling analysis: the cumulated
return path (a log-price level starting at 0), the running sum of
absolute returns, and the running sum of squared returns. The latter
two are volatility proxies and are non-decreasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParams, NonPositivePrice, TooShort, _instance, _member, _real_vector


class ReturnKind(str, Enum):
    LOG_RETURN = "log_return"
    DIFFERENCE = "difference"


class VariableKind(str, Enum):
    PRICE = "price"
    CUM_ABS_RETURN = "cum_abs_return"
    CUM_SQ_RETURN = "cum_sq_return"


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Increments r_t, whatever levels they were formed from."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _real_vector("values", self.values))

    def __len__(self) -> int:
        return len(self.values)


def make_returns(prices, kind: ReturnKind) -> ReturnSeries:
    """Differences of (log) price levels; the series keeps the increments, not the kind.

    log_return: r_t = ln(p_{t+1}) - ln(p_t); difference: r_t = p_{t+1} - p_t.
    A difference that overflows raises InvalidParams naming its 0-based
    position t and both prices, without numpy's overflow warning.
    """
    p = _real_vector("prices", prices)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        raise InvalidParams(f"price at position {bad[0]} is {float(p[bad[0]])!r}")
    if p.size < 2:
        raise TooShort(f"need at least 2 prices, got {p.size}")
    kind = _member("kind", ReturnKind, kind)
    if kind is ReturnKind.LOG_RETURN:
        if np.any(p <= 0):
            bad = int(np.argmax(p <= 0))
            raise NonPositivePrice(f"price at position {bad} is {float(p[bad])!r}")
        r = np.diff(np.log(p))
    else:
        with np.errstate(over="ignore"):
            r = np.diff(p)
        bad = np.flatnonzero(~np.isfinite(r))
        if bad.size:
            t = int(bad[0])
            raise InvalidParams(f"return at position {t} from price {float(p[t])!r} "
                                f"to {float(p[t + 1])!r} is not finite")
    return ReturnSeries(r)


def demean(r: ReturnSeries) -> ReturnSeries:
    """Subtract the sample mean."""
    if len(_instance("r", r, ReturnSeries)) < 1:
        raise TooShort("cannot demean an empty series")
    return ReturnSeries(r.values - r.values.mean())


def build_variable(r: ReturnSeries, variable_kind: VariableKind) -> np.ndarray:
    """Accumulate returns into one of the three level series X(t)."""
    if len(_instance("r", r, ReturnSeries)) < 2:
        raise TooShort(f"need at least 2 returns, got {len(r)}")
    variable_kind = _member("variable_kind", VariableKind, variable_kind)
    v = r.values
    if variable_kind is VariableKind.PRICE:
        x = np.empty(v.size + 1)
        x[0] = 0.0
        np.cumsum(v, out=x[1:])
    elif variable_kind is VariableKind.CUM_ABS_RETURN:
        x = np.cumsum(np.abs(v))
    else:
        x = np.cumsum(np.square(v))
    return x


def shuffle(r: ReturnSeries, rng: np.random.Generator) -> ReturnSeries:
    """Uniformly random permutation of the returns (Fisher-Yates).

    Destroys temporal structure while preserving the marginal
    distribution exactly.
    """
    if len(_instance("r", r, ReturnSeries)) < 1:
        raise TooShort("cannot shuffle an empty series")
    _instance("rng", rng, np.random.Generator)
    return ReturnSeries(rng.permutation(r.values))
