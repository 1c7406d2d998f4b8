"""Markov-switching multifractal return process.

Returns are r_t = sigma_t u_t with iid standard normal u_t and

    sigma_t^2 = sigma^2 * prod_{i=1..k} M_t^(i),

where each volatility component M^(i) takes values in {m0, 2 - m0}
(mean 1 by construction) and is renewed at each step with probability

    gamma_i = 1 - (1 - gamma_k)^(b^(i - k)),

a geometric progression of renewal frequencies: low-rank components
switch rarely and carry the long memory, the rank-k component switches
with probability gamma_k. Defaults b=2, gamma_k=0.5 follow the standard
binomial cascade calibration; only (m0, sigma) vary across the bundled
fixture of moment-based estimates.

Each component starts from its stationary marginal (a fair draw from
{m0, 2 - m0}), so no burn-in is required; a step advances the state
first and then emits the return.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidParams, _count, _real
from .series import ReturnKind, ReturnSeries


@dataclass(frozen=True)
class MsmParams:
    """Volatility-cascade parameters (m0, sigma, k, b, gamma_k)."""

    m0: float
    sigma: float
    k: int
    b: float = 2.0
    gamma_k: float = 0.5

    def __post_init__(self):
        for name in ("m0", "sigma", "b", "gamma_k"):
            _real(name, getattr(self, name))
        object.__setattr__(self, "k", _count("k", self.k, least=1))
        if not 1.0 <= self.m0 <= 2.0:
            raise InvalidParams(f"m0 must lie in [1, 2], got {self.m0}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidParams(f"sigma must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.b) and self.b > 1):
            raise InvalidParams(f"b must be finite and exceed 1, got {self.b}")
        if not 0.0 <= self.gamma_k <= 1.0:
            raise InvalidParams(f"gamma_k must lie in [0, 1], got {self.gamma_k}")


def _transition_probs(params: MsmParams) -> np.ndarray:
    """Renewal probabilities gamma_1..gamma_k, exact at rank k."""
    i = np.arange(1, params.k + 1, dtype=float)
    return 1.0 - (1.0 - params.gamma_k) ** (float(params.b) ** (i - params.k))


def simulate_msm(
    params: MsmParams, length: int, rng: np.random.Generator
) -> ReturnSeries:
    """Simulate `length` returns from the cascade.

    The state path is materialized without a per-step loop: every
    potential renewal value is drawn up front, and the active value of a
    component at step t is the one drawn at its most recent renewal
    (column 0 holds the initial stationary draw). The Python loop runs
    over the k components, not over steps: a component's multiplier
    path is the runs between its renewals, each run filled with the
    value drawn where it starts (np.repeat over the run lengths; the
    run before the first renewal holds the initial draw and is empty
    when step 1 renews). The paths are multiplied into the running
    product in component order, so only the draws take (k, length)
    memory. Same law as stepping the recursion, at array speed.
    """
    length = _count("length", length, least=1)
    k = params.k
    probs = _transition_probs(params)
    bits = rng.integers(0, 2, size=(k, length + 1))
    u = rng.random((k, length))
    states = np.array([params.m0, 2.0 - params.m0])
    var = np.ones(length)
    for i in range(k):
        renewals = np.flatnonzero(u[i] < probs[i])
        values = states[bits[i, np.concatenate(([0], renewals + 1))]]
        var *= np.repeat(values, np.diff(renewals, prepend=0, append=length))
    vol = params.sigma * np.sqrt(var)
    r = vol * rng.standard_normal(length)
    return ReturnSeries(values=r, kind=ReturnKind.DIFFERENCE)


def gmm_estimates() -> dict:
    """Bundled (asset, k) -> MsmParams map of published moment estimates."""
    out = {}
    source = resources.files("ghelab.data").joinpath("msm_gmm_estimates.csv")
    with source.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["asset"], int(row["k"]))
            out[key] = MsmParams(
                m0=float(row["m0"]), sigma=float(row["sigma"]), k=int(row["k"])
            )
    return out
