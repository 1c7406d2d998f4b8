"""Brute-force H(q) for one path and its shuffle replicas.

Written independently of ghelab's estimator: the price level is built,
detrended and scaled with plain per-tau loops, and every tau_max of the
grid gets its own `np.polyfit`. Seeding follows the scheme the
`ghelab.ensemble` docstring documents: path i simulates from
SeedSequence(master_seed, spawn_key=(i, 0)) and shuffle j draws its
permutation from spawn_key=(i, j).
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-9


def item_rng(master_seed: int, path_index: int, slot: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=(path_index, slot))
    return np.random.default_rng(ss)


def _h_grid(returns: np.ndarray, q_values, tau_lo: int, tau_hi: int) -> np.ndarray:
    """Mean over tau_max in [tau_lo, tau_hi] of H(q), per q, for one row."""
    x = np.concatenate(([0.0], np.cumsum(returns)))
    t = np.arange(x.size, dtype=float)
    x = x - (x[-1] - x[0]) / (x.size - 1) * t
    out = []
    for q in q_values:
        denom = np.mean(np.abs(x) ** q)
        k = [np.mean(np.abs(x[tau:] - x[:-tau]) ** q) / denom
             for tau in range(1, tau_hi + 1)]
        log_tau, log_k = np.log(np.arange(1, tau_hi + 1)), np.log(k)
        hs = [np.polyfit(log_tau[:m], log_k[:m], 1)[0] / q
              for m in range(tau_lo, tau_hi + 1)]
        out.append(np.mean(hs))
    return np.array(out)


def path_h(returns, n_shuffles: int, master_seed: int, q_values, tau_range):
    """(original H(q), shuffle-averaged H(q)) for path 0 of a cell."""
    lo, hi = tau_range
    original = _h_grid(returns, q_values, lo, hi)
    shuffled = np.mean(
        [_h_grid(item_rng(master_seed, 0, j).permutation(returns), q_values, lo, hi)
         for j in range(1, n_shuffles + 1)],
        axis=0,
    )
    return original, shuffled


def mismatch(name: str, got, want) -> str | None:
    """A message when |got - want| exceeds TOLERANCE anywhere, else None."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want)))
    if not np.all(np.isfinite(got)) or err > TOLERANCE:
        return f"{name}: max |program - oracle| = {err:.3e} > {TOLERANCE:g}"
    return None
