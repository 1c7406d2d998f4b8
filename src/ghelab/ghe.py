"""Generalized Hurst exponent estimation.

The q-order structure function of a level series X(t), t = 0..T-1, is

    K_q(tau) = < |X(t+tau) - X(t)|^q >_t / < |X(t)|^q >_t

with the denominator averaged over all T levels. Under scaling,
K_q(tau) ~ tau^(q H(q)), so H(q) is read off an ordinary least squares
fit of log K_q(tau) against log tau over tau = 1..tau_max. Because the
fitted exponent drifts slightly with the choice of tau_max, estimates
are averaged over every integer tau_max in a configured interval
(default [5, 19], i.e. 15 fits) and the dispersion over that grid is
reported alongside. The multifractality measure is
delta_h = H(1) - H(3).

A linear drift eta*t is removed first by default, with eta estimated as
the mean one-step increment (X(T-1) - X(0)) / (T-1).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeries,
    InvalidParams,
    TauTooLarge,
    _instance,
    _real,
    _real_vector,
)


@dataclass(frozen=True)
class GheConfig:
    """Estimator settings: q grid, tau_max interval, drift removal."""

    q_values: tuple = (1.0, 2.0, 3.0)
    tau_max_range: tuple = (5, 19)
    detrend: bool = True

    def __post_init__(self):
        try:
            qs = tuple(float(_real("q_values", q)) for q in self.q_values)
        except TypeError:
            raise InvalidParams(f"q_values must be numbers, got {self.q_values!r}") from None
        object.__setattr__(self, "q_values", qs)
        if not qs:
            raise InvalidParams("q_values must be non-empty")
        if not all(np.isfinite(q) and q > 0 for q in qs):
            raise InvalidParams(f"every q must be positive and finite, got {qs}")
        if len(set(qs)) != len(qs):
            raise InvalidParams(f"q_values must be distinct, got {qs}")
        if max(qs) > 3:
            warnings.warn(
                "q > 3: moment scaling is unreliable this far into the tail",
                stacklevel=2,
            )
        try:
            lo, hi = map(operator.index, self.tau_max_range)
        except (TypeError, ValueError):
            raise InvalidParams(
                f"tau_max_range must be two integers, got {self.tau_max_range!r}"
            ) from None
        object.__setattr__(self, "tau_max_range", (lo, hi))
        if lo < 2:
            raise InvalidParams(f"tau_max lower bound must be >= 2, got {lo}")
        if hi < lo:
            raise InvalidParams(f"empty tau_max range [{lo}, {hi}]")
        _instance("detrend", self.detrend, bool)


@dataclass(frozen=True)
class GheResult:
    """Per-q exponent estimates averaged over the tau_max grid.

    h_mean/h_std/scaling_r2 align with q_values. scaling_r2 is the
    worst-case R^2 of the log-log fits over the grid; values below
    0.95 indicate the scaling ansatz itself is suspect. delta_h is
    h_mean at q=1 minus h_mean at q=3, present only when both q values
    were requested.
    """

    q_values: tuple
    h_mean: tuple
    h_std: tuple
    scaling_r2: tuple
    delta_h: float | None


def generalized_hurst(levels, cfg: GheConfig = GheConfig()) -> GheResult:
    """Full estimate for one level series: detrend, fit every tau_max, average."""
    h, r2 = _grid_stats(_one_row(levels), _instance("cfg", cfg, GheConfig))
    h_mean = tuple(h[0].mean(axis=-1).tolist())
    qs = cfg.q_values
    delta = None
    if 1.0 in qs and 3.0 in qs:
        delta = h_mean[qs.index(1.0)] - h_mean[qs.index(3.0)]
    return GheResult(
        q_values=qs,
        h_mean=h_mean,
        h_std=tuple(_sample_std(h[0], -1).tolist()),
        scaling_r2=tuple(r2[0].tolist()),
        delta_h=delta,
    )


def _one_row(levels) -> np.ndarray:
    """A 1-D level series as a one-row float batch of its own.

    The engine detrends its batch in place, so this is always a copy and
    the caller's array is never changed.
    """
    x = _real_vector("levels", levels)
    if not np.isfinite(x).all():
        raise InvalidParams("levels must be finite")
    return x[np.newaxis, :].copy()


# Rows per block of the structure-function kernel. At n ~ 8.7k levels
# one row is 70 kB, so a block's rows and the two scratch buffers one
# tau touches take about 1.7 MB, within a 2 MB L2 per core. Swept with
# the contiguous scratch on 34 x 8701 levels (Xeon, 2 MiB L2 per core,
# 200 interleaved calls): 4, 6 and 8 rows lie within 5 % of each other
# (11.1, 10.7 and 11.1 ms at the median), 12 rows, whose 2.5 MB spill
# out of L2, is 12 % slower than 8.
_ROW_BLOCK = 8

# Columns per BLAS dot product of the q = 2 and q = 3 sums. OpenBLAS
# splits one ddot over its threads above 10 000 elements, which changes
# the order of the additions and so the last bits with
# OPENBLAS_NUM_THREADS; at this width every call runs on one thread, and
# the partial sums are added in column order. np.vecdot is used rather
# than two-operand np.einsum, which sums a one-row batch in another order
# than a many-row one (seen on 8700-column rows), so a row's bits would
# depend on the size of its batch.
_DOT_COLUMNS = 4096


def _detrend_rows(xs: np.ndarray) -> None:
    """Remove each row's mean one-step increment times t, in place.

    Row i loses eta_i * t through one n-long scratch array, so a batch
    needs no temporary of its own size; the bits are those of
    xs - eta[:, np.newaxis] * t.
    """
    n = xs.shape[1]
    eta = (xs[:, -1] - xs[:, 0]) / (n - 1)
    t = np.arange(n, dtype=float)
    trend = np.empty(n)
    for row, e in zip(xs, eta):
        row -= np.multiply(e, t, out=trend)


def _log_k(xs: np.ndarray, cfg: GheConfig) -> np.ndarray:
    """log K_q(tau) the fits read: headroom check, drift removal, then the kernel.

    Owns its batch: the drift is removed from xs in place. Powers that
    overflow end in the kernel's finiteness check (DegenerateSeries), so
    numpy does not warn about them first.
    """
    _check_headroom(xs.shape[1], cfg)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if cfg.detrend:
            _detrend_rows(xs)
        return _log_structure_matrix(xs, cfg.q_values, cfg.tau_max_range[1])


def _check_headroom(n_levels: int, cfg: GheConfig) -> None:
    """The engine fits only series of more than 4 * tau_max levels."""
    hi = cfg.tau_max_range[1]
    if n_levels <= 4 * hi:
        raise TauTooLarge(f"tau_max={hi} needs more than {4 * hi} levels, got {n_levels}")


def _log_structure_matrix(xs: np.ndarray, qs, hi: int) -> np.ndarray:
    """log K_q(tau) for a batch of rows, all q, tau = 1..hi.

    Shape (rows, len(qs), hi). The batch form exists so a path and its
    shuffle replicas share one call; aggregate tau work is O(hi * n)
    per row.

    The kernel is fused: for each tau, |x(t+tau) - x(t)| is formed once
    into a preallocated buffer and every q is reduced from it (see
    _power_row_sums). For q = 1, 2, 3 that is six passes over a block's
    (m, n - tau) differences: subtract, abs, the q = 1 sum, the q = 2
    dot |dx|.|dx|, np.square into the second buffer and the q = 3 dot
    |dx|^2.|dx|. np.square gives the bits of a*a and runs as a unary
    loop, faster than np.multiply(a, a). Other orders go through
    np.power into the second buffer. Both buffers are flat, and each
    tau's (m, n - tau) arrays are contiguous reshapes of their fronts,
    so no pass strides over the columns tau leaves out. Rows are walked
    in blocks of _ROW_BLOCK so that a block's rows and its scratch stay
    in L2 cache while tau runs 1..hi, and no buffer grows with the
    batch. Each row is reduced on its own, in a fixed order, so its
    result does not depend on its position in the batch, on the batch
    size or on the number of BLAS threads. It needs hi < n, which
    _log_k's headroom check guarantees.
    """
    nrows, n = xs.shape
    sums = np.empty((nrows, len(qs), hi))
    denom = np.empty((nrows, len(qs)))
    blk = min(_ROW_BLOCK, nrows)
    absdx, scratch = np.empty(blk * n), np.empty(blk * n)
    for r0 in range(0, nrows, blk):
        rows = xs[r0 : r0 + blk]
        m = rows.shape[0]
        a = np.abs(rows, out=absdx[: m * n].reshape(m, n))
        _power_row_sums(a, qs, scratch[: m * n].reshape(m, n), denom[r0 : r0 + m])
        for tau in range(1, hi + 1):
            w = n - tau
            a = absdx[: m * w].reshape(m, w)
            np.subtract(rows[:, tau:], rows[:, :-tau], out=a)
            np.abs(a, out=a)
            _power_row_sums(a, qs, scratch[: m * w].reshape(m, w), sums[r0 : r0 + m, :, tau - 1])
    denom /= n
    if np.any(denom == 0.0):
        raise DegenerateSeries("structure-function denominator is zero")
    k = sums / (n - np.arange(1, hi + 1))
    k /= denom[:, :, np.newaxis]
    if not (np.isfinite(denom).all() and np.isfinite(k).all()):
        raise DegenerateSeries("structure function is not finite: the levels or their powers overflow")
    if np.any(k <= 0.0):
        raise DegenerateSeries("K_q vanished on the fit grid")
    return np.log(k)


def _power_row_sums(a, qs, scratch, out) -> None:
    """out[:, j] = row sums of a**qs[j] for a >= 0.

    q = 1 is a.sum, q = 2 the row dot a.a and q = 3 the row dot (a*a).a,
    with a*a formed by np.square; any other q sums np.power(a, q). The
    scratch buffer holds a*a or the power.
    """
    for j, q in enumerate(qs):
        if q == 1.0:
            a.sum(axis=1, out=out[:, j])
        elif q == 2.0:
            _row_dots(a, a, out[:, j])
        elif q == 3.0:
            _row_dots(np.square(a, out=scratch), a, out[:, j])
        else:
            np.power(a, q, out=scratch).sum(axis=1, out=out[:, j])


def _row_dots(x, y, out) -> None:
    """out[i] = x[i] . y[i], summed over _DOT_COLUMNS-wide chunks in column order.

    The full chunks are one np.vecdot over their (rows, chunks,
    _DOT_COLUMNS) view, the tail a second call; the partial sums are
    then added left to right, as one call per chunk would add them.
    """
    m, w = x.shape
    full = w - w % _DOT_COLUMNS
    if full:
        shape = (m, full // _DOT_COLUMNS, _DOT_COLUMNS)
        parts = np.vecdot(x[:, :full].reshape(shape), y[:, :full].reshape(shape))
        out[...] = parts[:, 0]
        for c in range(1, shape[1]):
            out += parts[:, c]
        if full < w:
            out += np.vecdot(x[:, full:], y[:, full:])
    else:
        np.vecdot(x, y, out=out)


def _grid_stats(xs: np.ndarray, cfg: GheConfig):
    """Prefix-fit engine shared by the public estimator and the harness.

    Returns H(q) per tau_max with shape (rows, n_q, n_tau_max) and the
    per-(row, q) minimum R^2 over the grid. All prefix fits come from
    one set of cumulative sums over the tau axis, so widening the grid
    costs nothing beyond the largest fit. Owns its batch: with drift
    removal on, xs is detrended in place.
    """
    lo, hi = cfg.tau_max_range
    ly = _log_k(xs, cfg)
    lx = np.log(np.arange(1, hi + 1))
    cx = np.cumsum(lx)
    cxx = np.cumsum(lx * lx)
    cy = np.cumsum(ly, axis=-1)
    cxy = np.cumsum(lx * ly, axis=-1)
    ms = np.arange(lo, hi + 1)
    sxx = cxx[ms - 1] - cx[ms - 1] ** 2 / ms
    sxy = cxy[..., ms - 1] - cx[ms - 1] * cy[..., ms - 1] / ms
    h = sxy / sxx / np.asarray(cfg.q_values)[:, np.newaxis]
    cyy = np.cumsum(ly * ly, axis=-1)
    syy = cyy[..., ms - 1] - cy[..., ms - 1] ** 2 / ms
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = (sxy * sxy) / (sxx * syy)
    r2 = np.where(syy <= 1e-30, 1.0, r2)
    return h, np.clip(r2, 0.0, 1.0).min(axis=-1)


def _sample_std(a: np.ndarray, axis: int) -> np.ndarray:
    """Sample standard deviation along axis; 0 where the axis holds one value."""
    return a.std(axis=axis, ddof=1 if a.shape[axis] > 1 else 0)
