"""Brute-force oracle for the numbers ghelab computes, written apart from it.

Each function recomputes a quantity from its definition with as little
machinery as it takes, so the tests can hold ghelab's engine against it:

- `stable_cf`: the closed-form characteristic function of the
  symmetric stable law of scale sqrt(2)/2 that `sample_stable` draws
  from;
- `naive_structure_function`, `naive_fit_hurst`: K_q(tau) and one OLS
  fit of H(q), in plain Python loops, for short series;
- `chunked_row_dots`: row-wise dot products as one `np.vecdot` per
  fixed-width chunk of columns, added left to right, the order whose
  bits the engine's q = 2 and q = 3 sums keep;
- `levels_of`, `detrend`: the three level series, and the drift removal;
- `path_hurst`: H(q) per tau_max for one path and its shuffle replicas,
  seeded as the README documents, built, detrended and scaled one tau at
  a time, with one `np.polyfit` per tau_max (Di Matteo, Aste &
  Dacorogna 2005, J. Banking & Finance 29:827);
- `mean`, `std`, `report_moments`, `z_stat`: the report's cross-path
  moments and the two-sample identity statistic, in plain Python;
- `arfima_reference`: an ARFIMA path filtered by scipy.signal, whose
  bits `simulate_arfima` reproduces without scipy;
- `matrix_msm`: an MSM path from the whole cascade as one matrix of
  multipliers, whose bits `simulate_msm` reproduces one component at a
  time;
- `csv_column`: one column of a price CSV read row by row by the csv
  module, whose values and errors `load_price_csv` must give.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ghelab.errors import MissingKey, ParseError, TooShort


def stable_cf(p, u: float) -> float:
    """Closed-form characteristic function phi(u) = E exp(iuX) = exp(-|u sqrt(2)/2|^alpha).

    The law is symmetric about 0, so phi is real and even.
    """
    return math.exp(-(abs(float(u)) * math.sqrt(2.0) / 2.0) ** p.alpha)


def naive_structure_function(levels, q, tau):
    n = len(levels)
    num = 0.0
    for t in range(n - tau):
        num += abs(levels[t + tau] - levels[t]) ** q
    num /= n - tau
    den = 0.0
    for t in range(n):
        den += abs(levels[t]) ** q
    den /= n
    return num / den


def naive_fit_hurst(levels, q, tau_max):
    xs = [math.log(tau) for tau in range(1, tau_max + 1)]
    ys = [math.log(naive_structure_function(levels, q, tau))
          for tau in range(1, tau_max + 1)]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = sum((x - xbar) ** 2 for x in xs)
    return (sxy / sxx) / q


def chunked_row_dots(x, y, columns: int) -> np.ndarray:
    """out[i] = x[i] . y[i]: one np.vecdot per `columns`-wide chunk, added left to right."""
    out = np.vecdot(x[:, :columns], y[:, :columns])
    for c in range(columns, x.shape[1], columns):
        out += np.vecdot(x[:, c : c + columns], y[:, c : c + columns])
    return out


def item_rng(master_seed: int, path_index: int, slot: int) -> np.random.Generator:
    """Slot 0 simulates path i; slot j >= 1 draws the permutation of shuffle j."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(path_index, slot))
    return np.random.default_rng(ss)


def cell_seed(master_seed: int, table_no: int, cell: int) -> int:
    """The master seed of cell c of table Tn."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(table_no, cell))
    return int(ss.generate_state(1, np.uint64)[0])


def levels_of(returns: np.ndarray, variable: str) -> np.ndarray:
    """price: 0 then the running sum; cum_abs_return, cum_sq_return: running sums."""
    if variable == "price":
        return np.cumsum(np.concatenate(([0.0], returns)))
    if variable == "cum_abs_return":
        return np.cumsum(np.abs(returns))
    assert variable == "cum_sq_return", variable
    return np.cumsum(returns * returns)


def detrend(levels: np.ndarray) -> np.ndarray:
    """The levels less their end-to-end drift, (x[-1] - x[0]) / (n - 1) per step."""
    x = np.asarray(levels, dtype=float)
    t = np.arange(x.size, dtype=float)
    return x - (x[-1] - x[0]) / (x.size - 1) * t


def row_hurst(levels: np.ndarray, q_values, tau_range) -> np.ndarray:
    """H(q) of the detrended levels for each tau_max in tau_range, shape (n_q, n_tau_max)."""
    lo, hi = tau_range
    x = detrend(levels)
    log_tau = np.log(np.arange(1, hi + 1))
    out = []
    for q in q_values:
        denom = np.mean(np.abs(x) ** q)
        log_k = np.log([np.mean(np.abs(x[tau:] - x[:-tau]) ** q) / denom
                        for tau in range(1, hi + 1)])
        out.append([np.polyfit(log_tau[:m], log_k[:m], 1)[0] / q
                    for m in range(lo, hi + 1)])
    return np.array(out)


def path_hurst(returns, variable: str, n_shuffles: int, master_seed: int,
               path_index: int, q_values, tau_range) -> np.ndarray:
    """H(q) per tau_max of path i as given (row 0) and of each shuffle replica.

    Shape (1 + n_shuffles, len(q_values), n_tau_max).
    """
    returns = np.asarray(returns, dtype=float)
    rows = [returns] + [item_rng(master_seed, path_index, j).permutation(returns)
                        for j in range(1, n_shuffles + 1)]
    return np.array([row_hurst(levels_of(r, variable), q_values, tau_range)
                     for r in rows])


def mean(xs):
    return sum(xs) / len(xs)


def std(xs):
    """Sample standard deviation; 0 for one value."""
    m = mean(xs)
    ddof = 1 if len(xs) > 1 else 0
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - ddof))


def report_moments(h, grid, q_values):
    """Every moment of a report, from per-path grid-averaged H.

    h[i][r][j] is path i's H(q_j) averaged over the tau_max grid, row 0
    the path as given and row r >= 1 shuffle r; grid[j][t] is path 0's
    H(q_j) at the t-th tau_max. Returns ({field: one value per column},
    with_delta), where the columns are the q values and, when q holds
    1 and 3, delta_h = H(1) - H(3) as one more column.
    """
    qs = list(q_values)
    columns = [lambda row, j=j: row[j] for j in range(len(qs))]
    if 1.0 in qs and 3.0 in qs:
        i1, i3 = qs.index(1.0), qs.index(3.0)
        columns.append(lambda row: row[i1] - row[i3])
    fields = {name: [] for name in ("original_mean", "original_std", "shuffled_mean",
                                    "shuffled_std", "shuffled_within_std")}
    for col in columns:
        orig = [col(path[0]) for path in h]
        fields["original_mean"].append(mean(orig))
        if len(h) == 1:
            fields["original_std"].append(
                std([col([g[t] for g in grid]) for t in range(len(grid[0]))]))
        else:
            fields["original_std"].append(std(orig))
        if len(h[0]) > 1:
            reps = [[col(row) for row in path[1:]] for path in h]
            means = [mean(r) for r in reps]
            fields["shuffled_mean"].append(mean(means))
            fields["shuffled_within_std"].append(mean([std(r) for r in reps]))
            fields["shuffled_std"].append(std(reps[0]) if len(h) == 1 else std(means))
    return fields, len(columns) > len(qs)


def z_stat(a_mean, a_std, b_mean, b_std) -> float:
    """Two-sample z of 'same exponent': (a - b) / hypot(a_std, b_std)."""
    return (float(a_mean) - float(b_mean)) / math.hypot(float(a_std), float(b_std))


def arfima_reference(p, length: int, rng: np.random.Generator) -> np.ndarray:
    """simulate_arfima's path with scipy's filters: fftconvolve, then lfilter.

    The innovations and MA(inf) coefficients are ghelab's own; only the
    fractional filter and the AR recursion are scipy's. The filter keeps
    1000 coefficients and drops 1100 warm-up outputs.
    """
    from scipy.signal import fftconvolve, lfilter

    from ghelab.generators import _fractional_ma_coeffs, sample_stable

    ma_truncation = 1000
    warmup = ma_truncation + 100
    total = length + warmup
    w = sample_stable(p.stable, rng, size=total)
    if p.d != 0.0:
        w = fftconvolve(w, _fractional_ma_coeffs(p.d, ma_truncation))[:total]
    if p.ar_coeffs:
        w = lfilter([1.0], np.concatenate(([1.0], [-c for c in p.ar_coeffs])), w)
    return w[warmup:]


def matrix_msm(params, length: int, rng: np.random.Generator, probs) -> np.ndarray:
    """The cascade as one (k, length) matrix of multipliers, multiplied over k."""
    k = params.k
    bits = rng.integers(0, 2, size=(k, length + 1))
    cand = np.where(bits == 0, params.m0, 2.0 - params.m0)
    renew = rng.random((k, length)) < probs[:, np.newaxis]
    steps = np.arange(1, length + 1)
    last = np.maximum.accumulate(np.where(renew, steps, 0), axis=1)
    mult = np.take_along_axis(cand, last, axis=1)
    vol = params.sigma * np.sqrt(np.prod(mult, axis=0))
    return vol * rng.standard_normal(length)


def csv_column(path, column: str) -> np.ndarray:
    """load_price_csv(path, column) as the csv module reads it, errors and all."""
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = csv.reader(fh)
        header, cells = None, []
        try:
            header = next(reader, [])
            if column not in header:
                raise MissingKey(f"column {column!r} not found in {path}")
            col = len(header) - 1 - header[::-1].index(column)
            for row in reader:
                if row:
                    cells.append(row[col] if col < len(row) else "")
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            at = 0 if header is None else len(cells) + 1
            raise ParseError(at, f"{exc} in {path}") from None
    if not cells:
        raise TooShort(f"no data rows in {path}")
    try:
        prices = np.array(cells, dtype=np.float64)
        if np.isfinite(prices).all():
            return prices
    except ValueError:
        pass
    values = []  # parse again cell by cell to name the first bad row
    for i, cell in enumerate(cells, start=1):
        cell = cell.strip()
        if not cell:
            raise ParseError(i, f"empty {column!r} cell in {path}")
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(i, f"non-numeric {column!r} value {cell!r} in {path}") from None
        if not np.isfinite(value):
            raise ParseError(i, f"non-finite {column!r} value {cell!r} in {path}")
        values.append(value)
    return np.array(values)
