"""End-to-end reproduction gates for the published results.

Each test prints one `criterion N (...): PASS/FAIL` line (run pytest
with -s to see them live) and then asserts. Monte Carlo budgets follow
the 200-path desk protocol, so this module takes a few minutes.
"""

import math

import numpy as np
import pytest

from ghelab import (
    ArfimaParams,
    EnsembleSpec,
    FbmParams,
    GheConfig,
    ReturnSeries,
    StableParams,
    VariableKind,
    gmm_estimates,
    report_rows,
    run_ensemble,
    shuffle,
)
from ghelab.generators import _fractional_ma_coeffs, sample_stable
from ghelab.ghe import _ROW_BLOCK, _grid_stats, _log_structure_matrix
from ghelab.msm import _transition_probs

from brute_force import naive_fit_hurst, naive_structure_function, stable_cf

N_PATHS = 200
GRID_LEN = 8192
MSM_LEN = 8700

# published per-path dispersions for the iid stable cells
TABLE5_TARGETS = {
    1.2: ((0.811, 0.059), (0.333, 0.007)),
    1.6: ((0.626, 0.040), (0.340, 0.013)),
    2.0: ((0.499, 0.007), (0.499, 0.008)),
}


def ensemble(generator, seed, variable=VariableKind.PRICE, n_shuffles=33,
             length=GRID_LEN, n_paths=N_PATHS, ghe=GheConfig()):
    spec = EnsembleSpec(
        generator=generator,
        n_paths=n_paths,
        path_length=length,
        variable_kind=variable,
        n_shuffles=n_shuffles,
        ghe=ghe,
        master_seed=seed,
    )
    # any thread count gives the same report (criterion 6 and test_golden check it)
    return run_ensemble(spec, threads=2)


def finish(num, name, failures):
    print(f"criterion {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def stable_plain():
    # pure-stable baselines the shuffled ARFIMA panels must recover
    return {a: ensemble(StableParams(alpha=a), seed=150 + i, n_shuffles=0)
            for i, a in enumerate((1.4, 1.8))}


def test_criterion_1_stable_law_multifractality():
    failures = []
    for i, (alpha, ((h1, s1), (h3, s3))) in enumerate(TABLE5_TARGETS.items()):
        rep = ensemble(StableParams(alpha=alpha), seed=100 + i)
        for qi, (target, pub_std) in ((0, (h1, s1)), (2, (h3, s3))):
            got = rep.original_mean[qi]
            tol = 2.0 * math.hypot(pub_std, rep.original_std[qi])
            if abs(got - target) > tol:
                failures.append(
                    f"alpha={alpha} H({qi + 1})={got:.3f} vs {target} (tol {tol:.3f})"
                )
        if abs(rep.delta_h - rep.delta_h_shuff) > 0.02:
            failures.append(
                f"alpha={alpha} delta_h {rep.delta_h:.3f} vs "
                f"shuffled {rep.delta_h_shuff:.3f}"
            )
    finish(1, "stable-law multifractality", failures)


def test_criterion_2_fbm_unifractality():
    failures = []
    for i, hurst in enumerate((0.3, 0.5, 0.7)):
        rep = ensemble(FbmParams(hurst=hurst, length=GRID_LEN), seed=110 + i)
        for qi in range(3):
            if abs(rep.original_mean[qi] - hurst) > 0.02:
                failures.append(
                    f"H={hurst} original H({qi + 1})={rep.original_mean[qi]:.3f}"
                )
            if abs(rep.shuffled_mean[qi] - 0.5) > 0.02:
                failures.append(
                    f"H={hurst} shuffled H({qi + 1})={rep.shuffled_mean[qi]:.3f}"
                )
        if abs(rep.delta_h) > 0.01:
            failures.append(f"H={hurst} delta_h={rep.delta_h:.4f}")
        if abs(rep.delta_h_shuff) > 0.01:
            failures.append(f"H={hurst} delta_h_shuff={rep.delta_h_shuff:.4f}")
    finish(2, "fBm uni-fractality", failures)


def test_criterion_3_arfima_long_memory_law(stable_plain):
    failures = []
    for i, (alpha, d) in enumerate(((1.4, 0.1), (1.8, -0.1), (1.8, 0.2))):
        params = ArfimaParams(ar_coeffs=(), d=d, stable=StableParams(alpha=alpha))
        rep = ensemble(params, seed=120 + i)
        target = d + 1.0 / alpha
        tol = 3.0 * rep.original_std[0]
        if abs(rep.original_mean[0] - target) > tol:
            failures.append(
                f"({alpha},{d}) H(1)={rep.original_mean[0]:.3f} vs "
                f"{target:.3f} (tol {tol:.3f})"
            )
        base = stable_plain[alpha]
        for qi in range(3):
            diff = abs(rep.shuffled_mean[qi] - base.original_mean[qi])
            tol = 2.0 * math.hypot(rep.shuffled_std[qi], base.original_std[qi])
            if diff > tol:
                failures.append(
                    f"({alpha},{d}) shuffled H({qi + 1}) off pure-stable by "
                    f"{diff:.3f} (tol {tol:.3f})"
                )
    finish(3, "ARFIMA long-memory law", failures)


def test_criterion_4_short_memory_bias(stable_plain):
    failures = []
    inn = StableParams(alpha=1.8)
    with_ar = ensemble(ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=inn), seed=130)
    without_ar = ensemble(ArfimaParams(ar_coeffs=(), d=0.1, stable=inn), seed=131)
    if abs(with_ar.original_mean[1] - 0.719) > 2.0 * 0.010:
        failures.append(f"H(2)={with_ar.original_mean[1]:.3f} vs 0.719 +- 0.02")
    if not abs(with_ar.delta_h) < abs(without_ar.delta_h):
        failures.append(
            f"|delta_h| with AR {abs(with_ar.delta_h):.3f} not below "
            f"{abs(without_ar.delta_h):.3f}"
        )
    base = stable_plain[1.8]
    for qi in range(3):
        diff = abs(with_ar.shuffled_mean[qi] - base.original_mean[qi])
        tol = 2.0 * math.hypot(with_ar.shuffled_std[qi], base.original_std[qi])
        if diff > tol:
            failures.append(
                f"shuffled H({qi + 1}) off pure-stable by {diff:.3f} (tol {tol:.3f})"
            )
    finish(4, "short-memory bias", failures)


def test_criterion_5_msm_volatility_scaling():
    failures = []
    params = gmm_estimates()[("Nik", 10)]
    assert (params.m0, params.sigma) == (1.437, 0.012)
    vol = ensemble(params, seed=140, variable=VariableKind.CUM_ABS_RETURN,
                   n_shuffles=0, length=MSM_LEN)
    if abs(vol.original_mean[1] - 0.784) > 2.0 * 0.015:
        failures.append(f"sum|r| H(2)={vol.original_mean[1]:.3f} vs 0.784 +- 0.030")
    price = ensemble(params, seed=141, n_shuffles=0, length=MSM_LEN)
    if abs(price.original_mean[1] - 0.499) > 2.0 * 0.016:
        failures.append(f"price H(2)={price.original_mean[1]:.3f} vs 0.499 +- 0.032")
    finish(5, "MSM volatility scaling", failures)


def test_criterion_6_property_suite():
    failures = []
    rng = np.random.default_rng(60)

    r = ReturnSeries(values=rng.standard_normal(200))
    permuted = shuffle(r, np.random.default_rng(61))
    if sorted(permuted.values.tolist()) != sorted(r.values.tolist()):
        failures.append("shuffle changed the return multiset")

    levels = np.cumsum(rng.standard_normal(128))
    qs = (0.5, 2.0)
    kq = np.exp(_log_structure_matrix(levels[np.newaxis, :], qs, 7)[0])
    for c in (2.0, -3.0):
        scaled = np.exp(_log_structure_matrix(c * levels[np.newaxis, :], qs, 7)[0])
        for j, q in enumerate(qs):
            for tau in (1, 7):
                a = kq[j, tau - 1]
                b = scaled[j, tau - 1]
                if abs(a - b) > 1e-10 * abs(a):
                    failures.append(f"scale invariance broke at c={c} q={q}")

    psi = _fractional_ma_coeffs(0.25, 200)
    j = np.arange(1, 201, dtype=float)
    if not np.array_equal(psi[1:], psi[:-1] * ((j - 1.0 + 0.25) / j)):
        failures.append("fractional MA recurrence is not exact")

    probs = _transition_probs(8)
    if not (np.all(np.diff(probs) > 0) and probs[-1] == 0.5):
        failures.append("transition probabilities not monotone/exact at rank k")

    for p in (StableParams(alpha=1.6), StableParams(alpha=1.0), StableParams(alpha=0.7)):
        if stable_cf(p, 0.0) != 1.0:
            failures.append(f"phi(0) != 1 for {p}")
        for u in (-2.0, 0.4, 3.0):
            if abs(stable_cf(p, u)) > 1.0 + 1e-12:
                failures.append(f"|phi| > 1 for {p} at u={u}")
    p = StableParams(alpha=1.6)
    draws = sample_stable(p, np.random.default_rng(62), size=10**5)
    err = abs(np.exp(1j * draws).mean() - stable_cf(p, 1.0))
    if err > 0.01:
        failures.append(f"ECF error {err:.4f} at u=1")

    spec = EnsembleSpec(generator=p, n_paths=4, path_length=256, n_shuffles=2,
                        master_seed=63)
    if run_ensemble(spec, threads=1) != run_ensemble(spec, threads=2):
        failures.append("report depends on the worker count")

    finish(6, "property suite", failures)


def test_criterion_7_brute_force_oracle():
    failures = []
    rng = np.random.default_rng(77)
    qs = (0.5, 1.0, 2.0, 3.0)
    for _ in range(50):
        n = int(rng.integers(21, 65))
        levels = [float(v) for v in np.cumsum(rng.standard_normal(n))]
        xs = np.array([levels])
        kq = np.exp(_log_structure_matrix(xs, qs, 19)[0])
        for j, q in enumerate(qs):
            for tau in (1, 5, 10, 19):
                a = kq[j, tau - 1]
                b = naive_structure_function(levels, q, tau)
                if abs(a - b) > 1e-12 * max(1.0, abs(a)):
                    failures.append(f"K_{q}({tau}) mismatch at n={n}")
            # the engine fits only series longer than 4 * tau_max; tau_max
            # up to 19 is checked on the longer batches below
            for tau_max in (m for m in (5, 10) if 4 * m < n):
                cfg = GheConfig(q_values=(q,), tau_max_range=(tau_max, tau_max),
                                detrend=False)
                a = _grid_stats(xs, cfg)[0][0, 0, 0]
                b = naive_fit_hurst(levels, q, tau_max)
                if abs(a - b) > 1e-12:
                    failures.append(f"H({q}) mismatch at n={n}, tau_max={tau_max}")

    # batches that end in a partial row block
    cfg = GheConfig(q_values=qs, tau_max_range=(5, 19), detrend=False)
    nrows = 2 * _ROW_BLOCK + 1
    for _ in range(3):
        n = int(rng.integers(77, 121))
        xs = np.cumsum(rng.standard_normal((nrows, n)), axis=1)
        kq = np.exp(_log_structure_matrix(xs, qs, 19))
        h, _ = _grid_stats(xs, cfg)
        for r in range(nrows):
            levels = [float(v) for v in xs[r]]
            for j, q in enumerate(qs):
                for tau in range(1, 20):
                    a = kq[r, j, tau - 1]
                    b = naive_structure_function(levels, q, tau)
                    if abs(a - b) > 1e-12 * abs(b):
                        failures.append(f"batch K_{q}({tau}) mismatch, row {r}, n={n}")
                for m, tau_max in enumerate(range(5, 20)):
                    b = naive_fit_hurst(levels, q, tau_max)
                    if abs(h[r, j, m] - b) > 1e-12:
                        failures.append(
                            f"batch H({q}) mismatch, row {r}, n={n}, tau_max={tau_max}"
                        )
    finish(7, "brute-force oracle equivalence", failures)


def test_criterion_8_shuffling_raises_multifractality():
    # The paper's headline (T9): shuffling the returns of a calibrated MSM
    # raises delta_h, and the delta test rejects. The seeds were fixed before
    # the first run, which read delta_h 0.024 -> 0.099 shuffled, z = -2.96
    # (Dow) and 0.129 -> 0.350, z = -3.49 (TB10): a margin of at least 0.07
    # in delta_h and 1.0 in |z| over the 1.96 of a 5 % test.
    failures = []
    estimates = gmm_estimates()
    for i, asset in enumerate(("Dow", "TB10")):
        rep = ensemble(estimates[(asset, 20)], seed=170 + i, length=MSM_LEN,
                       ghe=GheConfig(q_values=(1.0, 3.0)))
        (delta,) = [r for r in report_rows(rep) if r["stat"] == "delta_H"]
        if not rep.delta_h_shuff > rep.delta_h:
            failures.append(f"{asset} delta_h_shuff {rep.delta_h_shuff:.3f} "
                            f"not above delta_h {rep.delta_h:.3f}")
        if delta["reject95"] is not True:
            failures.append(f"{asset} delta test z={delta['test_z']:.2f} does not reject")
    finish(8, "shuffling raises MSM multifractality", failures)
