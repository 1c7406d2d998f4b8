"""Every parameter constructor either returns or raises a GhelabError.

Each field is drawn from valid values mixed with junk (None, bools,
strings, nan and inf, negative or non-integral numbers, tuples), so a
field of the wrong type or domain must be reported as InvalidParams
(or another GhelabError), never as a raw TypeError, ValueError or numpy
error. Config files get the same two checks: valid values survive a
round trip through config text, and junk values build or raise.
"""

import string
import warnings
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum

import numpy as np
import pytest
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
    ensemble_spec_from_config,
    load_price_csv,
    make_returns,
    parse_config,
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


STABLE = st.builds(StableParams, alpha=reals(1.05, 2.0))
GENERATORS = st.sampled_from([
    StableParams(alpha=1.6),
    FbmParams(hurst=0.7, length=1024),
    ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=StableParams(alpha=1.6)),
    MsmParams(m0=1.4, sigma=0.01, k=5),
    EmpiricalSeries("x", ReturnSeries(values=np.ones(300))),
])


@SETTINGS
@given(m0=field(reals(1.0, 2.0)), sigma=field(reals(1e-6, 1.0)),
       k=field(st.integers(1, 30)))
def test_msm_params_build_or_reject(m0, sigma, k):
    builds_or_rejects(lambda: MsmParams(m0=m0, sigma=sigma, k=k))


@SETTINGS
@given(alpha=field(reals(0.1, 2.0)))
def test_stable_params_build_or_reject(alpha):
    builds_or_rejects(lambda: StableParams(alpha=alpha))


@SETTINGS
@given(hurst=field(reals(0.01, 0.99)), length=field(st.integers(2, 10**6)))
def test_fbm_params_build_or_reject(hurst, length):
    builds_or_rejects(lambda: FbmParams(hurst=hurst, length=length))


@SETTINGS
@given(ar_coeffs=field(st.lists(field(reals(-0.9, 0.9)), max_size=3)),
       d=field(reals(-0.45, 0.45)), stable=field(STABLE))
def test_arfima_params_build_or_reject(ar_coeffs, d, stable):
    builds_or_rejects(lambda: ArfimaParams(ar_coeffs=ar_coeffs, d=d, stable=stable))


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
           st.lists(st.lists(reals(-1.0, 1.0), max_size=2), max_size=3))))
def test_return_series_builds_or_rejects(values):
    builds_or_rejects(lambda: ReturnSeries(values=values))


@SETTINGS
@given(series_id=field(st.text(max_size=4)),
       returns=field(st.builds(ReturnSeries, values=st.lists(st.floats(), max_size=5))))
def test_empirical_series_builds_or_rejects(series_id, returns):
    builds_or_rejects(lambda: EmpiricalSeries(series_id=series_id, returns=returns))


# Config keys and valid values. Values are jointly valid: an ARFIMA alpha of
# at least 1.5 admits d up to 1/3, and an ar1 of at most 0.3 in size keeps the
# AR part stationary; path lengths fit any drawn tau_max.
GENERATOR_KEYS = {
    "msm": {"m0": reals(1.0, 2.0), "sigma": reals(1e-6, 1.0), "k": st.integers(1, 30)},
    "stable": {"alpha": reals(0.1, 2.0)},
    "fbm": {"hurst": reals(0.01, 0.99)},
    "arfima": {"alpha": reals(1.5, 2.0), "d": reals(-0.45, 0.3), "ar1": reals(-0.3, 0.3)},
    "empirical": {"column": st.sampled_from(["price", "close"]),
                  "name": st.text("abxyz_019", min_size=1, max_size=6),
                  "return_kind": st.sampled_from(ReturnKind)},
}
REQUIRED = {"msm": {"m0", "sigma", "k"}, "stable": {"alpha"}, "fbm": {"hurst"},
            "arfima": {"alpha"}, "empirical": set()}
GHE_KEYS = {"q_values": st.lists(reals(0.1, 3.0), min_size=1, max_size=4, unique=True).map(tuple),
            "tau_max": st.integers(2, 10).flatmap(lambda lo: st.tuples(st.just(lo),
                                                                       st.integers(lo, 30))),
            "detrend": st.booleans()}
SPEC_KEYS = {"n_paths": st.integers(1, 5), "path_length": st.integers(200, 5000),
             "n_shuffles": st.integers(0, 40), "variable": st.sampled_from(VariableKind),
             "demean": st.booleans()}
FIELD_NAMES = {"tau_max": "tau_max_range", "variable": "variable_kind", "demean": "demean_returns"}
SPEC_DEFAULTS = {f.name: f.default for f in fields(EnsembleSpec)}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    prices = (100.0 * np.exp(np.cumsum(np.random.default_rng(8).normal(0, 0.01, 300)))).tolist()
    rows = "".join(f"{i},{p!r},{2 * p!r}\n" for i, p in enumerate(prices))
    (path / "prices.csv").write_text("t,price,close\n" + rows)
    return path


def config_text(entries: dict) -> str:
    def value(key, v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, Enum):
            return v.value
        if key == "tau_max":
            return f"{v[0]}..{v[1]}"
        if isinstance(v, tuple):
            return ", ".join(map(repr, v))
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{key} = {value(key, v)}\n" for key, v in entries.items())


def draw_keys(data, keys: dict, required=frozenset()) -> dict:
    held = required | data.draw(st.sets(st.sampled_from(sorted(keys))))
    return {key: data.draw(keys[key], label=key) for key in sorted(held)}


def named(entries: dict) -> dict:
    return {FIELD_NAMES.get(key, key): v for key, v in entries.items()}


def expected_generator(kind, held, path_length, csv):
    if kind == "msm":
        return MsmParams(**held)
    if kind == "stable":
        return StableParams(**held)
    if kind == "fbm":
        return FbmParams(**held, length=path_length)
    if kind == "arfima":
        return ArfimaParams(
            ar_coeffs=[held["ar1"]] if "ar1" in held else [],
            d=held.get("d", 0.0),
            stable=StableParams(alpha=held["alpha"]),
        )
    prices = load_price_csv(csv, **{k: v for k, v in held.items() if k == "column"})
    return EmpiricalSeries(series_id=held.get("name", csv.stem), returns=make_returns(
        prices, held.get("return_kind", ReturnKind.LOG_RETURN)))


def assert_same(a, b):
    """Field by field, into nested dataclasses and arrays."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x):
            assert_same(x, y)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y, f.name


def assert_defaults(obj, given_fields):
    """Every field not given holds its dataclass default."""
    for f in fields(obj):
        if f.name not in given_fields and f.default is not MISSING:
            assert getattr(obj, f.name) == f.default, f.name


@pytest.mark.parametrize("kind", sorted(GENERATOR_KEYS))
@settings(SETTINGS, max_examples=100)
@given(data=st.data(), master_seed=st.integers(0, 2**64 - 1))
def test_config_round_trip(config_dir, kind, data, master_seed):
    csv = config_dir / "prices.csv"
    held = draw_keys(data, GENERATOR_KEYS[kind], REQUIRED[kind])
    ghe_held = draw_keys(data, GHE_KEYS)
    spec_held = draw_keys(data, SPEC_KEYS)
    entries = {"generator": kind} | held | ghe_held | spec_held
    if kind == "empirical":
        entries["input"] = str(csv)
    (config_dir / "run.cfg").write_text(config_text(entries))
    spec = ensemble_spec_from_config(parse_config(config_dir / "run.cfg"), master_seed)

    path_length = spec_held.get("path_length", SPEC_DEFAULTS["path_length"])
    generator = expected_generator(kind, held, path_length, csv)
    sizes = {}
    if kind == "empirical":  # one observed path, whatever the config says
        sizes = {"n_paths": 1, "path_length": len(generator.returns)}
    expected = EnsembleSpec(generator=generator, ghe=GheConfig(**named(ghe_held)),
                            master_seed=master_seed, **(named(spec_held) | sizes))
    assert_same(spec, expected)
    assert_defaults(spec, {"generator", "ghe", "master_seed", *named(spec_held), *sizes})
    assert_defaults(spec.ghe, named(ghe_held))
    assert_defaults(spec.generator, held)
    if kind == "arfima":
        assert_defaults(spec.generator.stable, held)

CONFIG_KEYS = sorted({"generator", "input", "q_grid"}.union(
    *GENERATOR_KEYS.values(), GHE_KEYS, SPEC_KEYS))
JUNK_VALUES = st.one_of(
    st.text(string.ascii_letters + string.digits + " .,-+_=/", max_size=8),
    st.sampled_from([*GENERATOR_KEYS, "", "nan", "inf", "-inf", "1e400", "-1", "0", "1.5",
                     "3..2", "5..19", "2..", "true", "no", "price", "difference", "1, 2",
                     "0.5,", ",", "prices.csv"]),
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
)


@SETTINGS
@given(entries=st.dictionaries(st.sampled_from(CONFIG_KEYS), JUNK_VALUES, max_size=8))
def test_junk_config_builds_or_rejects(config_dir, entries):
    (config_dir / "junk.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in entries.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ensemble_spec_from_config(parse_config(config_dir / "junk.cfg"))
        except (GhelabError, OSError):
            pass
