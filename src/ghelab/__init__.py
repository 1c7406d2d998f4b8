"""Generalized Hurst exponent laboratory.

Measure multifractal scaling in time series and decompose its source by
comparing each series against shuffled replicas of its own returns:
scaling that survives shuffling comes from the return distribution,
scaling that does not comes from temporal structure.
"""

from .errors import (
    DegenerateSeries,
    GhelabError,
    InvalidParams,
    MissingKey,
    NonPositivePrice,
    ParseError,
    TauTooLarge,
    TooShort,
    UnknownKey,
)
from .series import (
    ReturnKind,
    ReturnSeries,
    VariableKind,
    build_variable,
    demean,
    make_returns,
    shuffle,
)
from .ghe import GheConfig, GheResult, generalized_hurst
from .msm import MsmParams, gmm_estimates
from .generators import ArfimaParams, FbmParams, StableParams
from .ensemble import (
    EmpiricalSeries,
    EnsembleReport,
    EnsembleSpec,
    path_rng,
    run_ensemble,
    simulate_returns,
)
from .io import (
    RESULT_COLUMNS,
    ensemble_spec_from_config,
    generator_from_config,
    load_price_csv,
    parse_config,
    report_rows,
    structure_function_rows,
    write_result_csv,
    write_series_csv,
)
from .tables import TABLE_IDS, reproduce_table

__version__ = "0.1.0"

__all__ = [
    "ArfimaParams",
    "DegenerateSeries",
    "EmpiricalSeries",
    "EnsembleReport",
    "EnsembleSpec",
    "FbmParams",
    "GheConfig",
    "GheResult",
    "GhelabError",
    "InvalidParams",
    "MissingKey",
    "MsmParams",
    "NonPositivePrice",
    "ParseError",
    "RESULT_COLUMNS",
    "ReturnKind",
    "ReturnSeries",
    "StableParams",
    "TABLE_IDS",
    "TauTooLarge",
    "TooShort",
    "UnknownKey",
    "VariableKind",
    "build_variable",
    "demean",
    "ensemble_spec_from_config",
    "generator_from_config",
    "generalized_hurst",
    "gmm_estimates",
    "load_price_csv",
    "make_returns",
    "parse_config",
    "path_rng",
    "report_rows",
    "reproduce_table",
    "run_ensemble",
    "shuffle",
    "simulate_returns",
    "structure_function_rows",
    "write_result_csv",
    "write_series_csv",
]
