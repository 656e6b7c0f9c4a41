"""Density-clustered penalized regression for panel forecasting.

The package splits into layers: ``panel`` (loading, transforms, mix
shares), ``clustering`` (density clustering and its diagnostics),
``regression`` (penalized fits on a standardized design), ``pipeline``
(the end-to-end flow with leakage-safe splitting), and ``cli``.  One
penalty family, ``PenaltySpec(lam, alpha)``, covers ridge (alpha 0, closed
form) and every alpha > 0, which shares one exact active-set solver on the
Gram matrix of the centred design.

The names below are the ones the README's Python API section documents;
everything else is reached through its module.
"""

from .clustering import (
    ClusterModel,
    DbscanParams,
    assign_by_nearest_core,
    dbscan,
    scan_params,
    suggest_params,
)
from .errors import (
    ConvergenceError,
    DprError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .panel import TransformSpec, load_panel
from .pipeline import (
    DprConfig,
    DprModel,
    ForecastResult,
    RunReport,
    SplitSpec,
    cross_validate,
    forecast_report,
    regularization_path,
    require_fit,
    run_dpr,
    write_report,
)
from .regression import (
    FittedModel,
    PenaltySpec,
    fit_elastic_net,
    metric_mse,
    metric_r2,
    metric_sparsity,
    standardize,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "ConvergenceError",
    "DbscanParams",
    "DprConfig",
    "DprError",
    "DprModel",
    "FittedModel",
    "ForecastResult",
    "NumericalError",
    "PenaltySpec",
    "RankDeficiencyError",
    "RunReport",
    "SplitSpec",
    "TransformSpec",
    "ValidationError",
    "assign_by_nearest_core",
    "cross_validate",
    "dbscan",
    "fit_elastic_net",
    "forecast_report",
    "load_panel",
    "metric_mse",
    "metric_r2",
    "metric_sparsity",
    "regularization_path",
    "require_fit",
    "run_dpr",
    "scan_params",
    "standardize",
    "suggest_params",
    "write_report",
]
