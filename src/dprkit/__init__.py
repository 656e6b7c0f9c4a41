"""Density-clustered penalized regression for panel forecasting.

The package splits into layers: ``panel`` (loading, transforms, mix
shares), ``clustering`` (density clustering and its diagnostics),
``regression`` (penalized fits on a standardized design), ``pipeline``
(the end-to-end flow with leakage-safe splitting), and ``cli``.  One
penalty family, ``PenaltySpec(lam, alpha)``, covers ridge (alpha 0, closed
form) and every alpha > 0, which shares one exact active-set solver on the
Gram matrix of the centred design.
"""

from .clustering import (
    NOISE,
    ClusterModel,
    DbscanParams,
    assign_by_nearest_core,
    dbscan,
    k_distance_profile,
    pairwise_distances,
    scan_params,
    silhouette_sc,
    sse,
    suggest_params,
)
from .errors import (
    ConvergenceError,
    DprError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .panel import (
    EmissionFactorTable,
    PanelDataset,
    TransformSpec,
    compute_emissions,
    energy_mix_features,
    invert_log,
    load_panel,
    log_transform,
    write_panel,
)
from .pipeline import (
    CvResult,
    DprConfig,
    DprModel,
    ForecastResult,
    RunReport,
    SplitSpec,
    augment_with_dummies,
    chronological_split,
    cross_validate,
    design_from_panel,
    forecast_report,
    regularization_path,
    require_fit,
    run_dpr,
    write_report,
)
from .regression import (
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    enet_objective,
    fit_elastic_net,
    metric_mse,
    metric_r2,
    metric_sparsity,
    predict,
    soft_threshold,
    standardize,
)

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "ClusterModel",
    "ConvergenceError",
    "CvResult",
    "DbscanParams",
    "DesignMatrix",
    "DprConfig",
    "DprError",
    "DprModel",
    "EmissionFactorTable",
    "FittedModel",
    "ForecastResult",
    "NumericalError",
    "PanelDataset",
    "PenaltySpec",
    "RankDeficiencyError",
    "RunReport",
    "SplitSpec",
    "TransformSpec",
    "ValidationError",
    "assign_by_nearest_core",
    "augment_with_dummies",
    "chronological_split",
    "compute_emissions",
    "cross_validate",
    "dbscan",
    "design_from_panel",
    "energy_mix_features",
    "enet_objective",
    "fit_elastic_net",
    "forecast_report",
    "invert_log",
    "k_distance_profile",
    "load_panel",
    "log_transform",
    "metric_mse",
    "metric_r2",
    "metric_sparsity",
    "pairwise_distances",
    "predict",
    "regularization_path",
    "require_fit",
    "run_dpr",
    "scan_params",
    "silhouette_sc",
    "soft_threshold",
    "sse",
    "standardize",
    "suggest_params",
    "write_panel",
    "write_report",
]
