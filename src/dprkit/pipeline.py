"""End-to-end orchestration: cluster the training panel, augment the design
with cluster dummies, pick penalty strength by cross-validation, fit, and
forecast the held-out periods.

Leakage rules are strict and testable: clustering, standardization, and
hyperparameter selection see training rows only.  Test rows are assigned to
clusters through the nearest-core-point rule and never feed back into any
training statistic, so deleting or perturbing them leaves every training
artifact byte-identical.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .clustering import (
    NOISE,
    ClusterModel,
    DbscanParams,
    ScanRow,
    assign_by_nearest_core,
    dbscan,
    k_distance_profile,
    scan_params,
    suggest_params,
)
from .errors import NumericalError, ValidationError
from .panel import (
    PER_FEATURE_MAX,
    PanelDataset,
    TransformSpec,
    energy_mix_features,
    entity_maxima,
    invert_log,
    log_transform,
    scale_by_entity_maxima,
)
from .regression import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ELASTIC_NET,
    LASSO,
    PENALTY_KINDS,
    RIDGE,
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    RankDeficiencyError,
    _fit_metrics,
    fit_elastic_net,
    fit_lasso,
    fit_ridge,
    regularization_path,
    standardize,
)
from .tables import write_table

UNIQUE_DUMMY = "unique_dummy"
EXCLUDE = "exclude"
OUTLIER_POLICIES = (UNIQUE_DUMMY, EXCLUDE)

_DEFAULT_LAMBDAS = tuple(float(v) for v in np.logspace(-4, np.log10(0.5), 20))


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: train periods are the prefix, test the suffix."""

    train_periods: tuple
    test_periods: tuple
    cv_folds: int = 5

    def __post_init__(self) -> None:
        if len(self.train_periods) == 0 or len(self.test_periods) == 0:
            raise ValidationError("both train and test period lists must be non-empty")
        if set(self.train_periods) & set(self.test_periods):
            raise ValidationError("train and test periods overlap")
        if int(self.cv_folds) != self.cv_folds or self.cv_folds < 2:
            raise ValidationError(f"cv_folds must be an integer >= 2, got {self.cv_folds}")


@dataclass
class DprConfig:
    """Declarative description of one full run; mirrors the CLI config file."""

    transform: TransformSpec = field(default_factory=TransformSpec)
    dbscan: DbscanParams | None = None
    eps_grid: tuple | None = None
    minpts_grid: tuple | None = None
    core_strict: bool = False
    penalty_kind: str = ELASTIC_NET
    lambda_grid: tuple = _DEFAULT_LAMBDAS
    alpha_grid: tuple = (0.3, 0.5, 1.0)
    outlier_policy: str = UNIQUE_DUMMY
    baseline_cluster: int = 0

    def __post_init__(self) -> None:
        if self.penalty_kind not in PENALTY_KINDS:
            raise ValidationError(
                f"penalty_kind must be one of {PENALTY_KINDS}, got {self.penalty_kind!r}"
            )
        if self.outlier_policy not in OUTLIER_POLICIES:
            raise ValidationError(
                f"outlier_policy must be one of {OUTLIER_POLICIES}, got {self.outlier_policy!r}"
            )
        if not self.lambda_grid:
            raise ValidationError("lambda_grid is empty")
        if self.penalty_kind == ELASTIC_NET and not self.alpha_grid:
            raise ValidationError("alpha_grid is empty for elastic_net")


def chronological_split(data: PanelDataset, spec: SplitSpec) -> tuple[PanelDataset, PanelDataset]:
    """Forecasting split by period membership; row order is period-agnostic."""
    n_train = len(spec.train_periods)
    if list(spec.train_periods) != data.periods[:n_train]:
        raise ValidationError(
            f"train periods {list(spec.train_periods)} are not the leading panel periods "
            f"{data.periods[:n_train]}"
        )
    if list(spec.test_periods) != data.periods[n_train:]:
        raise ValidationError(
            f"test periods {list(spec.test_periods)} are not the trailing panel periods "
            f"{data.periods[n_train:]}"
        )
    return (
        data.subset_by_periods(spec.train_periods),
        data.subset_by_periods(spec.test_periods),
    )


def design_from_panel(panel: PanelDataset) -> DesignMatrix:
    """Unstandardized design straight from the panel; rejects rows without targets."""
    missing = np.flatnonzero(np.isnan(panel.targets))
    if missing.size:
        keys = [panel.row_keys()[i] for i in missing[:5]]
        raise ValidationError(
            f"{missing.size} observation(s) lack a target, e.g. {keys}; "
            "regression requires targets"
        )
    return DesignMatrix(
        X=panel.features.copy(),
        y=panel.targets.copy(),
        column_names=list(panel.feature_names),
        standardized=False,
        source_rows=np.arange(panel.n_obs),
    )


def augment_with_dummies(dm: DesignMatrix, labels, policy: str = UNIQUE_DUMMY,
                         baseline: int = 0) -> DesignMatrix:
    """Append 0/1 cluster-membership columns against a baseline cluster.

    k clusters produce k-1 columns named ``cluster_<id>``.  Noise rows are
    handled per policy: ``unique_dummy`` gives each its own singleton column
    ``noise_<row>``, ``exclude`` drops the rows (the dropped identities stay
    visible through ``source_rows``).
    """
    if dm.standardized:
        raise ValidationError("augment_with_dummies expects an unstandardized design")
    if policy not in OUTLIER_POLICIES:
        raise ValidationError(f"unknown outlier policy {policy!r}")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (dm.n,):
        raise ValidationError(f"labels length {labels.shape} does not match {dm.n} rows")
    if np.any(labels < NOISE):
        raise ValidationError("labels must be cluster ids >= 0 or -1 for noise")

    ids = sorted(int(c) for c in np.unique(labels[labels != NOISE]))
    if ids and baseline not in ids:
        raise ValidationError(f"baseline cluster {baseline} not among cluster ids {ids}")

    rowids = dm.source_rows if dm.source_rows is not None else np.arange(dm.n)
    if policy == EXCLUDE:
        keep = labels != NOISE
        if not keep.any():
            raise ValidationError("outlier policy 'exclude' removed every row")
        X = dm.X[keep]
        y = dm.y[keep]
        labels_kept = labels[keep]
        rowids = rowids[keep]
        noise_rows: list[int] = []
    else:
        X = dm.X
        y = dm.y
        labels_kept = labels
        noise_rows = [int(i) for i in np.flatnonzero(labels == NOISE)]

    n = X.shape[0]
    cols: list[np.ndarray] = []
    names: list[str] = []
    for c in ids:
        if c == baseline:
            continue
        col = np.zeros(n)
        col[labels_kept == c] = 1.0
        cols.append(col)
        names.append(f"cluster_{c}")
    for i in noise_rows:
        col = np.zeros(n)
        col[i] = 1.0
        cols.append(col)
        names.append(f"noise_{int(rowids[i])}")

    X_aug = np.column_stack([X] + cols) if cols else X.copy()
    return DesignMatrix(
        X=X_aug,
        y=y.copy(),
        column_names=list(dm.column_names) + names,
        standardized=False,
        source_rows=rowids.copy(),
    )


@dataclass(frozen=True)
class CvCell:
    lam: float
    alpha: float | None
    mean_mse: float
    mean_r2: float


@dataclass
class CvResult:
    best: CvCell
    table: list[CvCell]


def _fold_blocks(n: int, folds: int) -> list[np.ndarray]:
    edges = [int(b * n / folds) for b in range(folds + 1)]
    return [np.arange(edges[b], edges[b + 1]) for b in range(folds)]


def _predict_standardized(model: FittedModel, X: np.ndarray) -> np.ndarray:
    # rows already live in the standardized design space
    return model.intercept + X @ model.coefficients


def _cell_metrics(model: FittedModel, Xv: np.ndarray, yv: np.ndarray) -> tuple[float, float]:
    mse, r2 = _fit_metrics(yv, _predict_standardized(model, Xv))
    return mse, math.nan if r2 is None else r2


def fit_penalized(dm: DesignMatrix, penalty: PenaltySpec, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  warm_start: np.ndarray | None = None) -> FittedModel:
    """One fit of ``penalty``; ``tol``, ``max_iter`` and ``warm_start`` do not apply to ridge."""
    if penalty.kind == RIDGE:
        return fit_ridge(dm, penalty.lam)
    if penalty.kind == LASSO:
        return fit_lasso(dm, penalty.lam, tol=tol, max_iter=max_iter, warm_start=warm_start)
    return fit_elastic_net(dm, penalty.lam, penalty.alpha, tol=tol, max_iter=max_iter,
                           warm_start=warm_start)


def cross_validate(dm: DesignMatrix, folds: int, kind: str, lambda_grid,
                   alpha_grid=None, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> CvResult:
    """Grid search by deterministic contiguous-block cross-validation.

    Folds are contiguous blocks of the row order.  Within a fold, each alpha
    walks the lambda grid descending with warm starts.  The winner minimizes
    mean validation MSE; exact ties break toward the larger lambda, then the
    larger alpha.  A cell with a failed fold fit -- a ridge fit on a
    rank-deficient system (lambda=0 on collinear columns), or a
    lasso/elastic-net fit that hit ``max_iter`` -- is recorded with NA metrics
    and never wins.
    """
    if kind not in PENALTY_KINDS:
        raise ValidationError(f"unknown penalty kind {kind!r}")
    if not dm.standardized:
        raise ValidationError("cross_validate expects a standardized design")
    if int(folds) != folds or folds < 2:
        raise ValidationError(f"folds must be an integer >= 2, got {folds}")
    lams = [float(l) for l in lambda_grid]
    if not lams:
        raise ValidationError("lambda grid is empty")
    if kind == ELASTIC_NET:
        alphas = [float(a) for a in (alpha_grid or [])]
        if not alphas:
            raise ValidationError("elastic_net cross-validation needs an alpha grid")
    else:
        alphas = [None]

    blocks = _fold_blocks(dm.n, int(folds))
    for b, block in enumerate(blocks):
        if block.size < 2:
            raise ValidationError(f"fold {b} has {block.size} rows; folds need >= 2")
        if dm.n - block.size < 2:
            raise ValidationError(f"fold {b} leaves fewer than 2 training rows")

    all_rows = np.arange(dm.n)
    lam_desc = sorted(set(lams), reverse=True)

    def _fold(block) -> dict:
        # one training subset per fold, so every chain of the fold shares its Gram
        sub = dm.subset_rows(np.setdiff1d(all_rows, block))
        Xv = dm.X[block]
        yv = dm.y[block]
        out: dict[tuple[float, float | None], tuple[float, float]] = {}
        for alpha in alphas:
            warm = None
            for lam in lam_desc:
                # NA unless the fit succeeds and converges
                out[(lam, alpha)] = (math.nan, math.nan)
                try:
                    m = fit_penalized(sub, PenaltySpec(kind, lam, alpha), tol=tol,
                                      max_iter=max_iter, warm_start=warm)
                except RankDeficiencyError:
                    continue
                warm = m.coefficients
                if m.diagnostics["converged"]:
                    out[(lam, alpha)] = _cell_metrics(m, Xv, yv)
        return out

    results = [_fold(block) for block in blocks]

    table = []
    for lam in lams:
        for alpha in alphas:
            per_fold = [res[(lam, alpha)] for res in results]
            mean_mse = float(np.mean([m for m, _ in per_fold]))
            mean_r2 = float(np.mean([r for _, r in per_fold]))
            table.append(CvCell(lam, alpha, mean_mse, mean_r2))
    usable = [c for c in table if not math.isnan(c.mean_mse)]
    if not usable:
        raise NumericalError(
            "every cross-validation cell failed (rank-deficient or unconverged fits); "
            "no usable hyperparameters"
        )
    best = min(usable, key=lambda c: (c.mean_mse, -c.lam, -(c.alpha or 0.0)))
    return CvResult(best=best, table=table)


@dataclass(frozen=True)
class ForecastRow:
    entity: str
    period: object
    cluster: int
    is_noise: bool
    actual_log: float | None
    predicted_log: float
    actual_source: float | None
    predicted_source: float
    relative_error: float | None


def _none_for_nan(v: float) -> float | None:
    return None if math.isnan(v) else v


class _ForecastRows(Sequence):
    """Read-only row view of a :class:`ForecastResult`; rows are built on access."""

    def __init__(self, result: "ForecastResult") -> None:
        self._r = result

    def __len__(self) -> int:
        return len(self._r.entity)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        r = self._r
        return ForecastRow(
            entity=r.entity[i],
            period=r.period[i],
            cluster=int(r.cluster[i]),
            is_noise=bool(r.cluster[i] == NOISE),
            actual_log=_none_for_nan(float(r.actual_log[i])),
            predicted_log=float(r.predicted_log[i]),
            actual_source=_none_for_nan(float(r.actual_source[i])),
            predicted_source=float(r.predicted_source[i]),
            relative_error=_none_for_nan(float(r.relative_error[i])),
        )


@dataclass
class ForecastResult:
    """Forecast of every row, by column; NaN marks a row without a target."""

    entity: list[str]
    period: list
    cluster: np.ndarray
    actual_log: np.ndarray
    predicted_log: np.ndarray
    actual_source: np.ndarray
    predicted_source: np.ndarray
    relative_error: np.ndarray
    mean_error: float | None
    error_variance: float | None

    @property
    def rows(self) -> Sequence[ForecastRow]:
        return _ForecastRows(self)

    @property
    def is_noise(self) -> np.ndarray:
        return self.cluster == NOISE

    @property
    def n_noise_rows(self) -> int:
        return int(np.count_nonzero(self.is_noise))


def write_forecast(result: ForecastResult, dest) -> None:
    """The forecast table (``forecast.csv``) that ``run`` and ``forecast`` write."""
    write_table(
        dest,
        [
            "entity", "period", "cluster", "noise_row", "actual_log", "predicted_log",
            "actual_source", "predicted_source", "relative_error_source",
        ],
        [
            result.entity, result.period, result.cluster,
            result.is_noise.astype(np.intp), result.actual_log, result.predicted_log,
            result.actual_source, result.predicted_source, result.relative_error,
        ],
    )


def forecast_report(model: FittedModel, test: PanelDataset, transform: TransformSpec,
                    extra_columns: np.ndarray | None = None,
                    extra_labels: np.ndarray | None = None) -> ForecastResult:
    """Predict the test panel and compare against actuals in both unit systems.

    ``extra_columns`` carries the dummy block when the model was fit on an
    augmented design (the pipeline builds it from the cluster assignment in
    ``extra_labels``).  The relative error is the deviation on the exp scale,
    |exp(yhat) - exp(y)| / exp(y); the source-unit value columns apply the
    full inverse transform exp(v) - offset.  Rows without a target predict
    but contribute nothing to the summary; the summary is the mean and the
    population variance of the log-unit errors (yhat - y).
    """
    if test.transform is not None:
        raise ValidationError("forecast_report expects a source-unit test panel")
    test_log = log_transform(test, transform)
    X = test_log.features
    if extra_columns is not None:
        extra_columns = np.asarray(extra_columns, dtype=np.float64)
        if extra_columns.shape[0] != test.n_obs:
            raise ValidationError("extra_columns row count does not match the test panel")
        X = np.hstack([X, extra_columns])
    p = len(model.column_names)
    if X.shape[1] != p:
        raise ValidationError(
            f"test design has {X.shape[1]} columns, model expects {p}; "
            "was the dummy block supplied?"
        )
    from .regression import predict

    yhat = predict(model, X)
    labels = (
        np.full(test.n_obs, NOISE, dtype=np.intp)
        if extra_labels is None
        else np.asarray(extra_labels, dtype=np.intp)
    )

    y = test_log.targets
    have = ~np.isnan(y)
    # math.exp, not np.exp: the two differ in the last digit for some inputs
    exp_y = np.fromiter(map(math.exp, y[have].tolist()), dtype=np.float64)
    exp_yhat = np.fromiter(map(math.exp, yhat[have].tolist()), dtype=np.float64)
    relative_error = np.full(test.n_obs, math.nan)
    relative_error[have] = np.abs(exp_yhat - exp_y) / exp_y
    if have.any():
        e = yhat[have] - y[have]
        mean_error = float(e.mean())
        error_variance = float(np.mean((e - e.mean()) ** 2))
    else:
        mean_error = None
        error_variance = None
    entity, period = test.key_columns()
    return ForecastResult(
        entity=entity,
        period=period,
        cluster=labels,
        actual_log=y,
        predicted_log=yhat,
        actual_source=invert_log(y, transform),
        predicted_source=invert_log(yhat, transform),
        relative_error=relative_error,
        mean_error=mean_error,
        error_variance=error_variance,
    )


def mix_for_new_rows(new: PanelDataset, mode: str,
                     maxima: dict[str, np.ndarray]) -> np.ndarray:
    """Mix features for unseen rows using train-derived statistics.

    Row shares and the identity mode are row-local, so nothing leaks either
    way.  Per-feature-max divides by the entity's training-period ``maxima``
    (:func:`entity_maxima` of the training panel); entities absent from
    training fall back to their own maxima.
    """
    if mode != PER_FEATURE_MAX:
        matrix, _ = energy_mix_features(new, mode)
        return matrix
    return scale_by_entity_maxima(new, maxima)


MODEL_FORMAT = "dprkit-model-v1"


def bundle_field(bundle, dotted: str, convert):
    """``convert(bundle[a][b])`` for ``dotted='a.b'``; a missing or bad field is named."""
    node = bundle
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f"missing field {dotted!r}")
        node = node[key]
    try:
        return convert(node)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"bad field {dotted!r}: {exc!r}") from exc


@dataclass
class DprModel:
    """What forecasting a row needs, in ``run`` and from ``model.json`` alike.

    The core points (clustering features) and their labels are in training
    row order; ``dummy_names`` are the design columns after the features;
    ``entity_maxima`` is None unless the mix mode is per-feature-max.
    """

    model: FittedModel
    transform: TransformSpec
    features: list[str]
    params: DbscanParams
    k: int
    baseline: int
    outlier_policy: str
    core_points: np.ndarray
    core_labels: np.ndarray
    dummy_names: list[str]
    entity_maxima: dict[str, np.ndarray] | None

    def to_bundle(self) -> dict:
        """The ``dprkit-model-v1`` record that ``run`` writes as ``model.json``."""
        p, maxima = self.params, self.entity_maxima
        return {
            "format": MODEL_FORMAT,
            "regression": self.model.to_dict(),
            "transform": {"log_offset": self.transform.log_offset,
                          "normalize_mode": self.transform.normalize_mode},
            "features": list(self.features),
            "clustering": {
                "eps": p.eps, "min_pts": p.min_pts, "core_strict": p.core_strict,
                "k": self.k, "baseline": self.baseline, "outlier_policy": self.outlier_policy,
                "core_points": self.core_points.tolist(),
                "core_labels": self.core_labels.tolist(),
                "dummy_names": list(self.dummy_names),
            },
            "entity_maxima": None if maxima is None else {e: mx.tolist()
                                                          for e, mx in maxima.items()},
        }

    @classmethod
    def from_bundle(cls, bundle) -> "DprModel":
        """Read back a ``to_bundle`` record; a malformed one is a ValidationError."""
        if not isinstance(bundle, dict) or bundle.get("format") != MODEL_FORMAT:
            raise ValidationError("not a run model bundle")
        get = partial(bundle_field, bundle)
        model = get("regression", FittedModel.from_dict)
        features = get("features", lambda v: [str(f) for f in v])
        labels = get("clustering.core_labels", lambda v: np.asarray(v, np.intp).reshape(-1))
        maxima = bundle.get("entity_maxima")
        return cls(
            model=model,
            transform=TransformSpec(get("transform.log_offset", float),
                                    get("transform.normalize_mode", str)),
            features=features,
            params=DbscanParams(get("clustering.eps", float), get("clustering.min_pts", int),
                                core_strict=get("clustering.core_strict", bool)),
            k=get("clustering.k", int),
            baseline=get("clustering.baseline", int),
            outlier_policy=get("clustering.outlier_policy", str),
            core_points=get("clustering.core_points", lambda v: np.asarray(
                v, np.float64).reshape(labels.size, len(features))),
            core_labels=labels,
            dummy_names=get("clustering.dummy_names", lambda v: [str(n) for n in v]),
            entity_maxima=None if maxima is None else get(
                "entity_maxima", lambda v: {str(e): np.asarray(mx, np.float64).reshape(
                    len(features)) for e, mx in v.items()}),
        )

    def assign(self, panel: PanelDataset) -> np.ndarray:
        """Cluster ids of the panel's rows by the nearest-core rule; NOISE off every core."""
        points = mix_for_new_rows(panel, self.transform.normalize_mode,
                                  self.entity_maxima or {})
        return assign_by_nearest_core(self.core_points, self.core_labels,
                                      self.params.eps, points)

    def forecast(self, panel: PanelDataset) -> ForecastResult:
        """Assign the source-unit panel's rows to clusters and forecast them."""
        if list(panel.feature_names) != self.features:
            raise ValidationError(f"panel features {panel.feature_names} do not match "
                                  f"model features {self.features}")
        labels = self.assign(panel)
        block = np.zeros((labels.shape[0], len(self.dummy_names)))
        for c, name in enumerate(self.dummy_names):
            if name.startswith("cluster_"):
                block[labels == int(name.split("_", 1)[1]), c] = 1.0
        return forecast_report(self.model, panel, self.transform,
                               extra_columns=block, extra_labels=labels)


@dataclass
class RunReport:
    """Everything one run produced; ``write_report`` lays it out as a directory.

    ``design`` is the standardized training design the model was fit on; the
    final model, with its penalty, is ``dpr_model.model``, and the test rows'
    cluster ids are ``forecast.cluster``.
    """

    split: SplitSpec
    clusters: ClusterModel
    scan_rows: list[ScanRow] | None
    cv: CvResult
    design: DesignMatrix
    path_lambdas: list[float]
    path_models: list[FittedModel]
    dpr_model: DprModel
    forecast: ForecastResult
    metrics: dict
    train_keys: list
    test_keys: list
    k_distance: np.ndarray
    zero_mix_rows: list

    @property
    def unconverged_path_fits(self) -> int:
        return sum(not m.diagnostics["converged"] for m in self.path_models)


def _metrics_block(y: np.ndarray, yhat: np.ndarray) -> dict:
    mse, r2 = _fit_metrics(y, yhat)
    return {"r2": r2, "mse": mse}


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def run_dpr(data: PanelDataset, config: DprConfig, split: SplitSpec) -> RunReport:
    """Execute the full flow and return the report.

    Stages: chronological split, clustering features from the source-unit
    training panel, dbscan (given parameters or the SC-maximizing scan cell),
    log transform, dummy augmentation, standardization, cross-validated
    hyperparameter choice, a coefficient path at the chosen mixing, the
    final fit (for lasso and elastic net, the path's fit at the chosen
    lambda; ridge in closed form), and test-period forecasting with
    nearest-core cluster assignment.
    Any stage failure aborts with the stage named in the error.
    """
    if data.transform is not None:
        raise ValidationError("run_dpr expects a source-unit panel")

    with _stage("split"):
        train_p, test_p = chronological_split(data, split)

    with _stage("mix"):
        mode = config.transform.normalize_mode
        mix_train, zero_rows = energy_mix_features(train_p, mode)

    with _stage("cluster"):
        scan_rows: list[ScanRow] | None = None
        if config.dbscan is not None:
            params = config.dbscan
        else:
            if config.eps_grid is None or config.minpts_grid is None:
                raise ValidationError(
                    "config needs either dbscan parameters or eps/min_pts scan grids"
                )
            scan_rows = scan_params(
                mix_train, config.eps_grid, config.minpts_grid,
                core_strict=config.core_strict,
            )
            suggestion = suggest_params(scan_rows)
            if suggestion is None:
                raise NumericalError(
                    "no scan cell had a defined silhouette; adjust the grids"
                )
            params = DbscanParams(
                eps=suggestion.eps, min_pts=suggestion.min_pts,
                core_strict=config.core_strict,
            )
        cmodel = dbscan(mix_train, params)
        if cmodel.k > 0 and config.baseline_cluster not in range(cmodel.k):
            raise ValidationError(
                f"baseline cluster {config.baseline_cluster} does not exist; "
                f"clustering found ids 0..{cmodel.k - 1}"
            )

    with _stage("transform"):
        train_log = log_transform(train_p, config.transform)

    with _stage("design"):
        dm0 = design_from_panel(train_log)
        dm1 = augment_with_dummies(
            dm0, cmodel.labels, policy=config.outlier_policy,
            baseline=config.baseline_cluster,
        )

    with _stage("standardize"):
        dmS = standardize(dm1.X, dm1.y, dm1.column_names, source_rows=dm1.source_rows)

    with _stage("cv"):
        cv = cross_validate(dmS, split.cv_folds, config.penalty_kind, config.lambda_grid,
                            alpha_grid=config.alpha_grid)

    chosen = PenaltySpec(config.penalty_kind, cv.best.lam, cv.best.alpha)
    with _stage("path"):
        path_lams = sorted(set(float(l) for l in config.lambda_grid), reverse=True)
        path_models = regularization_path(dmS, path_lams, chosen.mixing)

    with _stage("fit"):
        # lasso and elastic net: the path already solved the chosen cell
        if config.penalty_kind == RIDGE:
            model = fit_penalized(dmS, chosen)
        else:
            model = path_models[path_lams.index(cv.best.lam)]
            if config.penalty_kind == LASSO:
                model = replace(model, penalty=PenaltySpec(LASSO, model.penalty.lam))

    with _stage("forecast"):
        features = list(train_log.feature_names)
        dpr_model = DprModel(
            model=model, transform=config.transform, features=features,
            params=params, k=cmodel.k, baseline=config.baseline_cluster,
            outlier_policy=config.outlier_policy,
            core_points=mix_train[cmodel.core_mask],
            core_labels=cmodel.labels[cmodel.core_mask],
            dummy_names=list(dmS.column_names[len(features):]),
            entity_maxima=entity_maxima(train_p) if mode == PER_FEATURE_MAX else None,
        )
        fres = dpr_model.forecast(test_p)

    with _stage("report"):
        train_metrics = dict(model.diagnostics)
        have_test = ~np.isnan(fres.actual_log)
        test_metrics = None
        if have_test.any():
            test_metrics = _metrics_block(
                fres.actual_log[have_test], fres.predicted_log[have_test]
            )
        metrics = {
            "train": {
                "r2": train_metrics["r2"],
                "mse": train_metrics["mse"],
                "sparsity": train_metrics["sparsity"],
            },
            "validation": {"mean_mse": cv.best.mean_mse, "mean_r2": cv.best.mean_r2},
            "test": test_metrics,
        }

        kd_k = min(params.min_pts, mix_train.shape[0] - 1)
        k_dist = k_distance_profile(mix_train, max(1, kd_k))

        train_keys = train_p.row_keys()
        return RunReport(
            split=split,
            clusters=cmodel,
            scan_rows=scan_rows,
            cv=cv,
            design=dmS,
            path_lambdas=path_lams,
            path_models=path_models,
            dpr_model=dpr_model,
            forecast=fres,
            metrics=metrics,
            train_keys=train_keys,
            test_keys=test_p.row_keys(),
            k_distance=k_dist,
            zero_mix_rows=[train_keys[i] for i in zero_rows],
        )


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_report(report: RunReport, out_dir) -> None:
    """Serialize the report as a directory of delimited tables plus JSON records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    keys = report.train_keys + report.test_keys
    entity, period = [e for e, _ in keys], [p for _, p in keys]
    n_train, n_test = len(report.train_keys), len(report.test_keys)
    clusters, model, dm = report.clusters, report.dpr_model.model, report.design
    write_table(
        out / "clusters.csv",
        ["entity", "period", "split", "label", "core"],
        [
            entity,
            period,
            ["train"] * n_train + ["test"] * n_test,
            np.concatenate([clusters.labels, report.forecast.cluster]).astype(np.intp),
            clusters.core_mask.astype(np.intp).tolist() + [None] * n_test,
        ],
    )

    if report.scan_rows is not None:
        write_scan_table(report.scan_rows, out / "scan.csv")
    write_cv_table(report.cv, out / "cv_table.csv")

    write_coefficients(model, out / "coefficients.csv")

    fitted_keys = [report.train_keys[i] for i in dm.source_rows]
    a, f = dm.y, _predict_standardized(model, dm.X)
    write_table(
        out / "fitted.csv",
        ["entity", "period", "actual_log", "predicted_log", "residual"],
        [[e for e, _ in fitted_keys], [p for _, p in fitted_keys], a, f, a - f],
    )

    write_forecast(report.forecast, out / "forecast.csv")

    summary = {
        "chosen": {
            "kind": model.penalty.kind,
            "lambda": model.penalty.lam,
            "alpha": model.penalty.alpha,
        },
        "clustering": {
            "eps": clusters.params.eps,
            "min_pts": clusters.params.min_pts,
            "core_strict": clusters.params.core_strict,
            "k": clusters.k,
            "sc": clusters.sc,
            "sse": clusters.sse,
            "n_noise": clusters.n_noise,
            "n_core": int(np.sum(clusters.core_mask)),
        },
        "metrics": report.metrics,
        "forecast": {
            "mean_error": report.forecast.mean_error,
            "error_variance": report.forecast.error_variance,
            "n_rows": len(report.forecast.rows),
            "n_noise_rows": report.forecast.n_noise_rows,
        },
        "fit": {
            "iterations": model.diagnostics.get("iterations"),
            "converged": model.diagnostics.get("converged"),
            "unconverged_path_fits": report.unconverged_path_fits,
        },
        "split": {
            "train_periods": list(report.split.train_periods),
            "test_periods": list(report.split.test_periods),
            "cv_folds": report.split.cv_folds,
        },
        "flagged": {
            "zero_mix_rows": [[e, p] for e, p in report.zero_mix_rows],
            "test_noise_rows": [
                [report.forecast.entity[i], report.forecast.period[i]]
                for i in np.flatnonzero(report.forecast.is_noise).tolist()
            ],
        },
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, default=_json_default) + "\n", encoding="utf-8"
    )
    (out / "model.json").write_text(
        json.dumps(report.dpr_model.to_bundle(), indent=2, default=_json_default) + "\n",
        encoding="utf-8",
    )


def write_scan_table(rows: list[ScanRow], dest) -> None:
    """The parameter scan table (``scan.csv``) that ``run`` and ``scan`` write."""
    write_table(
        dest,
        ["eps", "min_pts", "k", "sc", "sse"],
        [[r.eps for r in rows], [r.min_pts for r in rows], [r.k for r in rows],
         [r.sc for r in rows], [r.sse for r in rows]],
    )


def write_cv_table(cv: CvResult, dest) -> None:
    """The cross-validation table (``cv_table.csv``) that ``run`` and ``cv`` write."""
    cells = cv.table
    write_table(
        dest,
        ["lambda", "alpha", "mean_mse", "mean_r2"],
        [[c.lam for c in cells], [c.alpha for c in cells],
         [c.mean_mse for c in cells], [c.mean_r2 for c in cells]],
    )


def write_coefficients(model: FittedModel, dest) -> None:
    """The coefficient table (``coefficients.csv``) that ``run`` and ``fit`` write."""
    write_table(
        dest,
        ["name", "standardized", "source_scale", "forced_zero"],
        [
            ["(intercept)"] + list(model.column_names),
            np.concatenate([[model.intercept], model.coefficients]),
            np.concatenate([[model.source_intercept], model.source_coefficients]),
            np.concatenate([[0], model.zero_variance]).astype(np.intp),
        ],
    )
