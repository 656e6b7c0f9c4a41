"""End-to-end orchestration: cluster the training panel's mix shares, augment
the design with cluster dummies measured against cluster 0, pick penalty
strength by cross-validation, fit, and forecast the held-out periods.

Leakage rules are strict and testable: clustering, standardization, and
hyperparameter selection see training rows only.  Test rows are assigned to
clusters through the nearest-core-point rule and never feed back into any
training statistic, so deleting or perturbing them leaves every training
artifact byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .clustering import (
    NOISE,
    ClusterModel,
    DbscanParams,
    ScanRow,
    _check_eps,
    assign_by_nearest_core,
    dbscan,
    k_distance_profile,
    scan_params,
    suggest_params,
)
from .errors import ConvergenceError, NumericalError, ValidationError, require_int
from .panel import PanelDataset, TransformSpec, energy_mix_features, invert_log, log_transform
from .regression import (
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    RankDeficiencyError,
    _fit_metrics,
    add_training_metrics,
    check_alpha,
    check_lambda,
    fit_elastic_net,
    predict,
    standardize,
)
from .tables import bundle_field, number, numbers, string, strings, write_json, write_table

UNIQUE_DUMMY = "unique_dummy"
EXCLUDE = "exclude"
OUTLIER_POLICIES = (UNIQUE_DUMMY, EXCLUDE)

_DEFAULT_LAMBDAS = tuple(float(v) for v in np.logspace(-4, np.log10(0.5), 20))
# the alpha grid of each penalty spelling; elastic_net's is the default of alpha_grid
_PENALTY_ALPHAS = {"ridge": (0.0,), "lasso": (1.0,), "elastic_net": (0.3, 0.5, 1.0)}


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
        object.__setattr__(self, "cv_folds", require_int("cv_folds", self.cv_folds, 2))


@dataclass(frozen=True)
class DprConfig:
    """Declarative description of one full run; mirrors the CLI config file.

    Clustering takes fixed ``eps`` and ``min_pts`` or scans ``eps_grid`` x
    ``minpts_grid``, never both.  ``penalty_kind`` spells ``alpha_grid``, here
    alone: ridge (0,), lasso (1,), elastic_net the grid given or (0.3, 0.5,
    1.0); ridge and lasso take no other grid.
    """

    transform: TransformSpec = field(default_factory=TransformSpec)
    eps: float | None = None
    min_pts: int | None = None
    eps_grid: tuple | None = None
    minpts_grid: tuple | None = None
    penalty_kind: str = "elastic_net"
    lambda_grid: tuple = _DEFAULT_LAMBDAS
    alpha_grid: tuple | None = None
    outlier_policy: str = UNIQUE_DUMMY

    def __post_init__(self) -> None:
        given = [key for key in ("eps", "min_pts", "eps_grid", "minpts_grid")
                 if getattr(self, key) is not None]
        if given not in (["eps", "min_pts"], ["eps_grid", "minpts_grid"]):
            raise ValidationError("give eps and min_pts, or eps_grid and minpts_grid, "
                                  f"not both; got {', '.join(given) or 'none of them'}")
        if self.eps is not None:
            DbscanParams(self.eps, self.min_pts)  # checks their values
        kind = self.penalty_kind
        if kind not in _PENALTY_ALPHAS:
            raise ValidationError(f"penalty must be one of {tuple(_PENALTY_ALPHAS)}, got {kind!r}")
        if self.alpha_grid is None:
            object.__setattr__(self, "alpha_grid", _PENALTY_ALPHAS[kind])
        # a resolved config is valid again, so dataclasses.replace keeps working
        elif kind != "elastic_net" and tuple(self.alpha_grid) != _PENALTY_ALPHAS[kind]:
            raise ValidationError(f"alpha_grid is only valid for elastic_net, not {kind}")
        _check_outlier_policy(self.outlier_policy)
        for key in ("eps_grid", "minpts_grid", "lambda_grid", "alpha_grid"):
            if getattr(self, key) is not None and not len(getattr(self, key)):
                raise ValidationError(f"{key} is empty")
        # each value by its own rule: DbscanParams' and PenaltySpec's
        for key, check in (("eps_grid", _check_eps),
                           ("minpts_grid", partial(require_int, "min_pts", minimum=1)),
                           ("lambda_grid", check_lambda),
                           ("alpha_grid", check_alpha)):
            for value in () if getattr(self, key) is None else getattr(self, key):
                try:
                    check(value)
                except ValidationError as err:
                    raise ValidationError(f"{key}: {err}") from None


def _check_outlier_policy(policy) -> str:
    if policy not in OUTLIER_POLICIES:
        raise ValidationError(f"outlier_policy must be one of {OUTLIER_POLICIES}, got {policy!r}")
    return policy


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
        row_keys = panel.row_keys()
        keys = [row_keys[i] for i in missing[:5]]
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


def augment_with_dummies(dm: DesignMatrix, labels, policy: str = UNIQUE_DUMMY) -> DesignMatrix:
    """Append 0/1 cluster-membership columns against cluster 0, the baseline.

    Clusters 0..k-1 produce the k-1 columns ``cluster_1`` ... ``cluster_<k-1>``.
    Noise rows are handled per policy: ``unique_dummy`` gives each its own
    singleton column ``noise_<row>``, ``exclude`` drops the rows (the dropped
    identities stay visible through ``source_rows``).
    """
    if dm.standardized:
        raise ValidationError("augment_with_dummies expects an unstandardized design")
    _check_outlier_policy(policy)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (dm.n,):
        raise ValidationError(f"labels length {labels.shape} does not match {dm.n} rows")
    if np.any(labels < NOISE):
        raise ValidationError("labels must be cluster ids >= 0 or -1 for noise")

    ids = sorted(int(c) for c in np.unique(labels[labels != NOISE]))
    rowids = dm.source_rows if dm.source_rows is not None else np.arange(dm.n)
    X, y = dm.X, dm.y
    if policy == EXCLUDE:
        keep = labels != NOISE
        if not keep.any():
            raise ValidationError("outlier policy 'exclude' removed every row")
        X, y, labels, rowids = X[keep], y[keep], labels[keep], rowids[keep]
    names = [f"cluster_{c}" for c in ids if c != 0]
    names += [f"noise_{r}" for r in rowids[labels == NOISE].tolist()]
    return DesignMatrix(
        X=np.hstack([X, dummy_columns(names, labels, rowids)]),
        y=y.copy(),
        column_names=list(dm.column_names) + names,
        standardized=False,
        source_rows=rowids.copy(),
    )


def dummy_columns(names: Sequence[str], labels, rows=None) -> np.ndarray:
    """The 0/1 block of the dummy columns ``names`` for rows with cluster ids ``labels``.

    ``cluster_<c>`` is 1 on the rows of cluster c.  ``noise_<r>`` is 1 on the
    row whose id in ``rows`` is r; new rows (``rows`` None) have no noise
    column of their own, so it is 0 on them.
    """
    labels = np.asarray(labels, dtype=np.intp)
    block = np.zeros((labels.shape[0], len(names)))
    for j, name in enumerate(names):
        kind, _, ident = name.partition("_")
        if kind not in ("cluster", "noise") or not ident.isdigit():
            raise ValidationError(f"{name!r} is not a cluster_<id> or noise_<row> column")
        if kind == "cluster":
            block[labels == int(ident), j] = 1.0
        elif rows is not None:
            block[rows == int(ident), j] = 1.0
    return block


@dataclass(frozen=True)
class CvCell:
    lam: float
    alpha: float
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


def require_fit(model: FittedModel | None, what: str) -> FittedModel:
    """``model`` if its fit succeeded; a None fit is rank-deficient, an unconverged one fails.

    ``what`` names the fit in the error.
    """
    if model is None:
        raise RankDeficiencyError(f"{what} is rank-deficient")
    if not model.diagnostics["converged"]:
        raise ConvergenceError(
            f"{what} did not converge in {model.diagnostics['iterations']} steps"
        )
    return model


def regularization_path(dm: DesignMatrix, lambdas, alpha: float,
                        warm: Sequence[FittedModel | None] | None = None
                        ) -> list[FittedModel | None]:
    """The fits at ``alpha`` along a strictly descending lambda grid.

    Each fit is one :func:`fit_elastic_net`, warm-started from the previous
    one (alpha=0 ignores it); the warm starts give the same exact solutions as
    cold starts.  ``warm``, one entry per lambda, is an earlier chain over the
    same grid and design: each fit then starts from that chain's fit at its
    lambda, or from the previous lambda's fit where the entry is None.  An
    alpha=0 fit on a rank-deficient system (lambda=0 on collinear columns) is
    None.  CV folds and ``run``'s coefficient path both use this chain.
    """
    lams = [check_lambda(l) for l in lambdas]
    if not lams:
        raise ValidationError("lambda grid is empty")
    for a, b in zip(lams, lams[1:]):
        if not b < a:
            raise ValidationError(f"lambda grid must be strictly descending: {a} -> {b}")
    if warm is None:
        warm = [None] * len(lams)
    elif len(warm) != len(lams):
        raise ValidationError(f"warm chain has {len(warm)} fits for {len(lams)} lambdas")
    models: list[FittedModel | None] = []
    prev: np.ndarray | None = None
    for lam, w in zip(lams, warm):
        start = prev if w is None else w.coefficients
        try:
            m = fit_elastic_net(dm, PenaltySpec(lam, alpha), start)
        except RankDeficiencyError:
            m = None
        else:
            prev = m.coefficients
        models.append(m)
    return models


def cross_validate(dm: DesignMatrix, folds: int, lambda_grid, alpha_grid) -> CvResult:
    """Grid search by deterministic contiguous-block cross-validation.

    Folds are contiguous blocks of the row order.  Each distinct (lambda,
    alpha) pair is one cell, in first-occurrence order of the grids.  Within
    a fold, each alpha walks the lambda grid descending as one
    :func:`regularization_path`; the first alpha's chain starts cold, and
    each later alpha's fit at a lambda starts from the previous alpha's fit
    at that lambda on the same fold (pathwise warm starts, Friedman, Hastie &
    Tibshirani, JSS 2010), which takes fewer active-set steps to the same
    exact solutions.  No fit starts from another fold's.  The winner
    minimizes mean validation MSE; exact ties break toward the larger
    lambda, then the larger alpha.  A cell with a failed fold fit -- an
    alpha=0 fit on a rank-deficient system (lambda=0 on collinear columns), or
    an alpha > 0 fit that hit the step cap ``regression.DEFAULT_MAX_ITER`` --
    is recorded with NA metrics and never wins.
    """
    if not dm.standardized:
        raise ValidationError("cross_validate expects a standardized design")
    folds = require_int("folds", folds, 2)
    # deduplicated by the checked value, so 1 and 1.0 are one cell and True is refused
    lams = list(dict.fromkeys(map(check_lambda, lambda_grid)))
    alphas = list(dict.fromkeys(map(check_alpha, alpha_grid)))
    if not alphas:
        raise ValidationError("alpha grid is empty")

    blocks = _fold_blocks(dm.n, folds)
    for b, block in enumerate(blocks):
        if block.size < 2:
            raise ValidationError(f"fold {b} has {block.size} rows; folds need >= 2")
        if dm.n - block.size < 2:
            raise ValidationError(f"fold {b} leaves fewer than 2 training rows")

    all_rows = np.arange(dm.n)
    lam_desc = sorted(lams, reverse=True)

    def _fold(block) -> dict:
        # one training subset per fold, so every chain of the fold shares its Gram
        sub = dm.subset_rows(np.setdiff1d(all_rows, block))
        Xv = dm.X[block]
        yv = dm.y[block]
        out: dict[tuple[float, float], tuple[float, float]] = {}
        chain = None
        for alpha in alphas:
            chain = regularization_path(sub, lam_desc, alpha, warm=chain)
            for lam, m in zip(lam_desc, chain):
                mse = r2 = math.nan
                # NA unless the fit succeeds and converges
                if m is not None and m.diagnostics["converged"]:
                    mse, r2 = _fit_metrics(yv, _predict_standardized(m, Xv))
                out[(lam, alpha)] = (mse, math.nan if r2 is None else r2)
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
    best = min(usable, key=lambda c: (c.mean_mse, -c.lam, -c.alpha))
    return CvResult(best=best, table=table)


@dataclass
class ForecastResult:
    """Forecast of every row, by column; NaN marks a row without a target.

    ``entities`` and ``periods`` are the rows' keys in row order, and each
    array is a column aligned with them; ``rows`` pairs the keys up.
    """

    entities: list[str]
    periods: list
    cluster: np.ndarray
    actual_log: np.ndarray
    predicted_log: np.ndarray
    actual_source: np.ndarray
    predicted_source: np.ndarray
    relative_error: np.ndarray
    mean_error: float | None
    error_variance: float | None

    @property
    def rows(self) -> list[tuple[str, object]]:
        """The rows' (entity, period) keys in row order."""
        return list(zip(self.entities, self.periods))

    @property
    def is_noise(self) -> np.ndarray:
        return self.cluster == NOISE

    @property
    def n_noise_rows(self) -> int:
        return int(np.count_nonzero(self.is_noise))


def _key_columns(keys) -> tuple[list, list]:
    return [e for e, _ in keys], [p for _, p in keys]


def write_forecast(result: ForecastResult, dest) -> None:
    """The forecast table (``forecast.csv``) that ``run`` and ``forecast`` write."""
    write_table(
        dest,
        [
            "entity", "period", "cluster", "noise_row", "actual_log", "predicted_log",
            "actual_source", "predicted_source", "relative_error_source",
        ],
        [
            result.entities, result.periods, result.cluster,
            result.is_noise.astype(np.intp), result.actual_log, result.predicted_log,
            result.actual_source, result.predicted_source, result.relative_error,
        ],
    )


def forecast_report(model: FittedModel, test: PanelDataset, transform: TransformSpec,
                    labels: np.ndarray | None = None) -> ForecastResult:
    """Predict the test panel and compare against actuals in both unit systems.

    ``labels`` are the rows' cluster ids (NOISE for every row when None).  The
    model's columns after the panel's features are its dummies; their block
    comes from ``labels`` by :func:`dummy_columns`, so a model with dummies
    needs ``labels``.  The relative error is the deviation on the exp scale,
    |exp(yhat) - exp(y)| / exp(y); the source-unit value columns apply the
    full inverse transform exp(v) - offset.  Rows without a target predict
    but contribute nothing to the summary; the summary is the mean and the
    population variance of the log-unit errors (yhat - y).
    """
    if test.transform is not None:
        raise ValidationError("forecast_report expects a source-unit test panel")
    dummies = model.column_names[test.n_features:]
    if labels is None and dummies:
        raise ValidationError(
            f"the model has {len(dummies)} dummy column(s); forecasting needs cluster labels"
        )
    labels = np.full(test.n_obs, NOISE, np.intp) if labels is None else np.asarray(labels, np.intp)
    if labels.shape != (test.n_obs,):
        raise ValidationError(f"{labels.size} labels for {test.n_obs} test rows")
    test_log = log_transform(test, transform)
    yhat = predict(model, np.hstack([test_log.features, dummy_columns(dummies, labels)]))

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
    entities, periods = test.key_columns()
    return ForecastResult(
        entities=entities,
        periods=periods,
        cluster=labels,
        actual_log=y,
        predicted_log=yhat,
        actual_source=invert_log(y, transform),
        predicted_source=invert_log(yhat, transform),
        relative_error=relative_error,
        mean_error=mean_error,
        error_variance=error_variance,
    )


MODEL_FORMAT = "dprkit-model-v4"


@dataclass
class DprModel:
    """What forecasting a row needs, in ``run`` and from ``model.json`` alike.

    The core points (clustering features) and their labels are in training
    row order; the model's columns after ``features`` are its dummies.
    """

    model: FittedModel
    transform: TransformSpec
    features: list[str]
    eps: float
    k: int
    outlier_policy: str
    core_points: np.ndarray
    core_labels: np.ndarray

    def to_bundle(self) -> dict:
        """The ``MODEL_FORMAT`` record that ``run`` writes as ``model.json``."""
        return {
            "format": MODEL_FORMAT,
            "regression": self.model.to_dict(),
            # normalize_mode is read by perfbench's forecast check; goes with ROADMAP item 2
            "transform": {"log_offset": self.transform.log_offset, "normalize_mode": "rawshares"},
            "features": list(self.features),
            "clustering": {
                "eps": self.eps, "k": self.k,
                "outlier_policy": self.outlier_policy,
                "core_points": self.core_points.tolist(),
                "core_labels": self.core_labels.tolist(),
            },
        }

    @classmethod
    def from_bundle(cls, bundle) -> "DprModel":
        """Read back a ``to_bundle`` record; a malformed one is a ValidationError.

        The regression columns are the features, then dummies that
        :func:`dummy_columns` builds for new rows."""
        if not isinstance(bundle, dict):
            raise ValidationError("not a run model bundle")
        if bundle.get("format") != MODEL_FORMAT:
            raise ValidationError(f"bad field 'format': expected {MODEL_FORMAT!r}, got "
                                  f"{bundle.get('format')!r}; rerun dprkit run to write one")
        get = partial(bundle_field, bundle)
        model = get("regression", FittedModel.from_dict)
        features = get("features", strings)
        names = model.column_names
        try:
            if names[:len(features)] != features:
                raise ValidationError("the features do not come first")
            dummy_columns(names[len(features):], np.zeros(0, np.intp))
        except ValidationError as exc:
            raise ValidationError(f"bad field 'regression.column_names': {exc}") from None
        labels = get("clustering.core_labels", partial(numbers, kind=int))
        k = get("clustering.k", partial(number, kind=int))
        if labels.ndim != 1 or np.any((labels < 0) | (labels >= k)):
            raise ValidationError(f"bad field 'clustering.core_labels': not all in range({k})")
        # augment_with_dummies' columns: one per cluster but the baseline 0
        ids = [int(n.removeprefix("cluster_")) for n in names[len(features):]
               if n.startswith("cluster_")]
        if ids != list(range(1, k)):
            raise ValidationError(
                f"bad field 'clustering.k': the cluster columns of regression.column_names "
                f"are {ids}, not range(1, {k})")
        core_points = get("clustering.core_points", lambda v: numbers(v).reshape(
            labels.size, len(features)))
        if not np.isfinite(core_points).all():
            raise ValidationError("bad field 'clustering.core_points': expected finite entries")
        return cls(
            model=model,
            transform=get("transform.log_offset", lambda v: TransformSpec(number(v))),
            features=features,
            eps=get("clustering.eps", lambda v: _check_eps(number(v))),
            k=k,
            outlier_policy=get("clustering.outlier_policy",
                               lambda v: _check_outlier_policy(string(v))),
            core_points=core_points,
            core_labels=labels,
        )

    def assign(self, panel: PanelDataset) -> np.ndarray:
        """Cluster ids of the panel's rows by the nearest-core rule; NOISE off every core."""
        points, _ = energy_mix_features(panel)
        return assign_by_nearest_core(self.core_points, self.core_labels,
                                      self.eps, points)

    def forecast(self, panel: PanelDataset) -> ForecastResult:
        """Assign the source-unit panel's rows to clusters and forecast them."""
        if list(panel.feature_names) != self.features:
            raise ValidationError(f"panel features {panel.feature_names} do not match "
                                  f"model features {self.features}")
        return forecast_report(self.model, panel, self.transform, labels=self.assign(panel))


@dataclass
class RunReport:
    """Everything one run produced; ``write_report`` lays it out as a directory.

    ``design`` is the standardized training design the model was fit on; the
    final model, with its penalty, is ``dpr_model.model``, the path's fit at
    the chosen lambda.  ``train_keys`` are the training rows' (entity, period)
    keys; the test rows' keys are the columns ``forecast.entities`` and
    ``forecast.periods``, and their cluster ids ``forecast.cluster``.
    summary.json's chosen kind is ``penalty_kind``.
    A path fit that is None (rank-deficient at alpha=0) counts as unconverged.
    """

    split: SplitSpec
    penalty_kind: str
    clusters: ClusterModel
    scan_rows: list[ScanRow] | None
    cv: CvResult
    design: DesignMatrix
    path_lambdas: list[float]
    path_models: list[FittedModel | None]
    dpr_model: DprModel
    forecast: ForecastResult
    metrics: dict
    train_keys: list
    k_distance: np.ndarray
    zero_mix_rows: list

    @property
    def unconverged_path_fits(self) -> int:
        return sum(m is None or not m.diagnostics["converged"] for m in self.path_models)


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
    hyperparameter choice, a coefficient path at the chosen alpha whose fit
    at the chosen lambda is the final model, and test-period forecasting with
    nearest-core cluster assignment.
    Any stage failure aborts with the stage named in the error; a final model
    that is rank-deficient or did not converge fails stage ``path``.
    """
    if data.transform is not None:
        raise ValidationError("run_dpr expects a source-unit panel")

    with _stage("split"):
        train_p, test_p = chronological_split(data, split)

    with _stage("mix"):
        mix_train, zero_rows = energy_mix_features(train_p)

    with _stage("cluster"):
        scan_rows: list[ScanRow] | None = None
        eps, min_pts = config.eps, config.min_pts
        if eps is None:
            scan_rows = scan_params(mix_train, config.eps_grid, config.minpts_grid)
            suggestion = suggest_params(scan_rows)
            if suggestion is None:
                raise NumericalError(
                    "no scan cell had a defined silhouette; adjust the grids"
                )
            eps, min_pts = suggestion.eps, suggestion.min_pts
        params = DbscanParams(eps, min_pts)
        cmodel = dbscan(mix_train, params)

    with _stage("transform"):
        train_log = log_transform(train_p, config.transform)

    with _stage("design"):
        dm0 = design_from_panel(train_log)
        dm1 = augment_with_dummies(dm0, cmodel.labels, policy=config.outlier_policy)

    with _stage("standardize"):
        dmS = standardize(dm1.X, dm1.y, dm1.column_names, source_rows=dm1.source_rows)

    with _stage("cv"):
        cv = cross_validate(dmS, split.cv_folds, config.lambda_grid, config.alpha_grid)

    with _stage("path"):
        path_lams = sorted(set(float(l) for l in config.lambda_grid), reverse=True)
        path_models = regularization_path(dmS, path_lams, cv.best.alpha)
        model = require_fit(path_models[path_lams.index(cv.best.lam)],
                            f"fit at the chosen lambda={cv.best.lam}")
        add_training_metrics(model, dmS)

    with _stage("forecast"):
        features = list(train_log.feature_names)
        dpr_model = DprModel(
            model=model, transform=config.transform, features=features,
            eps=params.eps, k=cmodel.k, outlier_policy=config.outlier_policy,
            core_points=mix_train[cmodel.core_mask],
            core_labels=cmodel.labels[cmodel.core_mask],
        )
        fres = dpr_model.forecast(test_p)

    with _stage("report"):
        train_metrics = dict(model.diagnostics)
        have_test = ~np.isnan(fres.actual_log)
        test_metrics = None
        if have_test.any():
            mse, r2 = _fit_metrics(fres.actual_log[have_test], fres.predicted_log[have_test])
            test_metrics = {"r2": r2, "mse": mse}
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
            penalty_kind=config.penalty_kind,
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
            k_distance=k_dist,
            zero_mix_rows=[train_keys[i] for i in zero_rows],
        )


def write_report(report: RunReport, out_dir) -> None:
    """Serialize the report as a directory of delimited tables plus JSON records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    fc = report.forecast
    n_train, n_test = len(report.train_keys), len(fc.entities)
    clusters, model, dm = report.clusters, report.dpr_model.model, report.design
    train_entities, train_periods = _key_columns(report.train_keys)
    write_table(
        out / "clusters.csv",
        ["entity", "period", "split", "label", "core"],
        [
            train_entities + fc.entities,
            train_periods + fc.periods,
            ["train"] * n_train + ["test"] * n_test,
            np.concatenate([clusters.labels, fc.cluster]).astype(np.intp),
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
        [*_key_columns(fitted_keys), a, f, a - f],
    )

    write_forecast(fc, out / "forecast.csv")

    summary = {
        "chosen": {
            "kind": report.penalty_kind,
            "lambda": model.penalty.lam,
            "alpha": model.penalty.alpha,
        },
        "clustering": {
            "eps": clusters.params.eps,
            "min_pts": clusters.params.min_pts,
            "core_strict": False,  # read by perfbench's DBSCAN check; goes with ROADMAP item 2
            "k": clusters.k,
            "sc": clusters.sc,
            "sse": clusters.sse,
            "n_noise": clusters.n_noise,
            "n_core": int(np.sum(clusters.core_mask)),
        },
        "metrics": report.metrics,
        "forecast": {
            "mean_error": fc.mean_error,
            "error_variance": fc.error_variance,
            "n_rows": n_test,
            "n_noise_rows": fc.n_noise_rows,
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
                [fc.entities[i], fc.periods[i]] for i in np.flatnonzero(fc.is_noise).tolist()
            ],
        },
    }
    write_json(out / "summary.json", summary)
    write_json(out / "model.json", report.dpr_model.to_bundle())


def write_scan_table(rows: list[ScanRow], dest) -> None:
    """The parameter scan table (``scan.csv``) of a ``run`` that scans."""
    write_table(
        dest,
        ["eps", "min_pts", "k", "sc", "sse"],
        [[r.eps for r in rows], [r.min_pts for r in rows], [r.k for r in rows],
         [r.sc for r in rows], [r.sse for r in rows]],
    )


def write_cv_table(cv: CvResult, dest) -> None:
    """The cross-validation table (``cv_table.csv``) of a ``run``."""
    cells = cv.table
    write_table(
        dest,
        ["lambda", "alpha", "mean_mse", "mean_r2"],
        [[c.lam for c in cells], [c.alpha for c in cells],
         [c.mean_mse for c in cells], [c.mean_r2 for c in cells]],
    )


def write_coefficients(model: FittedModel, dest) -> None:
    """The coefficient table (``coefficients.csv``) of a ``run``'s final fit."""
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
