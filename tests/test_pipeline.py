import dataclasses
import json
import math

import numpy as np
import pytest

from dprkit.clustering import NOISE, DbscanParams
from dprkit.errors import NumericalError, ValidationError
from dprkit.panel import (
    NO_NORMALIZATION,
    PER_FEATURE_MAX,
    PanelDataset,
    TransformSpec,
    energy_mix_features,
    invert_log,
    log_transform,
)
from dprkit.pipeline import (
    DprConfig,
    DprModel,
    SplitSpec,
    _fold_blocks,
    augment_with_dummies,
    chronological_split,
    cross_validate,
    design_from_panel,
    entity_maxima,
    forecast_report,
    mix_for_new_rows,
    run_dpr,
    write_report,
)
from dprkit.regression import (
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    fit_elastic_net,
    fit_lasso,
    fit_ridge,
    standardize,
)
from dprkit import pipeline, testkit


def _panel(seed=0, **kw):
    spec = testkit.SyntheticSpec(seed=seed, **kw)
    return testkit.generate_panel(spec)


def test_chronological_split_shapes_and_errors():
    panel, _ = _panel(n_entities=8, n_periods=6, n_features=4)
    split = SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:]))
    train, test = chronological_split(panel, split)
    assert train.periods == panel.periods[:4]
    assert test.periods == panel.periods[4:]
    assert train.n_obs == 32 and test.n_obs == 16

    with pytest.raises(ValidationError):
        SplitSpec((), tuple(panel.periods))
    with pytest.raises(ValidationError):
        SplitSpec(tuple(panel.periods[:3]), tuple(panel.periods[2:]))
    with pytest.raises(ValidationError, match="leading"):
        chronological_split(
            panel, SplitSpec(tuple(panel.periods[1:5]), tuple(panel.periods[5:]))
        )
    with pytest.raises(ValidationError, match="trailing"):
        chronological_split(
            panel, SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:5]))
        )


def test_design_from_panel_rejects_missing_targets():
    panel, _ = _panel(n_entities=4, n_periods=4, n_features=3)
    targets = panel.targets.copy()
    targets[3] = math.nan
    broken = PanelDataset(
        entities=panel.entities, periods=panel.periods,
        feature_names=panel.feature_names, entity_idx=panel.entity_idx,
        period_idx=panel.period_idx, features=panel.features, targets=targets,
    )
    with pytest.raises(ValidationError, match="target"):
        design_from_panel(broken)


def _toy_design(n=9):
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.linspace(0.0, 1.0, n)
    return DesignMatrix(X=X, y=y, column_names=["f"], source_rows=np.arange(n))


def test_augment_unique_dummy_policy():
    dm = _toy_design(6)
    labels = np.array([0, 0, 1, 1, 2, NOISE])
    out = augment_with_dummies(dm, labels, baseline=0)
    assert out.column_names == ["f", "cluster_1", "cluster_2", "noise_5"]
    np.testing.assert_array_equal(out.X[:, 1], [0, 0, 1, 1, 0, 0])
    np.testing.assert_array_equal(out.X[:, 2], [0, 0, 0, 0, 1, 0])
    np.testing.assert_array_equal(out.X[:, 3], [0, 0, 0, 0, 0, 1])
    assert out.n == 6


def test_augment_nonzero_baseline():
    dm = _toy_design(4)
    labels = np.array([0, 0, 1, 1])
    out = augment_with_dummies(dm, labels, baseline=1)
    assert out.column_names == ["f", "cluster_0"]
    np.testing.assert_array_equal(out.X[:, 1], [1, 1, 0, 0])
    with pytest.raises(ValidationError, match="baseline"):
        augment_with_dummies(dm, labels, baseline=7)


def test_augment_exclude_policy_drops_noise_rows():
    dm = _toy_design(5)
    labels = np.array([0, NOISE, 0, 1, NOISE])
    out = augment_with_dummies(dm, labels, policy="exclude", baseline=0)
    assert out.n == 3
    assert out.column_names == ["f", "cluster_1"]
    np.testing.assert_array_equal(out.source_rows, [0, 2, 3])


def test_augment_rejects_standardized_input():
    dm = _toy_design(8)
    dmS = standardize(dm.X, dm.y, dm.column_names)
    with pytest.raises(ValidationError):
        augment_with_dummies(dmS, np.zeros(8, dtype=int))


def test_fold_blocks_are_contiguous_floor_partition():
    blocks = _fold_blocks(10, 3)
    assert [b.size for b in blocks] == [3, 3, 4]
    np.testing.assert_array_equal(np.concatenate(blocks), np.arange(10))
    blocks = _fold_blocks(690, 5)
    assert [b.size for b in blocks] == [138] * 5


def test_cv_exact_tie_prefers_larger_lambda_then_alpha():
    # y identically zero: every cell has MSE exactly 0, so the tie-break decides
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 3))
    dm = standardize(X, np.zeros(24))
    res = cross_validate(
        dm, 3, "elastic_net", [0.01, 0.5, 0.1], alpha_grid=[0.4, 1.0, 0.6]
    )
    assert res.best.lam == 0.5
    assert res.best.alpha == 1.0
    assert all(c.mean_mse == 0.0 for c in res.table)
    assert len(res.table) == 9


def test_cv_winner_minimizes_mean_mse():
    panel, _ = _panel(n_entities=10, n_periods=6, n_features=4, noise_sd=0.03)
    logged = log_transform(panel, TransformSpec(normalize_mode=NO_NORMALIZATION))
    dm0 = design_from_panel(logged)
    dm = standardize(dm0.X, dm0.y, dm0.column_names, source_rows=dm0.source_rows)
    grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    res = cross_validate(dm, 4, "lasso", grid)
    by_hand = {}
    blocks = _fold_blocks(dm.n, 4)
    for lam in grid:
        mses = []
        for block in blocks:
            fit_rows = np.setdiff1d(np.arange(dm.n), block)
            m = fit_lasso(dm.subset_rows(fit_rows), lam)
            yhat = m.intercept + dm.X[block] @ m.coefficients
            mses.append(float(np.mean((dm.y[block] - yhat) ** 2)))
        by_hand[lam] = float(np.mean(mses))
    assert res.best.lam == min(by_hand, key=by_hand.get)
    # warm starts along the chain move coefficients by O(tol) vs cold fits
    for cell in res.table:
        assert cell.mean_mse == pytest.approx(by_hand[cell.lam], abs=1e-9)


def test_cv_rank_deficient_ridge_cells_become_na():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(20, 2))
    X = np.column_stack([base, base[:, 0]])  # collinear
    y = rng.normal(size=20)
    dm = DesignMatrix(
        X=X, y=y, column_names=["a", "b", "dup"], standardized=True,
        column_means=np.zeros(3), column_stds=np.ones(3),
        zero_variance=np.zeros(3, dtype=bool),
    )
    res = cross_validate(dm, 2, "ridge", [0.0, 0.1])
    cells = {c.lam: c for c in res.table}
    assert math.isnan(cells[0.0].mean_mse)
    assert res.best.lam == 0.1
    with pytest.raises(NumericalError):
        cross_validate(dm, 2, "ridge", [0.0])


def test_cv_unconverged_cells_become_na():
    panel, _ = _panel(n_entities=10, n_periods=6, n_features=4, noise_sd=0.03)
    logged = log_transform(panel, TransformSpec(normalize_mode=NO_NORMALIZATION))
    dm0 = design_from_panel(logged)
    dm = standardize(dm0.X, dm0.y, dm0.column_names, source_rows=dm0.source_rows)
    grid = [10.0, 1.0, 1e-2, 1e-4]
    # the large lambdas converge within one active-set step (0 steps above
    # lambda_max); the small ones need more than one on every fold
    res = cross_validate(dm, 4, "lasso", grid, max_iter=1)
    cells = {c.lam: c for c in res.table}
    assert not math.isnan(cells[10.0].mean_mse) and not math.isnan(cells[1.0].mean_mse)
    assert math.isnan(cells[1e-2].mean_mse) and math.isnan(cells[1e-4].mean_mse)
    assert res.best.lam in (10.0, 1.0)
    # with room to converge, a small lambda wins
    assert cross_validate(dm, 4, "lasso", grid).best.lam < 1.0


def test_run_with_every_cv_cell_unconverged_names_stage_cv(monkeypatch):
    fit = pipeline.fit_lasso

    def one_step(dm, lam, **kw):
        kw.update(max_iter=1)
        return fit(dm, lam, **kw)

    monkeypatch.setattr(pipeline, "fit_lasso", one_step)
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    cfg = _default_config(lambda_grid=(1e-4, 1e-3))
    with pytest.raises(NumericalError, match="stage cv"):
        run_dpr(panel, cfg, split)


def test_cv_fold_size_validation():
    dm = _toy_design(4)
    dmS = standardize(dm.X, dm.y, dm.column_names)
    with pytest.raises(ValidationError):
        cross_validate(dmS, 3, "lasso", [0.1])  # fold of 1 row
    with pytest.raises(ValidationError):
        cross_validate(dmS, 1, "lasso", [0.1])


def _default_config(**kw):
    base = dict(
        transform=TransformSpec(),
        dbscan=DbscanParams(eps=0.2, min_pts=3),
        penalty_kind="lasso",
        lambda_grid=tuple(float(v) for v in np.logspace(-4, -1, 6)),
        alpha_grid=(0.5, 1.0),
    )
    base.update(kw)
    return DprConfig(**base)


def test_run_report_structure(tmp_path):
    panel, truth = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    report = run_dpr(panel, _default_config(), split)
    assert report.clusters.k == 3
    assert len(report.train_keys) == 60
    assert len(report.forecast.rows) == 20
    assert report.metrics["train"]["r2"] > 0.97
    assert report.metrics["test"] is not None

    write_report(report, tmp_path)
    for name in (
        "clusters.csv", "cv_table.csv", "coefficients.csv",
        "fitted.csv", "forecast.csv", "summary.json", "model.json",
    ):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["clustering"]["k"] == 3
    assert summary["chosen"]["kind"] == "lasso"
    bundle = json.loads((tmp_path / "model.json").read_text())
    assert bundle["format"] == "dprkit-model-v1"
    assert len(bundle["clustering"]["core_points"]) == int(report.clusters.core_mask.sum())


def test_run_requires_grids_or_params():
    panel, _ = _panel(n_entities=6, n_periods=6, n_features=4)
    split = SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:]), cv_folds=3)
    cfg = _default_config()
    cfg.dbscan = None
    cfg.eps_grid = None
    with pytest.raises(ValidationError, match="stage cluster"):
        run_dpr(panel, cfg, split)


def test_bad_test_row_fails_in_stage_forecast():
    # the test panel is log-transformed once, where the forecast reads it
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    test_rows = np.flatnonzero(panel.period_idx >= 6)
    features = panel.features.copy()
    features[test_rows[3], 1] = 0.0
    bad = dataclasses.replace(panel, features=features)
    assert np.all(bad.features[bad.period_idx < 6] > 0)
    cfg = _default_config(transform=TransformSpec(log_offset=0.0))
    with pytest.raises(ValidationError, match="stage forecast: log transform undefined"):
        run_dpr(bad, cfg, split)


def test_run_scan_mode_picks_sc_maximum(tmp_path):
    panel, _ = _panel(n_entities=9, n_periods=8, n_features=4, n_clusters=3, seed=5)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=3)
    cfg = _default_config(dbscan=None, eps_grid=(0.05, 0.1, 0.2), minpts_grid=(3, 4))
    report = run_dpr(panel, cfg, split)
    assert report.scan_rows is not None
    best = max((r for r in report.scan_rows if r.sc is not None), key=lambda r: r.sc)
    assert report.clusters.params.eps == best.eps
    assert report.clusters.params.min_pts == best.min_pts
    write_report(report, tmp_path)
    assert (tmp_path / "scan.csv").exists()


def test_baseline_choice_barely_matters_at_tiny_penalty():
    # dummy reparameterization changes the penalty term, so exact invariance
    # only holds as the penalty vanishes; check predictions converge there
    panel, _ = _panel(n_entities=9, n_periods=8, n_features=4, n_clusters=3, seed=6)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=3)

    def gap(lam):
        grid = (lam,)
        rep0 = run_dpr(panel, _default_config(lambda_grid=grid, baseline_cluster=0), split)
        rep1 = run_dpr(panel, _default_config(lambda_grid=grid, baseline_cluster=1), split)
        pred0 = np.array([r.predicted_log for r in rep0.forecast.rows])
        pred1 = np.array([r.predicted_log for r in rep1.forecast.rows])
        return float(np.max(np.abs(pred0 - pred1)))

    assert gap(1e-6) < 1e-3
    assert gap(1e-8) < 1e-5


def test_forecast_report_missing_targets_excluded_from_summary():
    periods = [2000, 2001]
    panel = PanelDataset(
        entities=["A"], periods=periods, feature_names=["f"],
        entity_idx=np.array([0, 0]), period_idx=np.array([0, 1]),
        features=np.array([[2.0], [3.0]]),
        targets=np.array([math.e - 1.0, math.nan]),
    )
    model = FittedModel(
        intercept=1.5,
        coefficients=np.array([0.0]),
        penalty=PenaltySpec(kind="ridge", lam=0.1),
        column_names=["f"],
        column_means=np.array([0.0]),
        column_stds=np.array([1.0]),
        zero_variance=np.array([False]),
        diagnostics={},
    )
    res = forecast_report(model, panel, TransformSpec())
    assert len(res.rows) == 2
    assert res.rows[0].actual_log == pytest.approx(1.0)
    assert res.rows[1].actual_log is None
    assert res.rows[1].relative_error is None
    # summary over the single observed row
    assert res.mean_error == pytest.approx(0.5)
    assert res.error_variance == 0.0


def test_forecast_columns_match_the_row_formulas():
    """Every column equals the one-row-at-a-time formula, to the last bit."""
    panel, _ = _panel(n_entities=100, n_periods=20, n_features=3, seed=5)
    targets = panel.targets.copy()
    targets[::7] = math.nan
    panel = dataclasses.replace(panel, targets=targets)
    spec = TransformSpec(log_offset=0.5)
    rng = np.random.default_rng(0)
    model = FittedModel(
        intercept=0.3, coefficients=rng.normal(size=3),
        penalty=PenaltySpec(kind="ridge", lam=0.1), column_names=["a", "b", "c"],
        column_means=rng.normal(size=3), column_stds=rng.uniform(0.5, 2.0, size=3),
        zero_variance=np.zeros(3, dtype=bool), diagnostics={},
    )
    labels = rng.integers(-1, 3, size=panel.n_obs)
    res = forecast_report(model, panel, spec, extra_labels=labels)
    y = np.log(targets + 0.5)
    assert len(res.rows) == panel.n_obs
    for i, (row, key) in enumerate(zip(res.rows, panel.row_keys())):
        yhat = res.predicted_log[i]
        assert (row.entity, row.period) == key
        assert row.cluster == labels[i] and row.is_noise == (labels[i] == NOISE)
        assert row.predicted_log == yhat
        assert row.predicted_source == float(invert_log(np.array(yhat), spec))
        if math.isnan(y[i]):
            assert row.actual_log is row.actual_source is row.relative_error is None
            continue
        assert row.actual_log == y[i]
        assert row.actual_source == float(invert_log(np.array(y[i]), spec))
        assert row.relative_error == abs(math.exp(yhat) - math.exp(y[i])) / math.exp(y[i])


def test_mix_for_new_rows_uses_train_maxima():
    def make(panel_targets, values, periods):
        n = len(values)
        return PanelDataset(
            entities=["A"], periods=periods, feature_names=["f"],
            entity_idx=np.zeros(n, dtype=np.intp),
            period_idx=np.arange(n, dtype=np.intp),
            features=np.asarray(values, dtype=float).reshape(-1, 1),
            targets=np.asarray(panel_targets, dtype=float),
        )

    train = make([1.0, 1.0], [[5.0], [10.0]], [2000, 2001])
    test = make([1.0], [[20.0]], [2002])
    out = mix_for_new_rows(test, PER_FEATURE_MAX, entity_maxima(train))
    assert out[0, 0] == 2.0  # ratio to the train maximum, not its own


def _maxima_by_loop(data):
    rows = [np.flatnonzero(data.entity_idx == e) for e in range(len(data.entities))]
    return {name: data.features[r].max(axis=0)
            for name, r in zip(data.entities, rows) if r.size}


def _scale_by_loop(data, maxima):
    out = np.zeros_like(data.features)
    for e, name in enumerate(data.entities):
        rows = np.flatnonzero(data.entity_idx == e)
        if rows.size == 0:
            continue
        mx = maxima[name] if name in maxima else data.features[rows].max(axis=0)
        for j in np.flatnonzero(mx > 0):
            out[rows, j] = data.features[rows, j] / mx[j]
    return out


def test_entity_maxima_and_scaling_match_a_per_entity_loop():
    rng = np.random.default_rng(0)

    def make(keys, periods):
        features = rng.uniform(0.0, 5.0, size=(len(keys), 3))
        entity_idx = np.array([e for e, _ in keys], dtype=np.intp)
        features[entity_idx == 1, 1] = 0.0  # B: a column whose maximum is 0
        features[entity_idx == 3, 2] = 0.0  # D: the same, and D has no training rows
        return PanelDataset(
            entities=["A", "B", "C", "D"], periods=periods, feature_names=["f", "g", "h"],
            entity_idx=entity_idx, period_idx=np.array([p for _, p in keys], dtype=np.intp),
            features=features, targets=np.ones(len(keys)),
        )

    train = make([(e, p) for e in range(3) for p in range(4)], [2000, 2001, 2002, 2003])
    new = make([(e, p) for e in range(4) for p in range(2)], [2004, 2005])
    maxima = entity_maxima(train)
    expected = _maxima_by_loop(train)
    assert list(maxima) == list(expected) == ["A", "B", "C"]
    for name in expected:
        np.testing.assert_array_equal(maxima[name], expected[name])
    np.testing.assert_array_equal(mix_for_new_rows(new, PER_FEATURE_MAX, maxima),
                                  _scale_by_loop(new, expected))
    for data in (train, new):
        mix, _ = energy_mix_features(data, PER_FEATURE_MAX)
        np.testing.assert_array_equal(mix, _scale_by_loop(data, {}))


@pytest.mark.parametrize("mix", ["rawshares", "perfeaturemax"])
def test_dpr_model_bundle_round_trips(mix):
    panel, _ = _panel(n_entities=8, n_periods=6, n_features=4, seed=7)
    split = SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:]), cv_folds=3)
    report = run_dpr(panel, _default_config(transform=TransformSpec(normalize_mode=mix)), split)
    m = report.dpr_model
    assert (m.entity_maxima is None) == (mix == "rawshares")
    bundle = m.to_bundle()
    assert DprModel.from_bundle(json.loads(json.dumps(bundle))).to_bundle() == bundle


def test_write_report_is_byte_stable(tmp_path):
    panel, _ = _panel(n_entities=8, n_periods=6, n_features=4, seed=7)
    split = SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:]), cv_folds=3)
    report = run_dpr(panel, _default_config(), split)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_report(report, a)
    write_report(report, b)
    for path in sorted(a.iterdir()):
        assert (b / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["lasso", "elastic_net"])
def test_final_model_is_the_path_fit_at_the_chosen_cell(kind, tmp_path, monkeypatch):
    designs = []
    path = pipeline.regularization_path
    monkeypatch.setattr(
        pipeline, "regularization_path",
        lambda dm, *a, **k: designs.append(dm) or path(dm, *a, **k),
    )
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    report = run_dpr(panel, _default_config(penalty_kind=kind), split)
    (dm,) = designs
    lam, alpha = report.cv.best.lam, report.cv.best.alpha
    if kind == "lasso":
        cold = fit_lasso(dm, lam)
    else:
        cold = fit_elastic_net(dm, lam, alpha)
    model = report.dpr_model.model
    assert model.penalty == cold.penalty
    np.testing.assert_allclose(model.coefficients, cold.coefficients, rtol=0, atol=1e-10)
    assert model.intercept == pytest.approx(cold.intercept, rel=0, abs=1e-10)
    assert model.diagnostics["converged"]
    write_report(report, tmp_path)
    penalty = json.loads((tmp_path / "model.json").read_text())["regression"]["penalty"]
    assert penalty == {"kind": kind, "lambda": lam, "alpha": alpha}

    # ridge reads the Gram the path's fits cached and stays the closed form
    # bit for bit
    assert "gram" in vars(dm)
    active = ~dm.zero_variance & ~np.all(dm.X == dm.X[0], axis=0)
    Xc = dm.X[:, active] - dm.X[:, active].mean(axis=0)
    yc = dm.y - dm.y.mean()
    beta = np.linalg.solve(Xc.T @ Xc + dm.n * lam * np.eye(Xc.shape[1]), Xc.T @ yc)
    ridge = fit_ridge(dm, lam)
    np.testing.assert_array_equal(ridge.coefficients[active], beta)
    assert not ridge.coefficients[~active].any()
