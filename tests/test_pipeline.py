import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from dprkit.clustering import NOISE, DbscanParams, scan_params
from dprkit.errors import ConvergenceError, NumericalError, RankDeficiencyError, ValidationError
from dprkit.panel import (
    PanelDataset,
    TransformSpec,
    invert_log,
    log_transform,
    write_panel,
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
    dummy_columns,
    forecast_report,
    run_dpr,
    write_report,
)
from dprkit.regression import (
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    fit_elastic_net,
    standardize,
)
from dprkit import cli, pipeline, testkit


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
    out = augment_with_dummies(dm, labels)
    assert out.column_names == ["f", "cluster_1", "cluster_2", "noise_5"]
    np.testing.assert_array_equal(out.X[:, 1], [0, 0, 1, 1, 0, 0])
    np.testing.assert_array_equal(out.X[:, 2], [0, 0, 0, 0, 1, 0])
    np.testing.assert_array_equal(out.X[:, 3], [0, 0, 0, 0, 0, 1])
    assert out.n == 6


def test_augment_exclude_policy_drops_noise_rows():
    dm = _toy_design(5)
    labels = np.array([0, NOISE, 0, 1, NOISE])
    out = augment_with_dummies(dm, labels, policy="exclude")
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
    res = cross_validate(dm, 3, [0.01, 0.5, 0.1], [0.4, 1.0, 0.6])
    assert res.best.lam == 0.5
    assert res.best.alpha == 1.0
    assert all(c.mean_mse == 0.0 for c in res.table)
    assert len(res.table) == 9


def test_cv_winner_minimizes_mean_mse():
    panel, _ = _panel(n_entities=10, n_periods=6, n_features=4, noise_sd=0.03)
    logged = log_transform(panel, TransformSpec())
    dm0 = design_from_panel(logged)
    dm = standardize(dm0.X, dm0.y, dm0.column_names, source_rows=dm0.source_rows)
    grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    res = cross_validate(dm, 4, grid, [1.0])
    by_hand = {}
    blocks = _fold_blocks(dm.n, 4)
    for lam in grid:
        mses = []
        for block in blocks:
            fit_rows = np.setdiff1d(np.arange(dm.n), block)
            m = fit_elastic_net(dm.subset_rows(fit_rows), PenaltySpec(lam, 1.0))
            yhat = m.intercept + dm.X[block] @ m.coefficients
            mses.append(float(np.mean((dm.y[block] - yhat) ** 2)))
        by_hand[lam] = float(np.mean(mses))
    assert res.best.lam == min(by_hand, key=by_hand.get)
    # warm starts along the chain move coefficients by O(tol) vs cold fits
    for cell in res.table:
        assert cell.mean_mse == pytest.approx(by_hand[cell.lam], abs=1e-9)


def _cv_design(seed=3):
    panel, _ = _panel(n_entities=10, n_periods=6, n_features=5, noise_sd=0.05, seed=seed)
    logged = log_transform(panel, TransformSpec())
    dm0 = design_from_panel(logged)
    return standardize(dm0.X, dm0.y, dm0.column_names, source_rows=dm0.source_rows)


def test_cv_alpha_walk_warm_starts_within_each_fold(monkeypatch):
    dm = _cv_design()
    lams, alphas, folds = [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3], [0.3, 0.6, 1.0], 4
    fits = []  # (design, lambda, alpha, warm start, model) of every CV fit
    fit = pipeline.fit_elastic_net

    def recorded(sub, penalty, warm_start=None, **kw):
        model = fit(sub, penalty, warm_start, **kw)
        fits.append((sub, penalty.lam, penalty.alpha, warm_start, model))
        return model

    monkeypatch.setattr(pipeline, "fit_elastic_net", recorded)
    res = cross_validate(dm, folds, lams, alphas)
    monkeypatch.undo()
    assert len(fits) == folds * len(lams) * len(alphas)
    subs = list({id(f[0]): f[0] for f in fits}.values())  # fold order
    assert len(subs) == folds
    blocks = dict(zip(map(id, subs), _fold_blocks(dm.n, folds)))
    by_cell = {(id(sub), lam, alpha): model for sub, lam, alpha, _, model in fits}
    per_cell = {(lam, alpha): [] for lam in lams for alpha in alphas}
    for sub, lam, alpha, warm, model in fits:
        # the first alpha walks lambda; a later alpha starts from the previous
        # alpha's fit at the same lambda, on the same fold's design
        a = alphas.index(alpha)
        if a:
            assert warm is by_cell[(id(sub), lam, alphas[a - 1])].coefficients
        elif lam == lams[0]:
            assert warm is None
        else:
            assert warm is by_cell[(id(sub), lams[lams.index(lam) - 1], alpha)].coefficients
        block = blocks[id(sub)]
        Xv, yv = dm.X[block], dm.y[block]
        cold = fit_elastic_net(sub, PenaltySpec(lam, alpha))
        mse = float(np.mean((yv - model.intercept - Xv @ model.coefficients) ** 2))
        cold_mse = float(np.mean((yv - cold.intercept - Xv @ cold.coefficients) ** 2))
        assert mse == pytest.approx(cold_mse, rel=0, abs=1e-10)
        per_cell[(lam, alpha)].append(cold_mse)
    for cell in res.table:
        assert cell.mean_mse == pytest.approx(np.mean(per_cell[(cell.lam, cell.alpha)]),
                                              rel=0, abs=1e-10)
    # the walk takes fewer active-set steps than one cold-started lambda
    # chain per alpha
    walk = sum(model.diagnostics["iterations"] for *_, model in fits)
    chains = sum(m.diagnostics["iterations"]
                 for sub in subs for alpha in alphas
                 for m in pipeline.regularization_path(sub, lams, alpha))
    assert walk < chains


@pytest.mark.parametrize("kind", ["lasso", "ridge"])
def test_cv_without_alpha_grid_runs_one_chain_per_fold(kind, monkeypatch):
    # ridge and lasso, given no alpha grid, spell a grid of one alpha: one cold chain
    # per fold, and one for the run's coefficient path
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    chains = []
    path = pipeline.regularization_path
    monkeypatch.setattr(
        pipeline, "regularization_path",
        lambda dm, *a, **k: chains.append(k.get("warm")) or path(dm, *a, **k),
    )
    run_dpr(panel, _default_config(penalty_kind=kind), split)
    assert chains == [None] * 5


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
    res = cross_validate(dm, 2, [0.0, 0.1], [0.0])
    cells = {c.lam: c for c in res.table}
    assert math.isnan(cells[0.0].mean_mse)
    assert res.best.lam == 0.1
    with pytest.raises(NumericalError):
        cross_validate(dm, 2, [0.0], [0.0])


def test_cv_unconverged_cells_become_na(monkeypatch):
    panel, _ = _panel(n_entities=10, n_periods=6, n_features=4, noise_sd=0.03)
    logged = log_transform(panel, TransformSpec())
    dm0 = design_from_panel(logged)
    dm = standardize(dm0.X, dm0.y, dm0.column_names, source_rows=dm0.source_rows)
    grid = [10.0, 1.0, 1e-2, 1e-4]
    fit = pipeline.fit_elastic_net
    with monkeypatch.context() as m:
        m.setattr(pipeline, "fit_elastic_net",
                  lambda dm, penalty, *a, **kw: fit(dm, penalty, *a, max_iter=1, **kw))
        # the large lambdas converge within one active-set step (0 steps
        # above lambda_max); the small ones need more than one on every fold
        res = cross_validate(dm, 4, grid, [1.0])
    cells = {c.lam: c for c in res.table}
    assert not math.isnan(cells[10.0].mean_mse) and not math.isnan(cells[1.0].mean_mse)
    assert math.isnan(cells[1e-2].mean_mse) and math.isnan(cells[1e-4].mean_mse)
    assert res.best.lam in (10.0, 1.0)
    # with room to converge, a small lambda wins
    assert cross_validate(dm, 4, grid, [1.0]).best.lam < 1.0


def test_run_with_every_cv_cell_unconverged_names_stage_cv(monkeypatch):
    fit = pipeline.fit_elastic_net

    def one_step(dm, penalty, *a, **kw):
        kw.update(max_iter=1)
        return fit(dm, penalty, *a, **kw)

    monkeypatch.setattr(pipeline, "fit_elastic_net", one_step)
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    cfg = _default_config(lambda_grid=(1e-4, 1e-3))
    with pytest.raises(NumericalError, match="stage cv"):
        run_dpr(panel, cfg, split)


def test_unconverged_final_fit_fails_stage_path(monkeypatch, tmp_path, capsys):
    fit = pipeline.fit_elastic_net
    n_train = 60  # 10 entities x 6 training periods

    def one_step_on_the_training_design(dm, penalty, *a, **kw):
        # the run's own path on the full training design; never a CV fold's
        if dm.n == n_train:
            kw.update(max_iter=1)
        return fit(dm, penalty, *a, **kw)

    monkeypatch.setattr(pipeline, "fit_elastic_net", one_step_on_the_training_design)
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    cfg = _default_config(lambda_grid=(1e-4, 1e-3))
    message = r"^stage path: fit at the chosen lambda=\S+ did not converge in 1 steps$"
    with pytest.raises(ConvergenceError, match=message):
        run_dpr(panel, cfg, split)

    write_panel(panel, tmp_path / "p.csv")
    code = cli.main(["run", "--input", str(tmp_path / "p.csv"), "--output-dir",
                     str(tmp_path / "run"), "--penalty", "lasso", "--lambda-grid", "1e-4,1e-3",
                     "--eps", "0.2", "--min-pts", "3", "--train-count", "6", "--folds", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical error: stage path: fit at the chosen lambda=")
    assert not (tmp_path / "run").exists()


def test_cv_fold_size_validation():
    dm = _toy_design(4)
    dmS = standardize(dm.X, dm.y, dm.column_names)
    with pytest.raises(ValidationError):
        cross_validate(dmS, 3, [0.1], [1.0])  # fold of 1 row
    with pytest.raises(ValidationError):
        cross_validate(dmS, 1, [0.1], [1.0])


def _standardized_toy():
    dm = _toy_design(8)
    return standardize(dm.X, dm.y, dm.column_names)


# each entry point that takes a count, called with the count x
_INTEGER_PARAMETERS = {
    "min_pts": lambda x: DbscanParams(0.1, x),
    "scan min_pts": lambda x: scan_params(np.eye(3), [0.5], [x]),
    "cv_folds": lambda x: SplitSpec((1,), (2,), cv_folds=x),
    "folds": lambda x: cross_validate(_standardized_toy(), x, [0.1], [1.0]),
    "max_iter": lambda x: fit_elastic_net(_standardized_toy(), PenaltySpec(0.1, 1.0),
                                          max_iter=x),
}


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan, True, np.True_],
                         ids=["2.5", "inf", "nan", "True", "numpy-True"])
@pytest.mark.parametrize("parameter", list(_INTEGER_PARAMETERS))
def test_a_count_that_is_not_an_integer_is_a_validation_error(parameter, value):
    name = parameter.split()[-1]
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= "):
        _INTEGER_PARAMETERS[parameter](value)


def test_config_refuses_a_bool_eps():
    # True == 1 in Python, but no setting takes True for 1
    with pytest.raises(ValidationError, match="^eps must be finite and > 0, got True$"):
        DprConfig(eps=True, min_pts=4)


def test_require_fit_names_the_failed_fit():
    model = fit_elastic_net(_standardized_toy(), PenaltySpec(0.1, 0.0))
    assert pipeline.require_fit(model, "fit at x") is model
    with pytest.raises(RankDeficiencyError, match="^fit at x is rank-deficient$"):
        pipeline.require_fit(None, "fit at x")
    model.diagnostics.update(converged=False, iterations=7)
    with pytest.raises(ConvergenceError, match="^fit at x did not converge in 7 steps$"):
        pipeline.require_fit(model, "fit at x")


def _default_config(**kw):
    base = dict(
        transform=TransformSpec(),
        eps=0.2,
        min_pts=3,
        penalty_kind="lasso",
        lambda_grid=tuple(float(v) for v in np.logspace(-4, -1, 6)),
    )
    base.update(kw)
    if base["penalty_kind"] == "elastic_net":
        base.setdefault("alpha_grid", (0.5, 1.0))
    return DprConfig(**base)


_CLUSTERING = {"eps": 0.05, "min_pts": 4, "eps_grid": (0.1,), "minpts_grid": (3,)}


@pytest.mark.parametrize("keys", [
    ("eps", "min_pts", "eps_grid", "minpts_grid"), ("eps", "min_pts", "eps_grid"),
    ("eps", "min_pts", "minpts_grid"), ("eps", "eps_grid", "minpts_grid"), ("eps",),
    ("min_pts",), ("eps_grid",), (),
], ids=lambda keys: "+".join(keys) or "none")
def test_config_takes_fixed_eps_or_scan_grids_never_both(keys):
    with pytest.raises(ValidationError, match="^give eps and min_pts, or eps_grid and "
                                              "minpts_grid, not both; got "):
        DprConfig(**{key: _CLUSTERING[key] for key in keys})


def test_config_is_frozen_with_one_core_rule():
    config = DprConfig(eps=0.05, min_pts=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.eps = 0.1
    # the strict rule is min_pts + 1: neither the config nor the params switch it
    with pytest.raises(TypeError, match="core_strict"):
        DprConfig(eps=0.05, min_pts=4, core_strict=True)
    with pytest.raises(TypeError, match="core_strict"):
        DbscanParams(0.05, 4, core_strict=True)


@pytest.mark.parametrize("kind, alpha", [("ridge", 0.0), ("lasso", 1.0)], ids=["ridge", "lasso"])
def test_config_spells_ridge_and_lasso_as_one_alpha_and_refuses_an_alpha_grid(kind, alpha):
    message = f"^alpha_grid is only valid for elastic_net, not {kind}$"
    with pytest.raises(ValidationError, match=message):
        DprConfig(eps=0.05, min_pts=4, penalty_kind=kind, alpha_grid=(0.5,))
    # unset, the penalty's own grid is looked up where cross-validation takes it
    assert DprConfig(eps=0.05, min_pts=4, penalty_kind=kind).alpha_grid is None
    assert DprConfig(eps=0.05, min_pts=4, penalty_kind=kind, alpha_grid=(alpha,)).alpha_grid \
        == (alpha,)
    # an elastic-net grid may hold either end
    assert DprConfig(eps=0.05, min_pts=4, alpha_grid=(alpha,)).alpha_grid == (alpha,)


@pytest.mark.parametrize("start, kind, alphas", [
    ("elastic_net", "ridge", [0.0]), ("elastic_net", "lasso", [1.0]),
    ("ridge", "elastic_net", [0.3, 0.5, 1.0]), ("lasso", "ridge", [0.0]),
])
def test_a_replaced_penalty_kind_searches_its_own_alpha_grid(start, kind, alphas):
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    built = _default_config(penalty_kind=start, alpha_grid=None)
    config = dataclasses.replace(built, penalty_kind=kind)
    report = run_dpr(panel, config, split)
    assert list(dict.fromkeys(c.alpha for c in report.cv.table)) == alphas
    assert report.penalty_kind == kind


def test_empty_grids_are_refused():
    for key in ("lambda_grid", "alpha_grid"):
        with pytest.raises(ValidationError, match=f"^{key} is empty$"):
            DprConfig(eps=0.05, min_pts=4, **{key: ()})
    for key in ("eps_grid", "minpts_grid"):
        with pytest.raises(ValidationError, match=f"^{key} is empty$"):
            DprConfig(**{"eps_grid": (0.05,), "minpts_grid": (4,), key: ()})
    # the Python API's scan keeps its own check
    for grids in (([], [4]), ([0.05], [])):
        with pytest.raises(ValidationError, match="^scan grids must be non-empty$"):
            scan_params(np.eye(3), *grids)
    with pytest.raises(ValidationError, match="^alpha grid is empty$"):
        cross_validate(_standardized_toy(), 2, [0.1], [])


@pytest.mark.parametrize("grids, message", [
    ({"alpha_grid": (0.5, 1.5)}, "alpha_grid: alpha must be in [0, 1], got 1.5"),
    ({"eps_grid": (0.1, -1.0), "minpts_grid": (3,)},
     "eps_grid: eps must be finite and > 0, got -1.0"),
    ({"eps_grid": (0.1,), "minpts_grid": (3, 0)},
     "minpts_grid: min_pts must be an integer >= 1, got 0"),
    ({"lambda_grid": (0.1, -0.1)}, "lambda_grid: lambda must be finite and >= 0, got -0.1"),
    ({"lambda_grid": (math.nan,)}, "lambda_grid: lambda must be finite and >= 0, got nan"),
    # True == 1 and "0.1" is text: neither is a number
    ({"lambda_grid": (True,)}, "lambda_grid: lambda must be finite and >= 0, got True"),
    ({"lambda_grid": (np.True_,)}, "lambda_grid: lambda must be finite and >= 0, got "
     f"{np.True_!r}"),
    ({"lambda_grid": ("0.1",)}, "lambda_grid: lambda must be finite and >= 0, got '0.1'"),
    ({"alpha_grid": (True,)}, "alpha_grid: alpha must be in [0, 1], got True"),
    ({"alpha_grid": ("0.5",)}, "alpha_grid: alpha must be in [0, 1], got '0.5'"),
], ids=["alpha", "eps", "minpts", "lambda", "lambda-nan", "lambda-true", "lambda-numpy-true",
        "lambda-text", "alpha-true", "alpha-text"])
def test_config_checks_each_grid_value(grids, message):
    """A bad grid value fails at construction, naming its key, not in a later stage."""
    fixed = {} if "eps_grid" in grids else {"eps": 0.05, "min_pts": 4}
    with pytest.raises(ValidationError) as info:
        DprConfig(**fixed, **grids)
    assert str(info.value) == message


def test_cv_takes_a_numpy_alpha_grid():
    dm = _standardized_toy()
    by_array = cross_validate(dm, 2, [0.1, 0.01], np.array([0.5, 1.0]))
    by_tuple = cross_validate(dm, 2, [0.1, 0.01], (0.5, 1.0))
    assert by_array == by_tuple


def test_cv_checks_each_grid_value_before_it_dedupes():
    dm = _standardized_toy()
    # 1 and 1.0 are one cell: the grids are deduplicated by the checked float
    res = cross_validate(dm, 2, [1, 1.0, 0.1], [1.0])
    assert [cell.lam for cell in res.table] == [1.0, 0.1]
    calls = [lambda: cross_validate(dm, 2, [True], [1.0]),
             lambda: cross_validate(dm, 2, [0.1, "0.01"], [1.0])]
    for call, value in zip(calls, ["True", "'0.01'"]):
        with pytest.raises(ValidationError, match=f"^lambda must be finite and >= 0, got {value}$"):
            call()
    with pytest.raises(ValidationError, match=r"^alpha must be in \[0, 1\], got True$"):
        cross_validate(dm, 2, [0.1], [0.5, True])


def test_path_checks_each_lambda():
    with pytest.raises(ValidationError, match="^lambda must be finite and >= 0, got True$"):
        pipeline.regularization_path(_standardized_toy(), [True], 1.0)


def test_run_report_structure(tmp_path):
    panel, truth = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    report = run_dpr(panel, _default_config(), split)
    assert report.clusters.k == 3
    assert len(report.entities) == len(report.periods) == 60
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
    assert bundle["format"] == "dprkit-model-v4"
    assert len(bundle["clustering"]["core_points"]) == int(report.clusters.core_mask.sum())


def test_run_requires_grids_or_params():
    with pytest.raises(ValidationError, match="got none of them$"):
        _default_config(eps=None, min_pts=None)


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
    cfg = _default_config(eps=None, min_pts=None, eps_grid=(0.05, 0.1, 0.2),
                          minpts_grid=(3, 4))
    report = run_dpr(panel, cfg, split)
    assert report.scan_rows is not None
    best = max((r for r in report.scan_rows if r.sc is not None), key=lambda r: r.sc)
    chosen = report.clusters
    assert chosen.params.eps == best.params.eps
    assert chosen.params.min_pts == best.params.min_pts
    assert (chosen.k, chosen.sc, chosen.sse) == (best.k, best.sc, best.sse)
    np.testing.assert_array_equal(chosen.labels, best.labels)
    np.testing.assert_array_equal(chosen.core_mask, best.core_mask)
    write_report(report, tmp_path)
    assert (tmp_path / "scan.csv").exists()


def test_baseline_choice_barely_matters_at_tiny_penalty():
    # cluster 0 is the one baseline: measuring against another cluster re-expresses the
    # same model, but the dummy reparameterization changes the penalty term, so the
    # forecasts only agree as the penalty vanishes
    panel, _ = _panel(n_entities=9, n_periods=8, n_features=4, n_clusters=3, seed=6)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=3)
    report = run_dpr(panel, _default_config(), split)
    assert report.clusters.k == 3
    train, test = chronological_split(panel, split)
    design = design_from_panel(log_transform(train, TransformSpec()))

    def forecast(lam, relabel):
        # relabel[c] is cluster c's new id; index -1 (NOISE) takes the last entry, NOISE
        dm = augment_with_dummies(design, relabel[report.clusters.labels])
        dm = standardize(dm.X, dm.y, dm.column_names, source_rows=dm.source_rows)
        model = fit_elastic_net(dm, PenaltySpec(lam, 1.0))
        return forecast_report(model, test, TransformSpec(),
                               labels=relabel[report.forecast.cluster]).predicted_log

    def gap(lam):
        # cluster 1 as the baseline: ids 0 and 1 swapped, in training and test rows alike
        swapped = forecast(lam, np.array([1, 0, 2, NOISE]))
        return float(np.max(np.abs(forecast(lam, np.array([0, 1, 2, NOISE])) - swapped)))

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
        penalty=PenaltySpec(lam=0.1, alpha=0.0),
        column_names=["f"],
        column_means=np.array([0.0]),
        column_stds=np.array([1.0]),
        zero_variance=np.array([False]),
        diagnostics={},
    )
    res = forecast_report(model, panel, TransformSpec(), labels=np.full(2, NOISE))
    assert len(res.rows) == 2
    assert res.rows == panel.row_keys()
    assert res.actual_log[0] == pytest.approx(1.0)
    assert math.isnan(res.actual_log[1])
    assert math.isnan(res.relative_error[1])
    # summary over the single observed row
    assert res.mean_error == pytest.approx(0.5)
    assert res.error_variance == 0.0


def test_dummy_columns_of_training_and_new_rows():
    names = ["cluster_1", "cluster_2", "noise_7", "noise_9"]
    labels = np.array([0, 1, NOISE, 2, NOISE])
    rows = np.array([5, 6, 7, 8, 9])
    np.testing.assert_array_equal(dummy_columns(names, labels, rows), [
        [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1],
    ])
    # a new row has no noise column of its own, whatever its row id
    np.testing.assert_array_equal(dummy_columns(names, labels), [
        [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0],
    ])
    assert dummy_columns([], labels).shape == (5, 0)
    for bad in ("f", "cluster_x", "noise_", "baseline_0"):
        with pytest.raises(ValidationError, match="not a cluster_<id> or noise_<row> column"):
            dummy_columns([bad], labels)


def test_forecast_report_builds_the_dummy_block_from_labels():
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    report = run_dpr(panel, _default_config(), split)
    _, test = chronological_split(panel, split)
    m = report.dpr_model
    assert m.model.column_names[test.n_features:] == ["cluster_1", "cluster_2"]
    with pytest.raises(ValidationError, match="labels for"):
        forecast_report(m.model, test, m.transform, labels=report.forecast.cluster[1:])
    again = forecast_report(m.model, test, m.transform, labels=report.forecast.cluster)
    np.testing.assert_array_equal(again.predicted_log, report.forecast.predicted_log)


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
        penalty=PenaltySpec(lam=0.1, alpha=0.0), column_names=["a", "b", "c"],
        column_means=rng.normal(size=3), column_stds=rng.uniform(0.5, 2.0, size=3),
        zero_variance=np.zeros(3, dtype=bool), diagnostics={},
    )
    labels = rng.integers(-1, 3, size=panel.n_obs)
    res = forecast_report(model, panel, spec, labels=labels)
    y = np.log(targets + 0.5)
    assert len(res.rows) == panel.n_obs
    assert res.rows == panel.row_keys()
    for i in range(panel.n_obs):
        yhat = res.predicted_log[i]
        assert res.cluster[i] == labels[i] and res.is_noise[i] == (labels[i] == NOISE)
        assert res.predicted_source[i] == float(invert_log(np.array(yhat), spec))
        if math.isnan(y[i]):
            assert np.isnan([res.actual_log[i], res.actual_source[i], res.relative_error[i]]).all()
            continue
        assert res.actual_log[i] == y[i]
        assert res.actual_source[i] == float(invert_log(np.array(y[i]), spec))
        assert res.relative_error[i] == abs(math.exp(yhat) - math.exp(y[i])) / math.exp(y[i])


def test_dpr_model_bundle_round_trips():
    panel, _ = _panel(n_entities=8, n_periods=6, n_features=4, seed=7)
    split = SplitSpec(tuple(panel.periods[:4]), tuple(panel.periods[4:]), cv_folds=3)
    report = run_dpr(panel, _default_config(), split)
    bundle = report.dpr_model.to_bundle()
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


def _noise_run():
    """A panel, split and config whose run forecasts some test rows as noise."""
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2,
                      mix_jitter=0.05)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    return panel, split, _default_config(eps=0.1, min_pts=4)


def test_report_tables_read_the_test_keys_from_forecast_rows(tmp_path):
    panel, split, config = _noise_run()
    report = run_dpr(panel, config, split)
    fc = report.forecast
    assert fc.rows == chronological_split(panel, split)[1].row_keys()
    assert 0 < fc.n_noise_rows < len(fc.rows)
    write_report(report, tmp_path)

    def keys(rows):
        return [(r["entity"], int(r["period"])) for r in rows]

    with open(tmp_path / "clusters.csv", newline="") as fh:
        test_rows = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    assert keys(test_rows) == fc.rows
    assert [int(r["label"]) for r in test_rows] == fc.cluster.tolist()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["forecast"]["n_rows"] == len(fc.rows)
    assert [tuple(k) for k in summary["flagged"]["test_noise_rows"]] == [
        key for key, c in zip(fc.rows, fc.cluster.tolist()) if c == NOISE
    ]
    with open(tmp_path / "forecast.csv", newline="") as fh:
        assert keys(csv.DictReader(fh)) == fc.rows


@pytest.mark.parametrize("whole", [float, np.int64])
def test_whole_number_settings_are_stored_as_ints(whole, tmp_path):
    panel, split, config = _noise_run()
    for as_given, name in ((int, "int"), (whole, "given")):
        run = run_dpr(panel, dataclasses.replace(config, min_pts=as_given(4)),
                      dataclasses.replace(split, cv_folds=as_given(3)))
        write_report(run, tmp_path / name)
    assert type(run.clusters.params.min_pts) is type(run.split.cv_folds) is int
    written = sorted(p.name for p in (tmp_path / "int").iterdir())
    assert sorted(p.name for p in (tmp_path / "given").iterdir()) == written
    for name in written:
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


def test_an_int_eps_writes_the_float_eps_run(tmp_path):
    panel, split, config = _noise_run()
    for eps, name in ((1.0, "float"), (1, "int")):
        run = run_dpr(panel, dataclasses.replace(config, eps=eps), split)
        write_report(run, tmp_path / name)
    assert type(run.clusters.params.eps) is float
    written = sorted(p.name for p in (tmp_path / "float").iterdir())
    assert sorted(p.name for p in (tmp_path / "int").iterdir()) == written
    for name in written:
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()
    assert '"eps": 1.0' in (tmp_path / "int" / "summary.json").read_text()


@pytest.mark.parametrize("kind", ["ridge", "lasso", "elastic_net"])
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
    # one chain per fold and alpha, then the run's own path on the whole design
    dm = report.design
    assert len(designs) == 4 * (2 if kind == "elastic_net" else 1) + 1
    assert designs[-1] is dm and all(d.n < dm.n for d in designs[:-1])
    lam, alpha = report.cv.best.lam, report.cv.best.alpha
    assert alpha in {"ridge": {0.0}, "lasso": {1.0}, "elastic_net": {0.5, 1.0}}[kind]
    cold = fit_elastic_net(dm, PenaltySpec(lam, alpha))
    model = report.dpr_model.model
    assert model is report.path_models[report.path_lambdas.index(lam)]
    assert model.penalty == cold.penalty
    np.testing.assert_allclose(model.coefficients, cold.coefficients, rtol=0, atol=1e-10)
    assert model.intercept == pytest.approx(cold.intercept, rel=0, abs=1e-10)
    assert model.diagnostics["converged"]
    write_report(report, tmp_path)
    penalty = json.loads((tmp_path / "model.json").read_text())["regression"]["penalty"]
    assert penalty == {"lambda": lam, "alpha": alpha}
    chosen = json.loads((tmp_path / "summary.json").read_text())["chosen"]
    assert chosen == {"kind": kind, "lambda": lam, "alpha": alpha}

    # ridge reads the Gram the path's fits cached and stays the closed form
    # bit for bit
    assert "gram" in vars(dm)
    active = ~dm.zero_variance & ~np.all(dm.X == dm.X[0], axis=0)
    Xc = dm.X[:, active] - dm.X[:, active].mean(axis=0)
    yc = dm.y - dm.y.mean()
    beta = np.linalg.solve(Xc.T @ Xc + dm.n * lam * np.eye(Xc.shape[1]), Xc.T @ yc)
    ridge = fit_elastic_net(dm, PenaltySpec(lam, 0.0))
    np.testing.assert_array_equal(ridge.coefficients[active], beta)
    assert not ridge.coefficients[~active].any()


def test_only_the_chosen_fit_computes_its_training_metrics(tmp_path, monkeypatch):
    fits = []
    fit = pipeline.fit_elastic_net
    monkeypatch.setattr(pipeline, "fit_elastic_net",
                        lambda *a, **k: fits.append(fit(*a, **k)) or fits[-1])
    panel, _ = _panel(n_entities=10, n_periods=8, n_features=5, n_clusters=3, seed=2)
    split = SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]), cv_folds=4)
    report = run_dpr(panel, _default_config(penalty_kind="elastic_net"), split)
    model, dm = report.dpr_model.model, report.design
    # CV's fold fits and the rest of the path never compute them
    assert sum(m is model for m in fits) == 1 and len(fits) == 4 * 2 * 6 + 6
    for m in fits:
        if m is not model:
            assert list(m.diagnostics) == ["sparsity", "iterations", "converged"]
    # the chosen fit has them first, as model.json and summary.json list them
    assert list(model.diagnostics) == ["r2", "mse", "sparsity", "iterations", "converged"]
    resid = dm.y - model.intercept - dm.X @ model.coefficients
    assert model.diagnostics["mse"] == pytest.approx(np.mean(resid ** 2), rel=1e-12)
    write_report(report, tmp_path)
    written = json.loads((tmp_path / "model.json").read_text())["regression"]["diagnostics"]
    assert written == model.diagnostics
    assert report.metrics["train"]["r2"] == model.diagnostics["r2"]
