import math

import numpy as np
import pytest
from scipy.linalg.lapack import dposv, dpotrf

from dprkit.errors import RankDeficiencyError, ValidationError
from dprkit.regression import (
    _SINGULAR,
    DesignMatrix,
    FittedModel,
    PenaltySpec,
    enet_objective,
    fit_elastic_net,
    metric_mse,
    metric_r2,
    metric_sparsity,
    predict,
    _feature_sign,
    standardize,
)
from dprkit.panel import TransformSpec
from dprkit.pipeline import DprModel, regularization_path
from oracles import kkt_residuals, reference_objective_min, soft_threshold


def _random_design(rng, n=60, p=6, noise=0.1, sparse=True):
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    if sparse:
        beta[p // 2:] = 0.0
    y = 1.5 + X @ beta + noise * rng.normal(size=n)
    return standardize(X, y)


def test_soft_threshold_hand_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(2.0, 0.0) == 2.0


def test_standardize_invariants():
    rng = np.random.default_rng(0)
    X = rng.uniform(1, 9, size=(40, 5))
    y = rng.normal(size=40)
    dm = standardize(X, y)
    assert dm.standardized
    assert np.all(np.abs(dm.X.mean(axis=0)) <= 1e-10)
    np.testing.assert_allclose(dm.X.std(axis=0, ddof=1), 1.0, atol=1e-10)
    # y passes through untouched
    np.testing.assert_array_equal(dm.y, y)


def test_standardize_leaves_constant_columns_alone():
    X = np.column_stack([np.full(30, 7.31), np.arange(30, dtype=float)])
    y = np.arange(30, dtype=float)
    dm = standardize(X, y, ["const", "ramp"])
    assert dm.zero_variance[0] and not dm.zero_variance[1]
    np.testing.assert_array_equal(dm.X[:, 0], X[:, 0])
    assert dm.column_stds[0] == 0.0
    model = fit_elastic_net(dm, PenaltySpec(0.01, 1.0))
    assert model.coefficients[0] == 0.0
    assert model.source_coefficients[0] == 0.0
    # the fit's own sparsity count leaves the constant column out, as the metric does
    assert model.diagnostics["sparsity"] == metric_sparsity(model) == 1.0


@pytest.mark.parametrize("fit", [
    lambda dm: fit_elastic_net(dm, PenaltySpec(0.0, 0.0)),
    lambda dm: fit_elastic_net(dm, PenaltySpec(0.1, 0.0)),
    lambda dm: fit_elastic_net(dm, PenaltySpec(0.1, 1.0)),
    lambda dm: fit_elastic_net(dm, PenaltySpec(0.1, 0.5)),
], ids=["ridge-0", "ridge", "lasso", "elastic_net"])
def test_a_design_with_no_varying_column_fits_the_mean(fit):
    # constant columns, and the rows of a varying design on which every column is constant
    y = np.array([0.3, 1.1, -0.4, 2.0, 0.7])
    flat = standardize(np.full((5, 2), 4.0), y)
    rows = standardize(np.array([[1.0, 2.0]] * 3 + [[3.0, 5.0]] * 2), y).subset_rows([0, 1, 2])
    assert flat.zero_variance.all() and not rows.zero_variance.any()
    for dm in (flat, rows):
        model = fit(dm)
        assert model.intercept == float(dm.y.mean())
        assert not model.coefficients.any()
        assert model.diagnostics["converged"] and model.diagnostics["iterations"] == 0
        np.testing.assert_array_equal(predict(model, np.full((1, 2), 9.0)), model.intercept)


def test_standardize_rejects_single_row():
    with pytest.raises(ValidationError):
        standardize(np.ones((1, 2)), np.ones(1))


def test_ridge_matches_augmented_lstsq_oracle():
    rng = np.random.default_rng(1)
    for lam in (0.01, 0.3, 2.0):
        dm = _random_design(rng, n=50, p=7)
        model = fit_elastic_net(dm, PenaltySpec(lam, 0.0))
        n = dm.n
        Xc = dm.X - dm.X.mean(axis=0)
        yc = dm.y - dm.y.mean()
        X_aug = np.vstack([Xc, math.sqrt(n * lam) * np.eye(7)])
        y_aug = np.concatenate([yc, np.zeros(7)])
        beta_ref, *_ = np.linalg.lstsq(X_aug, y_aug, rcond=None)
        np.testing.assert_allclose(model.coefficients, beta_ref, atol=1e-9)
        assert abs(model.intercept - (dm.y.mean() - Xc.mean(axis=0) @ beta_ref)) < 1e-9


def test_ridge_zero_penalty_is_ols_and_flags_rank_deficiency():
    rng = np.random.default_rng(2)
    dm = _random_design(rng, n=40, p=5)
    model = fit_elastic_net(dm, PenaltySpec(0.0, 0.0))
    Xc = dm.X - dm.X.mean(axis=0)
    yc = dm.y - dm.y.mean()
    beta_ols, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    np.testing.assert_allclose(model.coefficients, beta_ols, atol=1e-8)

    X = rng.normal(size=(30, 3))
    X = np.column_stack([X, X[:, 0]])  # exact duplicate column
    y = rng.normal(size=30)
    dm_bad = DesignMatrix(
        X=X, y=y, column_names=["a", "b", "c", "dup"], standardized=True,
        column_means=np.zeros(4), column_stds=np.ones(4),
        zero_variance=np.zeros(4, dtype=bool),
    )
    with pytest.raises(RankDeficiencyError):
        fit_elastic_net(dm_bad, PenaltySpec(0.0, 0.0))


def test_orthonormal_design_closed_form():
    rng = np.random.default_rng(3)
    n, p = 64, 5
    G = rng.normal(size=(n, p))
    G -= G.mean(axis=0)
    Q, _ = np.linalg.qr(G)
    X = math.sqrt(n) * Q  # columns: mean 0, (1/n) X'X = I
    beta_true = np.array([2.0, -1.0, 0.05, 0.0, 0.6])
    y = X @ beta_true + 0.01 * rng.normal(size=n)
    dm = DesignMatrix(
        X=X, y=y, column_names=list("abcde"), standardized=True,
        column_means=np.zeros(p), column_stds=np.ones(p),
        zero_variance=np.zeros(p, dtype=bool),
    )
    yc = y - y.mean()
    rho = X.T @ yc / n
    for lam, alpha in ((0.1, 1.0), (0.4, 1.0), (0.2, 0.5)):
        model = fit_elastic_net(dm, PenaltySpec(lam, alpha), tol=1e-13)
        expected = np.array(
            [soft_threshold(r, lam * alpha / 2) / (1.0 + lam * (1 - alpha)) for r in rho]
        )
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-10)


def test_kkt_conditions_random_quick():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dm = _random_design(rng, n=int(rng.integers(25, 80)), p=int(rng.integers(2, 9)))
        lam = float(10 ** rng.uniform(-3, -0.5))
        alpha = float(rng.choice([0.3, 0.7, 1.0]))
        model = fit_elastic_net(dm, PenaltySpec(lam, alpha), tol=1e-12,
                                max_iter=200000)
        g, bound = kkt_residuals(
            dm.X, dm.y, model.intercept, model.coefficients, lam, alpha
        )
        assert np.all(np.abs(g) <= bound + 1e-6)
        active = model.coefficients != 0
        np.testing.assert_allclose(
            g[active], bound * np.sign(model.coefficients[active]), atol=1e-6
        )


def test_objective_never_beats_reference_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        dm = _random_design(rng, n=40, p=4)
        lam, alpha = 0.05, 0.6
        model = fit_elastic_net(dm, PenaltySpec(lam, alpha), tol=1e-12)
        ours = enet_objective(
            dm.X, dm.y, model.intercept, model.coefficients, lam, alpha
        )
        _, _, ref = reference_objective_min(
            dm.X, dm.y, PenaltySpec(lam=lam, alpha=alpha)
        )
        assert ours <= ref + 1e-6


def test_elastic_net_limits_match_lasso_and_ridge():
    rng = np.random.default_rng(6)
    dm = _random_design(rng, n=70, p=6)
    for lam in (0.001, 0.05, 0.5):
        en1 = fit_elastic_net(dm, PenaltySpec(lam, 1.0 - 1e-10), tol=1e-13)
        la = fit_elastic_net(dm, PenaltySpec(lam, 1.0), tol=1e-13)
        np.testing.assert_allclose(en1.coefficients, la.coefficients, atol=1e-10)
        # alpha 0 is the closed form; the active-set solver just inside reaches it
        en0 = fit_elastic_net(dm, PenaltySpec(lam, 1e-10), tol=1e-13, max_iter=500000)
        ri = fit_elastic_net(dm, PenaltySpec(lam, 0.0))
        assert en0.diagnostics["iterations"] > 0 == ri.diagnostics["iterations"]
        np.testing.assert_allclose(en0.coefficients, ri.coefficients, atol=1e-8)


def test_warm_path_equals_cold_fits():
    rng = np.random.default_rng(7)
    dm = _random_design(rng, n=60, p=8)
    lams = [float(v) for v in np.logspace(-0.5, -3, 12)]
    path = regularization_path(dm, lams, 0.7)
    for lam, warm_model in zip(lams, path):
        cold = fit_elastic_net(dm, PenaltySpec(lam, 0.7))
        np.testing.assert_allclose(
            warm_model.coefficients, cold.coefficients, atol=1e-8
        )


def _assert_kkt(dm, model, lam, alpha, atol=1e-9):
    g, bound = kkt_residuals(dm.X, dm.y, model.intercept, model.coefficients, lam, alpha)
    active = model.coefficients != 0
    assert np.all(np.abs(g[~active]) <= bound + atol)
    np.testing.assert_allclose(
        g[active], bound * np.sign(model.coefficients[active]), rtol=0, atol=atol
    )


def _assert_reference_optimal(dm, model, lam, alpha):
    ours = enet_objective(dm.X, dm.y, model.intercept, model.coefficients, lam, alpha)
    _, _, ref = reference_objective_min(
        dm.X, dm.y, PenaltySpec(lam=lam, alpha=alpha)
    )
    assert ours <= ref + 1e-9


def _collinear_design(rng, n=60):
    base = rng.normal(size=(n, 4))
    y = 1.0 + base @ np.array([1.0, 0.5, 0.3, 0.0]) + 0.1 * rng.normal(size=n)
    return base, y


def test_near_duplicate_columns_reach_the_optimum():
    rng = np.random.default_rng(16)
    base, y = _collinear_design(rng)
    twin = 0.999 * base[:, 0] + math.sqrt(1 - 0.999**2) * rng.normal(size=base.shape[0])
    dm = standardize(np.column_stack([base[:, 0], twin, base[:, 1:]]), y)
    assert np.corrcoef(dm.X[:, 0], dm.X[:, 1])[0, 1] > 0.998
    for alpha in (0.3, 1.0):
        for lam in (1e-4, 1e-2, 0.1):
            model = fit_elastic_net(dm, PenaltySpec(lam, alpha), tol=1e-10,
                                    debug=True)
            assert model.diagnostics["converged"]
            _assert_kkt(dm, model, lam, alpha)
            _assert_reference_optimal(dm, model, lam, alpha)


def test_exactly_collinear_columns_at_alpha_one():
    rng = np.random.default_rng(17)
    base, y = _collinear_design(rng)
    duplicate = np.column_stack([base[:, 0], base[:, 0], base[:, 1:]])
    summed = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1], base[:, 3]])
    for X in (duplicate, summed):
        dm = standardize(X, y)
        for lam in (1e-4, 1e-2, 0.1):
            # cold, and warm from a support holding every collinear column
            # with mixed signs, so that the support system is singular
            warm = np.array([1.0, -2.0, 0.5, 0.0] + [0.0] * (dm.p - 4))
            for start in (None, warm):
                model = fit_elastic_net(dm, PenaltySpec(lam, 1.0), start, tol=1e-10,
                                        debug=True)
                assert model.diagnostics["converged"]
                _assert_kkt(dm, model, lam, 1.0)
                _assert_reference_optimal(dm, model, lam, 1.0)


def _singleton_design(seed):
    """The shape of a run with many noise rows: a few correlated log features,
    cluster dummies and one singleton dummy per noise row, p = 197."""
    rng = np.random.default_rng(seed)
    n, n_feat, n_noise = 400, 20, 170
    latent = rng.normal(size=(n, 3))
    feats = latent @ rng.normal(size=(3, n_feat)) + 0.3 * rng.normal(size=(n, n_feat))
    cluster = rng.integers(0, 8, size=n)
    clusters = (cluster[:, None] == np.arange(1, 8)).astype(float)
    singletons = np.zeros((n, n_noise))
    singletons[rng.choice(n, size=n_noise, replace=False), np.arange(n_noise)] = 1.0
    X = np.column_stack([feats, clusters, singletons])
    y = feats[:, :5] @ rng.normal(size=5) + 0.5 * cluster + 0.2 * rng.normal(size=n)
    dm = standardize(X, y)
    assert dm.p == 197
    return dm


def test_wide_design_with_singleton_dummies():
    dm = _singleton_design(18)
    lams = [float(v) for v in np.logspace(-1, -2.5, 6)]
    for lam, model in zip(lams, regularization_path(dm, lams, 1.0)):
        assert model.diagnostics["converged"]
        _assert_kkt(dm, model, lam, 1.0)


def test_block_steps_add_the_singleton_dummies_together():
    dm = _singleton_design(18)
    lam = 10 ** -2.5
    model = fit_elastic_net(dm, PenaltySpec(lam, 1.0), debug=True)
    assert model.diagnostics["converged"]
    support = np.count_nonzero(model.coefficients)
    # one coefficient per step would take at least ``support`` steps
    assert support > 150 and 3 * model.diagnostics["iterations"] <= support
    _assert_kkt(dm, model, lam, 1.0)
    _assert_reference_optimal(dm, model, lam, 1.0)


def test_warm_start_at_the_solution_takes_no_steps():
    rng = np.random.default_rng(19)
    dm = _random_design(rng, n=60, p=8)
    for alpha in (0.0, 0.5, 1.0):
        model = fit_elastic_net(dm, PenaltySpec(0.01, alpha))
        again = fit_elastic_net(dm, PenaltySpec(0.01, alpha),
                                warm_start=model.coefficients)
        assert again.diagnostics["iterations"] == 0
        assert again.diagnostics["converged"]
        np.testing.assert_array_equal(again.coefficients, model.coefficients)


def test_path_requires_descending_lambdas():
    rng = np.random.default_rng(8)
    dm = _random_design(rng)
    with pytest.raises(ValidationError):
        regularization_path(dm, [0.01, 0.1], 1.0)
    with pytest.raises(ValidationError):
        regularization_path(dm, [0.1, 0.1], 1.0)
    with pytest.raises(ValidationError, match="warm chain has 1 fits for 2 lambdas"):
        regularization_path(dm, [0.1, 0.01], 1.0, warm=[None])


def test_debug_mode_checks_objective_monotonicity():
    rng = np.random.default_rng(10)
    dm = _random_design(rng, n=50, p=5)
    model = fit_elastic_net(dm, PenaltySpec(0.05, 0.8), debug=True)
    assert model.diagnostics["converged"]


def test_predict_matches_standardized_arithmetic():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 10, size=(45, 4))
    y = X[:, 0] * 0.3 - X[:, 2] * 0.1 + rng.normal(scale=0.05, size=45)
    dm = standardize(X, y)
    model = fit_elastic_net(dm, PenaltySpec(0.01, 0.5))
    direct = model.intercept + dm.X @ model.coefficients
    via_raw = predict(model, X)
    np.testing.assert_allclose(via_raw, direct, atol=1e-10)
    # source-scale coefficients reproduce the same predictions
    manual = model.source_intercept + X @ model.source_coefficients
    np.testing.assert_allclose(manual, direct, atol=1e-10)


def test_predict_width_check():
    rng = np.random.default_rng(12)
    dm = _random_design(rng, n=30, p=3)
    model = fit_elastic_net(dm, PenaltySpec(0.1, 0.0))
    with pytest.raises(ValidationError):
        predict(model, np.ones((2, 5)))


def test_predict_scales_one_copy_in_place_with_the_same_arithmetic():
    import tracemalloc

    rng = np.random.default_rng(15)
    X = rng.uniform(0, 10, size=(400, 12))
    X[:, 5] = 3.0  # a zero-variance column, skipped by the mask
    y = X[:, 0] * 0.3 - X[:, 2] * 0.1 + rng.normal(scale=0.05, size=400)
    model = fit_elastic_net(standardize(X, y), PenaltySpec(0.01, 0.5))
    rows = rng.uniform(0, 10, size=(20_000, 12))
    active = ~model.zero_variance
    z = (rows[:, active] - model.column_means[active]) / model.column_stds[active]
    # each row summed on its own, so that no row's value depends on the other rows
    np.testing.assert_array_equal(
        predict(model, rows),
        [model.intercept + np.sum(zi * model.coefficients[active]) for zi in z])
    del z
    tracemalloc.start()
    try:
        predict(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scaled copy of the active columns plus two length-n vectors
    assert peak < 1.25 * rows.nbytes, f"peak {peak} bytes against rows of {rows.nbytes}"


@pytest.mark.parametrize("p", [6, 11, 17, 23, 200])
def test_a_predicted_row_does_not_depend_on_its_batch(p):
    # a BLAS product sums a row in an order set by where the row falls in its batch
    rng = np.random.default_rng(p)
    zero_variance = np.zeros(p, dtype=bool)
    zero_variance[1] = True
    model = FittedModel(
        intercept=0.3, coefficients=np.where(zero_variance, 0.0, rng.normal(size=p)),
        penalty=PenaltySpec(0.01, 0.5), column_names=[f"x{j}" for j in range(p)],
        column_means=rng.uniform(0, 2, size=p), column_stds=rng.uniform(0.5, 2, size=p),
        zero_variance=zero_variance)
    rows = rng.uniform(0, 10, size=(59, p))
    full = predict(model, rows)
    for m in range(1, rows.shape[0]):
        np.testing.assert_array_equal(predict(model, rows[:m]), full[:m])
        np.testing.assert_array_equal(predict(model, rows[-m:]), full[-m:])


def test_unpenalized_intercept_tracks_target_shift():
    # adding a constant to y must move only the intercept
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 4))
    y = X @ np.array([1.0, -2.0, 0.0, 0.5]) + 0.05 * rng.normal(size=50)
    m1 = fit_elastic_net(standardize(X, y), PenaltySpec(0.1, 0.5), tol=1e-12)
    m2 = fit_elastic_net(standardize(X, y + 100.0), PenaltySpec(0.1, 0.5),
                         tol=1e-12)
    np.testing.assert_allclose(m1.coefficients, m2.coefficients, atol=1e-9)
    assert m2.intercept - m1.intercept == pytest.approx(100.0, abs=1e-9)


def _bundle_of(model):
    """model.json's record of ``model``, its columns the features of one cluster."""
    return DprModel(
        model=model, transform=TransformSpec(), features=list(model.column_names),
        eps=0.5, k=1, outlier_policy="exclude",
        core_points=np.zeros((1, len(model.column_names))), core_labels=np.zeros(1, np.intp),
    ).to_bundle()


def test_model_dict_round_trip():
    rng = np.random.default_rng(14)
    dm = _random_design(rng, n=30, p=3)
    model = fit_elastic_net(dm, PenaltySpec(0.05, 0.4))
    clone = DprModel.from_bundle(_bundle_of(model)).model
    np.testing.assert_array_equal(clone.coefficients, model.coefficients)
    assert clone.intercept == model.intercept
    assert clone.penalty == model.penalty
    assert clone.column_names == model.column_names
    X = rng.uniform(size=(5, 3))
    np.testing.assert_array_equal(predict(clone, X), predict(model, X))


@pytest.mark.parametrize("edit, message", [
    ({"intercept": True}, "bad field 'regression.intercept': "
     "TypeError('expected numbers, got bool')"),
    ({"coefficients": [0.0]}, "bad field 'regression.coefficients': expected 3 finite entries"),
    ({"column_means": [0.0, math.nan, 0.0]},
     "bad field 'regression.column_means': expected 3 finite entries"),
    ({"column_stds": [0.0, 1.0, 1.0]}, "bad field 'regression.column_stds': expected 0 where "
     "zero_variance is true and > 0 elsewhere"),
    ({"column_names": "abc"}, "bad field 'regression.column_names': "
     "TypeError('expected a list of strings')"),
    ({"penalty": None}, "bad field 'regression.penalty': "
     "TypeError(\"'NoneType' object is not subscriptable\")"),
])
def test_model_dict_is_read_by_the_bundle_rules(edit, message):
    # a fitted model's record in model.json is read through DprModel.from_bundle alone
    model = fit_elastic_net(_random_design(np.random.default_rng(14), n=30, p=3),
                            PenaltySpec(0.05, 0.4))
    bundle = _bundle_of(model)
    bundle["regression"].update(edit)
    with pytest.raises(ValidationError) as exc:
        DprModel.from_bundle(bundle)
    assert str(exc.value) == message


def test_penalty_spec_validation():
    with pytest.raises(ValidationError):
        PenaltySpec(lam=-0.1, alpha=0.0)
    with pytest.raises(TypeError):
        PenaltySpec(lam=0.1)  # alpha required
    with pytest.raises(ValidationError):
        PenaltySpec(lam=0.1, alpha=1.5)
    with pytest.raises(ValidationError, match=r"^alpha must be in \[0, 1\], got -0.5$"):
        PenaltySpec(0.1, -0.5)
    with pytest.raises(TypeError):
        PenaltySpec(kind="lasso", lam=0.1, alpha=1.0)  # a penalty has no kind
    with pytest.raises(ValidationError, match=r"^alpha must be in \[0, 1\], got True$"):
        PenaltySpec(0.1, True)
    with pytest.raises(ValidationError, match="^lambda must be finite and >= 0, got True$"):
        PenaltySpec(True, 1.0)


def test_penalty_spec_stores_floats():
    # an int or numpy value writes the same artifacts as its float
    spec = PenaltySpec(1, np.float32(0.5))
    assert (type(spec.lam), type(spec.alpha)) == (float, float)
    assert spec == PenaltySpec(1.0, 0.5)


def test_design_matrix_validation():
    with pytest.raises(ValidationError):
        DesignMatrix(X=np.ones((3, 2)), y=np.ones(2), column_names=["a", "b"])
    with pytest.raises(ValidationError):
        DesignMatrix(X=np.ones((3, 2)), y=np.ones(3), column_names=["a", "a"])
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        DesignMatrix(X=bad, y=np.ones(3), column_names=["a", "b"])


def test_metrics_edges():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert metric_r2(y, y) == 1.0
    assert metric_r2(y, np.full(4, y.mean())) == 0.0
    assert metric_mse(y, y) == 0.0
    with pytest.raises(ValidationError):
        metric_r2(np.ones(4), np.ones(4))
    assert metric_sparsity(np.zeros(5)) == 0.0
    assert metric_sparsity(np.ones(5)) == 1.0
    assert metric_sparsity(np.array([0.0, 1.0, 2.0, 0.0])) == 0.5
    # zero-variance slots leave both numerator and denominator
    zv = np.array([False, True, False])
    assert metric_sparsity(np.array([1.0, 0.0, 0.0]), zero_variance=zv) == 0.5


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(15)
    dm = _random_design(rng, n=50, p=8)
    model = fit_elastic_net(dm, PenaltySpec(1e-6, 0.5), tol=1e-15, max_iter=2)
    assert model.diagnostics["converged"] is False
    assert model.diagnostics["iterations"] == 2


# ------------------------------------------- the grown factor vs refactoring


def _refactoring_feature_sign(H, c, t, b, tol, max_iter, objective=None):
    """Feature-sign search that copies H_AA and solves it by dposv at every step.

    The same block search as ``regression._feature_sign`` without the kept
    factor: the violators are added at once, largest first and at most k + 1
    of them for a support of k, unless the factor of the grown support fails
    or fails the singularity test, and the block is cut before the first
    added coefficient after the first whose solve opposes its gradient's
    sign.  The grown factor must reproduce its supports, steps and
    coefficients.
    """
    A = np.flatnonzero(b)
    grad = c - H[:, A] @ b[A]
    on_support = False
    steps = 0
    objective(b)
    while True:
        on_support = on_support or bool(np.all(np.abs(grad[A] - t * np.sign(b[A])) <= tol))
        if on_support:
            viol = np.abs(grad) - t
            viol[A] = -math.inf
            B = np.flatnonzero(viol > tol)
            if not B.size:
                return b, steps, True
        if steps >= max_iter:
            return b, steps, False
        signs = np.sign(b[A])
        k0 = A.size
        if on_support:
            B = B[np.argsort(-viol[B], kind="stable")][:A.size + 1]
            grown = np.append(A, B)
            factor, _, info = dposv(H[np.ix_(grown, grown)], c[grown])
            if info or np.diagonal(factor).min() ** 2 <= _SINGULAR * H.diagonal()[grown].max():
                B = B[:1]
            A = np.append(A, B)
            signs = np.append(signs, np.copysign(1.0, grad[B]))
        HA = H[np.ix_(A, A)]
        rhs = c[A] - t * signs
        factor, x, info = dposv(HA, rhs)
        exact = info == 0 and np.diagonal(factor).min() ** 2 > _SINGULAR * HA.diagonal().max()
        if exact:
            while np.any(signs[k0 + 1:] * x[k0 + 1:] < 0.0):
                A = A[:k0 + 1 + int(np.argmax(signs[k0 + 1:] * x[k0 + 1:] < 0.0))]
                signs = signs[:A.size]
                HA = H[np.ix_(A, A)]
                rhs = c[A] - t * signs
                x = dposv(HA, rhs)[1]
        bA = b[A]
        if exact:
            on_support = bool(np.all(signs * x >= 0.0))
            d, top = x - bA, 1.0
        else:
            on_support = False
            slope = HA @ bA - rhs
            damped = HA + _SINGULAR * HA.diagonal().max() * np.eye(A.size)
            d = -dposv(damped, slope)[1]
            curv = float(d @ HA @ d)
            top = -float(slope @ d) / curv if curv > 0.0 else math.inf
        new = x
        if not on_support:
            cross = np.flatnonzero(bA * d < 0.0)
            at = -bA[cross] / d[cross]
            keep = np.argsort(at)
            keep = keep[at[keep] < top]
            cross, at = cross[keep], at[keep]
            step = at if top == math.inf else np.append(at, top)
            if not exact:
                step = step[:1]
            points = bA + step[:, None] * d
            change = (-step * (d @ grad[A]) + 0.5 * step * step * (d @ HA @ d)
                      + t * (np.abs(points) - np.abs(bA)).sum(axis=1))
            if not step.size or change.min() >= 0.0:
                return b, steps, False
            k = int(np.argmin(change))
            new = points[k]
            new[cross[at == step[k]]] = 0.0
        b[A] = new
        A = A[new != 0.0]
        grad = c - H[:, A] @ b[A]
        steps += 1
        objective(b)


def _search_inputs(dm, lam, alpha):
    """H, c and t of the search for the elastic net at (lam, alpha) on ``dm``."""
    _, _, _, XtX, Xty = dm.gram
    H = XtX / dm.n + lam * (1.0 - alpha) * np.eye(Xty.size)
    return H, Xty / dm.n, lam * alpha / 2.0


def _both_searches(dm, lam, alpha, start=None, tol=1e-10, events=None):
    """Run both searches from ``start``; return the kept-factor result and trace.

    ``events``, when given, gets a ("step", [b], {}) entry for the kept-factor
    search's start and after each of its steps, between the LAPACK calls that
    ``_lapack_calls`` records in the same list.
    """
    H, c, t = _search_inputs(dm, lam, alpha)
    runs = []
    for search in (_feature_sign, _refactoring_feature_sign):
        trace = []
        marks = events if search is _feature_sign and events is not None else []

        def hook(b, trace=trace, marks=marks):
            # the objective hook sees b after every step; 0 never rises
            trace.append(b.copy())
            marks.append(("step", [b.copy()], {}))
            return 0.0

        b0 = np.zeros(c.size) if start is None else start.copy()
        b, steps, converged = search(H, c, t, b0, tol, 10_000, hook)
        runs.append((b, steps, converged, trace))
    (b, steps, converged, trace), (rb, rsteps, rconverged, rtrace) = runs
    assert (steps, converged) == (rsteps, rconverged)
    assert len(trace) == len(rtrace) == steps + 1
    for ours, ref in zip(trace, rtrace):
        np.testing.assert_array_equal(np.flatnonzero(ours), np.flatnonzero(ref))
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)
    return b, trace


def _drops(trace):
    """Steps after which a coefficient left the support."""
    return sum(bool(np.any((a != 0) & (b == 0))) for a, b in zip(trace, trace[1:]))


def _flips(trace):
    """Steps after which a coefficient changed sign and stayed in the support."""
    return sum(bool(np.any(a * b < 0)) for a, b in zip(trace, trace[1:]))


def _adds(trace, least=1):
    """Steps after which at least ``least`` coefficients entered the support."""
    return sum(int(np.count_nonzero((a == 0) & (b != 0))) >= least
               for a, b in zip(trace, trace[1:]))


def _lapack_calls(monkeypatch, name, calls=None):
    """Record every call of ``scipy.linalg.lapack.<name>`` in ``calls``.

    Each entry is (name, copies of the positional arguments, keywords).
    """
    import scipy.linalg.lapack as lapack

    calls = [] if calls is None else calls
    real = getattr(lapack, name)

    def spy(*args, **kwargs):
        calls.append((name, [np.array(a) for a in args], kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(lapack, name, spy)
    return calls


def test_grown_factor_matches_refactoring_cold(monkeypatch):
    events = _lapack_calls(monkeypatch, "dpotrf")
    rng = np.random.default_rng(30)
    latent = rng.normal(size=(120, 4))
    X = latent @ rng.normal(size=(4, 40)) + 0.4 * rng.normal(size=(120, 40))
    y = X[:, :6] @ rng.normal(size=6) + 0.3 * rng.normal(size=120)
    dm = standardize(X, y)
    tol = 1e-10
    drops = tried = blocks = flips = 0
    for alpha in (1.0, 0.5):
        for lam in (0.3, 0.03, 3e-3, 3e-4):
            H, c, t = _search_inputs(dm, lam, alpha)
            first = len(events)
            b, trace = _both_searches(dm, lam, alpha, tol=tol, events=events)
            assert b.any()
            drops, flips = drops + _drops(trace), flips + _flips(trace)
            blocks += _adds(trace, 2)
            marks = [i for i in range(first, len(events)) if events[i][0] == "step"]
            for i, j in zip(marks, marks[1:]):
                before, after = events[i][1][0], events[j][1][0]
                calls = [args[0] for _, args, _ in events[i + 1:j]]
                entered = np.count_nonzero((before == 0) & (after != 0))
                violators = np.count_nonzero((before == 0) & (np.abs(c - H @ before) - t > tol))
                # the block an add step tried: the violators, at most k + 1
                m = min(violators, np.count_nonzero(before) + 1) if entered else 0
                if m:
                    # its first dpotrf factors the m x m Schur complement, also
                    # for a single added coefficient
                    assert entered <= m and calls and calls[0].shape == (m, m)
                    calls, tried = calls[1:], tried + 1
                # a step that drops coefficients factors the trailing block once
                assert len(calls) <= bool(np.any((before != 0) & (after == 0)))
    assert len(events) - sum(e[0] == "step" for e in events) <= drops + tried
    # steps add blocks, and rebuild the support's signs after a flip
    assert blocks > 0 and flips > 0


def test_grown_factor_matches_refactoring_after_drops(monkeypatch):
    rng = np.random.default_rng(31)
    dm = _random_design(rng, n=80, p=25, sparse=False)
    dense = fit_elastic_net(dm, PenaltySpec(1e-4, 0.9)).coefficients
    refactors = _lapack_calls(monkeypatch, "dpotrf")
    drops = []
    for lam in (0.1, 0.2, 0.5):
        _, trace = _both_searches(dm, lam, 0.9, start=dense)
        drops.append(_drops(trace))
    # one refactor per warm start, and at most one per step that drops
    assert min(drops) > 0 and len(refactors) <= sum(drops) + 3


def test_grown_factor_matches_refactoring_on_a_run_wide_design():
    dm = _singleton_design(32)
    b = None
    widest = 0
    for lam in np.logspace(-1, -3, 5):
        b, trace = _both_searches(dm, float(lam), 1.0, start=b)
        widest = max(widest, np.count_nonzero(b))
    assert widest > 150


def test_a_block_is_cut_before_an_added_coefficient_of_the_wrong_sign():
    # y follows x2 and x0, and x1 is x0's correlated twin: once x2 is in,
    # x0 and x1 violate with the same sign, but their joint solve gives x1
    # the other
    rng = np.random.default_rng(34)
    z = rng.normal(size=(200, 3))
    X = np.column_stack([z[:, 0], 0.9 * z[:, 0] + math.sqrt(1 - 0.9**2) * z[:, 1], z[:, 2]])
    y = X[:, 0] + 2.0 * X[:, 2] + 0.05 * rng.normal(size=200)
    dm = standardize(X, y)
    lam, tol = 0.1, 1e-10
    H, c, t = _search_inputs(dm, lam, 1.0)
    trace = []
    b, steps, converged = _feature_sign(H, c, t, np.zeros(dm.p), tol, 100,
                                        lambda b: trace.append(b.copy()) or 0.0)
    assert converged
    cut = False
    for before, after in zip(trace, trace[1:]):
        grad = c - H @ before
        entered = (before == 0) & (after != 0)
        # every added coefficient starts with its gradient's sign
        np.testing.assert_array_equal(np.sign(after[entered]), np.sign(grad[entered]))
        # the block tried holds the violators, at most k + 1 of them
        violators = np.count_nonzero((before == 0) & (np.abs(grad) - t > tol))
        cut |= 0 < entered.sum() < min(violators, np.count_nonzero(before) + 1)
    assert cut
    model = fit_elastic_net(dm, PenaltySpec(lam, 1.0), tol=tol, debug=True)
    assert model.diagnostics["converged"]
    _assert_kkt(dm, model, lam, 1.0)
    _assert_reference_optimal(dm, model, lam, 1.0)


def test_a_drop_refactors_only_the_trailing_block(monkeypatch):
    rng = np.random.default_rng(31)
    dm = _random_design(rng, n=80, p=25, sparse=False)
    dense = fit_elastic_net(dm, PenaltySpec(1e-4, 0.9)).coefficients
    H, c, t = _search_inputs(dm, 0.5, 0.9)
    events = _lapack_calls(monkeypatch, "dpotrf")
    _lapack_calls(monkeypatch, "dtrtrs", events)
    _, steps, converged = _feature_sign(H, c, t, dense.copy(), 1e-10, 10_000,
                                        lambda b: events.append(("step", [b.copy()], {})) or 0.0)
    assert converged

    def support_order(rhs):
        # rhs = c_A - t*s_A names the support's columns in R's order
        near = np.abs(np.concatenate([c - t, c + t])[None, :] - rhs[:, None])
        order = near.argmin(axis=1) % c.size
        assert near.min(axis=1).max() < 1e-14 and np.unique(order).size == order.size
        return order

    forward = solve = refactor = None
    trailing = 0
    for name, args, kwargs in events:
        if name == "dtrtrs" and kwargs.get("trans") and args[1].ndim == 1:
            forward = args[1]  # the last of these before a solve is c_A - t*s_A
        elif name == "dtrtrs" and not kwargs.get("trans"):
            k = args[1].size
            order = support_order(forward)[:k]
            R = args[0][:k, :k]
            np.testing.assert_allclose(R, dpotrf(H[np.ix_(order, order)])[0], rtol=0, atol=1e-12)
            solve, refactor = (R, order), None
        elif name == "dpotrf":
            refactor = args[0]  # the last one after the solve follows a drop
        else:
            after = args[0]
            if solve is not None:
                R, order = solve
                gone = np.flatnonzero(after[order] == 0)
                tail = [i for i in range(gone[0], order.size) if after[order[i]]] if gone.size else []
                if tail:
                    q, T = gone[0], order[tail]
                    # dpotrf sees only the Schur complement of the kept columns
                    # after the first that left, bordered by R's leading rows
                    expected = H[np.ix_(T, T)] - R[:q, tail].T @ R[:q, tail]
                    np.testing.assert_allclose(refactor, expected, rtol=0, atol=1e-12)
                    trailing += q > 0
                else:
                    assert refactor is None
            solve, refactor = None, None
    assert trailing > 0


def test_duplicate_column_takes_the_damped_branch(monkeypatch):
    damped = _lapack_calls(monkeypatch, "dposv")
    rng = np.random.default_rng(33)
    base, y = _collinear_design(rng)
    dm = standardize(np.column_stack([base[:, 0], base[:, 0], base[:, 1:]]), y)
    warm = np.array([1.0, -2.0, 0.5, 0.0, 0.0])
    for start in (None, warm):
        for lam in (1e-4, 1e-2):
            b, _ = _both_searches(dm, lam, 1.0, start=start)
            _assert_kkt(dm, fit_elastic_net(dm, PenaltySpec(lam, 1.0), start, tol=1e-10),
                        lam, 1.0)
    # the kept-factor search calls dposv only for a damped step
    assert damped


def _passes(S):
    """Whether a support's Gram block S factors and passes the singularity test."""
    R, info = dpotrf(S)
    pivot = np.diagonal(R).min()
    return info == 0 and pivot * pivot > _SINGULAR * np.diagonal(S).max()


def test_a_failed_factor_is_not_bordered_until_a_drop_refactors_it(monkeypatch):
    # x1 is x0 plus 1e-6 times a direction orthogonal to the intercept, the
    # other columns and y: a support holding both factors, but its pivot fails
    # the singularity test.  The direction keeps the damped steps short, so
    # that decoy, x2 and x3 are added while the factor fails
    rng = np.random.default_rng(35)
    n = 60
    z = rng.normal(size=(n, 3))
    decoy = (z[:, 1] + z[:, 2]) / math.sqrt(2) + 0.3 * rng.normal(size=n)
    y = 1.0 + z.sum(axis=1) + 0.1 * rng.normal(size=n)
    q = np.linalg.qr(np.column_stack([np.ones(n), z, decoy, y]))[0]
    e = rng.normal(size=n)
    e -= q @ (q.T @ e)
    e *= math.sqrt(n) / np.linalg.norm(e)
    dm = standardize(np.column_stack([z[:, 0], z[:, 0] + 1e-6 * e, z[:, 1:], decoy]), y)
    lam = 0.1
    H = _search_inputs(dm, lam, 1.0)[0]
    events = _lapack_calls(monkeypatch, "dpotrf")
    _lapack_calls(monkeypatch, "dposv", events)
    added = refactored = 0
    # the second start's decoy crosses zero first, and the drop's refactor
    # fails again
    for start in ([0.5, 0.5, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0, -1e-3]):
        first = len(events)
        _both_searches(dm, lam, 1.0, start=np.array(start), events=events)
        marks = [i for i in range(first, len(events)) if events[i][0] == "step"]
        # the start's one dpotrf succeeds on H_AA, which fails the test
        (name, (S,), _), = events[first:marks[0]]
        assert name == "dpotrf" and dpotrf(S)[1] == 0 and not _passes(S)
        failed = True
        for i, j in zip(marks, marks[1:]):
            before, after = events[i][1][0], events[j][1][0]
            calls = [(name, args[0]) for name, args, _ in events[i + 1:j]]
            if before[0] and before[1]:
                assert any(name == "dposv" for name, _ in calls)
            if failed:
                # an add makes no dpotrf, and the solve is damped
                assert calls[0][0] == "dposv"
                added += bool(np.any((before == 0) & (after != 0)))
            for at, (name, S) in enumerate(calls):
                if name == "dposv":
                    failed = True
                elif failed:
                    # the drop's dpotrf factors the whole support from its
                    # first column: H_AA itself, not a Schur complement
                    kept = np.flatnonzero(after)
                    assert at == len(calls) - 1 and np.any((before != 0) & (after == 0))
                    assert S.shape == (kept.size, kept.size)
                    np.testing.assert_array_equal(np.sort(np.diagonal(S)),
                                                  np.sort(H.diagonal()[kept]))
                    failed, refactored = not _passes(S), refactored + 1
        model = fit_elastic_net(dm, PenaltySpec(lam, 1.0), np.array(start), tol=1e-10)
        assert model.diagnostics["converged"]
        _assert_kkt(dm, model, lam, 1.0)
        _assert_reference_optimal(dm, model, lam, 1.0)
    assert added > 0 and refactored > 1
