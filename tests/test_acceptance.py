"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.  Every numeric bound here is asserted at the stated tolerance;
failures are real failures.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from dprkit import testkit
from dprkit.clustering import (
    DbscanParams,
    dbscan,
    pairwise_distances,
    scan_params,
    suggest_params,
)
from dprkit.panel import PanelDataset, TransformSpec, energy_mix_features
from dprkit.pipeline import (
    DprConfig,
    SplitSpec,
    chronological_split,
    forecast_report,
    run_dpr,
    write_report,
)
from dprkit.regression import (
    FittedModel,
    PenaltySpec,
    enet_objective,
    fit_elastic_net,
    metric_r2,
    metric_sparsity,
    standardize,
)
from oracles import brute_force_dbscan, kkt_residuals, reference_objective_min


def _report(num: int, detail: str) -> None:
    print(f"criterion {num} PASS: {detail}")


def test_criterion_1_clustering_matches_brute_force_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 6))
        pts = rng.uniform(-5, 5, size=(n, d))
        if rng.random() < 0.5:  # tie-heavy layouts: snap to a coarse lattice
            pts = np.round(pts * 2) / 2
        if n >= 8 and rng.random() < 0.4:  # exact duplicates
            pts[rng.integers(1, n)] = pts[0]
        dist = squareform(pairwise_distances(pts))
        positive = dist[dist > 0]
        eps = (
            float(rng.choice(positive)) if positive.size else float(rng.uniform(0.1, 1))
        )
        params = DbscanParams(
            eps=eps,
            # the second draw once chose the strict rule, which is min_pts + 1
            min_pts=int(rng.integers(2, 7)) + int(rng.integers(0, 2)),
        )
        got = dbscan(pts, params).labels
        want = brute_force_dbscan(pts, params)
        np.testing.assert_array_equal(got, want)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 200
    assert elapsed < 10.0
    _report(1, f"200/200 random instances identical to the oracle ({elapsed:.2f}s)")


def test_criterion_2_solver_satisfies_kkt_and_reference_objective():
    rng = np.random.default_rng(2002)
    worst_kkt = 0.0
    worst_obj = -np.inf
    worst_ridge = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 101))
        p = int(rng.integers(2, 11))
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        beta[rng.random(p) < 0.4] = 0.0
        y = float(rng.normal()) + X @ beta + 0.1 * rng.normal(size=n)
        dm = standardize(X, y)
        lam = float(10 ** rng.uniform(-3, -0.5))
        alpha = float(rng.choice([0.3, 0.5, 0.7, 1.0]))

        model = fit_elastic_net(dm, PenaltySpec(lam, alpha), tol=1e-12,
                                max_iter=300000)
        g, bound = kkt_residuals(
            dm.X, dm.y, model.intercept, model.coefficients, lam, alpha
        )
        assert np.all(np.abs(g) <= bound + 1e-6)
        active = model.coefficients != 0
        if active.any():
            sign_gap = np.max(
                np.abs(g[active] - bound * np.sign(model.coefficients[active]))
            )
            assert sign_gap <= 1e-6
            worst_kkt = max(worst_kkt, float(sign_gap))
        inactive_excess = float(np.max(np.abs(g) - bound, initial=-np.inf))
        worst_kkt = max(worst_kkt, max(inactive_excess, 0.0))

        ours = enet_objective(dm.X, dm.y, model.intercept, model.coefficients, lam, alpha)
        _, _, ref = reference_objective_min(
            dm.X, dm.y, PenaltySpec(lam=lam, alpha=alpha)
        )
        assert ours <= ref + 1e-6
        worst_obj = max(worst_obj, ours - ref)

        ridge = fit_elastic_net(dm, PenaltySpec(lam, 0.0))
        Xc = dm.X - dm.X.mean(axis=0)
        yc = dm.y - dm.y.mean()
        aug = np.vstack([Xc, math.sqrt(n * lam) * np.eye(p)])
        ref_beta, *_ = np.linalg.lstsq(aug, np.concatenate([yc, np.zeros(p)]), rcond=None)
        gap = float(np.max(np.abs(ridge.coefficients - ref_beta)))
        assert gap <= 1e-6
        worst_ridge = max(worst_ridge, gap)
    _report(
        2,
        "100/100 fits: KKT residual <= 1e-6 (worst "
        f"{worst_kkt:.2e}), objective within 1e-6 of the independent minimizer "
        f"(worst excess {worst_obj:.2e}), ridge vs lstsq oracle {worst_ridge:.2e}",
    )


def test_criterion_3_elastic_net_limits_collapse_to_lasso_and_ridge():
    rng = np.random.default_rng(3003)
    X = rng.normal(size=(90, 9))
    beta = np.zeros(9)
    beta[:4] = rng.normal(size=4)
    y = 2.0 + X @ beta + 0.15 * rng.normal(size=90)
    dm = standardize(X, y)
    lams = [float(v) for v in np.logspace(0, -3, 20)]
    worst_l = 0.0
    worst_r = 0.0
    # lasso and ridge are alpha 1 and alpha 0; the active-set fits just inside
    # the ends reach them, the one at alpha 0 solved in closed form
    for lam in lams:
        en1 = fit_elastic_net(dm, PenaltySpec(lam, 1.0 - 1e-10), tol=1e-12, max_iter=500000)
        la = fit_elastic_net(dm, PenaltySpec(lam, 1.0), tol=1e-12, max_iter=500000)
        worst_l = max(worst_l, float(np.max(np.abs(en1.coefficients - la.coefficients))))
        en0 = fit_elastic_net(dm, PenaltySpec(lam, 1e-10), tol=1e-12, max_iter=500000)
        ri = fit_elastic_net(dm, PenaltySpec(lam, 0.0))
        assert en0.diagnostics["iterations"] > 0 == ri.diagnostics["iterations"]
        worst_r = max(worst_r, float(np.max(np.abs(en0.coefficients - ri.coefficients))))
    assert worst_l < 1e-8
    assert worst_r < 1e-8
    _report(
        3,
        f"20-point grid: max |alpha=1-1e-10 - lasso| = {worst_l:.2e}, "
        f"max |alpha=1e-10 - ridge| = {worst_r:.2e} (both < 1e-8)",
    )


def test_criterion_4_penalty_family_ordering_on_panel_benchmark():
    t0 = time.perf_counter()
    spec = testkit.SyntheticSpec(
        n_entities=46, n_periods=20, n_features=16, n_clusters=4,
        noise_sd=0.02, seed=1234,
    )
    panel, _ = testkit.generate_panel(spec)
    split = SplitSpec(tuple(panel.periods[:15]), tuple(panel.periods[15:]), cv_folds=5)
    train, test = chronological_split(panel, split)
    assert train.n_obs == 690 and test.n_obs == 230

    common = dict(transform=TransformSpec(), eps=0.1, min_pts=4)
    dense = tuple(float(v) for v in np.logspace(-4, -1, 20))
    ridge = run_dpr(
        panel,
        DprConfig(penalty_kind="ridge", lambda_grid=(0.1, 0.25, 0.5, 1.0, 2.35), **common),
        split,
    )
    lasso = run_dpr(panel, DprConfig(penalty_kind="lasso", lambda_grid=dense, **common), split)
    enet = run_dpr(
        panel,
        DprConfig(penalty_kind="elastic_net", lambda_grid=dense,
                  alpha_grid=(0.3, 0.5, 1.0), **common),
        split,
    )
    r2 = {k: rep.metrics["train"]["r2"] for k, rep in
          (("ridge", ridge), ("lasso", lasso), ("enet", enet))}
    assert r2["ridge"] < r2["lasso"] <= r2["enet"]
    assert r2["enet"] >= 0.999
    sparsity = lasso.metrics["train"]["sparsity"]
    assert sparsity < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        4,
        f"R2 ridge {r2['ridge']:.4f} < lasso {r2['lasso']:.6f} <= "
        f"elastic net {r2['enet']:.6f} (>= 0.999), lasso keeps "
        f"{sparsity:.0%} of columns ({elapsed:.1f}s)",
    )


def test_criterion_5_parameter_scan_recovers_planted_clusters():
    spec = testkit.SyntheticSpec(
        n_entities=18, n_periods=10, n_features=8, n_clusters=6,
        mix_jitter=0.01, seed=777,
    )
    panel, truth = testkit.generate_panel(spec)
    split = SplitSpec(tuple(panel.periods[:8]), tuple(panel.periods[8:]), cv_folds=4)
    train, _ = chronological_split(panel, split)
    train_rows = np.flatnonzero(
        np.isin(panel.period_idx, [panel.periods.index(p) for p in split.train_periods])
    )
    mix, _ = energy_mix_features(train)
    rows = scan_params(mix, (0.03, 0.05, 0.1, 0.15, 0.2), (3, 4, 5))
    best = suggest_params(rows)
    assert best is not None
    model = dbscan(mix, DbscanParams(eps=best.params.eps, min_pts=best.params.min_pts))
    ari = testkit.adjusted_rand_index(truth.labels[train_rows], model.labels)
    assert ari >= 0.9
    _report(
        5,
        f"scan chose eps={best.params.eps} minPts={best.params.min_pts} -> k={model.k}, "
        f"ARI {ari:.3f} >= 0.9 against the planted partition",
    )


def _perturb_test_rows(panel: PanelDataset, test_periods) -> PanelDataset:
    test_idx = {panel.periods.index(p) for p in test_periods}
    mask = np.isin(panel.period_idx, list(test_idx))
    features = panel.features.copy()
    targets = panel.targets.copy()
    features[mask] *= 1.37
    targets[mask] *= 1.21
    return PanelDataset(
        entities=panel.entities, periods=panel.periods,
        feature_names=panel.feature_names, entity_idx=panel.entity_idx,
        period_idx=panel.period_idx, features=features, targets=targets,
    )


def test_criterion_6_no_leakage_and_byte_reproducibility(tmp_path):
    spec = testkit.SyntheticSpec(
        n_entities=12, n_periods=10, n_features=6, n_clusters=3, seed=606
    )
    panel, _ = testkit.generate_panel(spec)
    split = SplitSpec(tuple(panel.periods[:8]), tuple(panel.periods[8:]), cv_folds=4)
    config = DprConfig(
        transform=TransformSpec(),
        eps=0.15,
        min_pts=3,
        penalty_kind="elastic_net",
        lambda_grid=tuple(float(v) for v in np.logspace(-4, -1, 8)),
        alpha_grid=(0.5, 1.0),
    )

    dirs = {}
    for name, data in (
        ("base1", panel),
        ("base2", panel),
        ("perturbed", _perturb_test_rows(panel, split.test_periods)),
    ):
        report = run_dpr(data, config, split)
        out = tmp_path / name
        write_report(report, out)
        dirs[name] = out

    # identical input -> identical bytes, every file
    for path in sorted(dirs["base1"].iterdir()):
        assert (dirs["base2"] / path.name).read_bytes() == path.read_bytes(), path.name

    # perturbing only test-period rows leaves every training artifact alone
    train_only = ["cv_table.csv", "coefficients.csv", "fitted.csv", "model.json"]
    for name in train_only:
        a = (dirs["base1"] / name).read_bytes()
        b = (dirs["perturbed"] / name).read_bytes()
        assert a == b, f"{name} changed when test rows were perturbed"
    n_train_lines = 1 + 12 * 8
    a_lines = (dirs["base1"] / "clusters.csv").read_text().splitlines()
    b_lines = (dirs["perturbed"] / "clusters.csv").read_text().splitlines()
    assert a_lines[:n_train_lines] == b_lines[:n_train_lines]
    s_a = json.loads((dirs["base1"] / "summary.json").read_text())
    s_b = json.loads((dirs["perturbed"] / "summary.json").read_text())
    for key in ("chosen", "clustering", "fit"):
        assert s_a[key] == s_b[key]
    assert s_a["metrics"]["train"] == s_b["metrics"]["train"]
    assert s_a["metrics"]["validation"] == s_b["metrics"]["validation"]
    assert s_a["metrics"]["test"] != s_b["metrics"]["test"]
    _report(
        6,
        "reruns byte-identical; test-row perturbation left cv/coefficient/"
        "fitted/model artifacts and train metrics untouched",
    )


def _intercept_only_model(level: float) -> FittedModel:
    return FittedModel(
        intercept=level,
        coefficients=np.array([0.0]),
        penalty=PenaltySpec(lam=0.1, alpha=0.0),
        column_names=["f"],
        column_means=np.array([0.0]),
        column_stds=np.array([1.0]),
        zero_variance=np.array([False]),
        diagnostics={},
    )


def _panel_from_log_targets(log_targets, offset=1.0) -> PanelDataset:
    n = len(log_targets)
    return PanelDataset(
        entities=["E"], periods=list(range(2000, 2000 + n)),
        feature_names=["f"],
        entity_idx=np.zeros(n, dtype=np.intp),
        period_idx=np.arange(n, dtype=np.intp),
        features=np.full((n, 1), 3.0),
        targets=np.array([math.exp(v) - offset for v in log_targets]),
    )


def test_criterion_7_forecast_error_arithmetic():
    # single row with the documented actual/predicted pair
    actual, predicted = 5.61789, 5.86215
    res = forecast_report(
        _intercept_only_model(predicted),
        _panel_from_log_targets([actual]),
        TransformSpec(),
        labels=np.zeros(1),
    )
    rel_pct = res.relative_error[0] * 100.0
    assert abs(rel_pct - 27.67) < 0.01
    assert abs(res.mean_error - (predicted - actual)) < 1e-10
    assert res.error_variance == 0.0

    # two rows engineered to log errors 0.1 and 0.3
    level = 4.0
    res2 = forecast_report(
        _intercept_only_model(level),
        _panel_from_log_targets([level - 0.1, level - 0.3]),
        TransformSpec(),
        labels=np.zeros(2),
    )
    assert abs(res2.mean_error - 0.2) < 1e-10
    assert abs(res2.error_variance - 0.01) < 1e-10
    _report(
        7,
        f"relative error {rel_pct:.4f}% (27.67 +- 0.01), mean log error and "
        "population variance reproduce hand values to 1e-10",
    )


def test_criterion_8_metric_edge_cases():
    y = np.array([0.4, 1.9, 2.2, 3.3])
    assert metric_r2(y, y.copy()) == 1.0
    assert metric_r2(y, np.full(4, y.mean())) == 0.0
    assert metric_sparsity(np.zeros(7)) == 0.0
    assert metric_sparsity(np.full(7, 0.2)) == 1.0

    # an overwhelming penalty really does zero every coefficient
    rng = np.random.default_rng(8008)
    X = rng.normal(size=(40, 5))
    yv = X @ rng.normal(size=5) + rng.normal(size=40)
    model = fit_elastic_net(standardize(X, yv), PenaltySpec(1e6, 1.0))
    assert metric_sparsity(model) == 0.0
    assert np.all(model.coefficients == 0.0)
    assert model.intercept == pytest.approx(yv.mean())
    _report(
        8,
        "R2 is 1 for perfect and 0 for mean prediction; sparsity 0 for the "
        "all-zero fit and 1 for a dense vector",
    )
