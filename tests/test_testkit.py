import numpy as np
import pytest

from dprkit.clustering import DbscanParams, dbscan
from dprkit.errors import ValidationError
from dprkit.regression import PenaltySpec, enet_objective, fit_elastic_net, standardize
from dprkit.testkit import (
    SyntheticSpec,
    adjusted_rand_index,
    brute_force_dbscan,
    generate_panel,
    kkt_residuals,
    reference_objective_min,
)


def test_ari_hand_cases():
    a = np.array([0, 0, 1, 1])
    assert adjusted_rand_index(a, a) == 1.0
    assert adjusted_rand_index(a, np.array([1, 1, 0, 0])) == 1.0
    assert adjusted_rand_index(a, np.array([5, 5, 9, 9])) == 1.0
    # maximally crossed 2x2: index -0.5
    assert adjusted_rand_index(a, np.array([0, 1, 0, 1])) == pytest.approx(-0.5)
    assert adjusted_rand_index(np.arange(4), np.arange(4)) == 1.0
    assert adjusted_rand_index(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == 1.0


def test_ari_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        adjusted_rand_index(np.array([0, 1]), np.array([0, 1, 2]))


def test_brute_dbscan_matches_production_on_randoms():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        pts = rng.uniform(-3, 3, size=(n, 2))
        params = DbscanParams(
            eps=float(rng.uniform(0.3, 2.0)), min_pts=int(rng.integers(2, 5))
        )
        np.testing.assert_array_equal(
            brute_force_dbscan(pts, params), dbscan(pts, params).labels
        )


def test_reference_minimizer_on_analytic_lasso():
    # X = [1, -1]', y = [1, -1]: objective (1-b)^2 + lam|b|, minimum 1 - lam/2
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    for lam in (0.1, 0.5, 1.0):
        b0, beta, obj = reference_objective_min(
            X, y, PenaltySpec(lam=lam, alpha=1.0)
        )
        assert beta[0] == pytest.approx(1.0 - lam / 2, abs=1e-5)
        assert b0 == pytest.approx(0.0, abs=1e-6)
        expected = (1.0 - beta[0]) ** 2 + lam * abs(beta[0])
        assert obj == pytest.approx(expected, abs=1e-10)


def test_reference_minimizer_tracks_production_fit():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, 0.0, -0.5]) + 0.05 * rng.normal(size=30)
    dm = standardize(X, y)
    model = fit_elastic_net(dm, PenaltySpec(0.08, 1.0), tol=1e-12)
    ours = enet_objective(dm.X, dm.y, model.intercept, model.coefficients, 0.08, 1.0)
    _, _, ref = reference_objective_min(dm.X, dm.y, PenaltySpec(lam=0.08, alpha=1.0))
    assert abs(ours - ref) < 1e-6


def test_kkt_residuals_flag_a_wrong_solution():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(40, 4))
    y = X @ np.array([2.0, 0.0, 0.0, -1.0]) + 0.01 * rng.normal(size=40)
    dm = standardize(X, y)
    lam, alpha = 0.05, 1.0
    model = fit_elastic_net(dm, PenaltySpec(lam, 1.0), tol=1e-12)
    g, bound = kkt_residuals(dm.X, dm.y, model.intercept, model.coefficients, lam, alpha)
    assert np.all(np.abs(g) <= bound + 1e-8)
    # perturbing one coefficient breaks stationarity
    bad = model.coefficients.copy()
    bad[0] += 0.05
    g_bad, _ = kkt_residuals(dm.X, dm.y, model.intercept, bad, lam, alpha)
    assert np.max(np.abs(g_bad)) > bound + 1e-3


def test_generate_panel_is_deterministic_and_positive():
    spec = SyntheticSpec(n_entities=6, n_periods=5, n_features=4, n_clusters=2, seed=42)
    p1, t1 = generate_panel(spec)
    p2, t2 = generate_panel(spec)
    assert p1 == p2
    np.testing.assert_array_equal(t1.labels, t2.labels)
    assert np.all(p1.targets > 0)
    assert np.all(p1.features >= 0)
    assert p1.n_obs == 30
    assert t1.labels.shape == (30,)
    assert set(t1.entity_labels) == {0, 1}


def test_generate_panel_cluster_mixes_are_separable():
    spec = SyntheticSpec(
        n_entities=12, n_periods=6, n_features=6, n_clusters=3, seed=1, mix_jitter=0.01
    )
    panel, truth = generate_panel(spec)
    shares = panel.features / panel.features.sum(axis=1, keepdims=True)
    for c in range(3):
        own = shares[truth.labels == c]
        other = shares[truth.labels != c]
        centroid = own.mean(axis=0)
        d_own = np.linalg.norm(own - centroid, axis=1).max()
        d_other = np.linalg.norm(other - centroid, axis=1).min()
        assert d_other > 3 * d_own


def test_synthetic_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(n_clusters=0)
    with pytest.raises(ValidationError):
        SyntheticSpec(n_entities=2, n_clusters=3)
    with pytest.raises(ValidationError):
        SyntheticSpec(noise_sd=-1.0)
