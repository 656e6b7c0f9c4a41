import math

import numpy as np
import pytest

from dprkit import testkit
from dprkit.clustering import DbscanParams, dbscan
from dprkit.errors import ValidationError
from dprkit.panel import PanelDataset
from dprkit.regression import PenaltySpec, enet_objective, fit_elastic_net, standardize
from dprkit.testkit import GroundTruth, SyntheticSpec, adjusted_rand_index, generate_panel
from oracles import brute_force_dbscan, kkt_residuals, reference_objective_min


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


def _row_by_row_reference(spec):
    """generate_panel as one loop over rows, each drawing its own random numbers."""
    rng = np.random.default_rng(spec.seed)
    k, p = spec.n_clusters, spec.n_features
    if spec.mix_profiles is None:
        profiles = testkit._default_profiles(k, p)
    else:
        profiles = np.asarray(spec.mix_profiles, dtype=np.float64)
        profiles = profiles / profiles.sum(axis=1, keepdims=True)
    if spec.true_coefficients is None:
        w = np.zeros(p)
        w[0] = 0.9
        if p > 2:
            w[2] = 0.4
        elif p > 1:
            w[1] = 0.4
    else:
        w = np.asarray(spec.true_coefficients, dtype=np.float64)
    offsets = np.linspace(0.0, spec.offset_scale, k) if k > 1 else np.zeros(1)
    entity_labels = np.arange(spec.n_entities) % k
    rows = spec.n_entities * spec.n_periods
    features = np.empty((rows, p))
    targets = np.empty(rows)
    entity_idx = np.empty(rows, dtype=np.intp)
    period_idx = np.empty(rows, dtype=np.intp)
    labels = np.empty(rows, dtype=np.intp)
    r = 0
    with np.errstate(over="ignore", invalid="ignore"):
        entity_scale = spec.scale_base * np.exp(rng.normal(0.0, spec.scale_sd, spec.n_entities))
        for e in range(spec.n_entities):
            c = int(entity_labels[e])
            for t in range(spec.n_periods):
                mix = profiles[c] + rng.normal(0.0, spec.mix_jitter, p)
                mix = np.abs(mix)
                total = mix.sum()
                mix = mix / total if total > 0 else profiles[c]
                try:
                    growth = (1.0 + spec.trend) ** t
                except OverflowError:
                    growth = math.inf
                scale = entity_scale[e] * growth * math.exp(rng.normal(0.0, 0.05))
                x = mix * scale
                feature_term = float(w @ np.log(x + 1.0))
                log_level = (spec.base_level + feature_term + float(offsets[c])
                             + rng.normal(0.0, spec.noise_sd))
                if not log_level <= testkit._MAX_LOG:
                    raise ValidationError(testkit._overflow(spec.base_level, offsets[c],
                                                            feature_term))
                features[r] = x
                targets[r] = math.exp(log_level) - 1.0
                entity_idx[r] = e
                period_idx[r] = t
                labels[r] = c
                r += 1
    data = PanelDataset(
        entities=[f"E{e:03d}" for e in range(spec.n_entities)],
        periods=[2000 + t for t in range(spec.n_periods)],
        feature_names=[f"f{j:02d}" for j in range(p)],
        entity_idx=entity_idx, period_idx=period_idx, features=features, targets=targets,
    )
    return data, GroundTruth(labels=labels, entity_labels=entity_labels, coefficients=w,
                             offsets=offsets, base_level=spec.base_level)


def _panel_bytes(data, truth):
    arrays = (data.features, data.targets, data.entity_idx, data.period_idx, truth.labels,
              truth.entity_labels, truth.coefficients, truth.offsets)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
            + [data.entities, data.periods, data.feature_names, truth.base_level])


# 60 x 20 rows are two blocks of whole entities, the first holding entities 0-50; at
# this trend the first row that overflows belongs to an entity of the second
_SECOND_BLOCK_OVERFLOW = dict(n_entities=60, n_periods=20, n_clusters=1, seed=8,
                              scale_sd=2.0, trend=1.98e12)


@pytest.mark.parametrize("block_rows", [testkit.BLOCK_ROWS, 5])
@pytest.mark.parametrize("spec", [
    dict(),
    dict(seed=3),
    dict(n_entities=46, n_periods=20, n_features=17, n_clusters=16, seed=1),  # the paper's shape
    dict(n_entities=60, n_periods=20, n_features=9, n_clusters=4),  # 1,020 + 180 rows
    dict(n_entities=2, n_periods=testkit.BLOCK_ROWS + 3, n_features=3, n_clusters=2),
    dict(n_entities=7, n_periods=5, n_features=1, n_clusters=2),
    dict(n_entities=7, n_periods=5, n_features=4, n_clusters=1),
    dict(mix_jitter=0.0),
    dict(noise_sd=0.0),
    dict(scale_sd=0.0, trend=-0.5),
    dict(n_features=3, n_clusters=2, mix_profiles=((1, 0, 0), (0, 0.5, 0.5)),
         true_coefficients=(0.1, -0.2, 0.3)),
    dict(n_features=2, n_clusters=2, mix_profiles=((0, 1), (1, 0)), mix_jitter=0.0),
], ids=["default", "seed3", "paper", "two-blocks", "long-entities", "p1", "k1",
        "no-jitter", "no-noise", "shrinking", "custom", "zero-profile-shares"])
def test_generate_panel_matches_the_row_by_row_reference(spec, block_rows, monkeypatch):
    spec = SyntheticSpec(**spec)
    want = _panel_bytes(*_row_by_row_reference(spec))
    monkeypatch.setattr(testkit, "BLOCK_ROWS", block_rows)
    assert _panel_bytes(*generate_panel(spec)) == want


@pytest.mark.parametrize("spec, term", [
    (dict(base_level=800.0), "base_level"),
    (dict(offset_scale=800.0), "offset_scale"),
    (dict(trend=1e6, n_periods=60), "scale_base or trend"),
    (_SECOND_BLOCK_OVERFLOW, "scale_base or trend"),
    # the first row to overflow names its feature term, later ones the offset
    (dict(n_entities=4, n_periods=3, n_clusters=2, offset_scale=707.0, scale_sd=300.0, seed=13),
     "scale_base or trend"),
], ids=["base-level", "offset-scale", "trend", "trend-second-block", "first-row-of-two-terms"])
def test_generate_panel_overflow_message_matches_the_row_by_row_reference(spec, term):
    spec = SyntheticSpec(**spec)
    message = f"synthetic target overflows the float range; lower {term}"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _row_by_row_reference(spec)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        generate_panel(spec)


def test_the_second_block_overflow_spec_passes_its_first_block():
    first_block = testkit.BLOCK_ROWS // _SECOND_BLOCK_OVERFLOW["n_periods"]
    assert first_block < _SECOND_BLOCK_OVERFLOW["n_entities"]
    spec = SyntheticSpec(**{**_SECOND_BLOCK_OVERFLOW, "n_entities": first_block})
    assert _panel_bytes(*generate_panel(spec)) == _panel_bytes(*_row_by_row_reference(spec))
