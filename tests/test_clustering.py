import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from dprkit.clustering import (
    NOISE,
    DbscanParams,
    _row_distances,
    _silhouette_from_distances,
    assign_by_nearest_core,
    dbscan,
    k_distance_profile,
    pairwise_distances,
    scan_params,
    sse,
    suggest_params,
)
from dprkit.errors import ValidationError
from dprkit.testkit import adjusted_rand_index
from oracles import brute_force_dbscan


def _col(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def _assign(train, model, new):
    # the fitted clustering's core rows, in training row order
    core = model.core_mask
    return assign_by_nearest_core(train[core], model.labels[core], model.params.eps, new)


def test_two_blobs_and_far_noise():
    pts = _col([0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 55.0])
    model = dbscan(pts, DbscanParams(eps=0.5, min_pts=3))
    assert model.k == 2
    np.testing.assert_array_equal(model.labels, [0, 0, 0, 1, 1, 1, NOISE])
    assert model.n_noise == 1
    # ids follow first row occurrence even if we reverse the blobs
    rev = dbscan(pts[::-1].copy(), DbscanParams(eps=0.5, min_pts=3))
    np.testing.assert_array_equal(rev.labels, [NOISE, 0, 0, 0, 1, 1, 1])


def test_closed_neighborhood_counts_self_and_boundary():
    # exactly eps apart: closed ball keeps both, so minPts=2 makes a pair a cluster
    pts = _col([0.0, 1.0])
    model = dbscan(pts, DbscanParams(eps=1.0, min_pts=2))
    assert model.k == 1
    np.testing.assert_array_equal(model.labels, [0, 0])
    np.testing.assert_array_equal(_row_distances(pts, pts[0]) <= 1.0, [True, True])


def test_strict_core_rule_needs_one_more_neighbor():
    # "more than m points" is the one core rule at min_pts = m + 1
    pts = _col([0.0, 0.0])
    lax = dbscan(pts, DbscanParams(eps=0.5, min_pts=2))
    strict = dbscan(pts, DbscanParams(eps=0.5, min_pts=3))
    assert lax.k == 1
    assert strict.k == 0
    np.testing.assert_array_equal(strict.labels, [NOISE, NOISE])


def test_border_point_goes_to_smallest_claiming_core():
    # two clusters of four cores each; the point at 8 is within eps of exactly
    # one core on each side (distances exactly 5), too sparse to be core itself
    a = [0.0, 1.0, 2.0, 3.0]
    b = [13.0, 14.0, 15.0, 16.0]
    border = [8.0]
    params = DbscanParams(eps=5.0, min_pts=4)

    pts = _col(a + b + border)
    model = dbscan(pts, params)
    assert model.k == 2
    assert not model.core_mask[8]
    assert model.labels[8] == model.labels[3]  # claimant rows are 3 and 4; 3 wins

    pts2 = _col(b + a + border)
    model2 = dbscan(pts2, params)
    assert model2.k == 2
    # claimants are now rows 0 (13.0) and 7 (3.0); row 0 wins this time
    assert model2.labels[8] == model2.labels[0]
    assert model2.labels[8] != model2.labels[7]


def test_brute_force_oracle_agrees_on_border_case():
    pts = _col([13.0, 14.0, 15.0, 16.0, 0.0, 1.0, 2.0, 3.0, 8.0])
    params = DbscanParams(eps=5.0, min_pts=4)
    np.testing.assert_array_equal(
        dbscan(pts, params).labels, brute_force_dbscan(pts, params)
    )


def test_row_permutation_preserves_partition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        centers = rng.uniform(-20, 20, size=(3, 2))
        pts = np.vstack([c + rng.normal(scale=0.3, size=(12, 2)) for c in centers])
        params = DbscanParams(eps=1.2, min_pts=4)
        base = dbscan(pts, params)
        perm = rng.permutation(pts.shape[0])
        shuffled = dbscan(pts[perm], params)
        assert adjusted_rand_index(base.labels[perm], shuffled.labels) == 1.0
        np.testing.assert_array_equal(
            base.labels[perm] == NOISE, shuffled.labels == NOISE
        )


def test_pairwise_distances_exact_for_coincident_points():
    pts = np.array([[1.7, 2.9], [1.7, 2.9], [5.0, 1.0]])
    d = squareform(pairwise_distances(pts))
    assert d[0, 1] == 0.0
    assert d[0, 0] == 0.0
    np.testing.assert_allclose(d, d.T)


def _sequential_distance(a, b):
    # the clustering layer's one formula, one float at a time
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        acc += (x - y) * (x - y)
    return math.sqrt(acc)


_SCALES = st.sampled_from([1e-3, 1.0, 1e3])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), p=st.integers(1, 24),
       scale=_SCALES)
def test_pairwise_distances_sum_squares_in_column_order(seed, n, p, scale):
    pts = np.random.default_rng(seed).normal(size=(n, p)) * scale
    D = squareform(pairwise_distances(pts))
    ref = np.array([[_sequential_distance(a, b) for b in pts] for a in pts])
    np.testing.assert_array_equal(
        D, ref, err_msg="pairwise_distances no longer sums squared differences in "
        "column order (has scipy's pdist changed its summation?)"
    )
    np.testing.assert_array_equal(D, D.T)
    assert not D.diagonal().any()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 24), scale=_SCALES,
       min_pts=st.integers(3, 8))
def test_a_tie_at_exactly_eps_off_the_lattice(seed, p, scale, min_pts):
    # a tight blob of 8 rows and one outlier; eps is the outlier's computed
    # distance to its nearest blob row, so that row claims it at exactly eps
    rng = np.random.default_rng(seed)
    blob = rng.normal(size=(8, p)) * 0.02
    away = rng.normal(size=p)
    pts = np.vstack([blob, blob.mean(axis=0) + away / np.linalg.norm(away)]) * scale
    order = rng.permutation(pts.shape[0])
    pts = pts[order]
    out = int(np.flatnonzero(order == 8)[0])
    D = squareform(pairwise_distances(pts))
    others = np.flatnonzero(np.arange(pts.shape[0]) != out)
    near = int(others[np.argmin(D[out, others])])
    eps = float(D[out, near])
    params = DbscanParams(eps=eps, min_pts=min_pts)

    model = dbscan(pts, params)
    np.testing.assert_array_equal(model.labels, brute_force_dbscan(pts, params))
    assert model.core_mask[near] and not model.core_mask[out]
    assert model.labels[out] == model.labels[near] != NOISE
    within = _row_distances(pts, pts[out]) <= eps
    assert set(np.flatnonzero(within).tolist()) == {out, near}
    # the same point as a new row: its nearest core sits at exactly eps
    new = pts[[out]].copy()
    np.testing.assert_array_equal(_assign(pts, model, new),
                                  [model.labels[near]])


def _silhouette(pts, labels):
    # the formula that scores every scan cell, on canonical labels of two or more clusters
    return _silhouette_from_distances(pairwise_distances(pts), labels, int(labels.max()) + 1)


def test_silhouette_perfect_and_degenerate():
    # two tight pairs far apart: a=0, b large, s=1 for every point
    pts = _col([0.0, 0.0, 100.0, 100.0])
    labels = np.array([0, 0, 1, 1])
    assert _silhouette(pts, labels) == 1.0
    # everything coincident: a=b=0 -> s defined as 0
    pts2 = _col([3.0, 3.0, 3.0, 3.0])
    assert _silhouette(pts2, labels) == 0.0


def test_singleton_cluster_scores_zero():
    pts = _col([0.0, 0.1, 50.0])
    labels = np.array([0, 0, 1])
    sc = _silhouette(pts, labels)
    a01 = 0.1
    b0 = 50.0
    b1 = 49.9
    expected = ((b0 - a01) / b0 + ((50.0 - 0.1) - a01) / (50.0 - 0.1) + 0.0) / 3
    assert abs(sc - expected) < 1e-12


def _silhouette_by_loop(pts, labels):
    # the definition, one point at a time, on the square matrix
    D = squareform(pairwise_distances(pts))
    ids = sorted(set(labels.tolist()) - {NOISE})
    scores = []
    for i in np.flatnonzero(labels != NOISE):
        own = (labels == labels[i]) & (np.arange(labels.size) != i)
        if not own.any():
            scores.append(0.0)
            continue
        a = D[i, own].mean()
        b = min(D[i, labels == c].mean() for c in ids if c != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


# blocks of 1 and 3 rows, and one block for all 22 rows
@pytest.mark.parametrize("rows", [1, 3, None])
def test_silhouette_adds_the_upper_triangle_and_its_transpose(rows, monkeypatch):
    from dprkit import clustering

    if rows is not None:
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", rows)
    pts = _lattice_with_ties()
    # 7 clusters of one to six rows (singletons score 0); 4 clusters and 6 noise
    # rows; 3 clusters and 3 noise rows; 2 clusters
    for params in (DbscanParams(0.5, 1), DbscanParams(0.5, 4), DbscanParams(1.5, 2),
                   DbscanParams(2.5, 4)):
        model = dbscan(pts, params)
        assert abs(model.sc - _silhouette_by_loop(pts, model.labels)) < 1e-12


def test_model_sc_none_until_meaningful():
    pts = _col([0.0, 0.1, 0.2, 9.0])
    one = dbscan(pts, DbscanParams(eps=0.5, min_pts=2))
    assert one.k == 1 and one.sc is None
    two = dbscan(_col([0.0, 0.1, 9.0, 9.1]), DbscanParams(eps=0.5, min_pts=2))
    assert two.k == 2 and two.sc is not None


def test_sse_hand_value_and_noise_exclusion():
    pts = _col([0.0, 2.0, 77.0])
    labels = np.array([0, 0, NOISE])
    # centroid 1.0, squared distances 1 + 1; noise adds nothing
    assert sse(pts, labels) == 2.0


def test_sse_never_increases_when_a_cluster_splits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(30, 3))
        single = np.zeros(30, dtype=int)
        cut = pts[:, 0] > np.median(pts[:, 0])
        split = cut.astype(int)
        assert sse(pts, split) <= sse(pts, single) + 1e-12


def test_k_distance_profile_hand_case():
    pts = _col([0.0, 1.0, 3.0])
    np.testing.assert_allclose(k_distance_profile(pts, 1), [2.0, 1.0, 1.0])
    np.testing.assert_allclose(k_distance_profile(pts, 2), [3.0, 3.0, 2.0])


@pytest.mark.parametrize("k", [2.5, math.inf, math.nan, 0, 3])
def test_k_distance_profile_rejects_a_bad_k(k):
    # 3 is n: a point has only n - 1 neighbours
    with pytest.raises(ValidationError, match="^k must be"):
        k_distance_profile(_col([0.0, 1.0, 3.0]), k)


def test_scan_matches_single_runs_and_suggests_max_sc():
    rng = np.random.default_rng(2)
    pts = np.vstack([
        rng.normal(0, 0.1, size=(10, 2)),
        rng.normal(5, 0.1, size=(10, 2)),
    ])
    eps_grid = [0.2, 0.5, 1.0]
    minpts_grid = [2, 4]
    rows = scan_params(pts, eps_grid, minpts_grid)
    assert len(rows) == 6
    for row in rows:
        solo = dbscan(pts, DbscanParams(eps=row.params.eps, min_pts=row.params.min_pts))
        assert row.k == solo.k
        assert row.sse == solo.sse
        assert (row.sc is None) == (solo.sc is None)
        if row.sc is not None:
            assert abs(row.sc - solo.sc) < 1e-15
        np.testing.assert_array_equal(row.labels, solo.labels)
        np.testing.assert_array_equal(row.core_mask, solo.core_mask)
    best = suggest_params(rows)
    defined = [r for r in rows if r.sc is not None]
    assert best.sc == max(r.sc for r in defined)
    # first cell on ties: scan order is eps-major
    ties = [r for r in defined if r.sc == best.sc]
    assert (best.params.eps, best.params.min_pts) == (ties[0].params.eps, ties[0].params.min_pts)


def test_assign_by_nearest_core():
    train = _col([0.0, 0.2, 10.0, 10.2, 30.0])
    model = dbscan(train, DbscanParams(eps=0.5, min_pts=2))
    assert model.k == 2
    new = _col([0.3, 9.8, 15.0, 30.0])
    labels = _assign(train, model, new)
    np.testing.assert_array_equal(labels, [0, 1, NOISE, NOISE])
    # dead-center tie between cores of different clusters: smaller core row wins
    train2 = _col([0.0, 4.0, 10.0, 14.0])
    model2 = dbscan(train2, DbscanParams(eps=5.0, min_pts=2))
    assert model2.k == 2
    tie = _assign(train2, model2, _col([7.0]))
    assert tie[0] == model2.labels[1]  # distance 3 to rows 1 and 2; row 1 first
    assert tie[0] == 0


def test_randomized_against_brute_oracle_quick():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 4))
        pts = np.round(rng.uniform(-4, 4, size=(n, d)), 1)
        if n > 6:  # force duplicates so tie handling is exercised
            pts[n // 2] = pts[0]
        dist = squareform(pairwise_distances(pts))
        eps = float(np.quantile(dist[dist > 0], 0.2)) if (dist > 0).any() else 0.5
        params = DbscanParams(
            eps=eps,
            # the second draw once chose the strict rule, which is min_pts + 1
            min_pts=int(rng.integers(2, 6)) + int(rng.integers(0, 2)),
        )
        np.testing.assert_array_equal(
            dbscan(pts, params).labels, brute_force_dbscan(pts, params)
        )


def test_params_validation():
    with pytest.raises(ValidationError):
        DbscanParams(eps=-1.0, min_pts=2)
    with pytest.raises(ValidationError):
        DbscanParams(eps=1.0, min_pts=0)


@pytest.mark.parametrize("eps", ["0.1", None, [0.1], math.nan, math.inf, 0, -1, True, np.True_])
def test_a_bad_eps_is_a_validation_error(eps):
    with pytest.raises(ValidationError, match="^eps must be finite and > 0, got "):
        DbscanParams(eps=eps, min_pts=2)


@pytest.mark.parametrize("eps", ["0.1", None, ["x"], [None]])
def test_every_eps_entry_point_raises_the_params_error(eps):
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0]])
    calls = [lambda: DbscanParams(eps=eps, min_pts=2),
             lambda: scan_params(pts, eps if isinstance(eps, list) else [eps], [2])]
    for call in calls:
        with pytest.raises(ValidationError, match="^eps must be finite and > 0, got "):
            call()


@pytest.mark.parametrize("eps", [1, np.int64(1), np.float32(0.5), 0.5])
def test_eps_is_stored_as_a_float(eps):
    params = DbscanParams(eps=eps, min_pts=2)
    assert type(params.eps) is float and params.eps == eps


def _lattice_with_ties():
    # multiples of 0.5 with repeated rows; 3-4-5 offsets make 2.5 an exact
    # distance, so eps values below land exactly on pairwise distances
    xy = [(0, 0), (0, 0), (0.5, 0), (1, 0), (1.5, 0), (1.5, 2), (3, 0), (3, 0),
          (3.5, 0), (4, 0), (4, 0.5), (4, 1), (6.5, 0), (7, 0), (7, 0), (7.5, 0),
          (9, 2), (10.5, 4), (12, 6), (12.5, 6), (13, 6), (13, 6)]
    return np.asarray(xy, dtype=np.float64)


def _core_by_count(pts, params):
    # closed eps-ball counts, the point itself included, straight off the matrix
    counts = (squareform(pairwise_distances(pts)) <= params.eps).sum(axis=1)
    return counts >= params.min_pts


def _assert_cell_matches_its_run_and_oracle(pts, cell):
    solo = dbscan(pts, cell.params)
    assert (cell.k, cell.sc, cell.sse) == (solo.k, solo.sc, solo.sse)
    np.testing.assert_array_equal(cell.labels, solo.labels)
    np.testing.assert_array_equal(cell.labels, brute_force_dbscan(pts, cell.params))
    np.testing.assert_array_equal(cell.core_mask, solo.core_mask)
    np.testing.assert_array_equal(cell.core_mask, _core_by_count(pts, cell.params))


def _assert_cells_match_per_cell_runs_and_oracle(pts, eps_grid, minpts_grid):
    for strict in (0, 1):  # a strict rule is min_pts + 1
        for cell in scan_params(pts, eps_grid, [m + strict for m in minpts_grid]):
            _assert_cell_matches_its_run_and_oracle(pts, cell)


def test_shared_pair_list_matches_per_cell_runs_and_oracle():
    _assert_cells_match_per_cell_runs_and_oracle(
        _lattice_with_ties(), [0.5, 1.0, 1.5, 2.5], [1, 2, 3, 4])


def test_scan_merges_through_a_point_that_turns_core_and_a_border_claim():
    # A: four rows at the origin; B: a core at (3, 0) with three rows below it.
    # P is 1.5 from A and from B's core: noise at eps 1, core at eps 1.5, where
    # it joins A and B.  R is exactly 1 above B's core and 1.5 from the row
    # below it: a border point at both eps, claimed by a core merged with A.
    pts = np.array([(0, 0)] * 4 + [(3, 0), (3, -0.5), (3, -0.75), (3, -1),
                                   (1.5, 0), (3, 1)], dtype=np.float64)
    p, r, b = 8, 9, 4
    small, large = (dbscan(pts, DbscanParams(eps, 4)) for eps in (1.0, 1.5))
    assert small.k == 2 and small.labels[p] == NOISE and small.labels[r] == small.labels[b]
    assert large.k == 1 and large.core_mask[p] and not large.core_mask[r]
    assert large.labels[r] == large.labels[0]
    _assert_cells_match_per_cell_runs_and_oracle(pts, [1.5, 1.0], [4, 3])
    _assert_cells_match_per_cell_runs_and_oracle(pts, [1.5, 1.0], [4, 3, 7])


def _pairs_by_triu(D, low, radius):
    # the whole upper triangle at once, no row blocks
    r, c = np.nonzero(np.triu((D > low) & (D <= radius), 1))
    return r.astype(np.int32), c.astype(np.int32)


def _assert_pairs(D, radii):
    from dprkit.clustering import _pairs_within

    n = D.shape[0]
    # the condensed vector is the upper triangle, row by row
    i, j, ends = _pairs_within(D[np.triu_indices(n, 1)], n, radii)
    assert i.dtype == j.dtype == np.int32 and ends.size == len(radii)
    # each radius adds the pairs beyond the last one, in row-major order
    for low, radius, a, b in zip([-np.inf, *radii], radii, [0, *ends], ends):
        for got, want in zip((i[a:b], j[a:b]), _pairs_by_triu(D, low, radius)):
            np.testing.assert_array_equal(got, want)
    assert ends[-1] == i.size == j.size


# None: one slice of the 231 pairs; the lattice's 22 rows hold 21, 20, 19,
# ... pairs, so each other size ends a slice inside a row (20: row 0 before
# its last pair; 7: most rows)
@pytest.mark.parametrize("chunk", [None, 50, 70, 20, 7])
def test_pairs_within_matches_the_upper_triangle_form(chunk, monkeypatch):
    from dprkit import clustering

    if chunk is not None:
        monkeypatch.setattr(clustering, "_CHUNK", chunk)
    D = squareform(pairwise_distances(_lattice_with_ties()))
    n = D.shape[0]
    assert chunk is None or chunk not in {clustering._row_start(i, n) for i in range(n)}
    assert all((D == r).any() for r in (0.0, 0.5, 2.5))  # pairs exactly on the radius
    radii = [0.0, 0.5, 1.0, 2.5, 100.0]
    for radius in radii:
        _assert_pairs(D, [radius])
    _assert_pairs(D, radii)
    _assert_pairs(D, radii[1:4])


@pytest.mark.parametrize("chunk", [None, 1])
def test_pairs_within_one_and_two_rows_and_no_pairs(chunk, monkeypatch):
    from dprkit import clustering

    if chunk is not None:
        monkeypatch.setattr(clustering, "_CHUNK", chunk)  # one pair per slice
    for pts in (_col([3.0]), _col([0.0, 1.5])):
        for radius in (0.0, 1.0, 1.5, 2.0):
            _assert_pairs(squareform(pairwise_distances(pts)), [radius])
        _assert_pairs(squareform(pairwise_distances(pts)), [0.0, 1.0, 1.5, 2.0])
    i, j, ends = clustering._pairs_within(pairwise_distances(_col([0.0, 1.5])), 2, [1.0, 1.5])
    assert (i.tolist(), j.tolist(), ends.tolist()) == ([0], [1], [0, 1])
    # a radius below every distance: no pairs, in the same dtypes
    d = pairwise_distances(np.unique(_lattice_with_ties(), axis=0))
    D = squareform(d)
    below = np.nextafter(D[np.triu_indices(D.shape[0], 1)].min(), 0)
    i, j, ends = clustering._pairs_within(d, D.shape[0], [below])
    assert i.size == j.size == 0 and ends.tolist() == [0]
    assert (i.dtype, j.dtype) == (np.int32, np.int32)


# 6 points on a line: rows 0..4 start at 0, 5, 9, 12, 14 of the 15 pairs, and
# the pairs (0, 1), (2, 3), (3, 4) lie at exactly 0.5 and (2, 4) at exactly 1.0
@pytest.mark.parametrize("chunk", [2, 3, 4])
def test_pairs_within_slices_at_row_starts_without_hits_and_on_a_radius(chunk, monkeypatch):
    from dprkit import clustering

    monkeypatch.setattr(clustering, "_CHUNK", chunk)
    d = pairwise_distances(_col([0.0, 0.5, 5.0, 5.5, 6.0, 20.0]))
    n = 6
    slices = range(0, d.size, chunk)
    # some slice starts exactly at a row start, and some holds no pair within 1.0
    assert {clustering._row_start(i, n) for i in range(1, n - 1)} & set(slices[1:])
    assert any((d[s:s + chunk] > 1.0).all() for s in slices)
    D = squareform(d)
    for radii in ([0.5], [1.0], [0.5, 1.0], [0.4, 0.5, 1.0, 4.5], [0.5, 0.5, 1.0]):
        _assert_pairs(D, radii)
    i, j, ends = clustering._pairs_within(d, n, [0.5, 1.0])
    assert (i.tolist(), j.tolist(), ends.tolist()) == ([0, 2, 3, 2], [1, 3, 4, 4], [3, 4])


def test_scan_makes_one_full_component_pass(monkeypatch):
    from dprkit import clustering

    passes, merges = [], []
    components, merge = clustering._components, clustering._merge
    monkeypatch.setattr(clustering, "_components",
                        lambda n, i, j: passes.append(n) or components(n, i, j))
    monkeypatch.setattr(clustering, "_merge",
                        lambda comp, k, i, j: merges.append(k) or merge(comp, k, i, j))
    # two groups of six coincident rows: every row has 6 neighbours at any eps
    pts = np.repeat([[0.0, 0.0], [5.0, 0.0]], 6, axis=0)
    eps_grid = [1.0, 0.5, 2.0, 0.5]
    rows = scan_params(pts, eps_grid, [2, 4, 6, 3])
    assert len(rows) == 12 and {r.k for r in rows} == {2}  # the repeated eps adds no row
    # one pass over the points; no later cell has a new pair or a new core point
    assert passes == [12] and merges == []
    passes.clear()
    rows = scan_params(pts, eps_grid, [2, 7])  # min_pts 7 leaves no core point
    assert [r.k for r in rows] == [2, 0] * 3
    # min_pts 2 merges the no-core cell's singletons once, at the first eps;
    # at each later eps its predecessor is its own cell at the last eps
    assert passes == [12] and merges == [12]


def test_assign_by_nearest_core_with_a_single_core():
    train = _col([0.0, 0.5, 1.0])
    model = dbscan(train, DbscanParams(eps=0.5, min_pts=3))
    np.testing.assert_array_equal(model.core_mask, [False, True, False])
    labels = _assign(train, model, _col([0.0, 1.0, 1.5, 0.5]))
    np.testing.assert_array_equal(labels, [0, 0, NOISE, 0])
    with pytest.raises(ValidationError, match="do not match"):
        _assign(train, model, np.zeros((1, 2)))  # new rows of another width


def test_dbscan_and_silhouette_copy_no_distance_matrix():
    # dbscan builds its own condensed vector; beyond it, it holds under a quarter of one
    pts = _spread_blobs(150)
    n = pts.shape[0]
    vector = n * (n - 1) // 2 * 8
    params = DbscanParams(eps=0.3, min_pts=3)
    dbscan(pts[:20], params)  # the first call imports scipy; keep that out of the trace
    model, peak = _traced_peak(lambda: dbscan(pts, params))
    assert model.k >= 2 and model.sc is not None  # the silhouette ran
    assert peak - vector < vector / 4, f"peak {peak} bytes against a condensed vector of {vector}"


def _lattice(step, size, min_size=1, max_size=40):
    # small integer grids scaled by a power of two: exact coordinates, many
    # repeated rows and many pairwise distances equal to each other and to eps
    cell = st.tuples(st.integers(0, size), st.integers(0, size))
    return st.lists(cell, min_size=min_size, max_size=max_size).map(
        lambda xy: np.asarray(xy, dtype=np.float64) * step
    )


def _spread_blobs(n_per=200):
    # ten tight blobs far apart: the pairs within eps are a small share of all
    rng = np.random.default_rng(3)
    centers = rng.uniform(-50, 50, size=(10, 2))
    return np.vstack([c + rng.normal(scale=0.5, size=(n_per, 2)) for c in centers])


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("reader", ["scan_params", "k_distance_profile"])
def test_scan_and_k_distance_hold_one_condensed_vector(reader):
    # each builds its own vector of n(n - 1)/2 distances; a full n x n matrix
    # alone would be twice that
    pts = _spread_blobs()
    n = pts.shape[0]
    vector = n * (n - 1) // 2 * 8
    calls = {"scan_params": lambda p: scan_params(p, [0.2, 0.3], [3, 5]),
             "k_distance_profile": lambda p: k_distance_profile(p, 4)}
    calls[reader](pts[:20])  # the first call imports scipy; keep that out of the trace
    result, peak = _traced_peak(lambda: calls[reader](pts))
    assert len(result) == (4 if reader == "scan_params" else n)
    assert peak < 1.5 * vector, f"peak {peak} bytes against a condensed vector of {vector}"


@settings(max_examples=100, deadline=None)
@given(pts=_lattice(0.5, 4, min_size=2, max_size=30), rows=st.sampled_from([None, 1, 3, 7]))
def test_k_distance_profile_selects_the_square_matrix_values(pts, rows):
    # tie-heavy lattices with repeated rows, read in one block or in blocks of
    # 1, 3 or 7 rows
    from dprkit import clustering

    n = pts.shape[0]
    D = squareform(pairwise_distances(pts))
    saved = clustering._BLOCK_ROWS
    clustering._BLOCK_ROWS = rows or saved
    try:
        for k in range(1, n):
            want = np.sort(np.partition(D, k, axis=1)[:, k])[::-1]
            got = k_distance_profile(pts, k)
            assert got.tobytes() == want.tobytes(), f"k = {k}"
    finally:
        clustering._BLOCK_ROWS = saved


_EPS = st.sampled_from([0.5, 0.75, 1.0, 1.5])


@settings(max_examples=150, deadline=None)
@given(pts=_lattice(0.5, 8, min_size=2), eps=_EPS, min_pts=st.integers(1, 5),
       strict=st.booleans(), data=st.data())
def test_partition_invariant_under_row_permutation(pts, eps, min_pts, strict, data):
    params = DbscanParams(eps=eps, min_pts=min_pts + strict)  # strict: one more point
    perm = np.asarray(data.draw(st.permutations(range(pts.shape[0]))))
    base = dbscan(pts, params)
    moved = dbscan(pts[perm], params)
    before = base.labels[perm]
    core = moved.core_mask
    np.testing.assert_array_equal(base.core_mask[perm], core)
    assert moved.k == base.k
    # the core points' partition is the same: cluster ids correspond one to one
    ids = set(zip(before[core].tolist(), moved.labels[core].tolist()))
    assert len(ids) == len({a for a, _ in ids}) == len({b for _, b in ids}) == moved.k
    renamed = dict(ids)
    # a border point keeps its cluster unless cores of several clusters claim
    # it: then the smallest claiming row, which the order decides, picks one
    within = squareform(pairwise_distances(pts[perm])) <= eps
    for x in np.flatnonzero(~core):
        claims = set(moved.labels[within[x] & core].tolist())
        if claims:
            assert {renamed[before[x]], moved.labels[x]} <= claims
        else:
            assert before[x] == moved.labels[x] == NOISE


def _nearest_core_by_loop(cores, labels, eps, new):
    # one new row at a time: the squared differences summed in column order,
    # then the first minimum
    out = np.full(new.shape[0], NOISE, dtype=np.intp)
    for i in range(new.shape[0] if len(labels) else 0):
        acc = np.zeros(cores.shape[0])
        for k in range(cores.shape[1]):
            acc += (cores[:, k] - new[i, k]) ** 2
        dist = np.sqrt(acc)
        j = int(np.argmin(dist))
        if dist[j] <= eps:
            out[i] = labels[j]
    return out


@settings(max_examples=150, deadline=None)
@given(train=_lattice(0.5, 6), new=_lattice(0.25, 12), eps=_EPS,
       min_pts=st.integers(1, 4))
def test_assign_by_nearest_core_matches_the_per_row_argmin(train, new, eps, min_pts):
    model = dbscan(train, DbscanParams(eps=eps, min_pts=min_pts))
    core = model.core_mask
    np.testing.assert_array_equal(
        _assign(train, model, new),
        _nearest_core_by_loop(train[core], model.labels[core], eps, new),
    )


def _paper_shaped(seed=1):
    """Mix rows of the paper's shape (46 x 20, 17 features, 16 profiles): 13 training periods."""
    from dprkit.panel import energy_mix_features
    from dprkit.testkit import SyntheticSpec, generate_panel

    panel, _ = generate_panel(SyntheticSpec(n_entities=46, n_periods=20, n_features=17,
                                            n_clusters=16, seed=seed))
    mix, _ = energy_mix_features(panel)
    train = panel.period_idx < 13
    model = dbscan(mix[train], DbscanParams(eps=0.1, min_pts=4))
    assert model.k == 16
    core = model.core_mask
    return mix[train][core], model.labels[core], mix[~train]


def test_assign_by_nearest_core_on_the_paper_shape():
    cores, labels, test = _paper_shaped()
    far = np.eye(17)[:5]  # all of the mix in one feature: beyond eps of every core
    copies = cores[::37]
    new = np.vstack([test, copies, far])
    got = assign_by_nearest_core(cores, labels, 0.1, new)
    np.testing.assert_array_equal(got, _nearest_core_by_loop(cores, labels, 0.1, new))
    np.testing.assert_array_equal(got[-5:], NOISE)
    np.testing.assert_array_equal(got[test.shape[0]:-5], labels[::37])
    assert (got[:test.shape[0]] != NOISE).any()


@pytest.mark.parametrize("first", [True, False])
def test_assign_by_nearest_core_exact_ties_go_to_the_earliest_core(first):
    cores, labels, _ = _paper_shaped()
    dup = np.arange(0, cores.shape[0], 23)
    # the copied cores carry another cluster's label, ahead of or after the originals
    other = (labels[dup] + 1) % 16
    if first:
        cores, labels = np.vstack([cores[dup], cores]), np.concatenate([other, labels])
    else:
        cores, labels = np.vstack([cores, cores[dup]]), np.concatenate([labels, other])
    new = cores[dup if not first else np.arange(dup.size)]
    got = assign_by_nearest_core(cores, labels, 0.1, new)
    np.testing.assert_array_equal(got, _nearest_core_by_loop(cores, labels, 0.1, new))
    np.testing.assert_array_equal(got, other if first else labels[dup])


def test_assign_by_nearest_core_at_exactly_eps():
    cores, labels, test = _paper_shaped()
    new = test[::7]
    for i, row in enumerate(new[:12]):
        # eps is the row's computed distance to its nearest core
        eps = min(_sequential_distance(core, row) for core in cores)
        at, below = (assign_by_nearest_core(cores, labels, e, new)
                     for e in (eps, np.nextafter(eps, 0)))
        np.testing.assert_array_equal(at, _nearest_core_by_loop(cores, labels, eps, new))
        np.testing.assert_array_equal(
            below, _nearest_core_by_loop(cores, labels, np.nextafter(eps, 0), new))
        assert at[i] != NOISE and below[i] == NOISE


def test_assign_by_nearest_core_to_a_single_core_on_the_paper_shape():
    cores, labels, test = _paper_shaped()
    for j in (0, 100):
        one, label = cores[j:j + 1], labels[j:j + 1]
        new = np.vstack([test, one])  # the last row copies the core
        got = assign_by_nearest_core(one, label, 0.1, new)
        np.testing.assert_array_equal(got, _nearest_core_by_loop(one, label, 0.1, new))
        assert got[-1] == label[0] and (got == NOISE).any()


@settings(max_examples=100, deadline=None)
@given(pts=_lattice(0.5, 8, min_size=2),
       eps_grid=st.lists(_EPS, min_size=1, max_size=5),
       minpts_grid=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       strict=st.booleans())
def test_scan_cells_match_per_cell_runs_and_oracle(pts, eps_grid, minpts_grid, strict):
    minpts_grid = [m + strict for m in minpts_grid]  # strict: one more point
    rows = scan_params(pts, eps_grid, minpts_grid)
    # one cell per distinct value, in first-occurrence order
    cells = [DbscanParams(e, m)
             for e in dict.fromkeys(eps_grid) for m in dict.fromkeys(minpts_grid)]
    assert [r.params for r in rows] == cells
    for row in rows:
        _assert_cell_matches_its_run_and_oracle(pts, row)
