"""Density-based clustering with silhouette and SSE scoring.

DBSCAN over Euclidean distance, with one formula throughout: the squared
coordinate differences are summed in column order, then square-rooted.
``pairwise_distances`` computes it with ``scipy.spatial.distance.cdist`` and
``_row_distances`` with one numpy pass per column (``region_query`` and the
eps tests of ``assign_by_nearest_core``), so a new row at exactly eps from a
core is judged as a training row would be.  A point is core when its closed
eps-neighborhood (itself included) holds at least ``min_pts`` points;
``core_strict=True`` switches the rule to strictly more than ``min_pts``.
Clusters are the connected components of the core points under the eps
relation; a non-core point within eps of one or more core points joins the
cluster of the claiming core with the smallest row index, everything else is
noise.  Cluster ids are canonical: numbered by the first row at which each
cluster appears.

The labelling works on one list of neighbour pairs ``i < j`` with their
distances, read from the dense distance matrix: neighbourhood counts are
bincounts over it, clusters are ``scipy.sparse.csgraph.connected_components``
on its core-core edges (a CSR graph read straight off the row-major pairs),
and border claims are a minimum per row (Ester et al., KDD 1996; Schubert et
al., TODS 2017).  A parameter scan builds that list once at the largest eps,
thresholds it and counts neighbours once per distinct eps, and labels once
per distinct (eps, core set).  Scoring never copies the n x n matrix, and
new rows are assigned to their nearest core through a k-d tree.  scipy is
imported at first use, so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

NOISE = -1

# elements per block of boolean masks in _pairs_within
_CHUNK = 262_144


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int
    core_strict: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ValidationError(f"eps must be finite and > 0, got {self.eps}")
        if int(self.min_pts) != self.min_pts or self.min_pts < 1:
            raise ValidationError(f"min_pts must be an integer >= 1, got {self.min_pts}")


@dataclass
class ClusterModel:
    """Result of one dbscan run; labels use -1 for noise."""

    params: DbscanParams
    labels: np.ndarray
    k: int
    sc: float | None
    sse: float
    core_mask: np.ndarray

    @property
    def n_noise(self) -> int:
        return int(np.sum(self.labels == NOISE))


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError(f"points must be a non-empty 2-d array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain non-finite values")
    return pts


def pairwise_distances(points) -> np.ndarray:
    """Full Euclidean distance matrix, computed from explicit differences.

    ``scipy.spatial.distance.cdist`` sums the squared coordinate differences
    in column order and takes the square root, the formula ``_row_distances``
    repeats; the difference form avoids the cancellation of the expanded-norm
    shortcut, so coincident points get an exact zero and D is exactly
    symmetric.
    """
    from scipy.spatial.distance import cdist

    pts = _as_points(points)
    return cdist(pts, pts)


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (broadcast), in ``cdist``'s order.

    The squared differences are summed column by column, so a distance here
    is bit for bit the one ``pairwise_distances`` gives the same two rows.
    """
    d = a - b
    acc = np.zeros(d.shape[0])
    for k in range(d.shape[1]):
        acc += d[:, k] * d[:, k]
    return np.sqrt(acc)


def region_query(points, i: int, eps: float) -> set[int]:
    """Indices within the closed eps-ball around row i, the point itself included."""
    pts = _as_points(points)
    if not 0 <= i < pts.shape[0]:
        raise ValidationError(f"row index {i} out of range for {pts.shape[0]} points")
    if not math.isfinite(eps) or eps < 0:
        raise ValidationError(f"eps must be finite and >= 0, got {eps}")
    return set(np.flatnonzero(_row_distances(pts, pts[i]) <= eps).tolist())


def _canonical_relabel(labels: np.ndarray) -> tuple[np.ndarray, int]:
    out = np.full(labels.shape, NOISE, dtype=np.intp)
    member = labels != NOISE
    ids, first, inverse = np.unique(
        labels[member], return_index=True, return_inverse=True
    )
    rank = np.empty(ids.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(ids.size)
    out[member] = rank[inverse]
    return out, int(ids.size)


def _pairs_within(D: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``i < j`` with ``D[i, j] <= radius``: int32 rows, int32 columns, distances.

    Pairs come in row-major order.  Blocks of rows keep the boolean masks
    near ``_CHUNK`` elements.
    """
    n = D.shape[0]
    step = max(1, _CHUNK // n)
    rows, cols, dists = [], [], []
    for start in range(0, n, step):
        block = D[start:start + step, start:]
        r, c = np.nonzero(block <= radius)
        upper = c > r  # the block's column 0 is row `start`: keep j > i
        r, c = r[upper], c[upper]
        rows.append((r + start).astype(np.int32))
        cols.append((c + start).astype(np.int32))
        dists.append(block[r, c])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def _neighbour_counts(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Closed-neighbourhood sizes (the point itself included) from pairs ``i < j``."""
    return 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)


def _core_mask(counts: np.ndarray, min_pts: int, core_strict: bool) -> np.ndarray:
    return counts > min_pts if core_strict else counts >= min_pts


def _components(
    n: int, i: np.ndarray, j: np.ndarray, core: np.ndarray
) -> tuple[np.ndarray, int]:
    """Canonical DBSCAN labels and cluster count from the pairs within eps and the core mask."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # take() gathers with the int32 pairs as they are; core[i] would first copy them to intp
    core_i, core_j = core.take(i), core.take(j)
    both = core_i & core_j
    # the pairs are row-major, so the core-core edges are already in CSR order
    src = i[both]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(src.size), j[both], indptr), shape=(n, n))
    _, comp = connected_components(graph, directed=False)

    # a border point joins the cluster of its smallest-index claiming core
    claim = np.full(n, n, dtype=np.intp)
    np.minimum.at(claim, j[core_i & ~core_j], i[core_i & ~core_j])
    np.minimum.at(claim, i[core_j & ~core_i], j[core_j & ~core_i])
    border = claim < n

    labels = np.full(n, NOISE, dtype=np.intp)
    labels[core] = comp[core]
    labels[border] = comp[claim[border]]
    return _canonical_relabel(labels)


def _score(
    pts: np.ndarray, D: np.ndarray, labels: np.ndarray, k: int
) -> tuple[float | None, float]:
    """(sc, sse) of one labelling; sc is None when the silhouette is undefined."""
    sc = None
    if k >= 2 and np.bincount(labels[labels != NOISE], minlength=k).max() >= 2:
        sc = _silhouette_from_distances(D, labels, k)
    return sc, sse(pts, labels)


def dbscan(points, params: DbscanParams, distances: np.ndarray | None = None) -> ClusterModel:
    """Cluster ``points`` and score the result.

    ``sc`` is None when the silhouette is undefined (fewer than two clusters,
    or no cluster with at least two members).  ``sse`` is always defined;
    noise contributes zero.
    """
    pts = _as_points(points)
    D = pairwise_distances(pts) if distances is None else distances
    [(labels, k, core)] = _label_cells(pts.shape[0], _pairs_within(D, params.eps), [params])
    sc, total = _score(pts, D, labels, k)
    return ClusterModel(params=params, labels=labels, k=k, sc=sc, sse=total, core_mask=core)


def _silhouette_from_distances(D: np.ndarray, labels: np.ndarray, k: int) -> float:
    member = labels != NOISE
    idx = np.flatnonzero(member)
    lab = labels[idx]
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    # per-point sums of distance into each cluster; noise rows of onehot are
    # zero, so D is multiplied whole rather than copied down to the members
    onehot = np.zeros((labels.size, k))
    onehot[idx, lab] = 1.0
    sums = (D @ onehot)[idx]

    own = counts[lab]
    s = np.zeros(idx.size)
    multi = own > 1
    a = np.zeros(idx.size)
    a[multi] = sums[np.arange(idx.size), lab][multi] / (own[multi] - 1.0)

    ratio = sums / counts[None, :]
    ratio[np.arange(idx.size), lab] = np.inf
    b = ratio.min(axis=1)

    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    # singletons and zero-denominator points stay at 0 by convention
    return float(s.mean())


def silhouette_sc(points, labels) -> float:
    """Mean silhouette over non-noise points.

    Noise is excluded entirely; a singleton member scores 0, as does any
    point whose max(a, b) is 0.  Raises when fewer than two clusters remain
    after noise removal.
    """
    pts = _as_points(points)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (pts.shape[0],):
        raise ValidationError("labels length does not match points")
    ids = np.unique(labels[labels != NOISE])
    if ids.size < 2:
        raise ValidationError(
            f"silhouette undefined: {ids.size} cluster(s) after noise removal"
        )
    canon, k = _canonical_relabel(labels)
    return _silhouette_from_distances(pairwise_distances(pts), canon, k)


def sse(points, labels) -> float:
    """Sum of squared distances to each cluster's centroid; noise adds 0."""
    pts = _as_points(points)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (pts.shape[0],):
        raise ValidationError("labels length does not match points")
    total = 0.0
    for c in np.unique(labels[labels != NOISE]):
        member = pts[labels == c]
        centroid = member.mean(axis=0)
        total += float(((member - centroid) ** 2).sum())
    return total


def k_distance_profile(points, k: int) -> np.ndarray:
    """Distance to each point's k-th nearest neighbor (self excluded), sorted descending."""
    pts = _as_points(points)
    n = pts.shape[0]
    if int(k) != k or not 1 <= k < n:
        raise ValidationError(f"k must be an integer in [1, {n - 1}], got {k}")
    D = pairwise_distances(pts)
    D.partition(int(k), axis=1)  # D is this call's own; position 0 holds a self-distance 0
    return np.sort(D[:, int(k)])[::-1].copy()


def _label_cells(
    n: int, pairs: tuple[np.ndarray, np.ndarray, np.ndarray], cells: Sequence[DbscanParams]
) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """Labels, cluster count and core mask of each cell, from the pairs within the largest eps.

    Each distinct eps thresholds the pairs and counts neighbours once, and
    only its pairs and counts are held; each distinct (eps, core set) runs
    the component pass once.
    """
    pairs_i, pairs_j, pairs_d = pairs
    labelled = {}
    for eps in dict.fromkeys(p.eps for p in cells):
        keep = pairs_d <= eps
        i, j = pairs_i[keep], pairs_j[keep]
        counts = _neighbour_counts(n, i, j)
        by_core = {}
        for p in cells:
            if p.eps == eps:
                core = _core_mask(counts, p.min_pts, p.core_strict)
                key = core.tobytes()
                if key not in by_core:
                    by_core[key] = (*_components(n, i, j, core), core)
                labelled[p] = by_core[key]
    return [labelled[p] for p in cells]


@dataclass(frozen=True)
class ScanRow:
    eps: float
    min_pts: int
    k: int
    sc: float | None
    sse: float


def scan_params(
    points,
    eps_grid: Sequence[float],
    minpts_grid: Sequence[int],
    core_strict: bool = False,
) -> list[ScanRow]:
    """Evaluate dbscan over the full eps x min_pts grid.

    One row per combination, eps varying slowest, in grid order.  Rows where
    the silhouette is undefined carry ``sc=None``.  The neighbour pairs are
    found once, at the largest eps.  Each distinct eps thresholds them and
    counts neighbours once; each distinct (eps, core set) is labelled once,
    and each distinct labelling is scored once.
    """
    pts = _as_points(points)
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise ValidationError("scan grids must be non-empty")
    cells = [
        DbscanParams(eps=float(e), min_pts=int(m), core_strict=core_strict)
        for e in eps_grid
        for m in minpts_grid
    ]
    D = pairwise_distances(pts)
    pairs = _pairs_within(D, max(p.eps for p in cells))
    labelled = _label_cells(pts.shape[0], pairs, cells)
    distinct = {labels.tobytes(): (labels, k) for labels, k, _ in labelled}
    scores = {key: _score(pts, D, *lk) for key, lk in distinct.items()}
    return [
        ScanRow(p.eps, p.min_pts, k, *scores[labels.tobytes()])
        for p, (labels, k, _) in zip(cells, labelled)
    ]


def suggest_params(rows: Sequence[ScanRow]) -> ScanRow | None:
    """The SC-maximizing row; first in grid order on ties, None if SC never defined."""
    best: ScanRow | None = None
    for row in rows:
        if row.sc is None:
            continue
        if best is None or row.sc > best.sc:
            best = row
    return best


def assign_by_nearest_core(core_points, core_labels, eps: float, new_points) -> np.ndarray:
    """Extend a fitted clustering to new rows.

    ``core_points`` are the training core rows, in training row order, and
    ``core_labels`` their cluster ids.  Each new row takes the label of its
    nearest core point when that core is within eps, and NOISE otherwise.
    Ties go to the earliest core row.
    """
    from scipy.spatial import cKDTree

    new = _as_points(new_points)
    labels = np.asarray(core_labels, dtype=np.intp)
    out = np.full(new.shape[0], NOISE, dtype=np.intp)
    if labels.size == 0:
        return out
    core_pts = _as_points(core_points)
    if core_pts.shape != (labels.size, new.shape[1]):
        raise ValidationError(
            f"core points of shape {core_pts.shape} do not match {labels.size} core "
            f"labels and {new.shape[1]}-column new points"
        )
    nearest = np.zeros(new.shape[0], dtype=np.intp)
    tied = np.zeros(new.shape[0], dtype=bool)
    if labels.size > 1:
        dist, idx = cKDTree(core_pts).query(new, k=2)
        nearest = idx[:, 0]
        # near-equal runners-up may be exact ties in the difference form below
        tied = dist[:, 1] - dist[:, 0] <= 1e-9 * dist[:, 1]
    for i in np.flatnonzero(tied):
        # first minimum = earliest core row
        nearest[i] = np.argmin(_row_distances(core_pts, new[i]))
    within = _row_distances(core_pts[nearest], new) <= eps
    out[within] = labels[nearest[within]]
    return out
