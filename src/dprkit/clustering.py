"""Density-based clustering with silhouette and SSE scoring.

DBSCAN over Euclidean distance, with one formula throughout: the squared
coordinate differences are summed in column order, then square-rooted.
``pairwise_distances`` computes it with ``scipy.spatial.distance.pdist`` and
``_row_distances`` with one numpy pass per column (the eps tests of
``assign_by_nearest_core``), so a new row at exactly eps from a core is
judged as a training row would be.  A point is core when its closed
eps-neighborhood (itself included) holds at least ``min_pts`` points; for a
strict rule, "more than m", use ``min_pts = m + 1``.  Clusters are the
connected components of the core points under the eps relation; a non-core
point within eps of one or more core points joins the cluster of the
claiming core with the smallest row index, everything else is noise.
Cluster ids are canonical: numbered by the first row at which each cluster
appears.

The training distances are held once per pair, in ``pdist``'s condensed
vector: pair (i, j), i < j, row-major, which is the upper triangle of the
distance matrix read row by row.  No n x n matrix is built: beyond the
vector and the pair list, a reader holds a slice of ``_CHUNK`` elements or a
block of ``_BLOCK_ROWS`` rows of the triangle at a time.  The labelling works
on one list of neighbour pairs ``i < j``, read off the vector in slices:
neighbourhood counts are bincounts over it, clusters are
``scipy.sparse.csgraph.connected_components`` on its core-core edges (a CSR
graph read straight off the row-major pairs), and border claims are a
minimum per row (Ester et al., KDD 1996; Schubert et al., TODS 2017).  A
parameter scan builds that list once, grouped by the smallest grid eps that
holds each pair, so the pairs within an eps are a prefix of it.  At a fixed
min_pts DBSCAN's core clusters are nested in eps (Campello, Moulavi &
Sander, PAKDD 2013), and at a fixed eps a lower min_pts only adds core
points.  So the scan makes one component pass over the points, for its
first cell, and labels every later distinct (eps, core set) by merging its
predecessor's clusters along the pairs new to it: a component pass over the
clusters, not the points (``_merge``).  ``dbscan`` is the scan's one-cell
case, so one path labels and scores every cell.  The silhouette and the
k-distance profile read the vector in blocks of rows of its upper triangle.

New rows are assigned to their nearest core through a ``cKDTree`` built with
the sliding-midpoint split (``balanced_tree=False``; Maneewongvatana and
Mount, 1999) rather than scipy's default median split.  Mix shares lie on
the simplex in tight clusters, where median cuts make thin cells that a
query must visit many of; on testkit cores the midpoint tree answers the
same queries about 2x faster at 6-8 features and about 8x faster at the
paper's 17 (uniform or Gaussian points, which the program does not meet,
favour the median split slightly).  The query is bounded at eps, so a row
off every core stops early.  scipy is imported at first use, so importing
this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, as_real, require_int

NOISE = -1

# elements of the condensed vector that _pairs_within reads at a time
_CHUNK = 262_144
# rows of the upper triangle in each of _upper_blocks' blocks
_BLOCK_ROWS = 64


def _check_eps(eps) -> float:
    """``eps`` as a float; a ValidationError naming eps unless a finite real > 0, not a bool."""
    value = as_real(eps)
    if not math.isfinite(value) or value <= 0:
        raise ValidationError(f"eps must be finite and > 0, got {eps!r}")
    return value


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        # stored as a float, so an int eps writes the same artifacts as its float
        object.__setattr__(self, "eps", _check_eps(self.eps))
        object.__setattr__(self, "min_pts", require_int("min_pts", self.min_pts, 1))


@dataclass
class ClusterModel:
    """DBSCAN's labels and scores at one cell; labels use -1 for noise."""

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
    """Condensed Euclidean distances: each pair (i, j), i < j, once, row-major.

    This is ``scipy.spatial.distance.pdist``'s vector, n(n - 1)/2 long: the
    upper triangle of the distance matrix read row by row, so row i's pairs
    start at ``_row_start(i, n)`` (``squareform`` rebuilds the matrix).
    ``pdist`` sums the squared coordinate differences in column order and
    takes the square root, the formula ``_row_distances`` repeats; the
    difference form avoids the cancellation of the expanded-norm shortcut,
    so coincident points get an exact zero.
    """
    from scipy.spatial.distance import pdist

    return pdist(_as_points(points))


def _row_start(i: int, n: int) -> int:
    """Position of pair (i, i + 1) in the condensed vector of ``n`` points."""
    return i * (2 * n - i - 1) // 2


def _upper_blocks(d: np.ndarray, n: int, fill: float):
    """Blocks of rows of the upper triangle ``d`` of ``n`` points: ``(start, block)``.

    A block holds rows ``start, start + 1, ...`` and the columns after
    ``start``: ``block[r, c]`` is the distance of points ``start + r`` and
    ``start + 1 + c`` when ``c >= r``, and ``fill`` below that diagonal.  A
    block holds ``_BLOCK_ROWS`` rows, the last one fewer.
    """
    # every block has the same shape of distances, cut to its rows and columns
    above = np.arange(n - 1) >= np.arange(_BLOCK_ROWS)[:, None]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(n, start + _BLOCK_ROWS)
        mask = above[:stop - start, :n - start - 1]
        block = np.full(mask.shape, fill)
        # a boolean mask fills in row-major order, the vector's own
        block[mask] = d[_row_start(start, n):_row_start(stop, n)]
        yield start, block


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (broadcast), in ``pdist``'s order.

    The squared differences are summed column by column, so a distance here
    is bit for bit the one ``pairwise_distances`` gives the same two rows.
    """
    d = a - b
    acc = np.zeros(d.shape[0])
    for k in range(d.shape[1]):
        acc += d[:, k] * d[:, k]
    return np.sqrt(acc)


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


def _pairs_within(
    d: np.ndarray, n: int, radii: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``i < j`` within the largest of the ascending ``radii``, grouped by radius.

    ``d`` is the condensed vector of ``n`` points.  Returns int32 rows, int32
    columns and ``ends``: the pairs within ``radii[g]`` are the first
    ``ends[g]``, so those new at ``radii[g]`` are the slice
    ``ends[g - 1]:ends[g]``, in row-major order.  The vector is already the
    row-major upper triangle, so it is read in slices of ``_CHUNK`` elements,
    which may split a row.  A slice reads its hits' rows off the rows it
    spans, each repeated for its elements there, and groups its own pairs, so
    no step holds more than the list, its pieces and one slice's row ids.
    """
    # row r's pairs are the elements starts[r]:starts[r + 1]
    starts = _row_start(np.arange(n + 1, dtype=np.int64), n)
    pieces = [[] for _ in radii]  # (rows, columns) of each slice, per group
    # one slice at least, so a single point still gets its empty int32 arrays
    for start in range(0, max(1, d.size), _CHUNK):
        part = d[start:start + _CHUNK]
        stop = start + part.size
        # the rows the slice spans, each repeated for the elements it holds there
        first = np.searchsorted(starts, start, side="right") - 1
        end = np.searchsorted(starts, stop, side="left")
        spans = (np.minimum(starts[first + 1:end + 1], stop)
                 - np.maximum(starts[first:end], start))
        row_of = np.repeat(np.arange(first, end, dtype=np.int32), spans)
        hit = np.flatnonzero(part <= radii[-1])
        rows = row_of[hit]
        cols = (hit + (start + 1) - starts[rows] + rows).astype(np.int32)
        if len(radii) == 1:
            pieces[0].append((rows, cols))
            continue
        d_hit = part[hit]
        # one mask per radius: its pairs are those within it and beyond the radius before
        for held, low, radius in zip(pieces, [-np.inf, *radii], radii):
            at = np.flatnonzero((d_hit > low) & (d_hit <= radius))
            held.append((rows[at], cols[at]))
    ends = np.cumsum([sum(r.size for r, _ in held) for held in pieces])
    i = np.concatenate([r for held in pieces for r, _ in held])
    j = np.concatenate([c for held in pieces for _, c in held])
    return i, j, ends


def _components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count, and id of each of ``n`` points, joined by the row-major pairs ``i < j``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # the pairs are row-major, so they are already in CSR order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(i.size), j, indptr), shape=(n, n))
    return connected_components(graph, directed=False)


def _merge(comp: np.ndarray, k: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """The ``k`` components of ``comp`` joined by the pairs ``(i, j)``: new count and ids.

    The running-labelling step: one connected-components pass over the
    components and the edges that cross between them, not over the points.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ci, cj = comp.take(i), comp.take(j)
    cross = ci != cj
    if not cross.any():
        return k, comp
    graph = csr_matrix((np.ones(np.count_nonzero(cross)), (ci[cross], cj[cross])), shape=(k, k))
    k, merged = connected_components(graph, directed=False)
    return k, merged.take(comp)


def _cell_labels(
    i: np.ndarray, j: np.ndarray, core: np.ndarray, comp: np.ndarray
) -> tuple[np.ndarray, int]:
    """Canonical DBSCAN labels and cluster count from the pairs within eps.

    Core points take their component; a border point joins the component of
    its smallest-index claiming core.  With every point core there is no
    border point and no claim is made.
    """
    n = core.size
    labels = np.where(core, comp, NOISE)
    if not core.all():
        # take() gathers with the int32 pairs as they are; core[i] would first copy them to intp
        core_i, core_j = core.take(i), core.take(j)
        i_claims, j_claims = core_i & ~core_j, core_j & ~core_i
        claim = np.full(n, n, dtype=np.intp)
        np.minimum.at(claim, j[i_claims], i[i_claims])
        np.minimum.at(claim, i[j_claims], j[j_claims])
        border = claim < n
        labels[border] = comp[claim[border]]
    return _canonical_relabel(labels)


def _score(
    pts: np.ndarray, d: np.ndarray, labels: np.ndarray, k: int
) -> tuple[float | None, float]:
    """(sc, sse) of one labelling; sc is None when the silhouette is undefined."""
    sc = None
    if k >= 2 and np.bincount(labels[labels != NOISE], minlength=k).max() >= 2:
        sc = _silhouette_from_distances(d, labels, k)
    return sc, sse(pts, labels)


def dbscan(points, params: DbscanParams) -> ClusterModel:
    """Cluster ``points`` at one (eps, min_pts) cell and score the result.

    The one-cell case of ``scan_params``: the same labelling and scoring.
    ``sc`` is None when the silhouette is undefined (fewer than two
    clusters, or no cluster with at least two members).  ``sse`` is always
    defined; noise contributes zero.
    """
    return scan_params(points, [params.eps], [params.min_pts])[0]


def _silhouette_from_distances(d: np.ndarray, labels: np.ndarray, k: int) -> float:
    n = labels.size
    member = labels != NOISE
    idx = np.flatnonzero(member)
    lab = labels[idx]
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    # per-point sums of distance into each cluster: with U the upper triangle,
    # D = U + U^T, so each block of U's rows adds its own rows' sums and its
    # share of every later point's; noise rows of onehot are zero
    onehot = np.zeros((n, k))
    onehot[idx, lab] = 1.0
    sums = np.zeros((n, k))
    for start, block in _upper_blocks(d, n, 0.0):
        stop = start + block.shape[0]
        sums[start:stop] += block @ onehot[start + 1:]
        sums[start + 1:] += block.T @ onehot[start:stop]
    sums = sums[idx]

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
    """Distance to each point's k-th nearest neighbor (self excluded), sorted descending.

    Each point keeps its k smallest distances so far; a block of rows of the
    upper triangle offers its rows to their own points and its columns to
    the later points, so every pair is offered to both of its points once.
    The k-th smallest is selected, not computed, so it is the value
    ``pairwise_distances`` holds.  Memory beyond the vector is
    O(n (k + ``_BLOCK_ROWS``)).
    """
    pts = _as_points(points)
    n = pts.shape[0]
    k = require_int("k", k, 1)
    if k >= n:
        raise ValidationError(f"k must be < {n}, the number of points, got {k}")
    d = pairwise_distances(pts)
    best = np.full((n, k), np.inf)
    for start, block in _upper_blocks(d, n, np.inf):
        stop = start + block.shape[0]
        cols = np.concatenate([best[start + 1:], block.T], axis=1)
        cols.partition(k - 1, axis=1)
        best[start + 1:] = cols[:, :k]
        # the block is this call's own: its rows are cut to their k smallest in place
        if block.shape[1] > k:
            block.partition(k - 1, axis=1)
        rows = np.concatenate([best[start:stop], block[:, :k]], axis=1)
        rows.partition(k - 1, axis=1)
        best[start:stop] = rows[:, :k]
    return np.sort(best[:, k - 1])[::-1].copy()


def _label_cells(
    d: np.ndarray, n: int, cells: Sequence[DbscanParams]
) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """Labels, cluster count and core mask of each cell, from the condensed vector of ``n`` points.

    A point is core at ``eps`` when its neighbour count reaches the cell's
    ``min_pts``.  Cells are labelled by eps ascending and, within one eps, by
    min_pts (the core threshold) descending, so two earlier core graphs lie
    inside each cell's: the same threshold at the last eps and the last
    threshold at this eps.  Its predecessor is whichever of them has more
    core points (the one at this eps on a tie, which adds no pairs).  The
    first cell is one component pass over the points; every later one merges
    its predecessor's components by the pairs new to it, those new since the
    predecessor's eps and those that reach newly core points.  The product
    of the cells' distinct eps and thresholds is labelled.
    """
    radii = sorted({p.eps for p in cells})
    thresholds = sorted({p.min_pts for p in cells}, reverse=True)
    i, j, ends = _pairs_within(d, n, radii)
    counts = np.ones(n, dtype=np.intp)
    labelled = {}
    previous = {}  # threshold -> (core, comp, k, end, cell) at the last eps
    start = 0
    for eps, end in zip(radii, ends):
        counts += np.bincount(i[start:end], minlength=n)
        counts += np.bincount(j[start:end], minlength=n)
        last = None
        for t in thresholds:
            core = counts >= t
            same_t = previous.get(t)
            if last is None or same_t is not None and same_t[0].sum() > last[0].sum():
                last = same_t
            if last is None:
                both = core.take(i[:end]) & core.take(j[:end])
                k, comp = _components(n, i[:end][both], j[:end][both])
                last = (core, comp, k, end, None)
            last_core, comp, k, last_end, cell = last
            new = core & ~last_core
            if last_end < end or new.any():
                a, b = i[last_end:end], j[last_end:end]
                if new.any():
                    # pairs already within eps that reach a newly core point
                    reach = new.take(i[:last_end]) | new.take(j[:last_end])
                    a = np.concatenate([a, i[:last_end][reach]])
                    b = np.concatenate([b, j[:last_end][reach]])
                both = core.take(a) & core.take(b)
                k, comp = _merge(comp, k, a[both], b[both])
                cell = None
            if cell is None:
                cell = (*_cell_labels(i[:end], j[:end], core, comp), core)
            last = previous[t] = (core, comp, k, end, cell)
            labelled[eps, t] = cell
        start = end
    return [labelled[p.eps, p.min_pts] for p in cells]


def scan_params(
    points,
    eps_grid: Sequence[float],
    minpts_grid: Sequence[int],
) -> list[ClusterModel]:
    """Cluster and score ``points`` at every cell of the eps x min_pts grid.

    One ``ClusterModel`` per combination of distinct grid values, eps varying
    slowest, in first-occurrence order; a repeated value adds no cell.  Cells
    where the silhouette is undefined carry ``sc=None``.  The neighbour pairs
    are found once, grouped by eps, and each distinct eps counts neighbours
    from the pairs new to it.  The first cell is one component pass; each
    later distinct (eps, core set) merges a predecessor's clusters, and each
    distinct labelling is scored once.  Cells may share their arrays.
    """
    pts = _as_points(points)
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise ValidationError("scan grids must be non-empty")
    cells = [
        DbscanParams(eps=e, min_pts=m)
        for e in dict.fromkeys(_check_eps(e) for e in eps_grid)
        for m in dict.fromkeys(require_int("min_pts", m, 1) for m in minpts_grid)
    ]
    d = pairwise_distances(pts)
    labelled = _label_cells(d, pts.shape[0], cells)
    distinct = {labels.tobytes(): (labels, k) for labels, k, _ in labelled}
    scores = {key: _score(pts, d, *lk) for key, lk in distinct.items()}
    return [
        ClusterModel(p, labels, k, *scores[labels.tobytes()], core_mask=core)
        for p, (labels, k, core) in zip(cells, labelled)
    ]


def suggest_params(cells: Sequence[ClusterModel]) -> ClusterModel | None:
    """The SC-maximizing cell; first in grid order on ties, None if SC never defined."""
    best: ClusterModel | None = None
    for cell in cells:
        if cell.sc is None:
            continue
        if best is None or cell.sc > best.sc:
            best = cell
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
        # the bound is widened past the few-ulp gap between the tree's
        # distances and _row_distances; a core beyond it comes back as
        # distance inf and index labels.size
        tree = cKDTree(core_pts, balanced_tree=False)
        dist, idx = tree.query(new, k=2, distance_upper_bound=eps * (1 + 1e-9))
        nearest = idx[:, 0]
        # near-equal runners-up may be exact ties in the difference form
        # below; an infinite runner-up is no tie
        two = np.isfinite(dist[:, 1])
        d0, d1 = dist[two, 0], dist[two, 1]
        tied[two] = d1 - d0 <= 1e-9 * d1
    for i in np.flatnonzero(tied):
        # first minimum = earliest core row
        nearest[i] = np.argmin(_row_distances(core_pts, new[i]))
    hit = np.flatnonzero(nearest < labels.size)
    within = hit[_row_distances(core_pts[nearest[hit]], new[hit]) <= eps]
    out[within] = labels[nearest[within]]
    return out
