"""Independent oracles and synthetic panel generation.

Everything here exists to check the production modules from the outside, so
nothing in this module shares solver code with them: the clustering oracle
labels points by a literal transitive-closure fixed point, and the objective
oracle minimizes the penalized loss with a generic bound-constrained
quasi-Newton method on the positive/negative split formulation.  Production
modules never import this one; the test suite and the CLI synth command are
its only consumers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .clustering import NOISE, DbscanParams
from .errors import ConvergenceError, ValidationError
from .panel import PanelDataset
from .regression import PenaltySpec


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a clustered panel whose modeling assumptions hold exactly.

    Entities are assigned round-robin to ``n_clusters`` mix profiles; each
    observation's features are a jittered profile times an entity/period
    scale, and the target satisfies

        ln(target + 1) = base_level + sum_j w_j ln(x_j + 1)
                         + offset[cluster] + N(0, noise_sd)

    so a run with log offset 1 recovers a linear model by construction.
    ``mix_jitter`` controls the intra-cluster spread of the share vectors
    (and with it how separable the planted clusters are).
    """

    n_entities: int = 12
    n_periods: int = 8
    n_features: int = 6
    n_clusters: int = 3
    mix_profiles: tuple[tuple[float, ...], ...] | None = None
    true_coefficients: tuple[float, ...] | None = None
    noise_sd: float = 0.05
    seed: int = 0
    mix_jitter: float = 0.02
    scale_sd: float = 0.6
    scale_base: float = 40.0
    trend: float = 0.03
    base_level: float = 2.0
    offset_scale: float = 1.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if min(self.n_entities, self.n_periods, self.n_features, self.n_clusters) < 1:
            raise ValidationError("synthetic spec dimensions must be >= 1")
        if self.n_clusters > self.n_entities:
            raise ValidationError("more clusters than entities")
        for name, ok, rule in (("noise_sd", self.noise_sd >= 0, ">= 0"),
                               ("mix_jitter", self.mix_jitter >= 0, ">= 0"),
                               ("scale_sd", self.scale_sd >= 0, ">= 0"),
                               ("scale_base", self.scale_base > 0, "> 0"),
                               ("trend", self.trend > -1, "> -1")):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class GroundTruth:
    labels: np.ndarray            # planted cluster per observation row
    entity_labels: np.ndarray     # planted cluster per entity
    coefficients: np.ndarray      # w_j on the log features
    offsets: np.ndarray           # additive log-space shift per cluster
    base_level: float


def _default_profiles(k: int, p: int) -> np.ndarray:
    prof = np.full((k, p), 0.2 / max(1, p - 1))
    for c in range(k):
        prof[c, c % p] = 0.8
    if p == 1:
        prof[:] = 1.0
    return prof / prof.sum(axis=1, keepdims=True)


# the largest ln(target + 1) whose target is a finite float
_MAX_LOG = math.log(sys.float_info.max)


def _overflow(base_level: float, offset: float, feature_term: float) -> str:
    terms = {"base_level": base_level, "offset_scale": offset,  # the largest term of the log
             "scale_base or trend": math.inf if math.isnan(feature_term) else feature_term}
    return f"synthetic target overflows the float range; lower {max(terms, key=terms.get)}"


def generate_panel(spec: SyntheticSpec) -> tuple[PanelDataset, GroundTruth]:
    """Deterministic synthetic panel plus the planted ground truth."""
    rng = np.random.default_rng(spec.seed)
    k, p = spec.n_clusters, spec.n_features
    if spec.mix_profiles is None:
        profiles = _default_profiles(k, p)
    else:
        profiles = np.asarray(spec.mix_profiles, dtype=np.float64)
        if profiles.shape != (k, p):
            raise ValidationError(
                f"mix_profiles shape {profiles.shape} != ({k}, {p})"
            )
        if np.any(profiles < 0) or np.any(profiles.sum(axis=1) <= 0):
            raise ValidationError("mix profiles must be non-negative with positive sums")
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
        if w.shape != (p,):
            raise ValidationError(f"true_coefficients length {w.shape} != {p}")

    offsets = (
        np.linspace(0.0, spec.offset_scale, k) if k > 1 else np.zeros(1)
    )
    entity_labels = np.arange(spec.n_entities) % k
    entities = [f"E{e:03d}" for e in range(spec.n_entities)]
    periods = [2000 + t for t in range(spec.n_periods)]

    rows = spec.n_entities * spec.n_periods
    features = np.empty((rows, p))
    targets = np.empty(rows)
    entity_idx = np.empty(rows, dtype=np.intp)
    period_idx = np.empty(rows, dtype=np.intp)
    labels = np.empty(rows, dtype=np.intp)
    r = 0
    # a scale or feature above the float range is refused below, by its target
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
                log_level = (
                    spec.base_level
                    + feature_term
                    + float(offsets[c])
                    + rng.normal(0.0, spec.noise_sd)
                )
                if not log_level <= _MAX_LOG:
                    raise ValidationError(_overflow(spec.base_level, offsets[c], feature_term))
                features[r] = x
                targets[r] = math.exp(log_level) - 1.0
                entity_idx[r] = e
                period_idx[r] = t
                labels[r] = c
                r += 1

    if np.any(targets < 0):
        raise ValidationError(
            "synthetic target went negative; raise base_level or lower noise_sd"
        )
    data = PanelDataset(
        entities=entities,
        periods=periods,
        feature_names=[f"f{j:02d}" for j in range(p)],
        entity_idx=entity_idx,
        period_idx=period_idx,
        features=features,
        targets=targets,
    )
    truth = GroundTruth(
        labels=labels,
        entity_labels=entity_labels,
        coefficients=w,
        offsets=offsets,
        base_level=spec.base_level,
    )
    return data, truth


def brute_force_dbscan(points, params: DbscanParams) -> np.ndarray:
    """Reference labeling by fixed-point transitive closure (n <= 200).

    Definition-level implementation: core points by neighborhood count,
    density reachability closed under composition until stable, clusters read
    off the closure, border points claimed by their smallest-index core
    within eps, remainder noise.  Canonical ids by first row occurrence.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty 2-d array")
    n = pts.shape[0]
    if n > 200:
        raise ValidationError(f"brute-force oracle is limited to 200 points, got {n}")

    coords = pts.tolist()

    def distance(a, b):
        # the program's formula: squares summed in column order, then the root
        # (not math.dist or sum(), which round differently)
        d = 0.0
        for x, y in zip(a, b):
            d += (x - y) * (x - y)
        return math.sqrt(d)

    dist = [[distance(coords[i], coords[j]) for j in range(n)] for i in range(n)]
    within = np.array([[dist[i][j] <= params.eps for j in range(n)] for i in range(n)])
    counts = within.sum(axis=1)
    core = counts >= params.min_pts

    # direct density reachability: from a core point to anything within eps
    direct = np.zeros((n, n), dtype=bool)
    direct[core, :] = within[core, :]
    reach = direct.copy()
    while True:
        grown = reach | ((reach.astype(np.uint8) @ direct.astype(np.uint8)) > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown

    labels = np.full(n, NOISE, dtype=np.intp)
    next_id = 0
    for i in range(n):
        if core[i] and labels[i] == NOISE:
            members = np.flatnonzero(reach[i] & core)
            labels[members] = next_id
            next_id += 1
    for i in range(n):
        if not core[i]:
            claimants = np.flatnonzero(within[i] & core)
            if claimants.size:
                labels[i] = labels[claimants[0]]

    out = np.full(n, NOISE, dtype=np.intp)
    remap: dict[int, int] = {}
    for i in range(n):
        lab = int(labels[i])
        if lab == NOISE:
            continue
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return out


def reference_objective_min(X, y, penalty: PenaltySpec,
                            tol: float = 1e-10) -> tuple[float, np.ndarray, float]:
    """Generic minimizer of the penalized objective, independent of the solvers.

    Splits beta into positive and negative parts so the objective becomes
    smooth under bound constraints, then runs L-BFGS-B from two starts and
    keeps the better endpoint.  Returns (intercept, beta, objective); good to
    about 1e-6 in objective for n <= 100, p <= 10.
    """
    # imported here: scipy.optimize takes longer to load than the commands
    # that import this module take to run
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValidationError("reference minimizer: bad X/y shapes")
    n, p = X.shape
    lam = penalty.lam
    alpha = penalty.mixing
    xbar = X.mean(axis=0)
    Xc = X - xbar
    ybar = float(y.mean())
    yc = y - ybar

    def objective_split(theta: np.ndarray) -> tuple[float, np.ndarray]:
        u, v = theta[:p], theta[p:]
        b = u - v
        r = yc - Xc @ b
        obj = (
            float(r @ r) / n
            + lam * alpha * float(u.sum() + v.sum())
            + lam * (1.0 - alpha) * float(b @ b)
        )
        gsmooth = (-2.0 / n) * (Xc.T @ r) + 2.0 * lam * (1.0 - alpha) * b
        grad = np.concatenate([gsmooth + lam * alpha, -gsmooth + lam * alpha])
        return obj, grad

    starts = [np.zeros(2 * p)]
    bls, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    starts.append(np.concatenate([np.maximum(bls, 0), np.maximum(-bls, 0)]))

    best: tuple[float, np.ndarray] | None = None
    for x0 in starts:
        res = minimize(
            objective_split,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * (2 * p),
            options={"ftol": tol, "gtol": 1e-12, "maxiter": 50_000, "maxfun": 200_000},
        )
        if not np.all(np.isfinite(res.x)):
            continue
        val = float(res.fun)
        if best is None or val < best[0]:
            best = (val, res.x.copy())
    if best is None:
        raise ConvergenceError("reference minimizer failed from every start")

    theta = best[1]
    beta = theta[:p] - theta[p:]
    intercept = ybar - float(xbar @ beta)
    resid = y - intercept - X @ beta
    obj = (
        float(resid @ resid) / n
        + lam * (alpha * float(np.abs(beta).sum()) + (1.0 - alpha) * float(beta @ beta))
    )
    return intercept, beta, obj


def kkt_residuals(X, y, intercept: float, beta, lam: float,
                  alpha: float) -> tuple[np.ndarray, float]:
    """Stationarity residuals of the penalized objective at (intercept, beta).

    For coordinate j the subgradient condition reads

        g_j = (2/N) x_j . r - 2*lambda*(1-alpha)*beta_j,   r = y - b0 - X b

    with |g_j| <= lambda*alpha at any minimizer, and g_j equal to
    lambda*alpha*sign(beta_j) wherever beta_j is nonzero.  Returns (g, bound).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n = X.shape[0]
    r = y - intercept - X @ beta
    g = (2.0 / n) * (X.T @ r) - 2.0 * lam * (1.0 - alpha) * beta
    return g, lam * alpha


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI between two labelings of the same rows; noise ids count as labels."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise ValidationError("ARI needs two equal-length non-empty labelings")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    for i, j in zip(ai, bi):
        table[i, j] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0 if np.array_equal(ai, bi) else 0.0
    return float((sum_ij - expected) / (maximum - expected))
