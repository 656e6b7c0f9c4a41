"""Independent oracles that check the production modules from the outside.

Nothing here shares solver code with the package: the clustering oracle
labels points by a literal transitive-closure fixed point, the objective
oracle minimizes the penalized loss with a generic bound-constrained
quasi-Newton method on the positive/negative split formulation, and the
closed-form soft threshold is the lasso's one-coordinate solution.  Only the
tests import this module.
"""

from __future__ import annotations

import math

import numpy as np

from dprkit.clustering import NOISE, DbscanParams
from dprkit.errors import ConvergenceError, ValidationError
from dprkit.regression import PenaltySpec


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
    lam, alpha = penalty.lam, penalty.alpha
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


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0); gamma must be >= 0."""
    if gamma < 0:
        raise ValidationError(f"soft threshold requires gamma >= 0, got {gamma}")
    az = abs(z) - gamma
    if az <= 0.0:
        return 0.0
    return math.copysign(az, z)
