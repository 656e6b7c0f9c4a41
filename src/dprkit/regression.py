"""Penalized linear regression over a standardized design matrix.

``fit_elastic_net`` fits every ``PenaltySpec(lam, alpha)``.  It minimizes

    (1/N) * sum_i (y_i - b0 - x_i . b)^2  +  lambda * P(b)

with P(b) = alpha*||b||_1 + (1-alpha)*||b||_2^2 and an unpenalized
intercept.  alpha=1 is the lasso, alpha=0 is ridge; there is no extra 1/2 on
the quadratic term.  The split-penalty convention that drops the 1/N and
carries separate multipliers (lambda_1 on the L1 term, lambda_2 on the L2
term) maps onto this objective via lambda_1 = N*lambda*alpha and
lambda_2 = N*lambda*(1-alpha).  ``pipeline.DprConfig`` alone reads the
penalty names ridge, lasso and elastic_net, as spellings of alpha.

It checks the inputs, reads the centred Gram that every fit of a design
shares, solves, recovers the intercept and builds the FittedModel.  At
alpha=0 it solves the normal equations in closed form.  Every alpha > 0
shares one exact active-set solver: on the centred design it works with
H = X'X/N + lambda*(1-alpha)*I, c = X'y/N and the L1 threshold
t = lambda*alpha/2, i.e. half the objective above, and runs feature-sign search
(Lee, Battle, Raina & Ng, NIPS 2006) on the Gram matrix as glmnet's covariance
updates do (Friedman, Hastie & Tibshirani, JSS 2010).  Each step adds the
violating zero coefficients, largest violation first and at most one more
than the support holds, solves the support's linear system and line-searches
the sign changes on the way, so the solutions carry exact zeros and a warm
start reuses the previous support; the lambda paths of
``pipeline.regularization_path`` warm-start each fit from the last, and a
CV fold starts each alpha's fits from the previous alpha's.
A block of added coefficients is cut before the first one, after the first,
whose solve opposes its gradient's sign.  The support's Cholesky factor is
bordered by the whole block, one coefficient or more, through the Schur
complement, is kept only while it passes a singularity test, and after a
drop only its trailing block is factored again; the support's signs and
right-hand side grow in place with it.  The tolerance and step cap apply
to the active-set solver alone; the pipeline fits at ``DEFAULT_TOL`` and
``DEFAULT_MAX_ITER``.  The fits leave the training r2 and mse out;
``add_training_metrics`` adds them to a fit whose metrics are reported.
A FittedModel is only the solver's result: ``pipeline.DprModel`` alone writes
and reads it, as ``model.json``'s ``regression`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError, as_real, require_int

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
# Cholesky pivot, relative to the largest diagonal entry, below which the
# active-set solver treats a support system as singular
_SINGULAR = 1e-10


def check_lambda(value) -> float:
    """A lambda as a float; a ValidationError unless a finite real >= 0, not a bool."""
    lam = as_real(value)
    if not math.isfinite(lam) or lam < 0:
        raise ValidationError(f"lambda must be finite and >= 0, got {value!r}")
    return lam


def check_alpha(value) -> float:
    """An alpha as a float; a ValidationError unless a real in [0, 1], not a bool."""
    alpha = as_real(value)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {value!r}")
    return alpha


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty strength ``lam`` and L1 share ``alpha``: ridge is alpha 0, lasso alpha 1."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        # stored as floats, so an int lambda writes the same artifacts as its float
        object.__setattr__(self, "lam", check_lambda(self.lam))
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


@dataclass
class DesignMatrix:
    """Regression design: X, y, names, and (once standardized) column stats.

    ``zero_variance`` marks constant columns; they are left untouched by
    standardization and their coefficients are forced to zero by every
    fit.
    """

    X: np.ndarray
    y: np.ndarray
    column_names: list[str]
    standardized: bool = False
    column_means: np.ndarray | None = None
    column_stds: np.ndarray | None = None
    zero_variance: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValidationError(f"X must be 2-d, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValidationError(
                f"y shape {self.y.shape} does not match {self.X.shape[0]} design rows"
            )
        if len(self.column_names) != self.X.shape[1]:
            raise ValidationError(
                f"{len(self.column_names)} column names for {self.X.shape[1]} columns"
            )
        if len(set(self.column_names)) != len(self.column_names):
            raise ValidationError("column names must be unique")
        if not np.all(np.isfinite(self.X)):
            raise ValidationError("design matrix contains non-finite values")
        if not np.all(np.isfinite(self.y)):
            raise ValidationError("targets contain non-finite values")
        if self.zero_variance is None:
            self.zero_variance = np.zeros(self.X.shape[1], dtype=bool)
        else:
            self.zero_variance = np.asarray(self.zero_variance, dtype=bool)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
        """(active, means, ybar, Xc'Xc, Xc'yc) of the centred active columns.

        Centering is done on the rows actually being fit, so subsets of a
        standardized matrix (CV folds) are handled exactly: the intercept is
        recovered as ybar - means . beta afterwards.  Columns constant on
        these rows (e.g. a singleton dummy whose row fell out of the fold) are
        dropped from the update set; their coefficients stay zero.  Every fit
        of this design reads the result, so X and y must not change after.
        """
        active = ~self.zero_variance & ~_constant_columns(self.X)
        Xa = self.X[:, active]
        means = Xa.mean(axis=0)
        Xc = Xa - means
        ybar = float(self.y.mean())
        return active, means, ybar, Xc.T @ Xc, Xc.T @ (self.y - ybar)

    def subset_rows(self, rows) -> "DesignMatrix":
        """Row subset sharing the parent's column stats and flags (CV folds, ``exclude``)."""
        rows = np.asarray(rows)
        return DesignMatrix(
            X=self.X[rows],
            y=self.y[rows],
            column_names=list(self.column_names),
            standardized=self.standardized,
            column_means=self.column_means,
            column_stds=self.column_stds,
            zero_variance=self.zero_variance.copy(),
        )


def _constant_columns(X: np.ndarray) -> np.ndarray:
    if X.shape[0] == 0:
        return np.ones(X.shape[1], dtype=bool)
    return np.all(X == X[0, :], axis=0)


def standardize(X, y, column_names: list[str] | None = None) -> DesignMatrix:
    """Center and scale each column to sample mean 0 and sample std 1 (ddof=1).

    The target is left unscaled.  Constant columns cannot be scaled: they are
    flagged in ``zero_variance``, passed through untouched, and their stored
    std is 0.  Requires at least two rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValidationError(f"standardization needs >= 2 rows, got {X.shape[0]}")
    if column_names is None:
        column_names = [f"x{j}" for j in range(X.shape[1])]
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValidationError("standardize: non-finite values in X or y")

    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    zv = _constant_columns(X) | (stds == 0.0)
    out = X.copy()
    active = ~zv
    out[:, active] = (X[:, active] - means[active]) / stds[active]
    stds = stds.copy()
    stds[zv] = 0.0
    return DesignMatrix(
        X=out,
        y=y.copy(),
        column_names=list(column_names),
        standardized=True,
        column_means=means,
        column_stds=stds,
        zero_variance=zv,
    )


@dataclass
class FittedModel:
    """Coefficients on the standardized scale plus everything needed to predict.

    ``diagnostics`` holds sparsity, iterations (active-set steps; 0 for the
    closed form at alpha=0) and the converged flag; :func:`add_training_metrics`
    puts the training r2 (None when var(y)=0) and mse in front of them for a
    fit whose metrics are reported.  Source-scale equivalents fold the stored
    column stats back in, so predictions agree between the two
    parameterizations.
    """

    intercept: float
    coefficients: np.ndarray
    penalty: PenaltySpec
    column_names: list[str]
    column_means: np.ndarray
    column_stds: np.ndarray
    zero_variance: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def source_coefficients(self) -> np.ndarray:
        out = np.zeros_like(self.coefficients)
        active = ~self.zero_variance
        out[active] = self.coefficients[active] / self.column_stds[active]
        return out

    @property
    def source_intercept(self) -> float:
        active = ~self.zero_variance
        shift = float(
            np.dot(self.coefficients[active], self.column_means[active] / self.column_stds[active])
        )
        return self.intercept - shift


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0); gamma must be >= 0."""
    if gamma < 0:
        raise ValidationError(f"soft threshold requires gamma >= 0, got {gamma}")
    az = abs(z) - gamma
    if az <= 0.0:
        return 0.0
    return math.copysign(az, z)


def _fit_metrics(y: np.ndarray, yhat: np.ndarray) -> tuple[float, float | None]:
    """Mean squared residual and 1 - RSS/TSS (None when ``y`` has zero variance)."""
    sq = y - yhat
    sq *= sq
    rss = float(sq.sum())
    sq = y - y.mean()
    sq *= sq
    tss = float(sq.sum())
    return rss / y.size, None if tss == 0.0 else 1.0 - rss / tss


def enet_objective(X, y, intercept: float, beta, lam: float, alpha: float) -> float:
    """(1/N)||y - b0 - X b||^2 + lambda*(alpha*||b||_1 + (1-alpha)*||b||_2^2)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    resid = y - intercept - X @ beta
    return float(
        np.mean(resid**2)
        + lam * (alpha * np.abs(beta).sum() + (1.0 - alpha) * np.dot(beta, beta))
    )


def _feature_sign(H: np.ndarray, c: np.ndarray, t: float, b: np.ndarray,
                  tol: float, max_iter: int, objective=None) -> tuple[np.ndarray, int, bool]:
    """Minimize b'Hb/2 - c'b + t*||b||_1 by feature-sign search from ``b``.

    The support A is the nonzero entries of ``b``; they keep their signs s_A.
    While the support meets its optimality conditions, a step adds the zero
    coefficients whose violation |c_j - (Hb)_j| - t exceeds ``tol``, largest
    first (ties in index order) and at most k + 1 of them for a support of k,
    each signed by its gradient.  The cap lets a cold start's blocks grow
    geometrically, where a block of every violator would mostly be factored
    only to be cut (below).  Every step solves H_AA x = c_A - t*s_A by
    Cholesky and moves b_A to the lowest point of the true objective among x
    and the points where a coefficient changes sign on the way there (Lee,
    Battle, Raina & Ng, NIPS 2006).  Coefficients that reach zero leave the
    support.

    Should the solve give an added coefficient after the first the sign
    opposite to its gradient's, the block is cut just before the first such
    coefficient and the shorter system solved again.  The first needs no cut:
    its Schur complement is positive, so it keeps its gradient's sign while
    the support conditions hold exactly.  With every added coefficient signed
    as its gradient, the step direction lowers the objective, so every step
    does, no support repeats and the search ends.

    The upper factor R (R'R = H_AA, in A's order) is kept between steps
    while ``factored``, that is while it passes the singularity test: its
    smallest pivot squared exceeds ``_SINGULAR`` times the support's largest
    H_jj.  An added block B, of one coefficient or more, borders R with one
    triangular solve, R12 = R^-T H_AB, and one Cholesky factorization of the
    Schur complement H_BB - R12'R12, and ``factor_tail`` tests the result.
    Should it fail, only the block's first coefficient is added, bordered by
    R12's first column.  A cut reuses the forward solve R^-T (c_A - t*s_A),
    which is the same on a prefix, and redoes only the back substitution.
    After coefficients leave, R keeps its leading block up to the first one
    that left: its entries above that block in the remaining columns are
    already their new R12, so only the trailing block's Schur complement is
    factored.  A cut, or a drop that keeps only a leading block, needs no
    new test: the block's pivots are some of a passing factor's, and its
    largest H_jj is no larger.  While R fails, coefficients are added one
    at a time without bordering, and the next drop factors the support from
    its first column.  The support, s_A and c_A - t*s_A live in length-p
    buffers that an add extends in place; they are rebuilt from ``b`` only
    after a line-search step, which can flip signs, or a drop.

    A (nearly) singular H_AA, which needs alpha=1 and (nearly) collinear
    support columns, gets a damped Newton direction instead, followed up to
    the first sign change or the minimizer along it.  Should no candidate
    lower the objective, which only roundoff can cause, the search stops.

    Converged means the support conditions hold (exactly after a
    sign-consistent solve, within ``tol`` for a warm start) and no zero
    coefficient violates by more than ``tol``.  ``objective``, when given, is
    evaluated after every step and must never rise.  Returns
    (b, steps, converged); a step that adds a block counts once.
    """
    # imported here: scipy.linalg takes longer to load than commands that
    # do not fit take to run
    from scipy.linalg import lapack
    dposv, dpotrf, dtrtrs = lapack.dposv, lapack.dpotrf, lapack.dtrtrs

    p = b.size
    # the support A = order[:k] in R's order, its signs s_A and c_A - t*s_A:
    # an add extends them in place, a line-search step or a drop rebuilds them
    order = np.empty(p, dtype=np.intp)
    signs = np.empty(p)
    rhs = np.empty(p)

    def rebuild(A: np.ndarray) -> int:
        k = A.size
        order[:k] = A
        np.sign(b[A], out=signs[:k])
        np.subtract(c[A], t * signs[:k], out=rhs[:k])
        return k

    k = rebuild(b.nonzero()[0])
    grad = c - H @ b
    hdiag = H.diagonal()
    R = np.zeros(H.shape, order="F")
    pivots = R.diagonal()

    def factor_tail(q: int, k: int) -> bool:
        # R[:q, :q] factors the support's leading block and R[:q, q:k] holds
        # R12 = R^-T H_AT of its trailing block T = order[q:k]: factor the
        # Schur complement H_TT - R12'R12 into R[q:k, q:k], then test R[:k, :k]
        T = order[q:k]
        S = H[T[:, None], T]
        if q:
            R12 = R[:q, q:k]
            S -= R12.T.dot(R12)
        R[q:k, q:k], info = dpotrf(S)
        rmin = pivots[:k].min()
        return not info and rmin * rmin > _SINGULAR * hdiag[order[:k]].max()

    # R[:k, :k] factors H_AA and passes the singularity test while ``factored``
    factored = not k or factor_tail(0, k)
    on_support = False
    prev = math.inf if objective is None else objective(b)
    steps = 0
    while True:
        A = order[:k]
        # the support conditions hold exactly after a sign-consistent solve
        on_support = (on_support or not k
                      or bool(np.abs(grad[A] - t * signs[:k]).max() <= tol))
        if on_support:
            viol = np.abs(grad)
            viol -= t
            viol[A] = -math.inf
            B = (viol > tol).nonzero()[0]
            if not B.size:
                return b, steps, True
        if steps >= max_iter:
            return b, steps, False
        k0 = k
        if on_support:
            if B.size > 1:
                # largest violation first, ties in index order, at most k + 1
                B = B[(-viol[B]).argsort(kind="stable")][:k + 1]
            # without a factor to border, coefficients go in one at a time
            m = B.size if factored else 1
            B = B[:m]
            order[k:k + m] = B
            if factored:
                if k:
                    R[:k, k:k + m] = dtrtrs(R[:, :k], H[A[:, None], B], trans=1)[0]
                factored = factor_tail(k, k + m)
                if not factored and m > 1:
                    # the block's first coefficient goes in alone, bordered by R12[:, 0]
                    m, B = 1, B[:1]
                    factored = factor_tail(k, k + 1)
            np.copysign(1.0, grad[B], out=signs[k:k + m])
            np.subtract(c[B], t * signs[k:k + m], out=rhs[k:k + m])
            k += m
            A = order[:k]
        if factored:
            Rk = R[:, :k]
            z = dtrtrs(Rk, rhs[:k], trans=1)[0]
            x = dtrtrs(Rk, z)[0]
            if k - k0 > 1:
                # cut the block before the first added coefficient, after the
                # first, whose sign opposes its gradient's; the forward solve
                # z holds on every prefix
                wrong = (signs[k0 + 1:k] * x[k0 + 1:] < 0.0).nonzero()[0]
                while wrong.size:
                    k = k0 + 1 + int(wrong[0])
                    A = order[:k]
                    x = dtrtrs(R[:, :k], z[:k])[0]
                    wrong = (signs[k0 + 1:k] * x[k0 + 1:] < 0.0).nonzero()[0]
            on_support = bool((signs[:k] * x).min() >= 0.0)
            if not on_support:
                bA = b[A]
                d, top = x - bA, 1.0
                Rd = R[:k, :k] @ d
                curv = float(Rd @ Rd)
        else:
            # a (nearly) singular support, only at alpha=1 with (nearly)
            # collinear columns: take a damped Newton direction, which also
            # descends along the flat directions, to the minimizer of the
            # signed objective on it
            on_support = False
            bA = b[A]
            HA = H[A[:, None], A]
            slope = HA @ bA - rhs[:k]
            damped = HA + _SINGULAR * HA.diagonal().max() * np.eye(k)
            d = -dposv(damped, slope)[1]
            curv = float(d @ HA @ d)
            top = -float(slope @ d) / curv if curv > 0.0 else math.inf
        if on_support:
            new = x
        else:
            # step lengths where a coefficient crosses zero, then the minimizer
            cross = (bA * d < 0.0).nonzero()[0]
            at = -bA[cross] / d[cross]
            keep = at.argsort()
            cross, at = cross[keep], at[keep]
            before = at.searchsorted(top)
            cross, at = cross[:before], at[:before]
            step = at if top == math.inf else np.concatenate((at, (top,)))
            if not factored:
                # on a (nearly) flat direction only the first point can be
                # evaluated reliably, and the objective falls up to it
                step = step[:1]
            points = bA + step[:, None] * d
            # objective change at each candidate, relative to the current point
            change = (step * -(d @ grad[A]) + step * step * (0.5 * curv)
                      + t * (np.abs(points) - np.abs(bA)).sum(axis=1))
            if not step.size or change.min() >= 0.0:
                # only roundoff keeps the objective from falling: stop here
                return b, steps, False
            i = int(change.argmin())
            new = points[i]
            new[cross[at == step[i]]] = 0.0
        b[A] = new
        if not new.all():
            stay = new != 0.0
            # R's leading block up to the first coefficient that left still
            # factors, and its rows above the kept columns after it are their
            # new R12: only the trailing block is factored again
            q = int(stay.argmin()) if factored else 0
            k = rebuild(A[stay])
            if q:
                R[:q, q:k] = R[:q, q + stay[q:].nonzero()[0]]
            factored = q == k or factor_tail(q, k)
        elif not on_support:
            # a line-search step can flip signs without leaving the support
            k = rebuild(A)
        grad = c - H @ b
        steps += 1
        if objective is not None:
            obj = objective(b)
            if obj > prev + 1e-12 * max(1.0, abs(prev)):
                raise ConvergenceError(
                    f"objective increased during step {steps}: {prev} -> {obj}"
                )
            prev = obj


def fit_elastic_net(dm: DesignMatrix, penalty: PenaltySpec,
                    warm_start: np.ndarray | None = None, *, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER, debug: bool = False) -> FittedModel:
    """The fit of every penalty: alpha=0 in closed form, alpha > 0 by feature-sign search.

    At alpha=0 (ridge) it solves (X'X + N*lambda*I) b = X'y, ignoring
    ``warm_start``; at lambda=0 collinear columns raise RankDeficiencyError.
    The search starts from
    ``warm_start``'s support and signs, bounds the zero coefficients' optimality
    violation (gradient of half the objective) by ``tol``, and reports hitting
    ``max_iter`` steps as ``converged=False``; ``debug=True`` asserts that no
    step raises the objective.
    """
    if not isinstance(dm, DesignMatrix):
        raise ValidationError("fit expects a DesignMatrix")
    if not dm.standardized:
        raise ValidationError("fit expects a standardized DesignMatrix")
    if dm.n < 2:
        raise ValidationError(f"fit needs >= 2 rows, got {dm.n}")
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    max_iter = require_int("max_iter", max_iter, 1)

    active, means, ybar, XtX, Xty = dm.gram
    n, pa = dm.n, means.size
    lam, alpha = penalty.lam, penalty.alpha
    ba = np.zeros(pa)
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=np.float64)
        if ws.shape != (dm.p,):
            raise ValidationError(f"warm start has shape {ws.shape}, expected ({dm.p},)")
        ba[:] = ws[active]
    steps, converged = 0, True
    if pa == 0:
        pass  # no column varies on these rows: the fit is their mean
    elif alpha == 0.0:
        if lam == 0.0 and np.linalg.matrix_rank(dm.X[:, active] - means) < pa:
            raise RankDeficiencyError(
                "alpha=0 and lambda=0 on rank-deficient columns; "
                "use lambda > 0 or drop collinear columns"
            )
        try:
            ba = np.linalg.solve(XtX + n * lam * np.eye(pa), Xty)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"normal equations are singular: {exc}") from None
    else:
        H = XtX / n
        H.flat[::pa + 1] += lam * (1.0 - alpha)
        objective = None
        if debug:
            Xc, yc = dm.X[:, active] - means, dm.y - ybar

            def objective(b):
                return enet_objective(Xc, yc, 0.0, b, lam, alpha)
        ba, steps, converged = _feature_sign(H, Xty / n, lam * alpha / 2.0, ba, tol,
                                             max_iter, objective)
    beta = np.zeros(dm.p)
    beta[active] = ba
    intercept = ybar - float(means @ ba)
    # metric_sparsity without its conversions: only active columns are nonzero
    p_eff = dm.p - int(np.count_nonzero(dm.zero_variance))
    return FittedModel(
        intercept=intercept,
        coefficients=beta,
        penalty=penalty,
        column_names=list(dm.column_names),
        column_means=dm.column_means.copy(),
        column_stds=dm.column_stds.copy(),
        zero_variance=dm.zero_variance.copy(),
        diagnostics={
            "sparsity": int(np.count_nonzero(ba)) / p_eff if p_eff else 0.0,
            "iterations": steps,
            "converged": bool(converged),
        },
    )


def add_training_metrics(model: FittedModel, dm: DesignMatrix) -> FittedModel:
    """Add ``model``'s training r2 and mse on ``dm``, the design it was fitted on,
    in front of its diagnostics; returns ``model``.

    ``fit_elastic_net`` leaves them out: cross-validation never reads them.
    """
    mse, r2 = _fit_metrics(dm.y, _linear_predictor(model.intercept, dm.X, model.coefficients))
    model.diagnostics = {"r2": r2, "mse": mse, **model.diagnostics}
    return model


def _linear_predictor(intercept: float, X: np.ndarray, coefficients: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``intercept + X @ coefficients``, each row of ``X`` summed on its own.

    A BLAS product sums a row in an order that depends on where the row falls
    in its batch, so a row's last digits would depend on the other rows.  For
    a C-ordered ``X`` numpy sums each row in one pass over it, the same for a
    row alone as among many (an F-ordered ``X`` is summed column by column,
    and a single row is not).  The products go to ``out`` when given: ``X``
    itself, to multiply in place.
    """
    return intercept + np.multiply(X, coefficients, out=out).sum(axis=1)


def predict(model: FittedModel, rows) -> np.ndarray:
    """Predict targets for rows given in the unstandardized design space.

    Rows are standardized with the stats stored in the model; flagged
    zero-variance columns are skipped (their coefficients are zero).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    p = len(model.column_names)
    if rows.shape[1] != p:
        raise ValidationError(f"prediction rows have {rows.shape[1]} columns, model has {p}")
    if not np.all(np.isfinite(rows)):
        raise ValidationError("prediction rows contain non-finite values")
    active = ~model.zero_variance
    z = rows.compress(active, axis=1)  # a C-ordered copy; a mask index copies in F order
    z -= model.column_means[active]
    z /= model.column_stds[active]
    return _linear_predictor(model.intercept, z, model.coefficients[active], out=z)


def metric_mse(y, yhat) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.size == 0:
        raise ValidationError("mse needs matching non-empty vectors")
    return _fit_metrics(y, yhat)[0]


def metric_r2(y, yhat) -> float:
    """1 - RSS/TSS; undefined (raises) when y has zero variance."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.size == 0:
        raise ValidationError("r2 needs matching non-empty vectors")
    r2 = _fit_metrics(y, yhat)[1]
    if r2 is None:
        raise ValidationError("r2 undefined: target has zero variance")
    return r2


def metric_sparsity(coefficients, zero_variance=None) -> float:
    """Share of penalized coefficients that are exactly nonzero.

    Accepts a :class:`FittedModel` or a bare coefficient vector.  Zero-variance
    columns are forced to zero by construction, so they are excluded from
    numerator and denominator alike; the intercept never counts.  All-zero
    width gives 0, fully dense gives 1.
    """
    if isinstance(coefficients, FittedModel):
        zero_variance = coefficients.zero_variance
        coefficients = coefficients.coefficients
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if zero_variance is None:
        zero_variance = np.zeros(coefficients.shape[0], dtype=bool)
    active = ~np.asarray(zero_variance, dtype=bool)
    p_eff = int(active.sum())
    if p_eff == 0:
        return 0.0
    return float(np.count_nonzero(coefficients[active])) / p_eff
