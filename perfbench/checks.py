"""Output checks, computed apart from the program.

Each check reads the artifacts an operation wrote and compares them with a
computation done here with numpy/scipy from the generated input, or with a
property the method must have.  None compares against a stored copy of
earlier output.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from dprkit.testkit import adjusted_rand_index

# The solver's convergence tolerance (dprkit.regression.DEFAULT_TOL, which
# `dprkit run` always uses).  Coordinate descent stops once no coefficient
# moved by more than TOL in a sweep; with standardized columns
# (|x_j . x_k| / N <= 1) the updates after coordinate j shift its gradient by
# at most 2 * TOL per coordinate, hence the bound 2 * p * TOL below.
TOL = 1e-9
# Planted mix profiles must be recovered on run-paper.
MIN_ARI = 0.95
# Recomputed predictions agree with the written ones to roundoff: the
# program predicts on the standardized scale, the check on the source scale.
PRED_RTOL = 1e-10


class CheckFailed(Exception):
    pass


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def _cell(text: str) -> float:
    return math.nan if text in ("NA", "") else float(text)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def check_same_bytes(first: dict[str, str], again: dict[str, str]) -> None:
    if first != again:
        changed = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
        _fail(f"artifacts differ from the first operation on the same input: {changed}")


# ----------------------------------------------------------------- input side


def _row_index(panel) -> dict:
    periods = np.asarray(panel.periods)[panel.period_idx]
    return {
        (panel.entities[e], str(p)): i
        for i, (e, p) in enumerate(zip(panel.entity_idx, periods))
    }


def _rows_for(panel, rows: list[dict]) -> np.ndarray:
    index = _row_index(panel)
    try:
        return np.array([index[(r["entity"], r["period"])] for r in rows], dtype=np.intp)
    except KeyError as exc:
        _fail(f"artifact names a row that is not in the input: {exc}")


def _shares(features: np.ndarray) -> np.ndarray:
    sums = features.sum(axis=1)
    out = np.zeros_like(features)
    ok = sums > 0
    out[ok] = features[ok] / sums[ok, None]
    return out


def _train_rows(op, clusters: list[dict]) -> tuple[list[dict], np.ndarray]:
    train = [r for r in clusters if r["split"] == "train"]
    idx = _rows_for(op.panel, train)
    periods = np.asarray(op.panel.periods)[op.panel.period_idx]
    expected = np.flatnonzero(np.isin(periods, op.train_periods))
    if not np.array_equal(idx, expected):
        _fail("clusters.csv train rows are not the training periods in panel order")
    return train, idx


# ------------------------------------------------------------- run artifacts


def check_kkt(op) -> None:
    """The final fit satisfies the elastic-net optimality conditions."""
    out = op.out_dir
    summary = read_json(out / "summary.json")
    bundle = read_json(out / "model.json")
    chosen = summary["chosen"]
    lam = float(chosen["lambda"])
    alpha = {"ridge": 0.0, "lasso": 1.0}.get(chosen["kind"], chosen["alpha"])
    if bundle["clustering"]["outlier_policy"] != "unique_dummy":
        _fail("check covers the unique_dummy policy only")
    offset = float(bundle["transform"]["log_offset"])
    coefs = read_rows(out / "coefficients.csv")
    if coefs[0]["name"] != "(intercept)":
        _fail("coefficients.csv does not start with the intercept")
    intercept = float(coefs[0]["standardized"])
    names = [r["name"] for r in coefs[1:]]
    beta = np.array([float(r["standardized"]) for r in coefs[1:]])
    forced = np.array([r["forced_zero"] == "1" for r in coefs[1:]])

    train, idx = _train_rows(op, read_rows(out / "clusters.csv"))
    labels = np.array([int(r["label"]) for r in train])
    feats = np.log(op.panel.features[idx] + offset)
    y = np.log(op.panel.targets[idx] + offset)
    n = idx.size
    cols = []
    for j, name in enumerate(names):
        if j < feats.shape[1]:
            if name != op.panel.feature_names[j]:
                _fail(f"column {j} is {name!r}, expected {op.panel.feature_names[j]!r}")
            cols.append(feats[:, j])
        elif name.startswith("cluster_"):
            cols.append((labels == int(name[len("cluster_"):])).astype(float))
        elif name.startswith("noise_"):
            col = np.zeros(n)
            col[int(name[len("noise_"):])] = 1.0
            cols.append(col)
        else:
            _fail(f"unexpected design column {name!r}")
    X = np.column_stack(cols)
    sd = X.std(axis=0, ddof=1)
    constant = sd == 0
    if not np.array_equal(constant, forced):
        _fail("forced_zero flags do not match the constant design columns")
    if np.any(beta[forced] != 0):
        _fail("a constant column has a nonzero coefficient")
    Xs = np.zeros_like(X)
    Xs[:, ~constant] = (X[:, ~constant] - X[:, ~constant].mean(axis=0)) / sd[~constant]

    bound = 2.0 * X.shape[1] * TOL
    r = y - intercept - Xs @ beta
    if abs(r.mean()) > bound:
        _fail(f"intercept is not optimal: mean residual {r.mean():.3e}")
    g = (2.0 / n) * (Xs.T @ r) - 2.0 * lam * (1.0 - alpha) * beta
    active = (beta != 0) & ~constant
    viol = np.zeros_like(g)
    viol[active] = np.abs(g[active] - lam * alpha * np.sign(beta[active]))
    zero = (beta == 0) & ~constant
    viol[zero] = np.maximum(np.abs(g[zero]) - lam * alpha, 0.0)
    worst = int(np.argmax(viol))
    if viol[worst] > bound:
        _fail(f"KKT violated at {names[worst]!r}: {viol[worst]:.3e} > {bound:.3e}")


def check_cv_choice(op) -> None:
    """The chosen (lambda, alpha) is the argmin of cv_table.csv.

    Tie-break as documented in cross_validate: larger lambda, then larger alpha.
    """
    rows = read_rows(op.out_dir / "cv_table.csv")
    cells = [(_cell(r["mean_mse"]), _cell(r["lambda"]), _cell(r["alpha"])) for r in rows]
    cells = [c for c in cells if not math.isnan(c[0])]
    if not cells:
        _fail("cv_table.csv has no usable cell")
    best = min(cells, key=lambda c: (c[0], -c[1], 0.0 if math.isnan(c[2]) else -c[2]))
    chosen = read_json(op.out_dir / "summary.json")["chosen"]
    alpha = math.nan if chosen["alpha"] is None else float(chosen["alpha"])
    same_alpha = (math.isnan(alpha) and math.isnan(best[2])) or alpha == best[2]
    if float(chosen["lambda"]) != best[1] or not same_alpha:
        _fail(f"chosen ({chosen['lambda']}, {chosen['alpha']}) is not the CV argmin "
              f"({best[1]}, {best[2]})")


def check_planted_clusters(op) -> None:
    """Training labels recover the planted mix profiles."""
    train, idx = _train_rows(op, read_rows(op.out_dir / "clusters.csv"))
    ari = adjusted_rand_index([int(r["label"]) for r in train], op.truth.labels[idx])
    if ari < MIN_ARI:
        _fail(f"ARI against the planted profiles is {ari:.4f} < {MIN_ARI}")


def check_scan_choice(op) -> None:
    """The run clustered at the first scan cell with the largest silhouette."""
    rows = read_rows(op.out_dir / "scan.csv")
    scored = [r for r in rows if r["sc"] != "NA"]
    if not scored:
        _fail("scan.csv has no cell with a silhouette")
    best = max(scored, key=lambda r: float(r["sc"]))  # max keeps the first on ties
    clus = read_json(op.out_dir / "summary.json")["clustering"]
    if (float(best["eps"]), int(best["min_pts"])) != (float(clus["eps"]), int(clus["min_pts"])):
        _fail(f"clustered at eps={clus['eps']} min_pts={clus['min_pts']}, but the best "
              f"scan cell is eps={best['eps']} min_pts={best['min_pts']}")


def check_dbscan_definition(op) -> None:
    """Training labels satisfy the DBSCAN definition, checked with a k-d tree.

    Closed eps-balls with the point itself counted; clusters are the
    connected components of the core points; a border point joins the
    cluster of its smallest-index core neighbor; ids number clusters by first
    row.
    """
    clus = read_json(op.out_dir / "summary.json")["clustering"]
    eps, min_pts = float(clus["eps"]), int(clus["min_pts"])
    train, idx = _train_rows(op, read_rows(op.out_dir / "clusters.csv"))
    labels = np.array([int(r["label"]) for r in train])
    core_flag = np.array([r["core"] == "1" for r in train])
    pts = _shares(op.panel.features[idx])
    n = pts.shape[0]
    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
    i = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j = np.concatenate([pairs[:, 1], pairs[:, 0]])
    counts = np.bincount(i, minlength=n) + 1
    core = counts > min_pts if clus["core_strict"] else counts >= min_pts
    if not np.array_equal(core, core_flag):
        _fail(f"core flags differ at {np.flatnonzero(core != core_flag)[:5].tolist()}")

    cc = core[i] & core[j]
    graph = coo_matrix((np.ones(int(cc.sum())), (i[cc], j[cc])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    pairs_seen = set(zip(comp[core].tolist(), labels[core].tolist()))
    if (len(pairs_seen) != len({c for c, _ in pairs_seen})
            or len(pairs_seen) != len({lab for _, lab in pairs_seen})
            or np.any(labels[core] < 0)):
        _fail("core labels are not the connected components of the core points")

    claim = np.full(n, n)
    border = ~core[i] & core[j]
    np.minimum.at(claim, i[border], j[border])
    expected = np.where(claim < n, labels[np.minimum(claim, n - 1)], -1)
    bad = np.flatnonzero(~core & (labels != expected))
    if bad.size:
        _fail(f"border/noise labels differ at rows {bad[:5].tolist()}")

    ids, first = np.unique(labels, return_index=True)
    by_first = ids[np.argsort(first)]
    by_first = by_first[by_first >= 0]
    if not np.array_equal(by_first, np.arange(by_first.size)):
        _fail("cluster ids are not numbered by first row")


# ------------------------------------------------------------ forecast rows


def check_forecast(op) -> None:
    """Every forecast row's cluster and prediction, recomputed from model.json.

    The cluster is the label of the nearest training core point when it lies
    within eps, noise otherwise; the prediction applies the model's
    source-scale coefficients to ln(x + offset) and the cluster dummies.
    """
    bundle = read_json(op.model_json)
    clus = bundle["clustering"]
    reg = bundle["regression"]
    offset = float(bundle["transform"]["log_offset"])
    if bundle["transform"]["normalize_mode"] != "rawshares":
        _fail("check covers the rawshares mix only")
    rows = read_rows(op.forecast_csv)
    idx = _rows_for(op.panel, rows)
    if op.workload == "forecast-batch" and len(rows) != op.panel.n_obs:
        _fail(f"forecast has {len(rows)} rows for {op.panel.n_obs} input rows")

    cores = np.asarray(clus["core_points"], dtype=float)
    core_labels = np.asarray(clus["core_labels"], dtype=int)
    expected = np.full(idx.size, -1)
    if cores.size:
        dist, near = cKDTree(cores).query(_shares(op.panel.features[idx]))
        hit = dist <= float(clus["eps"])
        expected[hit] = core_labels[near[hit]]
    got = np.array([int(r["cluster"]) for r in rows])
    bad = np.flatnonzero(got != expected)
    if bad.size:
        _fail(f"{bad.size} forecast rows have the wrong cluster, e.g. row {bad[0]}: "
              f"{got[bad[0]]} != {expected[bad[0]]}")
    if any(r["noise_row"] != str(int(lab == -1)) for r, lab in zip(rows, got)):
        _fail("noise_row flags do not match the clusters")

    names = reg["column_names"]
    coef = np.asarray(reg["source_coefficients"], dtype=float)
    nf = len(bundle["features"])
    X = np.zeros((idx.size, len(names)))
    X[:, :nf] = np.log(op.panel.features[idx] + offset)
    for c, name in enumerate(names[nf:], start=nf):
        if name.startswith("cluster_"):
            X[:, c] = got == int(name[len("cluster_"):])
    terms = X * coef
    pred = float(reg["source_intercept"]) + terms.sum(axis=1)
    scale = abs(float(reg["source_intercept"])) + np.abs(terms).sum(axis=1)
    written = np.array([float(r["predicted_log"]) for r in rows])
    off = np.abs(pred - written) > PRED_RTOL * scale
    if off.any():
        k = int(np.flatnonzero(off)[0])
        _fail(f"predicted_log of row {k} is {written[k]!r}, recomputed {pred[k]!r}")

    actual = np.array([_cell(r["actual_log"]) for r in rows])
    targets = op.panel.targets[idx]
    have = ~np.isnan(targets)
    if not np.array_equal(np.isnan(actual), ~have) or np.any(
            np.abs(actual[have] - np.log(targets[have] + offset)) > 1e-12 * np.abs(actual[have])):
        _fail("actual_log does not match ln(target + offset)")


def forecast_mse(forecast_csv: Path) -> float:
    """Mean squared log-unit error over the rows that have a target."""
    errs = [
        float(r["predicted_log"]) - float(r["actual_log"])
        for r in read_rows(forecast_csv) if r["actual_log"] != "NA"
    ]
    if not errs:
        _fail("no forecast row has a target")
    return float(np.mean(np.square(errs)))


RUN_CHECKS = {
    "run-paper": (check_kkt, check_cv_choice, check_planted_clusters),
    "run-wide": (check_kkt, check_cv_choice),
    "scan-large": (check_kkt, check_cv_choice, check_scan_choice, check_dbscan_definition),
}


def check_op(op) -> None:
    """Every check that applies to one operation's output."""
    for check in RUN_CHECKS.get(op.workload, ()):
        check(op)
    check_forecast(op)


def check_round_trip(cli, prepared, again: Path) -> None:
    """`dprkit forecast` on a run's own test rows reproduces its forecast.csv."""
    code = cli.main(["forecast", "--input", str(prepared.fit_test_panel),
                     "--model", str(prepared.fit_dir / "model.json"), "--output", str(again)])
    if code != 0:
        _fail(f"forecast of the fitting run's test rows exited {code}")
    if (prepared.fit_dir / "forecast.csv").read_bytes() != again.read_bytes():
        _fail("forecast on the fitting run's test rows differs from its forecast.csv")
