"""Command line front end.

Each subcommand validates its inputs fully before writing anything, prints
exactly one machine-parsable ``<stage> ok key=value ...`` line to stdout on
success, and reserves stderr for diagnostics.  Exit codes: 0 success, 1
invalid input or usage, 2 numerical failure (rank deficiency, divergence,
no usable cross-validation cell).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline, regression
from .clustering import ClusterModel, DbscanParams, dbscan, scan_params, suggest_params
from .errors import ConvergenceError, NumericalError, RankDeficiencyError, ValidationError
from .panel import (
    MIX_MODES,
    NO_NORMALIZATION,
    EmissionFactorTable,
    PanelDataset,
    PanelSchema,
    TransformSpec,
    compute_emissions,
    energy_mix_features,
    load_panel,
    log_transform,
    write_panel,
)
from .regression import ELASTIC_NET, PENALTY_KINDS, FittedModel, standardize
from .tables import NA, fmt, write_table


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input, not numerical failure
    def error(self, message: str):
        raise ValidationError(message)


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: ``a,b,c`` literal, ``range:lo:hi:step``, ``logspace:lo:hi:n``."""
    text = text.strip()
    try:
        if text.startswith("range:"):
            _, lo, hi, step = text.split(":")
            lo, hi, step = float(lo), float(hi), float(step)
            if step <= 0:
                raise ValidationError(f"grid step must be positive in {text!r}")
            vals = np.arange(lo, hi + step / 2, step)
            return [float(v) for v in vals]
        if text.startswith("logspace:"):
            _, lo, hi, n = text.split(":")
            return [float(v) for v in np.logspace(float(lo), float(hi), int(n))]
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"cannot parse grid {text!r}: {exc}") from exc


def _parse_int_grid(text: str) -> list[int]:
    vals = _parse_grid(text)
    out = []
    for v in vals:
        if v != int(v):
            raise ValidationError(f"grid {text!r} must contain integers")
        out.append(int(v))
    return out


def _parse_period_token(tok: str, as_int: bool):
    tok = tok.strip()
    if not as_int:
        return tok
    try:
        return int(tok)
    except ValueError as exc:
        raise ValidationError(f"period {tok!r} is not an integer") from exc


def _parse_periods(text: str, panel_periods: list) -> list:
    """Either ``a,b,c`` or an inclusive integer range ``a-b``."""
    as_int = bool(panel_periods) and isinstance(panel_periods[0], int)
    text = text.strip()
    if as_int and "-" in text and "," not in text:
        lo_s, _, hi_s = text.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise ValidationError(f"cannot parse period range {text!r}") from exc
        if hi < lo:
            raise ValidationError(f"period range {text!r} is reversed")
        return [p for p in panel_periods if lo <= p <= hi]
    return [_parse_period_token(t, as_int) for t in text.split(",") if t.strip()]


def _key_values(items) -> dict[str, str]:
    """``(where, text)`` items of the form key=value; an error names ``where``; no key twice."""
    out: dict[str, str] = {}
    for where, text in items:
        if "=" not in text:
            raise ValidationError(f"{where}expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if not key:
            raise ValidationError(f"{where}empty key")
        if key in out:
            raise ValidationError(f"{where}duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _read_config(path) -> dict[str, str]:
    """key=value lines; ``#`` starts a comment; blank lines ignored."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    items = []
    for ln, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append((f"{path}:{ln}: ", line))
    return _key_values(items)


def _require_input(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {path}")
    return p


def _load_canonical(path) -> PanelDataset:
    return load_panel(_require_input(path), PanelSchema())


def _ok(stage: str, **kv) -> None:
    parts = [stage, "ok"]
    for key, value in kv.items():
        if isinstance(value, float):
            parts.append(f"{key}={fmt(value)}")
        elif value is None:
            parts.append(f"{key}={NA}")
        else:
            parts.append(f"{key}={value}")
    print(" ".join(parts))


def _mix_matrix(panel: PanelDataset, mode: str) -> np.ndarray:
    matrix, flagged = energy_mix_features(panel, mode)
    for i in flagged[:5]:
        entity, period = panel.row_keys()[i]
        print(f"warning: zero feature row at ({entity}, {period})", file=sys.stderr)
    return matrix


def _cluster_bundle(panel: PanelDataset, model: ClusterModel, points: np.ndarray,
                    mode: str) -> dict:
    return {
        "format": "dprkit-clusters-v1",
        "params": {
            "eps": model.params.eps,
            "min_pts": model.params.min_pts,
            "core_strict": model.params.core_strict,
        },
        "mix_mode": mode,
        "k": model.k,
        "sc": model.sc,
        "sse": model.sse,
        "row_keys": [[e, p] for e, p in panel.row_keys()],
        "labels": [int(v) for v in model.labels],
        "core_mask": [int(v) for v in model.core_mask],
        "points": [[float(v) for v in row] for row in points],
    }


def _read_bundle(path, parse):
    """``parse`` of a JSON file; its ValidationError names the file."""
    p = _require_input(path)
    try:
        return parse(json.loads(p.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _labels_for_panel(panel: PanelDataset, bundle_path) -> np.ndarray:
    """Row-aligned labels from a cluster bundle, validated against the panel."""

    def parse(bundle):
        if not isinstance(bundle, dict) or bundle.get("format") != "dprkit-clusters-v1":
            raise ValidationError("not a cluster bundle")
        return (
            pipeline.bundle_field(bundle, "row_keys", lambda v: [
                (str(e), p if isinstance(p, str) else int(p)) for e, p in v]),
            pipeline.bundle_field(bundle, "labels", lambda v: np.asarray(v, dtype=np.intp)),
        )

    keys, labels = _read_bundle(bundle_path, parse)
    panel_keys = [(e, p if isinstance(p, str) else int(p)) for e, p in panel.row_keys()]
    if keys != panel_keys:
        raise ValidationError(
            f"{bundle_path}: row keys do not match the panel; "
            "cluster the same panel the model is fit on"
        )
    return labels


def _design_from_args(args):
    """The standardized log design of ``fit``, ``cv`` and ``path``, with any cluster dummies."""
    panel = _load_canonical(args.input)
    spec = TransformSpec(log_offset=args.log_offset, normalize_mode=NO_NORMALIZATION)
    dm = pipeline.design_from_panel(log_transform(panel, spec))
    if args.cluster_model:
        labels = _labels_for_panel(panel, args.cluster_model)
        dm = pipeline.augment_with_dummies(dm, labels, policy=args.outlier_policy,
                                           baseline=args.baseline)
    return standardize(dm.X, dm.y, dm.column_names, source_rows=dm.source_rows)


# ---------------------------------------------------------------- subcommands


def _cmd_ingest(args) -> int:
    schema = PanelSchema(
        entity=args.entity_column,
        period=args.period_column,
        # empty name: the raw file has no target column (factors supply it)
        target=args.target_column or None,
        features=args.features.split(",") if args.features else None,
        delimiter=args.delimiter,
    )
    panel = load_panel(_require_input(args.input), schema)
    if args.factors:
        table = EmissionFactorTable.from_csv(_require_input(args.factors))
        panel = compute_emissions(panel, table)
    write_panel(panel, args.output)
    _ok(
        "ingest",
        rows=panel.n_obs,
        entities=len(panel.entities),
        periods=len(panel.periods),
        features=panel.n_features,
    )
    return 0


def _cmd_synth(args) -> int:
    from . import testkit

    overrides: dict = {}
    if args.spec:
        for key, value in _read_config_text(args.spec).items():
            if key not in testkit.SyntheticSpec.__dataclass_fields__:
                raise ValidationError(f"unknown synth spec field {key!r}")
            overrides[key] = _coerce_spec_value(key, value)
    if args.seed is not None:
        overrides["seed"] = args.seed
    spec = testkit.SyntheticSpec(**overrides)
    panel, truth = testkit.generate_panel(spec)
    write_panel(panel, args.output)
    _ok(
        "synth",
        rows=panel.n_obs,
        entities=spec.n_entities,
        periods=spec.n_periods,
        clusters=spec.n_clusters,
        seed=spec.seed,
    )
    return 0


def _coerce_spec_value(key: str, value: str):
    int_fields = {"n_entities", "n_periods", "n_features", "n_clusters", "seed"}
    if key in int_fields:
        try:
            return int(value)
        except ValueError as exc:
            raise ValidationError(f"synth field {key}={value!r} must be an integer") from exc
    try:
        return float(value)
    except ValueError as exc:
        raise ValidationError(f"synth field {key}={value!r} must be numeric") from exc


def _read_config_text(text: str) -> dict[str, str]:
    """A comma list of key=value items, as ``synth --spec`` takes it."""
    return _key_values(("--spec: ", chunk) for chunk in map(str.strip, text.split(","))
                       if chunk)


def _cmd_cluster(args) -> int:
    panel = _load_canonical(args.input)
    points = _mix_matrix(panel, args.mix)
    params = DbscanParams(eps=args.eps, min_pts=args.min_pts, core_strict=args.core_strict)
    model = dbscan(points, params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(
        out / "clusters.csv",
        ["entity", "period", "label", "core"],
        [*panel.key_columns(), model.labels.astype(np.intp), model.core_mask.astype(np.intp)],
    )
    bundle = _cluster_bundle(panel, model, points, args.mix)
    (out / "cluster_model.json").write_text(
        json.dumps(bundle, indent=2) + "\n", encoding="utf-8"
    )
    _ok("cluster", k=model.k, noise=model.n_noise, sc=model.sc, sse=model.sse)
    return 0


def _cmd_scan(args) -> int:
    panel = _load_canonical(args.input)
    points = _mix_matrix(panel, args.mix)
    rows = scan_params(
        points,
        _parse_grid(args.eps_grid),
        _parse_int_grid(args.minpts_grid),
        core_strict=args.core_strict,
    )
    pipeline.write_scan_table(rows, Path(args.output))
    best = suggest_params(rows)
    if best is None:
        _ok("scan", cells=len(rows), best_eps=None, best_min_pts=None)
    else:
        _ok(
            "scan",
            cells=len(rows),
            best_eps=best.eps,
            best_min_pts=best.min_pts,
            best_sc=best.sc,
        )
    return 0


def _check_mixing_flag(kind: str, flag: str, given: bool) -> None:
    """``flag`` (alpha, or its grid) is required for elastic_net and rejected otherwise."""
    if kind not in PENALTY_KINDS:
        raise ValidationError(f"--penalty must be one of {PENALTY_KINDS}")
    if kind == ELASTIC_NET and not given:
        raise ValidationError(f"elastic_net needs {flag}")
    if kind != ELASTIC_NET and given:
        raise ValidationError(f"{flag} is only valid for elastic_net, not {kind}")


def _penalty_from_args(kind: str, lam: float, alpha) -> regression.PenaltySpec:
    _check_mixing_flag(kind, "--alpha", alpha is not None)
    return regression.PenaltySpec(kind, lam, alpha)


def _cmd_fit(args) -> int:
    penalty = _penalty_from_args(args.penalty, args.lam, args.alpha)
    dm = _design_from_args(args)
    model = pipeline.fit_penalized(dm, penalty)
    if not model.diagnostics["converged"]:
        raise ConvergenceError(
            f"fit did not converge in {model.diagnostics['iterations']} steps"
        )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_coefficients(model, out / "coefficients.csv")
    (out / "model.json").write_text(
        json.dumps(
            {"format": "dprkit-fit-v1", "regression": model.to_dict()},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    d = model.diagnostics
    _ok(
        "fit",
        kind=penalty.kind,
        r2=d["r2"],
        mse=d["mse"],
        sparsity=d["sparsity"],
        iterations=d["iterations"],
    )
    return 0


def _cmd_cv(args) -> int:
    _check_mixing_flag(args.penalty, "--alpha-grid", args.alpha_grid is not None)
    dm = _design_from_args(args)
    alpha_grid = _parse_grid(args.alpha_grid) if args.alpha_grid else None
    result = pipeline.cross_validate(
        dm,
        args.folds,
        args.penalty,
        _parse_grid(args.lambda_grid),
        alpha_grid=alpha_grid,
    )
    pipeline.write_cv_table(result, Path(args.output))
    _ok(
        "cv",
        cells=len(result.table),
        best_lambda=result.best.lam,
        best_alpha=result.best.alpha,
        mean_mse=result.best.mean_mse,
    )
    return 0


def _cmd_path(args) -> int:
    _penalty_from_args(args.penalty, 0.0, args.alpha)
    dm = _design_from_args(args)
    lams = sorted(set(_parse_grid(args.lambda_grid)), reverse=True)
    models = pipeline.regularization_path(dm, lams, args.penalty, args.alpha)
    for lam, m in zip(lams, models):
        if m is None:
            raise RankDeficiencyError(f"path fit at lambda={fmt(lam)} is rank-deficient")
        if not m.diagnostics["converged"]:
            raise ConvergenceError(
                f"path fit at lambda={fmt(lam)} did not converge in "
                f"{m.diagnostics['iterations']} steps"
            )
    _write_path_table(Path(args.output), lams, models, dm.column_names)
    _ok("path", points=len(lams), columns=dm.p)
    return 0


def _as_bool(text: str) -> bool:
    text = text.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _as_grid(text: str) -> tuple:
    return tuple(_parse_grid(text))


def _as_int_grid(text: str) -> tuple:
    return tuple(_parse_int_grid(text))


# The run settings: config key -> (parser of its text, argparse keywords of its
# flag).  A flag's dest is its config key; every flag defaults to None (unset).
_RUN_KEYS = {
    "penalty": (str, {}),
    "lambda_grid": (_as_grid, {}),
    "alpha_grid": (_as_grid, {}),
    "eps": (float, {}),
    "min_pts": (int, {}),
    "eps_grid": (_as_grid, {}),
    "minpts_grid": (_as_int_grid, {}),
    "core_strict": (_as_bool, {"nargs": "?", "const": "true"}),
    "mix": (str, {"choices": list(MIX_MODES)}),
    "log_offset": (float, {}),
    "outlier_policy": (str, {"choices": list(pipeline.OUTLIER_POLICIES)}),
    "baseline": (int, {}),
    "folds": (int, {}),
    "train_periods": (str, {}),
    "test_periods": (str, {}),
    "train_count": (int, {}),
}


def _effective_run_settings(args) -> dict[str, str]:
    """The run's settings as text; flags that are set win over the config file."""
    settings: dict[str, str] = {}
    if args.config:
        cfg = _read_config(args.config)
        unknown = set(cfg) - set(_RUN_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        settings.update(cfg)
    for key in _RUN_KEYS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


def _build_run(texts: dict[str, str], panel: PanelDataset):
    """DprConfig and SplitSpec of the settings; an unset one takes its field's default."""
    settings = {}
    for key, text in texts.items():
        try:
            settings[key] = _RUN_KEYS[key][0](text)
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"bad value {key}={text!r}: {exc}") from exc

    def given(**fields) -> dict:
        return {name: settings[key] for name, key in fields.items() if key in settings}

    params = None
    if "eps" in settings or "min_pts" in settings:
        if not ("eps" in settings and "min_pts" in settings):
            raise ValidationError("eps and min_pts must be given together")
        params = DbscanParams(settings["eps"], settings["min_pts"],
                              **given(core_strict="core_strict"))
    elif not ("eps_grid" in settings and "minpts_grid" in settings):
        raise ValidationError(
            "give either eps+min_pts or eps_grid+minpts_grid (config or flags)"
        )
    config = pipeline.DprConfig(
        transform=TransformSpec(**given(log_offset="log_offset", normalize_mode="mix")),
        dbscan=params,
        **given(eps_grid="eps_grid", minpts_grid="minpts_grid", core_strict="core_strict",
                penalty_kind="penalty", lambda_grid="lambda_grid", alpha_grid="alpha_grid",
                outlier_policy="outlier_policy", baseline_cluster="baseline"),
    )

    if "train_count" in settings:
        count = settings["train_count"]
        if not 1 <= count < len(panel.periods):
            raise ValidationError(
                f"train_count {count} must leave both train and test periods "
                f"({len(panel.periods)} total)"
            )
        train = panel.periods[:count]
        test = panel.periods[count:]
    elif "train_periods" in settings and "test_periods" in settings:
        train = _parse_periods(settings["train_periods"], panel.periods)
        test = _parse_periods(settings["test_periods"], panel.periods)
    else:
        raise ValidationError("give train_count, or train_periods and test_periods")
    split = pipeline.SplitSpec(train_periods=tuple(train), test_periods=tuple(test),
                               **given(cv_folds="folds"))
    return config, split


def _cmd_run(args) -> int:
    panel = _load_canonical(args.input)
    config, split = _build_run(_effective_run_settings(args), panel)
    report = pipeline.run_dpr(panel, config, split)
    model = report.dpr_model.model
    if not model.diagnostics["converged"]:
        raise ConvergenceError(
            f"final fit did not converge in {model.diagnostics['iterations']} steps"
        )
    pipeline.write_report(report, args.output_dir)
    if args.plots:
        emit_plot_data(report, args.output_dir)
    test_mse = report.metrics["test"]["mse"] if report.metrics["test"] else None
    unconverged = report.unconverged_path_fits
    _ok(
        "run",
        k=report.clusters.k,
        noise=report.clusters.n_noise,
        kind=model.penalty.kind,
        best_lambda=model.penalty.lam,
        best_alpha=model.penalty.alpha,
        train_r2=report.metrics["train"]["r2"],
        test_mse=test_mse,
        **({"unconverged_path_fits": unconverged} if unconverged else {}),
    )
    return 0


def _cmd_forecast(args) -> int:
    panel = _load_canonical(args.input)
    model = _read_bundle(args.model, pipeline.DprModel.from_bundle)
    result = model.forecast(panel)
    pipeline.write_forecast(result, Path(args.output))
    _ok(
        "forecast",
        rows=len(result.rows),
        noise_rows=result.n_noise_rows,
        mean_error=result.mean_error,
        error_variance=result.error_variance,
    )
    return 0


def emit_plot_data(report: pipeline.RunReport, out_dir) -> None:
    """Plain tables a plotting tool can consume; no rendering here."""
    plots = Path(out_dir) / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    dm = report.design
    _write_path_table(plots / "path_trajectories.csv", report.path_lambdas,
                      report.path_models, dm.column_names)
    write_table(
        plots / "fit_scatter.csv",
        ["actual_log", "predicted_log"],
        [dm.y, pipeline._predict_standardized(report.dpr_model.model, dm.X)],
    )
    k_dist = np.asarray(report.k_distance, dtype=np.float64)
    write_table(
        plots / "k_distance.csv",
        ["rank", "distance"],
        [np.arange(1, k_dist.size + 1), k_dist],
    )


def _write_path_table(dest, lams: list[float], models: list[FittedModel | None],
                      column_names: list[str]) -> None:
    """Intercept and coefficients of each fit of a coefficient path, one row per lambda.

    A fit that is None (rank-deficient ridge) is a row of NA.
    """
    na = np.full(len(column_names), np.nan)
    coefs = np.array([na if m is None else m.coefficients for m in models], dtype=np.float64)
    write_table(
        dest,
        ["lambda", "intercept"] + list(column_names),
        [list(lams), [None if m is None else m.intercept for m in models], *coefs.T],
    )


# --------------------------------------------------------------------- parser


def _add_common_design_flags(sp) -> None:
    sp.add_argument("--cluster-model", default=None,
                    help="cluster_model.json from the cluster subcommand")
    sp.add_argument("--log-offset", type=float, default=TransformSpec.log_offset)
    sp.add_argument("--outlier-policy", default=pipeline.DprConfig.outlier_policy,
                    choices=list(pipeline.OUTLIER_POLICIES))
    sp.add_argument("--baseline", type=int, default=pipeline.DprConfig.baseline_cluster)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dprkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="normalize a raw table into the canonical panel layout")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--entity-column", default="entity")
    sp.add_argument("--period-column", default="period")
    sp.add_argument("--target-column", default="target")
    sp.add_argument("--features", default=None,
                    help="comma list; default: every other numeric column")
    sp.add_argument("--delimiter", default=",")
    sp.add_argument("--factors", default=None,
                    help="per-feature factor table; computes targets from features")
    sp.set_defaults(handler=_cmd_ingest)

    sp = sub.add_parser("synth", help="generate a synthetic clustered panel")
    sp.add_argument("--output", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--spec", default=None, help="comma list of field=value overrides")
    sp.set_defaults(handler=_cmd_synth)

    sp = sub.add_parser("cluster", help="density clustering of the panel mix features")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output-dir", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--min-pts", type=int, required=True)
    sp.add_argument("--core-strict", action="store_true")
    sp.add_argument("--mix", default=TransformSpec.normalize_mode, choices=list(MIX_MODES))
    sp.set_defaults(handler=_cmd_cluster)

    sp = sub.add_parser("scan", help="grid scan of clustering parameters")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--eps-grid", required=True)
    sp.add_argument("--minpts-grid", required=True)
    sp.add_argument("--core-strict", action="store_true")
    sp.add_argument("--mix", default=TransformSpec.normalize_mode, choices=list(MIX_MODES))
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("fit", help="one penalized fit on the log design")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output-dir", required=True)
    sp.add_argument("--penalty", required=True)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    _add_common_design_flags(sp)
    sp.set_defaults(handler=_cmd_fit)

    sp = sub.add_parser("cv", help="cross-validated hyperparameter table")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--penalty", required=True)
    sp.add_argument("--lambda-grid", required=True)
    sp.add_argument("--alpha-grid", default=None)
    sp.add_argument("--folds", type=int, default=pipeline.SplitSpec.cv_folds)
    _add_common_design_flags(sp)
    sp.set_defaults(handler=_cmd_cv)

    sp = sub.add_parser("path", help="coefficient trajectory over a lambda grid")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--penalty", required=True)
    sp.add_argument("--lambda-grid", required=True)
    sp.add_argument("--alpha", type=float, default=None)
    _add_common_design_flags(sp)
    sp.set_defaults(handler=_cmd_path)

    sp = sub.add_parser("run", help="full clustering + fit + forecast flow")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output-dir", required=True)
    sp.add_argument("--config", default=None, help="key=value file; flags override")
    for key, (_, flag) in _RUN_KEYS.items():
        sp.add_argument("--" + key.replace("_", "-"), default=None, **flag)
    sp.add_argument("--plots", action="store_true")
    sp.set_defaults(handler=_cmd_run)

    sp = sub.add_parser("forecast", help="predict a new panel from a saved run model")
    sp.add_argument("--input", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--output", required=True)
    sp.set_defaults(handler=_cmd_forecast)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
