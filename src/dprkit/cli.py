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
from functools import partial
from pathlib import Path

import numpy as np

from . import pipeline, regression
from .clustering import NOISE, DbscanParams, dbscan, scan_params, suggest_params
from .errors import NumericalError, ValidationError
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
from .regression import FittedModel, standardize
from .tables import NA, bundle_field, fmt, numbers, write_json, write_table


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
    keys = panel.row_keys() if flagged else []
    for i in flagged[:5]:
        entity, period = keys[i]
        print(f"warning: zero feature row at ({entity}, {period})", file=sys.stderr)
    return matrix


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
        keys = bundle_field(bundle, "row_keys", list)
        labels = bundle_field(bundle, "labels", partial(numbers, kind=int))
        if labels.shape != (len(keys),) or np.any(labels < NOISE):
            raise ValidationError(f"bad field 'labels': expected {len(keys)} cluster ids, "
                                  "each -1 (noise) or above, one per row key")
        if keys != [[e, p] for e, p in panel.row_keys()]:
            raise ValidationError("row keys do not match the panel; "
                                  "cluster the same panel the model is fit on")
        return labels

    return _read_bundle(bundle_path, parse)


def _design(path, settings: dict):
    """The standardized log design of ``fit``, ``cv`` and ``path``, with any cluster dummies."""
    panel = _load_canonical(path)
    spec = TransformSpec(normalize_mode=NO_NORMALIZATION,
                         **_given(settings, log_offset="log_offset"))
    dm = pipeline.design_from_panel(log_transform(panel, spec))
    if settings.get("cluster_model"):
        labels = _labels_for_panel(panel, settings["cluster_model"])
        dm = pipeline.augment_with_dummies(
            dm, labels, **_given(settings, policy="outlier_policy", baseline="baseline"))
    return standardize(dm.X, dm.y, dm.column_names, source_rows=dm.source_rows)


# ------------------------------------------------------------------- settings


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
    grid = _as_grid(text)
    if not all(v.is_integer() for v in grid):
        raise ValueError("not a grid of integers")
    return tuple(int(v) for v in grid)


# Every setting flag of every subcommand: key -> (parser of its text, argparse
# keywords of its flag).  A flag's dest is its key and it defaults to None
# (unset); an unset setting takes the default of the field or parameter it fills.
_SETTINGS = {
    "penalty": (str, {}),
    "lam": (float, {}),
    "alpha": (float, {}),
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
    "cluster_model": (str, {"help": "cluster_model.json from the cluster subcommand"}),
}
# the settings of `run` and of its config file
_RUN_KEYS = tuple(key for key in _SETTINGS if key not in ("lam", "alpha", "cluster_model"))


def _parse_settings(texts: dict[str, str]) -> dict:
    """Each setting parsed from its text; a malformed one is an error naming it."""
    settings = {}
    for key, text in texts.items():
        try:
            settings[key] = _SETTINGS[key][0](text)
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"bad value {key}={text!r}: {exc}") from exc
    return settings


def _flag_texts(args) -> dict[str, str]:
    """The setting flags given on the command line, as text."""
    return {key: text for key, text in vars(args).items() if key in _SETTINGS and text is not None}


def _settings(args) -> dict:
    return _parse_settings(_flag_texts(args))


def _given(settings: dict, **fields) -> dict:
    """``{field: settings[key]}`` of each ``field=key`` whose setting is given."""
    return {name: settings[key] for name, key in fields.items() if key in settings}


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

    fields = testkit.SyntheticSpec.__dataclass_fields__
    overrides: dict = {}
    if args.spec:
        for key, value in _read_config_text(args.spec).items():
            if key not in fields:
                raise ValidationError(f"unknown synth spec field {key!r}")
            # a field takes the type of its default; one without a scalar default is not settable
            kind = type(fields[key].default)
            if kind not in (int, float):
                raise ValidationError(f"synth field {key!r} cannot be set from --spec")
            try:
                overrides[key] = kind(value)
            except ValueError as exc:
                raise ValidationError(
                    f"synth field {key}={value!r} must be {kind.__name__}") from exc
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


def _read_config_text(text: str) -> dict[str, str]:
    """A comma list of key=value items, as ``synth --spec`` takes it."""
    return _key_values(("--spec: ", chunk) for chunk in map(str.strip, text.split(","))
                       if chunk)


def _cmd_cluster(args) -> int:
    s = _settings(args)
    params = DbscanParams(s["eps"], s["min_pts"], **_given(s, core_strict="core_strict"))
    panel = _load_canonical(args.input)
    model = dbscan(_mix_matrix(panel, s.get("mix", TransformSpec.normalize_mode)), params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(
        out / "clusters.csv",
        ["entity", "period", "label", "core"],
        [*panel.key_columns(), model.labels.astype(np.intp), model.core_mask.astype(np.intp)],
    )
    # all that fit, cv and path read back; clusters.csv and the ok line carry the rest
    write_json(out / "cluster_model.json", {
        "format": "dprkit-clusters-v1",
        "row_keys": [[e, p] for e, p in panel.row_keys()],
        "labels": model.labels.tolist(),
    })
    _ok("cluster", k=model.k, noise=model.n_noise, sc=model.sc, sse=model.sse)
    return 0


def _cmd_scan(args) -> int:
    s = _settings(args)
    panel = _load_canonical(args.input)
    points = _mix_matrix(panel, s.get("mix", TransformSpec.normalize_mode))
    rows = scan_params(points, s["eps_grid"], s["minpts_grid"],
                       **_given(s, core_strict="core_strict"))
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


def _cmd_fit(args) -> int:
    s = _settings(args)
    penalty = regression.PenaltySpec(s["penalty"], s["lam"], s.get("alpha"))
    dm = _design(args.input, s)
    model = regression.add_training_metrics(
        pipeline.require_fit(pipeline.fit_penalized(dm, penalty), "fit"), dm)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_coefficients(model, out / "coefficients.csv")
    write_json(out / "model.json", {"format": "dprkit-fit-v1", "regression": model.to_dict()})
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
    s = _settings(args)
    dm = _design(args.input, s)
    result = pipeline.cross_validate(dm, s.get("folds", pipeline.SplitSpec.cv_folds),
                                     s["penalty"], s["lambda_grid"],
                                     alpha_grid=s.get("alpha_grid"))
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
    s = _settings(args)
    dm = _design(args.input, s)
    lams = sorted(set(s["lambda_grid"]), reverse=True)
    models = pipeline.regularization_path(dm, lams, s["penalty"], s.get("alpha"))
    for lam, m in zip(lams, models):
        pipeline.require_fit(m, f"path fit at lambda={fmt(lam)}")
    _write_path_table(Path(args.output), lams, models, dm.column_names)
    _ok("path", points=len(lams), columns=dm.p)
    return 0


def _effective_run_settings(args) -> dict[str, str]:
    """The run's settings as text; flags that are set win over the config file."""
    settings: dict[str, str] = {}
    if args.config:
        settings = _read_config(args.config)
        unknown = set(settings) - set(_RUN_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return {**settings, **_flag_texts(args)}


def _build_run(texts: dict[str, str], panel: PanelDataset):
    """DprConfig and SplitSpec of the settings; an unset one takes its field's default."""
    settings = _parse_settings(texts)
    config = pipeline.DprConfig(
        transform=TransformSpec(**_given(settings, log_offset="log_offset",
                                         normalize_mode="mix")),
        **_given(settings, eps="eps", min_pts="min_pts", eps_grid="eps_grid",
                 minpts_grid="minpts_grid", core_strict="core_strict", penalty_kind="penalty",
                 lambda_grid="lambda_grid", alpha_grid="alpha_grid",
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
                               **_given(settings, cv_folds="folds"))
    return config, split


def _cmd_run(args) -> int:
    panel = _load_canonical(args.input)
    config, split = _build_run(_effective_run_settings(args), panel)
    report = pipeline.run_dpr(panel, config, split)
    pipeline.write_report(report, args.output_dir)
    if args.plots:
        emit_plot_data(report, args.output_dir)
    model = report.dpr_model.model
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


_DESIGN_KEYS = ("log_offset", "outlier_policy", "baseline", "cluster_model")

# The subcommands that take settings: name -> (handler, help, output flag,
# required settings, other settings).
_COMMANDS = {
    "cluster": (_cmd_cluster, "density clustering of the panel mix features", "--output-dir",
                ("eps", "min_pts"), ("core_strict", "mix")),
    "scan": (_cmd_scan, "grid scan of clustering parameters", "--output",
             ("eps_grid", "minpts_grid"), ("core_strict", "mix")),
    "fit": (_cmd_fit, "one penalized fit on the log design", "--output-dir",
            ("penalty", "lam"), ("alpha", *_DESIGN_KEYS)),
    "cv": (_cmd_cv, "cross-validated hyperparameter table", "--output",
           ("penalty", "lambda_grid"), ("alpha_grid", "folds", *_DESIGN_KEYS)),
    "path": (_cmd_path, "coefficient trajectory over a lambda grid", "--output",
             ("penalty", "lambda_grid"), ("alpha", *_DESIGN_KEYS)),
    "run": (_cmd_run, "full clustering + fit + forecast flow", "--output-dir", (), _RUN_KEYS),
    "forecast": (_cmd_forecast, "predict a new panel from a saved run model", "--output",
                 (), ()),
}


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

    parsers = {}
    for name, (handler, help_text, output, required, other) in _COMMANDS.items():
        sp = parsers[name] = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", required=True)
        sp.add_argument(output, required=True)
        for key in (*required, *other):
            sp.add_argument("--" + key.replace("_", "-"), default=None,
                            required=key in required, **_SETTINGS[key][1])
        sp.set_defaults(handler=handler)
    parsers["run"].add_argument("--config", default=None, help="key=value file; flags override")
    parsers["run"].add_argument("--plots", action="store_true")
    parsers["forecast"].add_argument("--model", required=True)
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
