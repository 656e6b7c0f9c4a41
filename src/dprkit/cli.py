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

from . import pipeline
from .errors import NumericalError, ValidationError
from .panel import (
    EmissionFactorTable,
    PanelDataset,
    TransformSpec,
    compute_emissions,
    load_panel,
    write_panel,
)
from .tables import NA, fmt, write_table


class _Parser(argparse.ArgumentParser):
    # a flag is spelled in full: a prefix such as --lam would silently stand for --lambda-grid
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems are invalid input, not numerical failure
    def error(self, message: str):
        raise ValidationError(message)


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: ``a,b,c`` literal or ``logspace:lo:hi:n``."""
    text = text.strip()
    try:
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


def _read_bundle(path, parse):
    """``parse`` of a JSON file; its ValidationError names the file."""
    p = _require_input(path)
    try:
        return parse(json.loads(p.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------- settings


def _as_grid(text: str) -> tuple:
    return tuple(_parse_grid(text))


def _as_int_grid(text: str) -> tuple:
    grid = _as_grid(text)
    if not all(v.is_integer() for v in grid):
        raise ValueError("not a grid of integers")
    return tuple(int(v) for v in grid)


# Every setting of `run`, as a flag and as a config key: key -> (parser of its text, argparse
# keywords of its flag).  A flag's dest is its key and it defaults to None (unset); an unset
# setting takes the default of the field it fills.
_SETTINGS = {
    "penalty": (str, {}),
    "lambda_grid": (_as_grid, {}),
    "alpha_grid": (_as_grid, {}),
    "eps": (float, {}),
    "min_pts": (int, {}),
    "eps_grid": (_as_grid, {}),
    "minpts_grid": (_as_int_grid, {}),
    "log_offset": (float, {}),
    "outlier_policy": (str, {"choices": list(pipeline.OUTLIER_POLICIES)}),
    "folds": (int, {}),
    "train_periods": (str, {}),
    "test_periods": (str, {}),
    "train_count": (int, {}),
}


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


def _given(settings: dict, **fields) -> dict:
    """``{field: settings[key]}`` of each ``field=key`` whose setting is given."""
    return {name: settings[key] for name, key in fields.items() if key in settings}


# ---------------------------------------------------------------- subcommands


def _cmd_ingest(args) -> int:
    panel = load_panel(_require_input(args.input))
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


def _effective_run_settings(args) -> dict[str, str]:
    """The run's settings as text; flags that are set win over the config file."""
    settings: dict[str, str] = {}
    if args.config:
        settings = _read_config(args.config)
        unknown = set(settings) - set(_SETTINGS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return {**settings, **_flag_texts(args)}


def _build_run(texts: dict[str, str], panel: PanelDataset):
    """DprConfig and SplitSpec of the settings; an unset one takes its field's default."""
    settings = _parse_settings(texts)
    config = pipeline.DprConfig(
        transform=TransformSpec(**_given(settings, log_offset="log_offset")),
        **_given(settings, eps="eps", min_pts="min_pts", eps_grid="eps_grid",
                 minpts_grid="minpts_grid", penalty_kind="penalty",
                 lambda_grid="lambda_grid", alpha_grid="alpha_grid",
                 outlier_policy="outlier_policy"),
    )

    given = [key for key in ("train_count", "train_periods", "test_periods") if key in settings]
    if given not in (["train_count"], ["train_periods", "test_periods"]):
        raise ValidationError("give train_count, or train_periods and test_periods, "
                              f"not both; got {', '.join(given) or 'none of them'}")
    if "train_count" in settings:
        count = settings["train_count"]
        if not 1 <= count < len(panel.periods):
            raise ValidationError(
                f"train_count {count} must leave both train and test periods "
                f"({len(panel.periods)} total)"
            )
        train = panel.periods[:count]
        test = panel.periods[count:]
    else:
        train = _parse_periods(settings["train_periods"], panel.periods)
        test = _parse_periods(settings["test_periods"], panel.periods)
    split = pipeline.SplitSpec(train_periods=tuple(train), test_periods=tuple(test),
                               **_given(settings, cv_folds="folds"))
    return config, split


def _cmd_run(args) -> int:
    panel = load_panel(_require_input(args.input))
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
        kind=report.penalty_kind,
        best_lambda=model.penalty.lam,
        best_alpha=model.penalty.alpha,
        train_r2=report.metrics["train"]["r2"],
        test_mse=test_mse,
        **({"unconverged_path_fits": unconverged} if unconverged else {}),
    )
    return 0


def _cmd_forecast(args) -> int:
    panel = load_panel(_require_input(args.input))  # without a target column, every actual is NA
    model = _read_bundle(args.model, pipeline.DprModel.from_bundle)
    try:
        result = model.forecast(panel)
    except NumericalError as exc:  # named as run names its forecast stage
        raise NumericalError(f"stage forecast: {exc}") from exc
    pipeline.write_forecast(result, Path(args.output))
    _ok(
        "forecast",
        rows=len(result.entities),
        noise_rows=result.n_noise_rows,
        mean_error=result.mean_error,
        error_variance=result.error_variance,
    )
    return 0


def emit_plot_data(report: pipeline.RunReport, out_dir) -> None:
    """Plain tables a plotting tool can consume; no rendering here."""
    plots = Path(out_dir) / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    dm, models = report.design, report.path_models
    # one row per lambda of the coefficient path; a None fit (rank-deficient ridge) is NA
    coefs = np.array([np.full(dm.p, np.nan) if m is None else m.coefficients for m in models])
    write_table(
        plots / "path_trajectories.csv",
        ["lambda", "intercept"] + list(dm.column_names),
        [report.path_lambdas, [None if m is None else m.intercept for m in models], *coefs.T],
    )
    k_dist = np.asarray(report.k_distance, dtype=np.float64)
    write_table(
        plots / "k_distance.csv",
        ["rank", "distance"],
        [np.arange(1, k_dist.size + 1), k_dist],
    )


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dprkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="set each row's target to its emissions: the sum of its "
                        "features, each times its emission factor")
    sp.add_argument("--input", required=True,
                    help="panel: entity, period, optional target, every other column a feature")
    sp.add_argument("--output", required=True)
    sp.add_argument("--factors", required=True,
                    help="feature,factor table with a factor for every feature")
    sp.set_defaults(handler=_cmd_ingest)

    sp = sub.add_parser("synth", help="generate a synthetic clustered panel")
    sp.add_argument("--output", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--spec", default=None, help="comma list of field=value overrides")
    sp.set_defaults(handler=_cmd_synth)

    sp = sub.add_parser("run", help="full clustering + fit + forecast flow")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output-dir", required=True)
    for key, (_, flag_keywords) in _SETTINGS.items():
        sp.add_argument("--" + key.replace("_", "-"), default=None, **flag_keywords)
    sp.add_argument("--config", default=None, help="key=value file; flags override")
    sp.add_argument("--plots", action="store_true")
    sp.set_defaults(handler=_cmd_run)

    sp = sub.add_parser("forecast", help="predict a new panel from a saved run model")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--model", required=True)
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
