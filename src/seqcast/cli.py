"""Command-line entry point.

Subcommands walk the pipeline stages: ``synth`` writes a reproducible
fixture CSV, ``eda`` reports cleaning stats, monthwise means and the
unit-root tests, ``train`` fits one model and saves its weights, ``forecast``
extends a series past its end with saved weights, and ``compare`` runs the
full three-model experiment.

Exit codes: 0 success, 1 runtime failure (bad data, diverged training),
2 usage or configuration error. Artifacts are written only below the
configured output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path

from . import charts
from . import data as dat
from . import forecast_eval, stationarity
from .models import MODEL_KINDS, weights_io
from .runconfig import (
    ADF_CHOICES,
    ConfigError,
    RunConfig,
    canonical_text,
    config_echo,
    parse_config_file,
)
# perfbench/spans.py wraps seqcast.cli.train, so the name stays importable here.
from .training import TrainingError, train  # noqa: F401


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_text(dates: list[str], columns: dict[str, list[float]]) -> str:
    """A date column, then one column per entry of columns, each float as its repr."""
    lines = [",".join(["date", *columns])]
    lines += [",".join([d, *map(repr, row)]) for d, *row in zip(dates, *columns.values())]
    return "\n".join(lines) + "\n"


def _load_config(args) -> RunConfig:
    """The config file or the defaults; a flag, whose dest is its [run] key, wins unless None."""
    config_path = getattr(args, "config", None)
    cfg = parse_config_file(config_path) if config_path else RunConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return replace(cfg, **{key: value for key, value in flags.items() if value is not None})


def _require_data(cfg: RunConfig) -> Path:
    if not cfg.data:
        raise ConfigError("no input data: pass --data PATH or set data in [run]")
    path = Path(cfg.data)
    if not path.is_file():
        raise ConfigError(f"data file not found: {path}")
    return path


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_clean(cfg: RunConfig) -> tuple[dat.OhlcvSeries, dat.CleanReport]:
    return dat.clean(dat.parse_csv(_require_data(cfg)))


def cmd_eda(cfg: RunConfig, args) -> int:
    series, report = _load_clean(cfg)
    monthly = cfg.adf_on == "monthly-high"
    values = dat.monthly_mean_series(series) if monthly else series.high
    try:
        level = stationarity.adf_test(values)
        differenced = stationarity.adf_test(stationarity.difference(values, 1))
    except ValueError as exc:
        if not monthly:
            raise
        raise ValueError(
            f"the unit-root test runs on monthly means of the high by default, and this "
            f"series has {len(values)}: {exc}; pass --adf-on daily-high to test its "
            f"{len(series)} daily highs instead"
        ) from exc
    means = dat.monthwise_means(series)  # months in calendar order
    monthwise = [
        {
            "month": m,
            "mean_open": means[m][0] if m in means else None,
            "mean_close": means[m][1] if m in means else None,
        }
        for m in range(1, 13)
    ]
    payload = {
        "n_rows": len(series),
        "date_range": {
            "start": series.dates[0].isoformat(),
            "end": series.dates[-1].isoformat(),
        },
        "missing_report": report.as_dict(),
        "monthwise": monthwise,
        "adf": {
            "series": cfg.adf_on,
            "level": level.as_dict(),
            "differenced": differenced.as_dict(),
        },
        "config": config_echo(cfg),
    }
    out = _outdir(cfg)
    (out / "eda.json").write_text(_json_text(payload), encoding="utf-8")
    chart = charts.bar_chart_svg(
        "Monthwise mean open and close",
        [str(m) for m in means],
        {"open": [o for o, _ in means.values()], "close": [c for _, c in means.values()]},
    )
    (out / "monthwise.svg").write_text(chart, encoding="utf-8")
    print(f"wrote {out / 'eda.json'} and {out / 'monthwise.svg'}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    series, _ = _load_clean(cfg)
    train_ds, val_ds, _, scaler, _ = forecast_eval.prepare_windows(
        series, cfg.lookback, cfg.horizon, cfg.val_frac
    )
    out = _outdir(cfg)
    name = args.model
    _, history = forecast_eval.fit(name, cfg, train_ds, val_ds, scaler, out)
    print(
        f"{name}: best epoch {history.best_epoch}/{history.n_epochs}, "
        f"val loss {history.val_loss[history.best_epoch - 1]:.6g}; "
        f"wrote {forecast_eval.weights_file(out, name)}"
    )
    return 0


def cmd_forecast(cfg: RunConfig, args) -> int:
    name = args.model
    weights_path = forecast_eval.weights_file(cfg.output_dir, name)
    if not weights_path.is_file():
        raise ConfigError(f"weights not found: {weights_path} (run the train command first)")
    series, _ = _load_clean(cfg)
    params, (lookback, scaler) = weights_io.load_weights(weights_path, expect_kind=name)
    if lookback != cfg.lookback:
        raise ValueError(f"{weights_path} was trained at lookback {lookback}, not {cfg.lookback}")
    if len(series) < lookback:
        raise ValueError(f"series of {len(series)} rows is shorter than lookback {lookback}")
    if series.dates[-1] == date.max:
        raise ValueError(f"the series ends on {date.max}, the last representable date")
    window = scaler.transform(series.close[-lookback:])
    path = forecast_eval.recursive_forecast(params, window, cfg.horizon, scaler).tolist()
    start = series.dates[-1] + timedelta(days=1)
    future = [d.isoformat() for d in dat.weekday_dates(start, cfg.horizon)]

    out = _outdir(cfg)
    (out / f"forecast-{name}.csv").write_text(
        _csv_text(future, {"forecast": path}), encoding="utf-8"
    )

    tail = min(60, len(series))
    labels = [d.isoformat() for d in series.dates[-tail:]] + future
    pad = [float("nan")] * tail
    actual = series.close[-tail:].tolist() + [float("nan")] * cfg.horizon
    chart = charts.line_chart_svg(
        f"{name} forecast, next {cfg.horizon} steps",
        labels,
        {"actual": actual, name: pad + path},
    )
    (out / f"forecast-{name}.svg").write_text(chart, encoding="utf-8")
    payload = {
        "model": name,
        "horizon": cfg.horizon,
        "dates": future,
        "forecast": path,
        "config": config_echo(cfg),
    }
    (out / f"forecast-{name}.json").write_text(_json_text(payload), encoding="utf-8")
    print(f"wrote {out / f'forecast-{name}.csv'}, .svg and .json")
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    series, _ = _load_clean(cfg)
    out = _outdir(cfg)
    report, test = forecast_eval.compare(series, cfg, out)
    (out / "report.json").write_text(_json_text(report), encoding="utf-8")

    dates = [d.isoformat() for d in test.dates]
    forecasts = {entry["name"]: entry["forecast"] for entry in report["models"]}
    columns = {"actual": test.close.tolist(), **forecasts}
    (out / "plot.csv").write_text(_csv_text(dates, columns), encoding="utf-8")
    chart = charts.line_chart_svg(
        f"Held-out closes vs {cfg.horizon}-step forecasts", dates, columns
    )
    (out / "plot.svg").write_text(chart, encoding="utf-8")
    for entry in report["models"]:
        m = entry["metrics"]
        print(
            f"{entry['name']}: r2 {m['r2']:.4f}, mae {m['mae']:.4f}, "
            f"mse {m['mse']:.4f}, rmse {m['rmse']:.4f}"
        )
    print(f"wrote {out / 'report.json'}, plot.csv, plot.svg and weight files")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    series = dat.synth_ohlcv(args.kind, args.n, cfg.seed)
    out = _outdir(cfg)
    path = out / "synth.csv"
    dat.write_ohlcv_csv(series, path)
    print(f"wrote {path} ({args.kind}, {args.n} rows, seed {cfg.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcast",
        description="Univariate price forecasting: data prep, three sequence models, comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--data", help="input OHLCV CSV (overrides config)")
    common.add_argument("--seed", type=int, help="run seed (overrides config)")
    common.add_argument("--horizon", type=int, help="forecast steps (overrides config)")
    common.add_argument("--out", dest="output_dir", help="output directory (overrides config)")
    common.add_argument(
        "--print-config",
        action="store_true",
        help="print the merged canonical config and exit",
    )
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, choices=MODEL_KINDS)
    adf = argparse.ArgumentParser(add_help=False)
    adf.add_argument("--adf-on", choices=ADF_CHOICES, help="series under the ADF test")
    for name, parents, func, text in [
        ("eda", [common, adf], cmd_eda, "cleaning stats, monthwise means, unit-root tests"),
        ("train", [common, model], cmd_train, "fit one model, save weights and log"),
        ("forecast", [common, model], cmd_forecast, "extend the series using saved weights"),
        ("compare", [common], cmd_compare, "train all three models and compare forecasts"),
    ]:
        sub.add_parser(name, parents=parents, help=text).set_defaults(func=func)

    p_synth = sub.add_parser("synth", help="write a reproducible synthetic fixture CSV")
    p_synth.add_argument("--kind", choices=dat.SYNTH_KINDS, default="sine+noise")
    p_synth.add_argument("--n", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, help="generator seed")
    p_synth.add_argument("--out", dest="output_dir", help="output directory")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if getattr(args, "print_config", False):
            print(canonical_text(cfg), end="")
            return 0
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
