"""Recursive forecasting, evaluation metrics, and the three-model comparison.

The comparison pipeline: one chronological split shared by all models,
min-max scaling fit on training closes only, per-model training with its
own derived seed, a 30-step ``models.forecast`` from the end of train+val,
rescaled here, and metrics against the held-out closes in currency units:
``compute_metrics`` returns the dict the report stores for each kind.
Each kind is one job through ``training.in_shards``; the jobs share
nothing they write, so the artifacts are the bytes of a serial run.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import data as dat
from . import models, training
from .data import OhlcvSeries, Scaler, WindowedDataset
from .models import MODEL_KINDS, REGISTRY, weights_io
from .runconfig import ConfigError, RunConfig, config_echo
from .training import TrainingError


def compute_metrics(y_true, y_pred) -> dict:
    """The report's record: r2, mae, mse, rmse and fit_degree_pct (r2 in percent).

    A value is refused, by name, unless finite: r2 below -1.8e306 is -inf percent.
    """
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    with np.errstate(all="ignore"):  # checked below: squares leave float64 near 1e±154
        spread, err = float(np.ptp(y_true)), y_pred - y_true
        ss_tot, ss_err = float(np.sum((y_true - y_true.mean()) ** 2)), float(np.sum(err**2))
    if spread == 0.0:
        raise ValueError("R² undefined: y_true is constant")
    if not (np.finfo(np.float64).tiny <= ss_tot < math.inf and ss_err < math.inf):
        raise ValueError(
            f"values spread over {spread:.3g} with errors up to {float(np.max(np.abs(err))):.3g}: "
            "their squares leave float64's range, so R² and MSE cannot be computed"
        )
    mse, r2 = ss_err / err.size, 1.0 - ss_err / ss_tot
    record = {
        "r2": r2,
        "mae": float(np.mean(np.abs(err))),
        "mse": mse,
        "rmse": math.sqrt(mse),
        "fit_degree_pct": r2 * 100.0,
    }
    for name, value in record.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return record


def recursive_forecast(params, last_window, horizon: int, scaler: Scaler) -> np.ndarray:
    """``models.forecast`` of `horizon` steps from last_window, then undo the scaling.

    last_window holds the final `lookback` scaled values of the history;
    each prediction is appended and the oldest value dropped. The one check
    of a forecast: the first step that is not a finite price, as predicted
    or once unscaled, is a ValueError that names it.
    """
    scaled = models.forecast(params, last_window, horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # shows as inf or NaN, named below
        path = scaler.inverse(scaled)
    bad = np.flatnonzero(~np.isfinite(path))
    if bad.size:
        step = int(bad[0])
        raise ValueError(
            f"forecast step {step} is not a finite price (scaled value "
            f"{float(scaled[step])!r}, scaler range [{scaler.min!r}, {scaler.max!r}])"
        )
    return path


def prepare_windows(
    series: OhlcvSeries, lookback: int, horizon: int, val_frac: float
) -> tuple[WindowedDataset, WindowedDataset, np.ndarray, Scaler, OhlcvSeries]:
    """Shared split/scale/window stage.

    Returns (train windows, val windows, the final scaled lookback window
    that seeds forecasting, the scaler, and the held-out test rows).
    Windows are cut from scaled train+val closes jointly, so validation
    windows may begin inside the training range; a window belongs to the
    validation set when its target does.
    """
    train, val, test = dat.chronological_split(series, test_len=horizon, val_frac=val_frac)
    scaler = dat.fit_scaler(train.close)
    joint = scaler.transform(np.concatenate([train.close, val.close]))
    windows = dat.make_windows(joint, lookback)
    split_at = len(train) - lookback
    if split_at < 1:
        raise ValueError(
            f"lookback {lookback} leaves no training windows for {len(train)} training rows"
        )
    train_ds = WindowedDataset(windows.inputs[:split_at], windows.targets[:split_at])
    val_ds = WindowedDataset(windows.inputs[split_at:], windows.targets[split_at:])
    return train_ds, val_ds, joint[-lookback:], scaler, test


def weights_file(out: str | Path, kind: str) -> Path:
    """Where a kind's weights live in an output directory."""
    return Path(out) / f"weights-{kind}.txt"


def trained_on(series: OhlcvSeries, horizon: int) -> dict:
    """``data.fingerprint`` of the rows before the held-out last `horizon`: a weight file's dataset.

    The held-out rows stay out of it, as they stay out of every training artifact.
    """
    return dat.fingerprint(series.slice(0, len(series) - horizon))


def fit(kind: str, cfg: RunConfig, train_ds, val_ds, scaler: Scaler, dataset: dict,
        out: str | Path):
    """Train one kind as cfg states it; returns (params, history).

    The training log streams to out/train-<kind>.ndjson, and the weights go
    to weights_file(out, kind) with their recipe: cfg's lookback, the
    training scaler, dataset (``trained_on``'s fingerprint) and the keys of
    cfg that cut the windows and trained the kind.
    """
    model_cfg, train_cfg = cfg.model_config(kind), cfg.train_config(kind)
    log_path = Path(out) / f"train-{kind}.ndjson"
    params, history = training.train(model_cfg, train_ds, val_ds, train_cfg, log_path=log_path)
    keys = {"horizon": cfg.horizon, "val_frac": cfg.val_frac, "train": train_cfg.as_dict()}
    recipe = weights_io.Recipe(cfg.lookback, scaler, dataset, keys)
    weights_io.save_weights(weights_file(out, kind), params, recipe)
    return params, history


def _report_entry(kind: str, cfg: RunConfig, shared: tuple, dataset: dict,
                  out: str | Path) -> dict:
    """Fit one kind, forecast the held-out span and score it: its report entry.

    shared is prepare_windows' result and dataset ``trained_on``'s; an error
    is a TrainingError that starts with the kind's name.
    """
    train_ds, val_ds, seed_window, scaler, test = shared
    try:
        params, history = fit(kind, cfg, train_ds, val_ds, scaler, dataset, out)
        path = recursive_forecast(params, seed_window, cfg.horizon, scaler)
        metrics = compute_metrics(test.close, path)
    except (TrainingError, ValueError) as exc:
        raise TrainingError(f"{kind}: {exc}") from exc
    return {
        "name": kind,
        "metrics": metrics,
        "forecast": [float(v) for v in path],
        "history": history.as_dict(),
    }


# A kind that shards its batches leads, as its large products release the GIL
# (see REGISTRY): in_shards runs the first job on the calling thread.
_LEAD_FIRST = tuple(sorted(MODEL_KINDS, key=lambda kind: REGISTRY[kind].shard_rows is None))


def _map_kinds(job) -> list:
    """[job(kind) for kind in MODEL_KINDS], run by ``training.in_shards`` in _LEAD_FIRST order.

    The Transformer runs on this thread while the pool's thread takes the
    LSTM. Once this thread is free, it runs a kind still queued itself, so
    the LSTM and GRU may run at once. An Exception is held until every kind
    has run to its end, then the first in the order of MODEL_KINDS is
    raised. Anything else, such as Ctrl-C's KeyboardInterrupt, is
    in_shards' to handle.
    """

    def held(i):
        try:
            return job(_LEAD_FIRST[i]), None
        except Exception as exc:
            return None, exc

    ran = dict(zip(_LEAD_FIRST, training.in_shards(held, len(_LEAD_FIRST))))
    for kind in MODEL_KINDS:
        if ran[kind][1] is not None:
            raise ran[kind][1]
    return [ran[kind][0] for kind in MODEL_KINDS]


def compare(series: OhlcvSeries, cfg: RunConfig, out: str | Path):
    """Fit the three models on one shared split and evaluate each forecast.

    The models, their training and the split come from cfg. Each kind is
    fitted into the existing directory out, so its log and weights are
    written as it finishes. The kinds are the jobs of one
    ``training.in_shards`` call, the Transformer first (``_map_kinds``): its
    large matrix products and ufuncs release the GIL, while the RNNs' many
    small calls hold it. Every kind runs to its end before the first failure
    in kind order is raised. Returns (report dict ready for JSON, the
    held-out test rows). The report holds
    the dataset's fingerprint, one entry per kind (name, metrics, its
    forecast path and training history) in the order lstm, gru,
    transformer, and last cfg's ``config_echo``.
    """
    if cfg.horizon < 2:
        raise ConfigError(f"compare needs horizon >= 2 to score a forecast, got {cfg.horizon}")
    shared = prepare_windows(series, cfg.lookback, cfg.horizon, cfg.val_frac)
    fingerprint, dataset = dat.fingerprint(series), trained_on(series, cfg.horizon)
    entries = _map_kinds(lambda kind: _report_entry(kind, cfg, shared, dataset, out))
    return {"dataset": fingerprint, "models": entries, "config": config_echo(cfg)}, shared[-1]
