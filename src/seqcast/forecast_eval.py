"""Recursive forecasting, evaluation metrics, and the three-model comparison.

The comparison pipeline: one chronological split shared by all models,
min-max scaling fit on training closes only, per-model training with its
own derived seed, a 30-step ``models.forecast`` from the end of train+val,
rescaled here, and metrics against the held-out closes in currency units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import data as dat
from . import models, training
from .data import OhlcvSeries, Scaler, WindowedDataset
from .models import MODEL_KINDS, weights_io
from .runconfig import ConfigError, RunConfig, config_echo
from .training import TrainingError


@dataclass(frozen=True)
class Metrics:
    r2: float
    mae: float
    mse: float
    rmse: float

    def __post_init__(self):
        for name, value in self.as_dict().items():  # r2 below -1.8e306 is -inf percent
            if not math.isfinite(value):
                raise ValueError(f"metric {name} is not finite: {value}")
        if self.mae < 0 or self.mse < 0 or self.rmse < 0:
            raise ValueError("error metrics cannot be negative")
        if self.r2 > 1.0 + 1e-12:
            raise ValueError(f"r2 cannot exceed 1, got {self.r2}")
        if abs(self.rmse**2 - self.mse) > 1e-9 * max(1.0, self.mse):  # sqrt rounds at any scale
            raise ValueError(f"rmse^2 != mse ({self.rmse**2} vs {self.mse})")

    @property
    def fit_degree_pct(self) -> float:
        return self.r2 * 100.0

    def as_dict(self) -> dict:
        return {**asdict(self), "fit_degree_pct": self.fit_degree_pct}


def compute_metrics(y_true, y_pred) -> Metrics:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.size < 2:
        raise ValueError(f"need at least 2 values, got {y_true.size}")
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
    mse = ss_err / err.size
    return Metrics(
        r2=1.0 - ss_err / ss_tot,
        mae=float(np.mean(np.abs(err))),
        mse=mse,
        rmse=math.sqrt(mse),
    )


def recursive_forecast(params, last_window, horizon: int, scaler: Scaler) -> np.ndarray:
    """``models.forecast`` of `horizon` steps from last_window, then undo the scaling.

    last_window holds the final `lookback` scaled values of the history;
    each prediction is appended and the oldest value dropped. A step whose
    unscaled value leaves float64's range is a ValueError that names it.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    window = np.asarray(last_window, dtype=np.float64)
    if window.ndim != 1 or window.size < 1:
        raise ValueError(f"last_window must be a non-empty 1-D sequence, got shape {window.shape}")
    scaled = models.forecast(params, window, horizon)
    with np.errstate(over="ignore"):  # an overflow shows as inf, named below
        path = scaler.inverse(scaled)
    bad = np.flatnonzero(~np.isfinite(path))
    if bad.size:
        step = int(bad[0])
        raise ValueError(
            f"forecast step {step} leaves float64's range when unscaled (scaled value "
            f"{float(scaled[step])!r}, scaler range [{scaler.min!r}, {scaler.max!r}])"
        )
    return path


def prepare_windows(
    series: OhlcvSeries, lookback: int, horizon: int, val_frac: float = 0.10
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


def fit(kind: str, cfg: RunConfig, train_ds, val_ds, scaler: Scaler, out: str | Path):
    """Train one kind as cfg states it; returns (params, history).

    The training log streams to out/train-<kind>.ndjson, and the weights,
    with cfg's lookback and the training scaler, go to weights_file(out, kind).
    """
    model_cfg, train_cfg = cfg.model_config(kind), cfg.train_config(kind)
    log_path = Path(out) / f"train-{kind}.ndjson"
    params, history = training.train(model_cfg, train_ds, val_ds, train_cfg, log_path=log_path)
    weights_io.save_weights(weights_file(out, kind), params, cfg.lookback, scaler)
    return params, history


def compare(series: OhlcvSeries, cfg: RunConfig, out: str | Path):
    """Fit the three models on one shared split and evaluate each forecast.

    The models, their training and the split come from cfg. Each kind is
    fitted into the existing directory out, so its log and weights are
    written as it finishes. Returns (report dict ready for JSON, the
    held-out test rows). The report holds the dataset's fingerprint, one
    entry per kind (name, metrics, its forecast path and training history)
    in the order lstm, gru, transformer, and last cfg's ``config_echo``.
    """
    if cfg.horizon < 2:
        raise ConfigError(f"compare needs horizon >= 2 to score a forecast, got {cfg.horizon}")
    train_ds, val_ds, seed_window, scaler, test = prepare_windows(
        series, cfg.lookback, cfg.horizon, cfg.val_frac
    )

    fingerprint = dat.fingerprint(series)
    entries = []
    for name in MODEL_KINDS:
        try:
            params, history = fit(name, cfg, train_ds, val_ds, scaler, out)
            path = recursive_forecast(params, seed_window, cfg.horizon, scaler)
            metrics = compute_metrics(test.close, path)
        except (TrainingError, ValueError) as exc:
            raise TrainingError(f"{name}: {exc}") from exc
        entries.append(
            {
                "name": name,
                "metrics": metrics.as_dict(),
                "forecast": [float(v) for v in path],
                "history": history.as_dict(),
            }
        )
    return {"dataset": fingerprint, "models": entries, "config": config_echo(cfg)}, test
