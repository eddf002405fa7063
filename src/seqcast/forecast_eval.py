"""Recursive forecasting, evaluation metrics, and the three-model comparison.

The comparison pipeline: one chronological split shared by all models,
min-max scaling fit on training closes only, per-model training with its
own derived seed, a 30-step recursive forecast from the end of train+val,
and metrics against the held-out closes in currency units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import data as dat
from . import models, training
from .data import OhlcvSeries, Scaler, WindowedDataset
from .models import MODEL_KINDS
from .runconfig import RunConfig
from .training import TrainHistory, TrainingError


@dataclass(frozen=True)
class Metrics:
    r2: float
    mae: float
    mse: float
    rmse: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"metric {f.name} is not finite: {getattr(self, f.name)}")
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
    """Iterate one-step predictions `horizon` times, then undo the scaling.

    last_window holds the final `lookback` scaled values of the history;
    each prediction is appended and the oldest value dropped.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    window = np.asarray(last_window, dtype=np.float64).copy()
    if window.ndim != 1 or window.size < 1:
        raise ValueError(f"last_window must be a non-empty 1-D sequence, got shape {window.shape}")
    scaled_path = np.empty(horizon)
    for step in range(horizon):
        nxt = models.predict(params, window)
        if not math.isfinite(nxt):
            raise ValueError(f"non-finite prediction at forecast step {step}")
        scaled_path[step] = nxt
        window = np.concatenate([window[1:], [nxt]])
    return scaler.inverse(scaled_path)


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
    train_ds = WindowedDataset(
        inputs=windows.inputs[:split_at], targets=windows.targets[:split_at], lookback=lookback
    )
    val_ds = WindowedDataset(
        inputs=windows.inputs[split_at:], targets=windows.targets[split_at:], lookback=lookback
    )
    return train_ds, val_ds, joint[-lookback:], scaler, test


def compare(series: OhlcvSeries, cfg: RunConfig, log_dir: str | Path | None = None):
    """Train the three models on one shared split and evaluate each forecast.

    The models, their training and the split come from cfg. With log_dir,
    each model's training log is written there as train-<kind>.ndjson.
    Returns (report dict ready for JSON, trained params by model name,
    forecast paths by model name, the held-out test rows, the training
    scaler). Model order in the report is always lstm, gru, transformer.
    """
    train_ds, val_ds, seed_window, scaler, test = prepare_windows(
        series, cfg.lookback, cfg.horizon, cfg.val_frac
    )

    fingerprint = dat.fingerprint(series)
    entries = []
    trained: dict[str, object] = {}
    forecasts: dict[str, np.ndarray] = {}
    for name in MODEL_KINDS:
        log_path = None if log_dir is None else Path(log_dir) / f"train-{name}.ndjson"
        try:
            params, history = training.train(
                cfg.model_config(name), train_ds, val_ds, cfg.train_config(name), log_path=log_path
            )
            path = recursive_forecast(params, seed_window, cfg.horizon, scaler)
        except (TrainingError, ValueError) as exc:
            raise TrainingError(f"{name}: {exc}") from exc
        metrics = compute_metrics(test.close, path)
        trained[name] = params
        forecasts[name] = path
        entries.append(
            {
                "name": name,
                "metrics": metrics.as_dict(),
                "forecast": [float(v) for v in path],
                "history": history.as_dict(),
                "config": {
                    **cfg.kind_echo(name),
                    "lookback": cfg.lookback,
                    "horizon": cfg.horizon,
                    "val_frac": cfg.val_frac,
                },
            }
        )
    report = {"dataset": fingerprint, "models": entries}
    return report, trained, forecasts, test, scaler


def history_summary(history: TrainHistory) -> dict:
    return {
        "n_epochs": history.n_epochs,
        "best_epoch": history.best_epoch,
        "best_val_loss": history.val_loss[history.best_epoch - 1],
        "stopped_early": history.stopped_early,
    }
