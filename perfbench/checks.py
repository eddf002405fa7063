"""Reference computations the benchmark checks seqcast's outputs against.

Each is written here from the method's definition with plain numpy, never
copied from seqcast and never a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np


def close_to(a, b, rel: float, floor: float = 1e-300) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor))


def error_metrics(y_true, y_pred) -> dict:
    y_true = np.asarray(y_true, dtype=np.float64)
    err = np.asarray(y_pred, dtype=np.float64) - y_true
    mse = float(np.mean(err**2))
    return {
        "r2": 1.0 - float(np.sum(err**2)) / float(np.sum((y_true - y_true.mean()) ** 2)),
        "mae": float(np.mean(np.abs(err))),
        "mse": mse,
        "rmse": math.sqrt(mse),
    }


def split_lengths(n: int, horizon: int, val_frac: float) -> tuple[int, int]:
    """(train rows, train+val rows) of a chronological split with a horizon-long test."""
    remainder = n - horizon
    return remainder - int(remainder * val_frac), remainder


def scaled_history(closes, horizon: int, val_frac: float) -> tuple[np.ndarray, float, float, int]:
    """Train+val closes min-max scaled with training extremes, plus those extremes."""
    closes = np.asarray(closes, dtype=np.float64)
    train_len, remainder = split_lengths(closes.size, horizon, val_frac)
    lo, hi = float(closes[:train_len].min()), float(closes[:train_len].max())
    return (closes[:remainder] - lo) / (hi - lo), lo, hi, train_len


def adf_tratio(y, lag: int) -> float:
    """t-ratio on y_{t-1} in dy_t = a + g y_{t-1} + sum_i b_i dy_{t-i}, fitted by lstsq."""
    y = np.asarray(y, dtype=np.float64)
    dy = np.diff(y)
    rows = dy.size - lag
    design = np.empty((rows, lag + 2))
    design[:, 0] = 1.0
    design[:, 1] = y[lag : lag + rows]
    for i in range(1, lag + 1):
        design[:, 1 + i] = dy[lag - i : lag - i + rows]
    target = dy[lag:]
    beta, ssr, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    sigma2 = float(resid @ resid) / (rows - design.shape[1])
    cov = sigma2 * np.linalg.pinv(design.T @ design)
    return float(beta[1] / math.sqrt(cov[1, 1]))


def fd_gradient_error(models, params, x, y, eps: float = 1e-5) -> float:
    """Worst relative gap between models.backward and central differences of the MSE."""

    def loss(p) -> float:
        preds, _ = models.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = models.forward(params, x)
    analytic = dict(models.backward(params, cache, 2.0 * (preds - y) / preds.size).named_arrays())
    worst = 0.0
    for name, arr in params.named_arrays():
        grad = analytic[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss(params)
            arr[idx] = orig - eps
            down = loss(params)
            arr[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, abs(grad[idx] - numeric) / max(1e-8, abs(grad[idx]) + abs(numeric)))
    return worst
