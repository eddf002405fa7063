"""Mini-batch training: MSE loss, Adam, gradient clipping, early stopping.

The loop is deliberately plain. Each epoch shuffles the window indices
with its own seeded generator, walks the batches (last one may be short),
and does forward / loss / backward / clip / Adam. Clipping scales the
batch's gradient and Adam moves the one trained ``Params`` in place. The
validation history alone decides early stopping and which epoch's
parameters are returned. The validation pass runs in chunks of
``batch_size`` windows, sliced like the training batches: a forward builds
a backward cache, and one forward over the whole validation set would hold
a cache several times the size of a training step's, only to drop it.

Everything is deterministic given (seed, data, config): two runs produce
bit-identical parameters and history.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import models
from .data import WindowedDataset
from .models import ModelConfig, Params
from .numerics import make_rng


class TrainingError(RuntimeError):
    """Raised when a run cannot continue (diverged loss, bad setup)."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    grad_clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "epsilon", "grad_clip_norm"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(
                f"Adam beta1 and beta2 must lie in (0, 1), got {self.beta1}, {self.beta2}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError(
                f"patience must lie in [1, max_epochs], got {self.patience} with max_epochs {self.max_epochs}"
            )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int  # 1-based, matches the log
    stopped_early: bool

    def __post_init__(self):
        if len(self.train_loss) != len(self.val_loss):
            raise ValueError("train_loss and val_loss must have one entry per epoch")
        if not 1 <= self.best_epoch <= len(self.val_loss):
            raise ValueError(f"best_epoch {self.best_epoch} outside 1..{len(self.val_loss)}")

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    def as_dict(self) -> dict:
        return asdict(self)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size == 0:
        raise ValueError("mse_loss needs at least one element")
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def clip_global_norm(grads: Params, max_norm: float) -> float:
    """Scale grads.theta in place so its L2 norm is at most max_norm; returns the pre-clip norm.

    The norm adds up per-array sums in layout order instead of summing the
    vector at once: the two can differ in the last bits, and the per-array
    form keeps trained weights bit-identical to those of earlier releases.
    """
    total = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
    if total > max_norm:
        grads.theta *= max_norm / total
    return total


def adam_step(
    theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, cfg: TrainConfig
) -> None:
    """Adam update number t (1-based): theta and the moment vectors m and v change in place."""
    if theta.shape != grad.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {grad.shape}")
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    theta -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


def validation_loss(params: Params, val_set: WindowedDataset, batch_size: int) -> float:
    """MSE over val_set, forwarded in chunks of batch_size windows (last one may be short).

    Each chunk's cache is dropped before the next forward, so the pass never
    holds more than one training batch's cache.
    """
    preds = [
        models.forward(params, val_set.inputs[start : start + batch_size])[0]
        for start in range(0, len(val_set), batch_size)
    ]
    return mse_loss(np.concatenate(preds), val_set.targets)


def train(
    model_cfg: ModelConfig,
    train_set: WindowedDataset,
    val_set: WindowedDataset,
    cfg: TrainConfig,
    log_path: str | Path,
):
    """Train one model; returns (params from the best-validation epoch, history).

    One Params is trained in place: clipping and Adam write its theta, so its
    views stay valid across batches. The best epoch is the first with the
    lowest validation loss, and training stops once patience epochs have
    passed without a new best.

    log_path receives one JSON line per epoch:
    {"epoch", "train_loss", "val_loss", "seconds", "grad_norm_max",
    "clipped_batches", "best"}. grad_norm_max is the epoch's largest pre-clip
    gradient norm, clipped_batches counts the batches whose norm exceeded
    grad_clip_norm, and best marks a new best validation loss.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise TrainingError("train and validation sets must both be non-empty")

    rng = make_rng(cfg.seed)
    params = models.init_params(model_cfg, rng)
    m, v, step = np.zeros_like(params.theta), np.zeros_like(params.theta), 0
    n = len(train_set)
    train_losses: list[float] = []
    val_losses: list[float] = []

    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
            order = rng.permutation(n)
            sq_err_sum = 0.0
            grad_norm_max = 0.0
            clipped_batches = 0
            for start in range(0, n, cfg.batch_size):
                batch_no = start // cfg.batch_size
                idx = order[start : start + cfg.batch_size]
                x = train_set.inputs[idx]
                y = train_set.targets[idx]
                preds, cache = models.forward(params, x)
                batch_loss = mse_loss(preds, y)
                if not math.isfinite(batch_loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {batch_no} "
                        f"({model_cfg.kind}, seed {cfg.seed})"
                    )
                sq_err_sum += batch_loss * len(idx)
                d_preds = 2.0 * (preds - y) / len(idx)
                grads = models.backward(params, cache, d_preds)
                norm = clip_global_norm(grads, cfg.grad_clip_norm)
                grad_norm_max = max(grad_norm_max, norm)
                clipped_batches += norm > cfg.grad_clip_norm
                step += 1
                adam_step(params.theta, grads.theta, m, v, step, cfg)

            train_loss = sq_err_sum / n
            val_loss = validation_loss(params, val_set, cfg.batch_size)
            if not math.isfinite(val_loss):
                raise TrainingError(
                    f"non-finite validation loss at epoch {epoch} "
                    f"({model_cfg.kind}, seed {cfg.seed})"
                )
            train_losses.append(train_loss)
            val_losses.append(val_loss)
            best_epoch = val_losses.index(min(val_losses)) + 1
            if best_epoch == epoch:
                best_theta = params.theta.copy()
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "seconds": round(time.perf_counter() - started, 6),
                "grad_norm_max": grad_norm_max,
                "clipped_batches": clipped_batches,
                "best": best_epoch == epoch,
            }
            log.write(json.dumps(record, allow_nan=False) + "\n")
            if epoch - best_epoch >= cfg.patience:
                break

    history = TrainHistory(
        train_loss=tuple(train_losses),
        val_loss=tuple(val_losses),
        best_epoch=best_epoch,
        stopped_early=epoch - best_epoch >= cfg.patience,
    )
    return models.rebuild(params, best_theta), history
