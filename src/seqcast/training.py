"""Mini-batch training: MSE loss, Adam, gradient clipping, early stopping.

The loop is deliberately plain. One ``np.random.default_rng(seed)`` per
run draws the initial parameters, then every epoch's shuffle of the window
indices. Each epoch walks the batches (last one may be short) and does
forward / loss / backward / clip / Adam. Clipping scales the batch's
gradient and Adam moves the one trained ``Params`` in place. The
validation history alone decides early stopping and which epoch's
parameters are returned.

A kind whose ``REGISTRY`` entry sets ``shard_rows`` has each batch cut into
shards of that many rows (the last may be short); the others keep a batch
as one shard. Each shard runs forward and backward on its own, with the
batch's ``2 (pred - y) / batch`` as its upstream gradient; the predictions
are joined, and the shards' gradients added in shard order. The shards go
through ``in_shards``, so a step is the same arithmetic whichever thread
ran which shard, and its bits depend on the shard size, never on the core
count. The validation pass runs in chunks of the shard size, the same way:
a forward builds a backward cache, and one forward over the whole
validation set would hold a cache several times the size of a training
step's, only to drop it.

A run makes one workspace per shard index and passes it to every forward
and backward of that shard, validation's chunks included: each batch
writes its cache and its temporaries into the arrays of the batch before,
so after the first step a batch allocates almost nothing, and no page goes
back to the OS only to be faulted in again. The last batch's predictions,
caches and gradients are dropped before validation, so that a float64
validation pass may replace the float32 arrays of the LSTM and GRU where it
needs more room. Two runs share nothing they write, so
``forecast_eval.compare`` puts its kinds through ``in_shards`` too.

The trained ``Params`` is the float64 master, as in mixed-precision
training. Each batch's forward and backward run on a working copy in the
kind's ``REGISTRY`` ``train_dtype``: float32 for the LSTM and GRU, and for
the Transformer float64, the master's own values. The gradient is cast to
float64 before clipping. Adam's moments, validation and the returned
weights are float64, and the working copy is refreshed from the master
after every Adam step.

Everything is deterministic given (seed, data, config): two runs produce
bit-identical parameters and history.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import models
from .data import WindowedDataset
from .models import REGISTRY, ModelConfig, Params, typed


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
        for f in fields(self):
            object.__setattr__(self, f.name, typed(f.name, getattr(self, f.name), type(f.default)))
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

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    def as_dict(self) -> dict:
        return asdict(self)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    return float(np.mean((pred - target) ** 2))


def clip_global_norm(grads: Params, max_norm: float) -> float:
    """Scale grads.theta in place so its L2 norm is at most max_norm; returns the pre-clip norm.

    The norm adds up per-array sums in layout order instead of summing the
    vector at once: the two can differ in the last bits, and so would the
    trained weights.
    """
    total = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
    if total > max_norm:
        grads.theta *= max_norm / total
    return total


def adam_step(
    theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, cfg: TrainConfig
) -> None:
    """Adam update number t (1-based): theta and the moment vectors m and v change in place.

    The arithmetic is that of ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``
    after ``m = b1 m + (1 - b1) g`` and ``v = b2 v + ((1 - b2) g) g``, operation
    for operation, with the same bits, but its temporaries are the two rows of
    one scratch array.
    """
    step, denom = np.empty((2, *theta.shape), theta.dtype)
    np.multiply(grad, 1.0 - cfg.beta1, out=step)
    m *= cfg.beta1
    m += step
    np.multiply(grad, 1.0 - cfg.beta2, out=step)
    step *= grad
    v *= cfg.beta2
    v += step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    np.divide(m, bc1, out=step)
    step *= cfg.learning_rate
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    step /= denom
    theta -= step


_spare = None  # the process's pool, made by the first spare_cores call
_spare_lock = threading.Lock()


def spare_cores():
    """The process's one pool for the core its callers leave idle: one thread.

    It is made on first use; only then is ``concurrent.futures`` imported,
    so no command's start-up loads it. ``in_shards`` is the one way onto
    it, for training's shards and ``forecast_eval.compare``'s kinds alike,
    so a job runs beside its caller only while the pool's thread is free.
    One thread is what a default batch of 32 in 16-row shards can use; no
    workload has been measured with more.
    """
    global _spare
    with _spare_lock:
        if _spare is None:
            from concurrent.futures import ThreadPoolExecutor

            _spare = ThreadPoolExecutor(1, thread_name_prefix="seqcast-spare")
        return _spare


def in_shards(job, count: int) -> list:
    """[job(0), ..., job(count - 1)]: job(0) on this thread, the others queued on ``spare_cores``.

    This thread then takes the others in order: one still queued is
    cancelled and run here, beside the job the pool's thread may have
    started meanwhile, and one already started is waited for. Each job runs
    once, at most two run at once, and the list does not depend on which
    thread ran which job. When a job raises, or an interrupt arrives, the
    jobs still queued are cancelled and a started one is waited for, so
    none runs after this call ends.
    """
    if count == 1:
        return [job(0)]
    pool = spare_cores()
    from concurrent.futures import wait  # loaded with the pool, never at start-up

    queued = [pool.submit(job, i) for i in range(1, count)]
    try:
        done = [job(0)]
        for i, future in enumerate(queued, start=1):
            done.append(job(i) if future.cancel() else future.result())
    finally:
        wait([future for future in queued if not future.cancel()])
    return done


def validation_loss(
    params: Params, val_set: WindowedDataset, batch_size: int, workspaces: list
) -> float:
    """MSE over val_set, forwarded in chunks of batch_size windows (last one may be short).

    The chunks go len(workspaces) at a time through ``in_shards``, chunk i
    of each group drawing from workspaces[i]; a workspace of None makes new
    arrays. Each chunk's cache is dropped before the next forward, or
    overwritten by it, so the pass never holds more than one training
    batch's cache.
    """
    group = batch_size * len(workspaces)
    preds = []
    for start in range(0, len(val_set), group):
        x = val_set.inputs[start : start + group]
        preds += in_shards(
            lambda i: models.forward(params, x[i * batch_size : (i + 1) * batch_size],
                                     workspaces[i])[0],
            math.ceil(len(x) / batch_size),
        )
    return mse_loss(np.concatenate(preds), val_set.targets)


def _shard_step(work: Params, x, y, batch: int, workspace: dict):
    """Forward and backward of one shard of a batch of batch rows: (predictions, gradient).

    A shard whose loss is not finite skips its backward and returns no
    gradient: the batch's loss is not finite either, and ``train`` stops there.
    """
    preds, cache = models.forward(work, x, workspace)
    if not math.isfinite(mse_loss(preds, y)):
        return preds, None
    return preds, models.backward(work, cache, 2.0 * (preds - y) / batch, workspace)


def train(
    model_cfg: ModelConfig,
    train_set: WindowedDataset,
    val_set: WindowedDataset,
    cfg: TrainConfig,
    log_path: str | Path,
):
    """Train one model; returns (params from the best-validation epoch, history).

    One float64 Params is trained in place: Adam writes its theta, so its
    views stay valid across batches. Forward and backward run on a working
    copy in the kind's train_dtype, refreshed from it after each step. The
    best epoch is the first with the lowest validation loss, and training
    stops once patience epochs have passed without a new best.

    log_path receives one JSON line per epoch:
    {"epoch", "train_loss", "val_loss", "seconds", "grad_norm_max",
    "clipped_batches", "best"}. grad_norm_max is the epoch's largest pre-clip
    gradient norm, clipped_batches counts the batches whose norm exceeded
    grad_clip_norm, and best marks a new best validation loss.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise TrainingError("train and validation sets must both be non-empty")

    rng = np.random.default_rng(cfg.seed)
    params = models.init_params(model_cfg, rng)
    # Of a float64 kind, the working copy is the master itself, and so is its gradient.
    work = Params(model_cfg, params.theta.astype(REGISTRY[model_cfg.kind].train_dtype, copy=False))
    m, v, step = np.zeros_like(params.theta), np.zeros_like(params.theta), 0
    rows = min(REGISTRY[model_cfg.kind].shard_rows or cfg.batch_size, cfg.batch_size)
    # shard i of every batch, and chunk i of every validation group, draws from workspaces[i]
    workspaces = [{} for _ in range(math.ceil(cfg.batch_size / rows))]
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
                shards = in_shards(
                    lambda i: _shard_step(work, x[i * rows : (i + 1) * rows],
                                          y[i * rows : (i + 1) * rows], len(idx), workspaces[i]),
                    math.ceil(len(idx) / rows),
                )
                batch_loss = mse_loss(np.concatenate([p for p, _ in shards]), y)
                if not math.isfinite(batch_loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {batch_no} "
                        f"({model_cfg.kind}, seed {cfg.seed})"
                    )
                sq_err_sum += batch_loss * len(idx)
                grads = Params(model_cfg, shards[0][1].theta.astype(np.float64, copy=False))
                for _, shard_grads in shards[1:]:
                    grads.theta += shard_grads.theta
                norm = clip_global_norm(grads, cfg.grad_clip_norm)
                grad_norm_max = max(grad_norm_max, norm)
                clipped_batches += norm > cfg.grad_clip_norm
                step += 1
                adam_step(params.theta, grads.theta, m, v, step, cfg)
                np.copyto(work.theta, params.theta)

            del shards, grads
            train_loss = sq_err_sum / n
            val_loss = validation_loss(params, val_set, rows, workspaces)
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
