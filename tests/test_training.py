import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqcast.data import WindowedDataset, make_windows
from seqcast import models
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, Params
from seqcast.training import (
    TrainConfig,
    TrainHistory,
    TrainingError,
    adam_step,
    clip_global_norm,
    in_shards,
    mse_loss,
    spare_cores,
    train,
    validation_loss,
)


def identity_task(n=160, lookback=12, seed=5):
    """Target equals the last window entry of an i.i.d. sequence."""
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    ds = make_windows(values, lookback)
    cut = int(len(ds) * 0.8)
    train_set = WindowedDataset(ds.inputs[:cut], ds.targets[:cut])
    val_set = WindowedDataset(ds.inputs[cut:], ds.targets[cut:])
    return train_set, val_set


def sine_task(n=200, lookback=12, period=40.0):
    """Next-step prediction on a clean sine; beats persistence only if it learns."""
    i = np.arange(n)
    values = 0.5 + 0.4 * np.sin(2 * np.pi * i / period)
    ds = make_windows(values, lookback)
    cut = int(len(ds) * 0.8)
    train_set = WindowedDataset(ds.inputs[:cut], ds.targets[:cut])
    val_set = WindowedDataset(ds.inputs[cut:], ds.targets[cut:])
    return train_set, val_set


class TestMseLoss:
    def test_perfect_prediction_is_zero(self):
        assert mse_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        assert mse_loss([0.0, 0.0], [1.0, 3.0]) == 5.0

    def test_symmetry(self):
        a, b = [1.0, 4.0, 2.0], [0.5, 3.0, 7.0]
        assert mse_loss(a, b) == mse_loss(b, a)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 32
        assert cfg.patience == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"patience": 0},
            {"max_epochs": 0},
            {"patience": 20, "max_epochs": 5},
            {"beta1": 1.0},
            {"grad_clip_norm": 0.0},
            {"seed": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            TrainConfig(**kwargs)

    # With max_epochs=True training ran one epoch and echoed true; a float
    # batch_size failed later in range.
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 16.0},
            {"max_epochs": True, "patience": 1},
            {"patience": 2.0},
            {"seed": 1.0},
        ],
        ids=["float-batch-size", "bool-max-epochs", "float-patience", "float-seed"],
    )
    def test_count_that_is_no_int_rejected(self, kwargs):
        key, value = next(iter(kwargs.items()))
        with pytest.raises(ValueError, match=f"{key}: cannot read {value!r} as int"):
            TrainConfig(**kwargs)

    # A bool for a float setting trained at rate 1.0; None and a str ended in
    # a TypeError from the range check.
    @pytest.mark.parametrize(
        "key,value",
        [
            ("learning_rate", True),
            ("epsilon", True),
            ("grad_clip_norm", True),
            ("learning_rate", None),
            ("grad_clip_norm", "5"),
        ],
    )
    def test_float_setting_of_another_type_rejected(self, key, value):
        with pytest.raises(ValueError) as exc:
            TrainConfig(**{key: value})
        assert str(exc.value) == f"{key}: cannot read {value!r} as float"

    def test_as_dict_round_trips(self):
        cfg = TrainConfig(learning_rate=0.01, seed=9)
        assert TrainConfig(**cfg.as_dict()) == cfg


def adam_reference(theta, grad, m, v, t, cfg):
    """The pure Adam formula: update number t from moments m, v; returns new (theta, m, v)."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    return theta - cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon), m, v


def zero_moments(theta):
    return np.zeros_like(theta), np.zeros_like(theta)


def adam_expressions(theta, grad, m, v, t, cfg):
    """adam_step in its earlier form: in place, one NumPy temporary per operation."""
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    theta -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


class TestAdam:
    def test_first_step_magnitude_near_learning_rate(self):
        cfg = TrainConfig(learning_rate=0.05)
        theta = np.array([1.0, -2.0])
        adam_step(theta, np.array([3.0, -0.4]), *zero_moments(theta), 1, cfg)
        # bias correction makes |update| ~= lr regardless of gradient scale
        np.testing.assert_allclose(np.abs(theta - [1.0, -2.0]), cfg.learning_rate, rtol=1e-6)

    def test_matches_reference_formula(self):
        cfg = TrainConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        theta = np.array([0.5])
        g = np.array([2.0])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = theta - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(theta, g, *zero_moments(theta), 1, cfg)
        np.testing.assert_allclose(theta, expected, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 40),
        steps=st.integers(1, 30),
        learning_rate=st.sampled_from([1e-4, 1e-3, 0.05]),
        beta1=st.sampled_from([0.5, 0.9, 0.99]),
        beta2=st.sampled_from([0.9, 0.999]),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    def test_in_place_equals_pure_formula_bit_for_bit(
        self, seed, size, steps, learning_rate, beta1, beta2, scale
    ):
        cfg = TrainConfig(learning_rate=learning_rate, beta1=beta1, beta2=beta2)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=size)
        m, v = zero_moments(theta)
        pure = (theta.copy(), m.copy(), v.copy())
        for t in range(1, steps + 1):
            grad = scale * rng.normal(size=size)
            adam_step(theta, grad, m, v, t, cfg)
            pure_theta, pure_m, pure_v = pure
            pure = adam_reference(pure_theta, grad, pure_m, pure_v, t, cfg)
            for got, want in zip((theta, m, v), pure):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scratch_form_has_the_bits_of_the_expression_form(self, dtype):
        # The Transformer's 66k parameters over 19 steps, gradients spread
        # over eleven decades, a tenth of them exactly zero.
        cfg = TrainConfig(learning_rate=3e-3, beta1=0.8, beta2=0.99, epsilon=1e-7)
        rng = np.random.default_rng(19)
        theta = rng.normal(size=66_000).astype(dtype)
        m, v = zero_moments(theta)
        expr = (theta.copy(), m.copy(), v.copy())
        for t in range(1, 20):
            grad = rng.normal(size=theta.size) * 10.0 ** rng.uniform(-8, 3, size=theta.size)
            grad = np.where(rng.random(theta.size) < 0.1, 0.0, grad).astype(dtype)
            adam_step(theta, grad, m, v, t, cfg)
            adam_expressions(*expr[:1], grad, *expr[1:], t, cfg)
            for got, want in zip((theta, m, v), expr):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_zero_gradient_leaves_params_unchanged(self):
        theta = np.array([1.0, 2.0])
        adam_step(theta, np.zeros(2), *zero_moments(theta), 1, TrainConfig())
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_converges_on_quadratic(self):
        cfg = TrainConfig(learning_rate=0.1)
        theta = np.array([0.0])
        m, v = zero_moments(theta)
        for t in range(1, 101):
            adam_step(theta, theta - 3.0, m, v, t, cfg)
        assert abs(theta[0] - 3.0) < 0.05

    def test_updates_in_place_and_leaves_grad_untouched(self):
        theta, grad = np.ones(3), np.full(3, 2.0)
        m, v = zero_moments(theta)
        arrays = (theta, m, v)
        assert adam_step(theta, grad, m, v, 1, TrainConfig()) is None
        want = adam_reference(np.ones(3), grad, *zero_moments(theta), 1, TrainConfig())
        for got, expected in zip(arrays, want):
            assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(grad, np.full(3, 2.0))


def lstm_grads(*values):
    """An LSTM-shaped gradient (hidden 1, 14 entries): values first, zeros after."""
    grads = Params(ModelConfig("lstm", hidden=1))
    grads.theta[: len(values)] = values
    return grads


class TestClip:
    def test_below_threshold_untouched(self):
        grads = lstm_grads(0.3, 0.4)
        before = grads.theta.copy()
        assert clip_global_norm(grads, 5.0) == pytest.approx(0.5)
        assert grads.theta.tobytes() == before.tobytes()

    def test_scales_to_max_norm(self):
        grads = lstm_grads(3.0, 4.0, 12.0)  # spans w_f and w_i
        theta = grads.theta
        assert clip_global_norm(grads, 5.0) == pytest.approx(13.0)
        assert grads.theta is theta  # scaled in place
        assert float(np.linalg.norm(theta)) == pytest.approx(5.0)
        np.testing.assert_array_equal(theta[:3], np.array([3.0, 4.0, 12.0]) * (5.0 / 13.0))

    def test_zero_gradients(self):
        grads = lstm_grads()
        assert clip_global_norm(grads, 1.0) == 0.0
        assert not grads.theta.any()

    def test_norm_sums_per_array_in_layout_order(self):
        cfg = ModelConfig(kind="transformer", d_model=8, n_heads=2, n_layers=2, d_ff=16)
        params = models.init_params(cfg, np.random.default_rng(0))
        grads = models.rebuild(params, np.random.default_rng(1).normal(size=params.theta.size))
        per_array = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
        # for this draw one sum over the whole vector differs in the last bits
        assert per_array != math.sqrt(float(np.sum(grads.theta * grads.theta)))
        assert clip_global_norm(grads, 1e9) == per_array


SMALL = {
    "lstm": ModelConfig(kind="lstm", hidden=6),
    "gru": ModelConfig(kind="gru", hidden=6),
    "transformer": ModelConfig(kind="transformer", d_model=8, n_heads=2, n_layers=2, d_ff=16),
}


class TestValidationLoss:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        batch_size=st.sampled_from([1, 2, 3, 5, 8, 32]),
        size=st.sampled_from(["1", "b-1", "b", "b+1", "3b+1"]),
        seed=st.integers(0, 2**16),
    )
    def test_chunked_equals_one_full_batch(self, kind, batch_size, size, seed):
        b = batch_size
        n = max(1, {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "3b+1": 3 * b + 1}[size])
        rng = np.random.default_rng(seed)
        params = models.init_params(SMALL[kind], rng)
        val = WindowedDataset(rng.random((n, 7)), rng.random(n))
        whole = mse_loss(models.forward(params, val.inputs)[0], val.targets)
        assert validation_loss(params, val, batch_size, [None]) == pytest.approx(whole, rel=1e-12, abs=0)

    def test_peak_memory_is_at_most_half_a_full_batch_forward(self):
        batch_size, lookback = 32, 60
        rng = np.random.default_rng(0)
        params = models.init_params(ModelConfig(kind="transformer"), rng)
        n = 4 * batch_size
        val = WindowedDataset(rng.random((n, lookback)), rng.random(n))

        def traced_peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full = traced_peak(lambda: models.forward(params, val.inputs))
        chunked = traced_peak(lambda: validation_loss(params, val, batch_size, [None]))
        assert chunked <= full / 2

    def test_train_reports_the_chunked_loss_of_its_best_params(self, tmp_path):
        train_set, val_set = identity_task(n=120, lookback=8)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=5, batch_size=7)
        params, history = train(SMALL["transformer"], train_set, val_set, cfg, tmp_path / "log")
        assert len(val_set) % cfg.batch_size != 0  # a short last chunk is exercised
        best = history.val_loss[history.best_epoch - 1]
        assert validation_loss(params, val_set, cfg.batch_size, [None]) == best


class TestTrain:
    def test_lstm_learns_sine_task(self, tmp_path):
        train_set, val_set = sine_task()
        cfg = TrainConfig(
            learning_rate=0.01, max_epochs=60, patience=60, batch_size=16, seed=1
        )
        params, history = train(
            ModelConfig(kind="lstm", hidden=8), train_set, val_set, cfg, tmp_path / "log"
        )
        # persistence baseline sits near 3e-3 on this series
        assert min(history.val_loss) < 1e-3
        assert history.best_epoch == int(np.argmin(history.val_loss)) + 1

    def test_same_seed_is_bit_identical(self, tmp_path):
        train_set, val_set = identity_task()
        cfg = TrainConfig(max_epochs=4, patience=4, seed=3)
        mc = ModelConfig(kind="gru", hidden=6)
        p1, h1 = train(mc, train_set, val_set, cfg, tmp_path / "log1")
        p2, h2 = train(mc, train_set, val_set, cfg, tmp_path / "log2")
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for (n1, a), (n2, b) in zip(p1.named_arrays(), p2.named_arrays()):
            assert n1 == n2
            assert np.array_equal(a, b)

    def test_loss_decreases_early_on(self, tmp_path):
        train_set, val_set = identity_task()
        cfg = TrainConfig(max_epochs=5, patience=5, seed=2)
        _, history = train(
            ModelConfig(kind="lstm", hidden=8), train_set, val_set, cfg, tmp_path / "log"
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_honors_patience(self, tmp_path):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=60, patience=2, seed=4, learning_rate=0.05)
        _, history = train(
            ModelConfig(kind="gru", hidden=4), train_set, val_set, cfg, tmp_path / "log"
        )
        if history.stopped_early:
            assert history.n_epochs < 60
            assert history.n_epochs == history.best_epoch + 2

    def test_nan_target_reported_with_context(self, tmp_path):
        train_set, val_set = identity_task(n=60, lookback=6)
        bad = train_set.targets.copy()
        bad[3] = np.nan
        broken = WindowedDataset(train_set.inputs, bad)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=0)
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch \d+, batch \d+"):
            train(ModelConfig(kind="lstm", hidden=4), broken, val_set, cfg, tmp_path / "log")

    def test_inf_validation_target_reported_with_context(self, tmp_path):
        train_set, val_set = identity_task(n=60, lookback=6)
        bad = val_set.targets.copy()
        bad[2] = np.inf
        broken = WindowedDataset(val_set.inputs, bad)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=0)
        with pytest.raises(TrainingError, match=r"non-finite validation loss at epoch 1 \(gru"):
            train(ModelConfig(kind="gru", hidden=4), train_set, broken, cfg, tmp_path / "log")

    def test_empty_sets_rejected(self, tmp_path):
        train_set, val_set = identity_task(n=60, lookback=6)
        empty = WindowedDataset(np.zeros((0, 6)), np.zeros(0))
        log = tmp_path / "train.ndjson"
        for sets in ((empty, val_set), (train_set, empty)):
            with pytest.raises(TrainingError, match="non-empty"):
                train(ModelConfig(kind="lstm", hidden=4), *sets, TrainConfig(), log)
            assert not log.exists()

    def test_log_records_one_json_line_per_epoch(self, tmp_path):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=6)
        log = tmp_path / "train.ndjson"
        _, history = train(ModelConfig(kind="lstm", hidden=4), train_set, val_set, cfg, log)
        lines = log.read_text().splitlines()
        assert len(lines) == history.n_epochs
        n_batches = math.ceil(len(train_set) / cfg.batch_size)
        records = [json.loads(line) for line in lines]
        for i, rec in enumerate(records, start=1):
            assert set(rec) == {
                "epoch", "train_loss", "val_loss", "seconds",
                "grad_norm_max", "clipped_batches", "best",
            }
            assert rec["epoch"] == i
            assert rec["val_loss"] == pytest.approx(history.val_loss[i - 1])
            assert rec["grad_norm_max"] > 0.0
            assert 0 <= rec["clipped_batches"] <= n_batches
            earlier = history.val_loss[: i - 1]
            assert rec["best"] == (rec["val_loss"] < min(earlier, default=math.inf))
        assert max(rec["epoch"] for rec in records if rec["best"]) == history.best_epoch

        # a clip threshold below every gradient norm clips every batch
        tight = TrainConfig(max_epochs=3, patience=3, seed=6, grad_clip_norm=1e-9)
        train(ModelConfig(kind="lstm", hidden=4), train_set, val_set, tight, log)
        for line in log.read_text().splitlines():
            assert json.loads(line)["clipped_batches"] == n_batches

    def test_history_as_dict(self, tmp_path):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=7)
        _, history = train(
            ModelConfig(kind="gru", hidden=4), train_set, val_set, cfg, tmp_path / "log"
        )
        d = history.as_dict()
        assert set(d) == {"train_loss", "val_loss", "best_epoch", "stopped_early"}
        assert history.n_epochs == len(d["train_loss"])


def _shard_rows(kind, batch_size):
    return min(REGISTRY[kind].shard_rows or batch_size, batch_size)


def _sharded_step(work, x, y):
    """A batch's predictions and float64 gradient as a loop over its shards, in order.

    Each shard of the kind's shard_rows rows runs forward and backward with
    the batch's upstream gradient; the shards' gradients are added in order.
    """
    rows = _shard_rows(work.kind, len(x))
    preds, grad = [], None
    for start in range(0, len(x), rows):
        shard_preds, cache = models.forward(work, x[start : start + rows])
        d_preds = 2.0 * (shard_preds - y[start : start + rows]) / len(x)
        shard_grad = models.backward(work, cache, d_preds).theta.astype(np.float64)
        grad = shard_grad if grad is None else grad + shard_grad
        preds.append(shard_preds)
    return np.concatenate(preds), grad


def _train_reference(model_cfg, train_set, val_set, cfg, log_path):
    """The loop that in-place training must reproduce: a pure Adam step, a
    rebuilt Params per batch, a new clipped vector, and explicit
    early-stopping counters. Forward and backward run on a fresh copy in the
    kind's training dtype, one shard at a time (``_sharded_step``), and the
    gradient is cast to float64 before the clip. Validation runs in chunks
    of the shard size. Returns (best params, history)."""
    rng = np.random.default_rng(cfg.seed)
    params = models.init_params(model_cfg, rng)
    m, v, t = np.zeros_like(params.theta), np.zeros_like(params.theta), 0
    n = len(train_set)
    best_val, best_theta, best_epoch, epochs_since_best = math.inf, None, 0, 0
    train_losses, val_losses, stopped_early = [], [], False
    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            sq_err_sum, grad_norm_max, clipped_batches = 0.0, 0.0, 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                x, y = train_set.inputs[idx], train_set.targets[idx]
                dtype = REGISTRY[model_cfg.kind].train_dtype
                work = models.rebuild(params, params.theta.astype(dtype))
                preds, grad = _sharded_step(work, x, y)
                sq_err_sum += mse_loss(preds, y) * len(idx)
                grads = models.rebuild(params, grad)
                norm = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
                grad = grads.theta
                if not (norm <= cfg.grad_clip_norm or norm == 0.0):
                    grad = grads.theta * (cfg.grad_clip_norm / norm)
                grad_norm_max = max(grad_norm_max, norm)
                clipped_batches += norm > cfg.grad_clip_norm
                t += 1
                theta, m, v = adam_reference(params.theta, grad, m, v, t, cfg)
                params = models.rebuild(params, theta)
            train_losses.append(sq_err_sum / n)
            rows = _shard_rows(model_cfg.kind, cfg.batch_size)
            val_losses.append(validation_loss(params, val_set, rows, [None]))
            improved = val_losses[-1] < best_val
            record = {
                "epoch": epoch, "train_loss": train_losses[-1], "val_loss": val_losses[-1],
                "seconds": 0.0, "grad_norm_max": grad_norm_max,
                "clipped_batches": clipped_batches, "best": improved,
            }
            log.write(json.dumps(record, allow_nan=False) + "\n")
            if improved:
                best_val, best_theta, best_epoch = val_losses[-1], params.theta.copy(), epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= cfg.patience:
                    stopped_early = True
                    break
    history = TrainHistory(tuple(train_losses), tuple(val_losses), best_epoch, stopped_early)
    return models.rebuild(params, best_theta), history


def log_without_seconds(path):
    return [{**json.loads(line), "seconds": None} for line in path.read_text().splitlines()]


def assert_matches_reference(tmp_path, kind, cfg):
    """train and _train_reference agree bit for bit; returns the shared history."""
    train_set, val_set = identity_task(n=70, lookback=6)
    logs = tmp_path / "train.ndjson", tmp_path / "reference.ndjson"
    params, history = train(SMALL[kind], train_set, val_set, cfg, logs[0])
    want_params, want_history = _train_reference(SMALL[kind], train_set, val_set, cfg, logs[1])
    assert params.theta.tobytes() == want_params.theta.tobytes()
    assert history == want_history
    assert log_without_seconds(logs[0]) == log_without_seconds(logs[1])
    return history


# (kind, TrainConfig) pairs that hit the edges of the stopping rule, each
# named by what its history shows.
EDGE_CASES = {
    "patience-1": (
        "gru", TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=8, patience=1, seed=0)
    ),
    "stop-on-last-epoch": (
        "lstm", TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=4, patience=2, seed=1)
    ),
}


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_case(self, tmp_path, case):
        kind, cfg = EDGE_CASES[case]
        history = assert_matches_reference(tmp_path, kind, cfg)
        assert history.stopped_early
        assert history.n_epochs == history.best_epoch + cfg.patience
        if case == "patience-1":
            assert cfg.patience == 1 and history.n_epochs < cfg.max_epochs
        else:
            assert history.n_epochs == cfg.max_epochs

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        batch_size=st.sampled_from([1, 5, 8, 32, 64]),
        max_epochs=st.integers(1, 6),
        patience=st.integers(1, 6),
        learning_rate=st.sampled_from([1e-3, 0.05]),
        grad_clip_norm=st.sampled_from([1e-3, 5.0]),
        seed=st.integers(0, 2**16),
    )
    def test_train_equals_reference(
        self, tmp_path, kind, batch_size, max_epochs, patience, learning_rate, grad_clip_norm, seed
    ):
        cfg = TrainConfig(
            learning_rate=learning_rate, batch_size=batch_size, max_epochs=max_epochs,
            patience=min(patience, max_epochs), grad_clip_norm=grad_clip_norm, seed=seed,
        )
        assert_matches_reference(tmp_path, kind, cfg)


def _plain_loop(model_cfg, train_set, val_set, cfg):
    """train's steps with no workspace, so every forward and backward allocates.

    The library's own clip_global_norm and adam_step update the float64
    master. A batch runs shard by shard in order (``_sharded_step``), and
    validation in chunks of the shard size, all on this thread. Early
    stopping is left out, so cfg.patience must equal cfg.max_epochs.
    Returns (best theta, train losses, val losses, best epoch).
    """
    rng = np.random.default_rng(cfg.seed)
    params = models.init_params(model_cfg, rng)
    dtype = REGISTRY[model_cfg.kind].train_dtype
    m, v, n, step = np.zeros_like(params.theta), np.zeros_like(params.theta), len(train_set), 0
    train_losses, val_losses = [], []
    for epoch in range(1, cfg.max_epochs + 1):
        order, sq_err_sum = rng.permutation(n), 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, y = train_set.inputs[idx], train_set.targets[idx]
            work = models.rebuild(params, params.theta.astype(dtype))
            preds, grad = _sharded_step(work, x, y)
            sq_err_sum += mse_loss(preds, y) * len(idx)
            grads = models.rebuild(params, grad)
            clip_global_norm(grads, cfg.grad_clip_norm)
            step += 1
            adam_step(params.theta, grads.theta, m, v, step, cfg)
        train_losses.append(sq_err_sum / n)
        rows = _shard_rows(model_cfg.kind, cfg.batch_size)
        val_losses.append(validation_loss(params, val_set, rows, [None]))
        if val_losses[-1] < min(val_losses[:-1], default=math.inf):
            best_theta, best_epoch = params.theta.copy(), epoch
    return best_theta, tuple(train_losses), tuple(val_losses), best_epoch


class TestWorkspace:
    @pytest.mark.parametrize("kind", ["transformer", "lstm"])
    def test_train_equals_a_plain_loop(self, tmp_path, kind):
        # 51 training and 13 validation windows: both end in a short batch,
        # and the LSTM's float64 validation reads the memory of float32 batches.
        train_set, val_set = identity_task(n=70, lookback=6)
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=4, learning_rate=0.05)
        params, history = train(SMALL[kind], train_set, val_set, cfg, tmp_path / "log")
        theta, *losses, best_epoch = _plain_loop(SMALL[kind], train_set, val_set, cfg)
        assert params.theta.tobytes() == theta.tobytes()
        assert [history.train_loss, history.val_loss, history.best_epoch] == [*losses, best_epoch]

    def test_warm_step_allocates_under_a_tenth_of_a_plain_step(self):
        rng = np.random.default_rng(0)
        params = models.init_params(ModelConfig(kind="transformer"), rng)
        x, d_preds = rng.random((32, 60)), rng.normal(size=32)
        workspace = {}

        def step(workspace):
            _, cache = models.forward(params, x, workspace)
            models.backward(params, cache, d_preds, workspace)

        def traced_peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        step(workspace)  # the workspace makes its arrays, and the position codes are cached
        warm = traced_peak(lambda: step(workspace))
        plain = traced_peak(lambda: step(None))
        assert warm < plain / 10


class TestShards:
    # 91 training and 23 validation windows. At batch 40 a Transformer batch
    # is shards of 16, 16 and 8 rows and the last batch is 11 rows; validation
    # is chunks of 16 and 7, which go through the first two shard workspaces.
    def test_sharded_train_equals_a_plain_loop(self, tmp_path):
        train_set, val_set = identity_task(n=120, lookback=6)
        cfg = TrainConfig(batch_size=40, max_epochs=3, patience=3, seed=8, learning_rate=0.05)
        assert REGISTRY["transformer"].shard_rows < cfg.batch_size
        params, history = train(SMALL["transformer"], train_set, val_set, cfg, tmp_path / "log")
        theta, *losses, best_epoch = _plain_loop(SMALL["transformer"], train_set, val_set, cfg)
        assert params.theta.tobytes() == theta.tobytes()
        assert [history.train_loss, history.val_loss, history.best_epoch] == [*losses, best_epoch]

    def test_shards_run_in_turn_give_the_bytes_of_shards_run_beside_the_caller(
        self, tmp_path, monkeypatch
    ):
        # While a blocking job holds the pool's one thread, each queued
        # shard is cancelled and run by the caller. With the pool free, some
        # run on it. Both runs must give the same bytes.
        train_set, val_set = identity_task(n=150, lookback=24)
        model_cfg = ModelConfig(kind="transformer", d_model=32, n_heads=2, n_layers=2, d_ff=64)
        cfg = TrainConfig(batch_size=48, max_epochs=2, patience=2, seed=2)
        ran_on, forward = [], models.forward

        def recorded(*args, **kwargs):
            ran_on.append(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(models, "forward", recorded)
        pool, held, release = spare_cores(), threading.Semaphore(0), threading.Event()

        def hold():
            held.release()
            release.wait(60)

        blocker = pool.submit(hold)
        try:
            assert held.acquire(timeout=10)
            in_turn = train(model_cfg, train_set, val_set, cfg, tmp_path / "in-turn")
        finally:
            release.set()
        blocker.result(timeout=10)
        in_turn_threads, ran_on[:] = set(ran_on), []
        beside = train(model_cfg, train_set, val_set, cfg, tmp_path / "beside")
        assert in_turn_threads == {threading.get_ident()}
        assert set(ran_on) - in_turn_threads, "no shard ran on the pool"
        assert in_turn[0].theta.tobytes() == beside[0].theta.tobytes()
        assert in_turn[1] == beside[1]

    def test_in_shards_lists_every_job_once_in_order(self):
        calls = []

        def job(i):
            calls.append(i)
            return i * i

        assert in_shards(job, 5) == [0, 1, 4, 9, 16]
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_callers_on_more_threads_than_cores_each_get_their_own_list(self):
        # Callers outnumber the cores and switch often; each still gets its
        # own jobs' results in order, every job run exactly once.
        ran, ran_lock = [], threading.Lock()

        def caller(c):
            def job(i):
                with ran_lock:
                    ran.append((c, i))
                return c, i

            return [in_shards(job, 4) == [(c, i) for i in range(4)] for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda c=c: results.append(caller(c)))
                       for c in range(4 * (os.cpu_count() or 1))]
            results = []
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert len(results) == len(callers) and all(all(r) for r in results)
        assert sorted(ran) == sorted((c, i) for c in range(len(callers)) for i in range(4)
                                     for _ in range(50))

    def test_a_failing_shard_is_raised_by_the_caller(self):
        def job(i):
            if i == 2:
                raise ValueError("shard 2")
            return i

        with pytest.raises(ValueError, match="shard 2"):
            in_shards(job, 3)

    def test_a_failing_later_shard_leaves_no_shard_queued(self):
        # The pool's thread is held, so every shard is queued and the caller
        # runs them in turn. Shard 1 fails; shards 2 and 3 must never run,
        # not even once the pool is free again.
        pool, held, release, ran = spare_cores(), threading.Event(), threading.Event(), []

        def hold():
            held.set()
            release.wait(60)

        def job(i):
            ran.append(i)
            if i == 1:
                raise ValueError("shard 1")
            return i

        blocker = pool.submit(hold)
        try:
            assert held.wait(10)
            with pytest.raises(ValueError, match="shard 1"):
                in_shards(job, 4)
        finally:
            release.set()
        blocker.result(timeout=10)
        pool.submit(lambda: None).result(timeout=10)  # whatever was still queued has run
        assert ran == [0, 1]

    def test_a_failing_first_shard_waits_for_the_shard_the_pool_started(self):
        started, finished = threading.Event(), []

        def job(i):
            if i == 0:
                assert started.wait(10)
                raise ValueError("shard 0")
            started.set()
            time.sleep(0.05)
            finished.append(i)
            return i

        with pytest.raises(ValueError, match="shard 0"):
            in_shards(job, 2)
        assert finished == [1]
