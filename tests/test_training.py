import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcast.data import WindowedDataset, make_windows
from seqcast import models
from seqcast.models import MODEL_KINDS, ModelConfig, Params
from seqcast.numerics import make_rng
from seqcast.training import (
    TrainConfig,
    TrainingError,
    adam_step,
    clip_global_norm,
    init_adam,
    mse_loss,
    train,
    validation_loss,
)


def identity_task(n=160, lookback=12, seed=5):
    """Target equals the last window entry of an i.i.d. sequence."""
    rng = make_rng(seed)
    values = rng.random(n)
    ds = make_windows(values, lookback)
    cut = int(len(ds) * 0.8)
    train_set = WindowedDataset(ds.inputs[:cut], ds.targets[:cut], lookback)
    val_set = WindowedDataset(ds.inputs[cut:], ds.targets[cut:], lookback)
    return train_set, val_set


def sine_task(n=200, lookback=12, period=40.0):
    """Next-step prediction on a clean sine; beats persistence only if it learns."""
    i = np.arange(n)
    values = 0.5 + 0.4 * np.sin(2 * np.pi * i / period)
    ds = make_windows(values, lookback)
    cut = int(len(ds) * 0.8)
    train_set = WindowedDataset(ds.inputs[:cut], ds.targets[:cut], lookback)
    val_set = WindowedDataset(ds.inputs[cut:], ds.targets[cut:], lookback)
    return train_set, val_set


class TestMseLoss:
    def test_perfect_prediction_is_zero(self):
        assert mse_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        assert mse_loss([0.0, 0.0], [1.0, 3.0]) == 5.0

    def test_symmetry(self):
        a, b = [1.0, 4.0, 2.0], [0.5, 3.0, 7.0]
        assert mse_loss(a, b) == mse_loss(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss([1.0], [1.0, 2.0])


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

    def test_as_dict_round_trips(self):
        cfg = TrainConfig(learning_rate=0.01, seed=9)
        assert TrainConfig(**cfg.as_dict()) == cfg


class TestAdam:
    def test_first_step_magnitude_near_learning_rate(self):
        cfg = TrainConfig(learning_rate=0.05)
        theta = np.array([1.0, -2.0])
        out, state = adam_step(theta, np.array([3.0, -0.4]), init_adam(theta), cfg)
        # bias correction makes |update| ~= lr regardless of gradient scale
        np.testing.assert_allclose(np.abs(out - theta), cfg.learning_rate, rtol=1e-6)
        assert state.t == 1

    def test_matches_reference_formula(self):
        cfg = TrainConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        theta = np.array([0.5])
        g = np.array([2.0])
        out, _ = adam_step(theta, g, init_adam(theta), cfg)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = theta - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zero_gradient_leaves_params_unchanged(self):
        theta = np.array([1.0, 2.0])
        out, _ = adam_step(theta, np.zeros(2), init_adam(theta), TrainConfig())
        np.testing.assert_array_equal(out, theta)

    def test_converges_on_quadratic(self):
        cfg = TrainConfig(learning_rate=0.1)
        theta = np.array([0.0])
        state = init_adam(theta)
        for _ in range(100):
            theta, state = adam_step(theta, theta - 3.0, state, cfg)
        assert abs(theta[0] - 3.0) < 0.05

    def test_shape_mismatch_rejected(self):
        theta = np.zeros(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(theta, np.zeros(3), init_adam(theta), TrainConfig())

    def test_inputs_not_mutated(self):
        theta = np.ones(3)
        state = init_adam(theta)
        adam_step(theta, np.full(3, 2.0), state, TrainConfig())
        np.testing.assert_array_equal(theta, np.ones(3))
        np.testing.assert_array_equal(state.m, np.zeros(3))
        assert state.t == 0


def lstm_grads(*values):
    """An LSTM-shaped gradient (hidden 1, 14 entries): values first, zeros after."""
    grads = Params("lstm", {"hidden": 1})
    grads.theta[: len(values)] = values
    return grads


class TestClip:
    def test_below_threshold_untouched(self):
        grads = lstm_grads(0.3, 0.4)
        out, norm = clip_global_norm(grads, 5.0)
        assert out is grads.theta
        assert norm == pytest.approx(0.5)

    def test_scales_to_max_norm(self):
        grads = lstm_grads(3.0, 4.0, 12.0)  # spans w_f and w_i
        out, norm = clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(13.0)
        assert float(np.linalg.norm(out)) == pytest.approx(5.0)
        np.testing.assert_array_equal(grads.theta[:3], [3.0, 4.0, 12.0])

    def test_zero_gradients(self):
        out, norm = clip_global_norm(lstm_grads(), 1.0)
        assert norm == 0.0
        assert not out.any()

    def test_norm_sums_per_array_in_layout_order(self):
        cfg = ModelConfig(kind="transformer", d_model=8, n_heads=2, n_layers=2, d_ff=16)
        params = models.init_params(cfg, make_rng(0))
        grads = models.rebuild(params, make_rng(1).normal(size=params.theta.size))
        per_array = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
        # for this draw one sum over the whole vector differs in the last bits
        assert per_array != math.sqrt(float(np.sum(grads.theta * grads.theta)))
        assert clip_global_norm(grads, 1e9)[1] == per_array


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
        rng = make_rng(seed)
        params = models.init_params(SMALL[kind], rng)
        val = WindowedDataset(rng.random((n, 7)), rng.random(n), 7)
        whole = mse_loss(models.forward(params, val.inputs)[0], val.targets)
        assert validation_loss(params, val, batch_size) == pytest.approx(whole, rel=1e-12, abs=0)

    def test_peak_memory_is_at_most_half_a_full_batch_forward(self):
        batch_size, lookback = 32, 60
        rng = make_rng(0)
        params = models.init_params(ModelConfig(kind="transformer"), rng)
        n = 4 * batch_size
        val = WindowedDataset(rng.random((n, lookback)), rng.random(n), lookback)

        def traced_peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full = traced_peak(lambda: models.forward(params, val.inputs))
        chunked = traced_peak(lambda: validation_loss(params, val, batch_size))
        assert chunked <= full / 2

    def test_train_reports_the_chunked_loss_of_its_best_params(self):
        train_set, val_set = identity_task(n=120, lookback=8)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=5, batch_size=7)
        params, history = train(SMALL["transformer"], train_set, val_set, cfg)
        assert len(val_set) % cfg.batch_size != 0  # a short last chunk is exercised
        best = history.val_loss[history.best_epoch - 1]
        assert validation_loss(params, val_set, cfg.batch_size) == best


class TestTrain:
    def test_lstm_learns_sine_task(self):
        train_set, val_set = sine_task()
        cfg = TrainConfig(
            learning_rate=0.01, max_epochs=60, patience=60, batch_size=16, seed=1
        )
        params, history = train(ModelConfig(kind="lstm", hidden=8), train_set, val_set, cfg)
        # persistence baseline sits near 3e-3 on this series
        assert min(history.val_loss) < 1e-3
        assert history.best_epoch == int(np.argmin(history.val_loss)) + 1

    def test_same_seed_is_bit_identical(self):
        train_set, val_set = identity_task()
        cfg = TrainConfig(max_epochs=4, patience=4, seed=3)
        mc = ModelConfig(kind="gru", hidden=6)
        p1, h1 = train(mc, train_set, val_set, cfg)
        p2, h2 = train(mc, train_set, val_set, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for (n1, a), (n2, b) in zip(p1.named_arrays(), p2.named_arrays()):
            assert n1 == n2
            assert np.array_equal(a, b)

    def test_loss_decreases_early_on(self):
        train_set, val_set = identity_task()
        cfg = TrainConfig(max_epochs=5, patience=5, seed=2)
        _, history = train(ModelConfig(kind="lstm", hidden=8), train_set, val_set, cfg)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_honors_patience(self):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=60, patience=2, seed=4, learning_rate=0.05)
        _, history = train(ModelConfig(kind="gru", hidden=4), train_set, val_set, cfg)
        if history.stopped_early:
            assert history.n_epochs < 60
            assert history.n_epochs == history.best_epoch + 2

    def test_nan_target_reported_with_context(self):
        train_set, val_set = identity_task(n=60, lookback=6)
        bad = train_set.targets.copy()
        bad[3] = np.nan
        broken = WindowedDataset(train_set.inputs, bad, train_set.lookback)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=0)
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch \d+, batch \d+"):
            train(ModelConfig(kind="lstm", hidden=4), broken, val_set, cfg)

    def test_empty_sets_rejected(self):
        train_set, val_set = identity_task(n=60, lookback=6)
        empty = WindowedDataset(np.zeros((0, 6)), np.zeros(0), 6)
        with pytest.raises(TrainingError, match="non-empty"):
            train(ModelConfig(kind="lstm", hidden=4), empty, val_set, TrainConfig())

    def test_log_records_one_json_line_per_epoch(self, tmp_path):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=6)
        log = tmp_path / "train.ndjson"
        _, history = train(
            ModelConfig(kind="lstm", hidden=4), train_set, val_set, cfg, log_path=log
        )
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
        train(ModelConfig(kind="lstm", hidden=4), train_set, val_set, tight, log_path=log)
        for line in log.read_text().splitlines():
            assert json.loads(line)["clipped_batches"] == n_batches

    def test_history_as_dict(self):
        train_set, val_set = identity_task(n=80, lookback=8)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=7)
        _, history = train(ModelConfig(kind="gru", hidden=4), train_set, val_set, cfg)
        d = history.as_dict()
        assert set(d) == {"train_loss", "val_loss", "best_epoch", "stopped_early"}
        assert history.n_epochs == len(d["train_loss"])
