import concurrent.futures
import math
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqcast import data as dat
from seqcast import models, training
from seqcast.data import Scaler
from seqcast.forecast_eval import (
    _map_kinds,
    compare,
    compute_metrics,
    prepare_windows,
    recursive_forecast,
)
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, weights_io
from seqcast.runconfig import RunConfig, config_echo


def constant_predictor(value: float):
    """LSTM whose every weight is zero except the output bias."""
    params = models.Params(ModelConfig("lstm", hidden=4))
    params.head_b[0] = value
    return params


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m["r2"] == 1.0
        assert m["mae"] == 0.0 and m["mse"] == 0.0 and m["rmse"] == 0.0
        assert m["fit_degree_pct"] == 100.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = compute_metrics(y, np.full(4, y.mean()))
        assert abs(m["r2"]) < 1e-12

    def test_known_values(self):
        m = compute_metrics([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 8.0])
        assert m["mae"] == pytest.approx(1.0)
        assert m["mse"] == pytest.approx(4.0)
        assert m["rmse"] == pytest.approx(2.0)
        assert m["r2"] == pytest.approx(-2.2)

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            compute_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "scale,message",
        [
            (1e-320, "values spread over 3e-320 with errors up to 0"),
            (1e-160, "values spread over 3e-160"),
            (1e160, "values spread over 3e+160 with errors up to 3e+160"),
        ],
    )
    def test_squares_beyond_float64_rejected(self, scale, message):
        # Not constant, so R² is defined; its sums of squares are not representable.
        y = scale * np.array([1.0, 2.0, 3.0, 4.0])
        pred = y if scale < 1 else y[::-1]
        with pytest.raises(ValueError, match=re.escape(message) + ".*float64's range"):
            compute_metrics(y, pred)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            compute_metrics([1.0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_metrics([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_identities_on_random_pairs(self, rng):
        for _ in range(50):
            y = rng.normal(size=20)
            p = rng.normal(size=20)
            m = compute_metrics(y, p)
            assert abs(m["rmse"] ** 2 - m["mse"]) <= 1e-9
            assert m["mae"] <= m["rmse"] + 1e-12
            assert m["r2"] <= 1.0 + 1e-12


class TestMetricsType:
    # r2 falls below -1.8e308 when the errors dwarf a tiny spread, and r2 * 100
    # overflows below -1.8e306: a record with either is refused, by name.
    @pytest.mark.parametrize(
        "value,field,y_true,y_pred",
        [
            (-math.inf, "r2", [0.0, 1e-153], [1e150, 1e150]),
            (-math.inf, "fit_degree_pct", [0.0, 1.0], [1e153, 1e153]),
        ],
        ids=["-inf-r2", "-inf-fit_degree_pct"],
    )
    def test_non_finite_field_rejected(self, value, field, y_true, y_pred):
        with pytest.raises(ValueError, match=f"metric {field} is not finite: {value}"):
            compute_metrics(y_true, y_pred)

    def test_fit_degree_is_r2_in_percent(self):
        m = compute_metrics([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.25, 4.25])
        assert m["r2"] == pytest.approx(0.875)
        assert m["fit_degree_pct"] == pytest.approx(87.5)

    def test_as_dict_keys(self):
        # The record is the report's metrics entry, keys in this order.
        m = compute_metrics([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.25, 4.25])
        assert list(m) == ["r2", "mae", "mse", "rmse", "fit_degree_pct"]


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.integers(-3, 9),
    level=st.floats(-2.0, 2.0),
    pairs=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=60
    ),
)
def test_compute_metrics_accepts_finite_inputs_at_any_scale(exponent, level, pairs):
    # Closes and errors of one size, from 1e-3 up to 1e9, all give a record.
    # Closes that vary by less than 1e-6 of their scale are left out: their
    # squared deviations can underflow to zero, where R² is undefined.
    scale = 10.0**exponent
    y_true = np.array([scale * (level + u) for u, _ in pairs])
    assume(np.ptp(y_true) > 1e-6 * scale)
    y_pred = y_true + scale * np.array([e for _, e in pairs])
    compute_metrics(y_true, y_pred)


def ring_overflow_gru():
    """Hidden-1 GRU whose forecast from a zero window is 1.5e308, then inf."""
    params = models.Params(ModelConfig("gru", hidden=1))
    for w in (params.w_z, params.w_r, params.w_h):
        w[0, 1] = 1.0
    params.head_w[0, 0], params.head_b[0] = 1e308, 1.5e308
    return params


class TestRecursiveForecast:
    def test_horizon_one_equals_single_prediction(self):
        params = models.init_params(ModelConfig(kind="gru", hidden=4), np.random.default_rng(1))
        scaler = Scaler(min=2.0, max=12.0)
        window = np.random.default_rng(2).random(8)
        path = recursive_forecast(params, window, 1, scaler)
        expected = scaler.inverse(np.array([models.predict(params, window)]))
        assert path.shape == (1,)
        np.testing.assert_allclose(path, expected, atol=1e-15)

    def test_constant_model_yields_constant_path(self):
        params = constant_predictor(0.25)
        scaler = Scaler(min=0.0, max=8.0)
        path = recursive_forecast(params, np.full(6, 0.5), 10, scaler)
        np.testing.assert_allclose(path, 2.0, atol=1e-15)

    def test_window_slides_by_one_each_step(self):
        params = models.init_params(ModelConfig(kind="lstm", hidden=4), np.random.default_rng(3))
        scaler = Scaler(min=0.0, max=1.0)
        window = np.random.default_rng(4).random(5)
        path = recursive_forecast(params, window, 2, scaler)
        step1 = models.predict(params, window)
        step2 = models.predict(params, np.concatenate([window[1:], [step1]]))
        np.testing.assert_allclose(path, [step1, step2], atol=1e-15)

    def test_bad_window_rejected(self):
        params = constant_predictor(0.0)
        with pytest.raises(ValueError):
            recursive_forecast(params, np.zeros((2, 4)), 3, Scaler(0.0, 1.0))

    def test_non_finite_prediction_names_the_step(self):
        params = constant_predictor(float("nan"))
        with pytest.raises(ValueError, match="step 0"):
            recursive_forecast(params, np.zeros(4), 3, Scaler(0.0, 1.0))

    def test_overflow_on_a_ring_step_names_the_step(self):
        # On a zero window every GRU state stays 0, so step 0 is head_b =
        # 1.5e308. Fed back, it saturates every gate and the candidate to 1,
        # and step 1 is 1e308 + 1.5e308, which overflows.
        with pytest.raises(ValueError, match=r"step 1 is not a finite price \(scaled value inf,"):
            recursive_forecast(ring_overflow_gru(), np.zeros(4), 3, Scaler(0.0, 1.0))

    def test_first_step_that_is_no_finite_price_is_named(self):
        # Scaled, step 0 is a finite 1.5e308 and step 1 is inf. Unscaled by a
        # range of 2, step 0 is past float64's range already: it is the one named.
        with pytest.raises(ValueError, match=re.escape(
            "forecast step 0 is not a finite price (scaled value 1.5e+308, scaler range [0.0, 2.0])"
        )):
            recursive_forecast(ring_overflow_gru(), np.zeros(4), 3, Scaler(0.0, 2.0))


class TestPrepareWindows:
    def test_split_sizes_and_seed_window(self, sine_series):
        lookback, horizon = 24, 10
        train_ds, val_ds, seed_window, scaler, test = prepare_windows(
            sine_series, lookback, horizon, 0.10
        )
        train, val, _ = dat.chronological_split(sine_series, test_len=horizon, val_frac=0.10)
        assert len(test) == horizon
        assert len(train_ds) == len(train) - lookback
        assert len(val_ds) == len(val)
        joint = scaler.transform(np.concatenate([train.close, val.close]))
        np.testing.assert_array_equal(seed_window, joint[-lookback:])

    def test_scaler_fits_training_rows_only(self, sine_series):
        train_ds, _, _, scaler, _ = prepare_windows(sine_series, 24, 10, 0.10)
        train, _, _ = dat.chronological_split(sine_series, test_len=10, val_frac=0.10)
        assert scaler.min == float(np.min(train.close))
        assert scaler.max == float(np.max(train.close))
        assert train_ds.targets.min() >= 0.0 - 1e-12

    def test_oversized_lookback_rejected(self, sine_series):
        with pytest.raises(ValueError, match="lookback"):
            prepare_windows(sine_series, 10_000, 10, 0.10)

    @pytest.mark.parametrize("lookback", [351, 370, 389])
    def test_lookback_past_the_training_rows_rejected(self, sine_series, lookback):
        # 400 rows at horizon 10 split into 351 training and 39 validation
        # rows: these lookbacks still cut windows, but none ends in training.
        with pytest.raises(ValueError, match=f"lookback {lookback} leaves no training windows "
                           "for 351 training rows"):
            prepare_windows(sine_series, lookback, 10, 0.10)


COMPARE_CFG = RunConfig(
    lookback=24,
    horizon=10,
    model_overrides=(
        *((kind, key, 4) for kind in MODEL_KINDS for key in ("max_epochs", "patience")),
        ("lstm", "hidden", 8),
        ("gru", "hidden", 8),
        ("transformer", "d_model", 8),
        ("transformer", "n_layers", 1),
        ("transformer", "d_ff", 16),
    ),
)


@pytest.fixture(scope="module")
def compared(sine_series, tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    return compare(sine_series, COMPARE_CFG, out), out


class TestCompare:
    def test_report_shape(self, compared, sine_series):
        (report, test), out = compared
        assert list(report) == ["dataset", "models", "config"]
        assert tuple(e["name"] for e in report["models"]) == MODEL_KINDS
        assert len(test) == 10
        # every weight file carries the scaler the models were trained with
        scaler = prepare_windows(sine_series, 24, 10, COMPARE_CFG.val_frac)[3]
        for kind in MODEL_KINDS:
            _, recipe = weights_io.load_weights(out / f"weights-{kind}.txt", kind)
            assert (recipe.lookback, recipe.scaler) == (24, scaler)

    def test_entries_carry_forecast_and_metrics(self, compared):
        (report, test), _ = compared
        for entry in report["models"]:
            assert len(entry["forecast"]) == 10
            assert all(np.isfinite(entry["forecast"]))
            recomputed = compute_metrics(test.close, entry["forecast"])
            assert entry["metrics"]["r2"] == pytest.approx(recomputed["r2"])

    def test_config_is_echoed_once(self, compared):
        (report, _), _ = compared
        assert report["config"] == config_echo(COMPARE_CFG)
        for entry in report["models"]:
            assert set(entry) == {"name", "metrics", "forecast", "history"}


class TestMapKinds:
    def test_an_interrupt_in_the_lead_waits_for_the_worker_and_starts_no_other_kind(
        self, monkeypatch
    ):
        # The Transformer leads on this thread and is interrupted while the
        # LSTM runs on the worker. The LSTM returns only once the interrupt
        # has reached the wait for it, and the GRU never starts.
        started, finished = [], []
        lstm_running, joining = threading.Event(), threading.Event()
        wait = concurrent.futures.wait

        def wait_and_tell(*args, **kwargs):
            joining.set()
            return wait(*args, **kwargs)

        def job(kind):
            started.append(kind)
            if kind == "transformer":
                lstm_running.wait(10)
                raise KeyboardInterrupt
            lstm_running.set()
            joining.wait(10)
            finished.append(kind)
            return kind

        monkeypatch.setattr(concurrent.futures, "wait", wait_and_tell)
        with pytest.raises(KeyboardInterrupt):
            _map_kinds(job)
        assert sorted(started) == ["lstm", "transformer"]
        assert finished == ["lstm"]
        assert joining.is_set()

    def test_a_failing_lead_is_raised_once_every_kind_has_run(self):
        ran = []

        def job(kind):
            ran.append(kind)
            if kind == "transformer":
                raise ValueError("transformer failed")
            return kind

        with pytest.raises(ValueError, match="transformer failed"):
            _map_kinds(job)
        assert sorted(ran) == sorted(MODEL_KINDS)

    def test_a_worker_failure_of_any_exception_class_is_raised(self):
        class Halt(BaseException):
            pass

        def job(kind):
            if kind == "gru":
                raise Halt(kind)
            return kind

        with pytest.raises(Halt, match="gru"):
            _map_kinds(job)

    def test_on_a_busy_pool_the_caller_runs_every_kind_itself(self):
        # A blocking job holds the pool's one thread, so every kind queued
        # behind it is cancelled and run by the caller, in turn.
        pool, held, release = training.spare_cores(), threading.Event(), threading.Event()
        ran_on, returned = {}, []

        def hold():
            held.set()
            release.wait(60)

        def job(kind):
            ran_on[kind] = threading.get_ident()
            return kind

        blocker = pool.submit(hold)
        try:
            assert held.wait(10)
            caller = threading.Thread(target=lambda: returned.append(_map_kinds(job)))
            caller.start()
            caller.join(5)
            assert not caller.is_alive()
        finally:
            release.set()
        blocker.result(timeout=10)
        assert returned == [list(MODEL_KINDS)]
        assert ran_on == dict.fromkeys(MODEL_KINDS, caller.ident)

    @pytest.fixture
    def four_cores(self, monkeypatch):
        """A host of four cores, and a pool made afresh for it."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(training, "_spare", None)
        yield
        training.spare_cores().shutdown()

    def test_on_a_warm_pool_at_most_two_kinds_train_at_once(self, four_cores):
        # The pool's thread has finished a job and waits for the next. The
        # lead ends at once, so the caller may take the LSTM off the queue
        # while the pool starts the GRU: the two can overlap, but each kind
        # runs once, at most two jobs run at once, and the order holds.
        training.spare_cores().submit(lambda: None).result(timeout=10)
        lock, ran, running, peak = threading.Lock(), [], [0], [0]

        def job(kind):
            with lock:
                ran.append(kind)
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            if kind != "transformer":
                time.sleep(0.05)
            with lock:
                running[0] -= 1
            return kind

        assert _map_kinds(job) == list(MODEL_KINDS)
        assert sorted(ran) == sorted(MODEL_KINDS)
        assert peak[0] <= 2

    def test_on_four_cores_an_interrupt_in_the_lead_starts_no_other_kind(
        self, four_cores, monkeypatch
    ):
        self.test_an_interrupt_in_the_lead_waits_for_the_worker_and_starts_no_other_kind(
            monkeypatch
        )


class TestHelpers:
    def test_seed_offsets_are_distinct_per_model(self):
        offsets = [REGISTRY[kind].seed_offset for kind in MODEL_KINDS]
        assert len(set(offsets)) == len(offsets)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(*2 * [st.floats(allow_nan=False, allow_infinity=False)]), min_size=2, max_size=30
    )
)
@example(pairs=[(0.0, 0.0), (6.890004207258824e-138, 6532242053484936.0)])  # r2 * 100 overflows
def test_compute_metrics_is_finite_or_refuses(pairs):
    # Any finite closes and forecasts, subnormal to 1e308: either every metric
    # is finite, or a ValueError says why. Varying closes are never "constant".
    y_true, y_pred = np.array(pairs).T
    assume(y_true.min() < y_true.max())
    try:
        metrics = compute_metrics(y_true, y_pred)
    except ValueError as exc:
        assert "constant" not in str(exc)
        return
    assert all(math.isfinite(v) for v in metrics.values())
