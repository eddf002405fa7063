import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqcast import data as dat
from seqcast import models
from seqcast.data import Scaler
from seqcast.forecast_eval import (
    Metrics,
    compare,
    compute_metrics,
    prepare_windows,
    recursive_forecast,
)
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, weights_io
from seqcast.numerics import make_rng
from seqcast.runconfig import RunConfig, config_echo


def constant_predictor(value: float):
    """LSTM whose every weight is zero except the output bias."""
    params = models.Params("lstm", {"hidden": 4})
    params.head_b[0] = value
    return params


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.r2 == 1.0
        assert m.mae == 0.0 and m.mse == 0.0 and m.rmse == 0.0
        assert m.fit_degree_pct == 100.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = compute_metrics(y, np.full(4, y.mean()))
        assert abs(m.r2) < 1e-12

    def test_known_values(self):
        m = compute_metrics([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 8.0])
        assert m.mae == pytest.approx(1.0)
        assert m.mse == pytest.approx(4.0)
        assert m.rmse == pytest.approx(2.0)
        assert m.r2 == pytest.approx(-2.2)

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
        with pytest.raises(ValueError, match="at least 2"):
            compute_metrics([1.0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_metrics([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_identities_on_random_pairs(self, rng):
        for _ in range(50):
            y = rng.normal(size=20)
            p = rng.normal(size=20)
            m = compute_metrics(y, p)
            assert abs(m.rmse**2 - m.mse) <= 1e-9
            assert m.mae <= m.rmse + 1e-12
            assert m.r2 <= 1.0 + 1e-12


class TestMetricsType:
    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            Metrics(r2=0.5, mae=-0.1, mse=1.0, rmse=1.0)
        with pytest.raises(ValueError):
            Metrics(r2=1.5, mae=0.1, mse=1.0, rmse=1.0)
        with pytest.raises(ValueError):
            Metrics(r2=0.5, mae=0.1, mse=1.0, rmse=3.0)
        with pytest.raises(ValueError):  # the rmse bound is relative above mse = 1 ...
            Metrics(r2=0.5, mae=1.0, mse=1e7, rmse=math.sqrt(1e7) * (1 + 1e-9))
        with pytest.raises(ValueError):  # ... and absolute, 1e-9, below it
            Metrics(r2=0.5, mae=0.1, mse=0.25, rmse=0.5 + 2e-9)

    @pytest.mark.parametrize("field", ["r2", "mae", "mse", "rmse"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        values = {"r2": 0.875, "mae": 0.1, "mse": 0.04, "rmse": 0.2, field: value}
        with pytest.raises(ValueError, match=f"metric {field} is not finite"):
            Metrics(**values)

    def test_fit_degree_is_r2_in_percent(self):
        m = Metrics(r2=0.875, mae=0.1, mse=0.04, rmse=0.2)
        assert m.fit_degree_pct == pytest.approx(87.5)

    def test_as_dict_keys(self):
        m = Metrics(r2=0.5, mae=0.1, mse=0.04, rmse=0.2)
        assert set(m.as_dict()) == {"r2", "mae", "mse", "rmse", "fit_degree_pct"}


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.integers(-3, 9),
    level=st.floats(-2.0, 2.0),
    pairs=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=60
    ),
)
def test_compute_metrics_accepts_finite_inputs_at_any_scale(exponent, level, pairs):
    # Closes and errors of one size, from 1e-3 up to 1e9: the rmse^2 == mse
    # check must not trip on sqrt's last-bit rounding once mse is large.
    # Closes that vary by less than 1e-6 of their scale are left out: their
    # squared deviations can underflow to zero, where R² is undefined.
    scale = 10.0**exponent
    y_true = np.array([scale * (level + u) for u, _ in pairs])
    assume(np.ptp(y_true) > 1e-6 * scale)
    y_pred = y_true + scale * np.array([e for _, e in pairs])
    compute_metrics(y_true, y_pred)


class TestRecursiveForecast:
    def test_horizon_one_equals_single_prediction(self):
        params = models.init_params(ModelConfig(kind="gru", hidden=4), make_rng(1))
        scaler = Scaler(min=2.0, max=12.0)
        window = make_rng(2).random(8)
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
        params = models.init_params(ModelConfig(kind="lstm", hidden=4), make_rng(3))
        scaler = Scaler(min=0.0, max=1.0)
        window = make_rng(4).random(5)
        path = recursive_forecast(params, window, 2, scaler)
        step1 = models.predict(params, window)
        step2 = models.predict(params, np.concatenate([window[1:], [step1]]))
        np.testing.assert_allclose(path, [step1, step2], atol=1e-15)

    def test_bad_horizon_rejected(self):
        params = constant_predictor(0.0)
        with pytest.raises(ValueError, match="horizon"):
            recursive_forecast(params, np.zeros(4), 0, Scaler(0.0, 1.0))

    def test_bad_window_rejected(self):
        params = constant_predictor(0.0)
        with pytest.raises(ValueError, match="1-D"):
            recursive_forecast(params, np.zeros((2, 4)), 3, Scaler(0.0, 1.0))

    def test_non_finite_prediction_names_the_step(self):
        params = constant_predictor(float("nan"))
        with pytest.raises(ValueError, match="step 0"):
            recursive_forecast(params, np.zeros(4), 3, Scaler(0.0, 1.0))

    def test_overflow_on_a_ring_step_names_the_step(self):
        # On a zero window every GRU state stays 0, so step 0 is head_b =
        # 1.5e308. Fed back, it saturates every gate and the candidate to 1,
        # and step 1 is 1e308 + 1.5e308, which overflows.
        params = models.Params("gru", {"hidden": 1})
        for w in (params.w_z, params.w_r, params.w_h):
            w[0, 1] = 1.0
        params.head_w[0, 0], params.head_b[0] = 1e308, 1.5e308
        with pytest.raises(ValueError, match="non-finite prediction at forecast step 1"):
            recursive_forecast(params, np.zeros(4), 3, Scaler(0.0, 1.0))


class TestPrepareWindows:
    def test_split_sizes_and_seed_window(self, sine_series):
        lookback, horizon = 24, 10
        train_ds, val_ds, seed_window, scaler, test = prepare_windows(
            sine_series, lookback, horizon
        )
        train, val, _ = dat.chronological_split(sine_series, test_len=horizon, val_frac=0.10)
        assert len(test) == horizon
        assert len(train_ds) == len(train) - lookback
        assert len(val_ds) == len(val)
        joint = scaler.transform(np.concatenate([train.close, val.close]))
        np.testing.assert_array_equal(seed_window, joint[-lookback:])

    def test_scaler_fits_training_rows_only(self, sine_series):
        train_ds, _, _, scaler, _ = prepare_windows(sine_series, 24, 10)
        train, _, _ = dat.chronological_split(sine_series, test_len=10, val_frac=0.10)
        assert scaler.min == float(np.min(train.close))
        assert scaler.max == float(np.max(train.close))
        assert train_ds.targets.min() >= 0.0 - 1e-12

    def test_oversized_lookback_rejected(self, sine_series):
        with pytest.raises(ValueError, match="lookback"):
            prepare_windows(sine_series, 10_000, 10)


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
        assert set(report) == {"dataset", "models"}
        assert tuple(e["name"] for e in report["models"]) == MODEL_KINDS
        assert len(test) == 10
        # every weight file carries the scaler the models were trained with
        scaler = prepare_windows(sine_series, 24, 10, COMPARE_CFG.val_frac)[3]
        for kind in MODEL_KINDS:
            _, (lookback, stored) = weights_io.load_weights(out / f"weights-{kind}.txt", kind)
            assert (lookback, stored) == (24, scaler)

    def test_entries_carry_forecast_and_config(self, compared):
        (report, test), _ = compared
        for entry in report["models"]:
            assert len(entry["forecast"]) == 10
            assert all(np.isfinite(entry["forecast"]))
            assert entry["config"]["lookback"] == 24
            assert entry["config"]["horizon"] == 10
            recomputed = compute_metrics(test.close, entry["forecast"])
            assert entry["metrics"]["r2"] == pytest.approx(recomputed.r2)

    def test_entry_config_matches_run_echo(self, compared):
        (report, _), _ = compared
        echo = config_echo(COMPARE_CFG)
        for entry in report["models"]:
            assert entry["config"] == {
                **echo["models"][entry["name"]],
                "lookback": 24,
                "horizon": 10,
                "val_frac": COMPARE_CFG.val_frac,
            }


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
    assert all(math.isfinite(v) for v in metrics.as_dict().values())
