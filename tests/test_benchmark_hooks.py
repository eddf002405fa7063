"""The benchmark in perfbench/ wraps seqcast from outside; these tests pin what it hooks into."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from seqcast import data as dat
from seqcast import forecast_eval, models, training
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, weights_io
from seqcast.runconfig import parse_config_text

from conftest import tiny_config_text

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


@pytest.mark.parametrize("module,attr", span_targets())
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def counting(monkeypatch, module, attr):
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def recording(monkeypatch, module, attr):
    """Like perfbench's stopwatch: every call of module.attr as (args, kwargs, result)."""
    calls = []
    original = getattr(module, attr)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, attr, recorded)
    return calls


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_passes_config_and_train_set_to_train_first(monkeypatch, tmp_path, kind):
    # compare-c4's stopwatch on training.train reads args[0].kind, args[1]
    # and result[1].n_epochs for each kind's training throughput.
    cfg = parse_config_text(tiny_config_text("prices.csv", str(tmp_path)))
    windows = dat.make_windows(np.random.default_rng(5).random(60), cfg.lookback)
    train_set = dat.WindowedDataset(windows.inputs[:30], windows.targets[:30])
    val_set = dat.WindowedDataset(windows.inputs[30:], windows.targets[30:])
    calls = recording(monkeypatch, training, "train")
    dataset = dat.fingerprint(dat.synth_ohlcv("sine+noise", 40, 0))
    forecast_eval.fit(kind, cfg, train_set, val_set, dat.Scaler(0.0, 1.0), dataset, tmp_path)
    [(args, _, result)] = calls
    assert args[0] == cfg.model_config(kind) and args[0].kind == kind
    assert args[1] is train_set
    assert result[1].n_epochs >= 1


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_load_weights_by_keyword_gives_params_first(tmp_path, kind):
    # compare-c4 and forecast-b1 call load_weights(path, expect_kind=kind)
    # and unpack (params, _).
    dims = dict(d_model=4, d_ff=5) if kind == "transformer" else dict(hidden=3)
    params = models.init_params(ModelConfig(kind, **dims), np.random.default_rng(0))
    path = tmp_path / f"weights-{kind}.txt"
    dataset = dat.fingerprint(dat.synth_ohlcv("sine+noise", 40, 0))
    training = {"horizon": 30, "val_frac": 0.1, "train": {}}
    recipe = weights_io.Recipe(8, dat.Scaler(0.0, 1.0), dataset, training)
    weights_io.save_weights(path, params, recipe)
    result = weights_io.load_weights(path, expect_kind=kind)
    assert isinstance(result, tuple) and len(result) == 2
    assert isinstance(result[0], models.Params)


# compare-c4's finite-difference cases: (kind, dims as keywords).
GRAD_CASES = [
    ("lstm", {"hidden": 4}),
    ("gru", {"hidden": 4}),
    ("transformer", {"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16}),
]


@pytest.mark.parametrize("kind,fields", GRAD_CASES, ids=[kind for kind, _ in GRAD_CASES])
def test_init_params_takes_a_config_of_keywords(kind, fields):
    params = models.init_params(ModelConfig(kind=kind, **fields), np.random.default_rng(0))
    assert isinstance(params, models.Params)
    assert (params.kind, params.dims) == (kind, fields)
    preds, cache = models.forward(params, np.zeros((3, 5)))
    assert models.backward(params, cache, np.ones_like(preds)).theta.shape == params.theta.shape


def test_train_calls_adam_step_once_per_batch(monkeypatch, tmp_path):
    windows = dat.make_windows(np.random.default_rng(5).random(80), 8)
    train_set = dat.WindowedDataset(windows.inputs[:57], windows.targets[:57])
    val_set = dat.WindowedDataset(windows.inputs[57:], windows.targets[57:])
    cfg = training.TrainConfig(max_epochs=3, patience=3, batch_size=16, seed=6)
    calls = counting(monkeypatch, training, "adam_step")
    _, history = training.train(
        ModelConfig(kind="gru", hidden=4), train_set, val_set, cfg, tmp_path / "train.ndjson"
    )
    assert len(calls) == history.n_epochs * math.ceil(len(train_set) / cfg.batch_size)


@pytest.mark.parametrize("kind,calls", [("lstm", 1), ("gru", 1), ("transformer", 7)])
def test_recursive_forecast_predict_calls_per_kind(monkeypatch, kind, calls):
    # forecast-b1 cuts its timed parts into segments at models.predict calls.
    # The Transformer predicts every step; the LSTM and GRU predict step 0 and
    # run the later steps on the ring.
    dims = dict(d_model=4, d_ff=5) if kind == "transformer" else dict(hidden=4)
    cfg = ModelConfig(kind=kind, **dims)
    params = models.init_params(cfg, np.random.default_rng(0))
    counted = counting(monkeypatch, models, "predict")
    window, scaler = np.linspace(0.0, 1.0, 6), dat.Scaler(0.0, 1.0)
    path = forecast_eval.recursive_forecast(params, window, 7, scaler)
    assert (len(path), len(counted)) == (7, calls)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_models_dispatch_reaches_module_attributes(monkeypatch, kind):
    # The per-kind forward and backward spans wrap these module attributes, so
    # models.forward and models.backward must look them up at call time.
    module = REGISTRY[kind].module
    forwards = counting(monkeypatch, module, "forward")
    backwards = counting(monkeypatch, module, "backward")
    dims = dict(d_model=4, d_ff=5) if kind == "transformer" else dict(hidden=3)
    cfg = ModelConfig(kind=kind, **dims)
    params = models.init_params(cfg, np.random.default_rng(0))
    preds, cache = models.forward(params, np.random.default_rng(1).random((2, 5)))
    models.backward(params, cache, np.ones_like(preds))
    assert (len(forwards), len(backwards)) == (1, 1)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_forward_calls_sigmoid_once_per_step(monkeypatch, kind):
    # The numerics.sigmoid span wraps these module attributes. A step
    # activates all of its sigmoid gates in one call.
    calls = counting(monkeypatch, REGISTRY[kind].module, "sigmoid")
    params = models.init_params(ModelConfig(kind=kind, hidden=3), np.random.default_rng(0))
    steps = 7
    models.forward(params, np.random.default_rng(1).random((2, steps)))
    assert len(calls) == steps


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_float32_forward_and_lanes_call_sigmoid_once_per_step(monkeypatch, kind):
    # Training's float32 forward and the forecast's ring run the same step, so
    # the span counts one call per step there too, and one per tick of a ring.
    module = REGISTRY[kind].module
    calls = counting(monkeypatch, module, "sigmoid")
    params = models.init_params(ModelConfig(kind=kind, hidden=3), np.random.default_rng(0))
    steps = 7
    models.forward(models.rebuild(params, params.theta.astype(np.float32)),
                   np.random.default_rng(1).random((2, steps)))
    assert len(calls) == steps
    advance = module.lanes(params, 4)
    for tick in range(steps):
        advance(0.1 * tick, tick % 4)
    assert len(calls) == 2 * steps


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_transformer_forward_calls_softmax_once_per_block(monkeypatch, n_layers):
    # The numerics.softmax_rows span wraps this module attribute: one call per
    # block, the last block's single query included.
    calls = counting(monkeypatch, REGISTRY["transformer"].module, "softmax_rows")
    cfg = ModelConfig(kind="transformer", d_model=4, n_heads=2, n_layers=n_layers, d_ff=5)
    params = models.init_params(cfg, np.random.default_rng(0))
    models.forward(params, np.random.default_rng(1).random((2, 7)))
    assert len(calls) == n_layers
