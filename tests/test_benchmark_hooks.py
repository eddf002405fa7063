"""The benchmark in perfbench/ wraps seqcast from outside; these tests pin what it hooks into."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from seqcast import data as dat
from seqcast import forecast_eval, models, training
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig

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
    # The numerics.sigmoid span wraps these module attributes. A gate-major
    # step activates all of its sigmoid gates in one call.
    calls = counting(monkeypatch, REGISTRY[kind].module, "sigmoid")
    params = models.init_params(ModelConfig(kind=kind, hidden=3), np.random.default_rng(0))
    steps = 7
    models.forward(params, np.random.default_rng(1).random((2, steps)))
    assert len(calls) == steps


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_transformer_forward_calls_softmax_once_per_block(monkeypatch, n_layers):
    # The numerics.softmax_rows span wraps this module attribute: one call per
    # block, the last block's single query included.
    calls = counting(monkeypatch, REGISTRY["transformer"].module, "softmax_rows")
    cfg = ModelConfig(kind="transformer", d_model=4, n_heads=2, n_layers=n_layers, d_ff=5)
    params = models.init_params(cfg, np.random.default_rng(0))
    models.forward(params, np.random.default_rng(1).random((2, 7)))
    assert len(calls) == n_layers
