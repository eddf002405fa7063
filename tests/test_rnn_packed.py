"""The LSTM's and GRU's packed kernels, the ones training runs, held to the oracles at float64.

``forward`` and ``backward`` take ``_forward_packed`` and ``_backward_packed``
for float32 params. Those kernels compute in the params' dtype, so here they
run at float64, routed in place of the gate-major path: their gradient is
checked against central finite differences, and against the gate-major
gradient at float64's own scale.
"""

import numpy as np
import pytest

from seqcast import models
from seqcast.models import REGISTRY, ModelConfig

from gradcheck import grad_check

RNN_KINDS = ["lstm", "gru"]


def drawn(kind, hidden, rng):
    """Float64 params with every gate bias drawn, so no bias column of the packed rows is zero."""
    params = models.init_params(ModelConfig(kind, hidden=hidden), rng)
    for name, bias in params.named_arrays():
        if name.startswith("b_"):
            bias += rng.normal(scale=0.1, size=bias.shape)
    return params


def packed_path(monkeypatch, kind):
    """Send models.forward and models.backward of kind to its packed kernels."""
    module = REGISTRY[kind].module
    monkeypatch.setattr(module, "forward", module._forward_packed)
    monkeypatch.setattr(module, "backward", module._backward_packed)


def preds_and_grads(params, x, d_preds):
    preds, cache = models.forward(params, x)
    return preds, models.backward(params, cache, d_preds)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", RNN_KINDS)
def test_packed_gradient_passes_the_finite_difference_check(kind, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    params = drawn(kind, 4, rng)
    x, y = rng.normal(size=(3, 5)), rng.normal(size=3)
    packed_path(monkeypatch, kind)

    def loss_fn(p):
        preds, _ = models.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = models.forward(params, x)
    # z or v comes first: (steps, h+2, batch) when packed, (steps, batch, h+1) gate-major
    assert next(iter(cache.values())).shape == (5, 4 + 2, 3)
    analytic = models.backward(params, cache, 2.0 * (preds - y) / preds.size)
    assert grad_check(loss_fn, params, analytic) < 1e-4


@pytest.mark.parametrize("kind", RNN_KINDS)
def test_packed_gradient_matches_the_gate_major_one_at_float64(kind, monkeypatch):
    # One function in two layouts: their float64 results differ only in
    # the order of a few sums, far below float32's 2**-24.
    rng = np.random.default_rng(7)
    params = drawn(kind, 16, rng)
    x, d_preds = rng.random((8, 30)), rng.normal(size=8)
    preds, grads = preds_and_grads(params, x, d_preds)
    packed_path(monkeypatch, kind)
    packed_preds, packed_grads = preds_and_grads(params, x, d_preds)
    assert np.abs(packed_preds - preds).max() <= 1e-12 * np.abs(preds).max()
    for name, g in grads.named_arrays():
        assert np.abs(getattr(packed_grads, name) - g).max() <= 1e-12 * np.abs(grads.theta).max()
