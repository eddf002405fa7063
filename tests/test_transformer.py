import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import ModelConfig, transformer
from seqcast.models.transformer import positional_encoding
from seqcast.numerics import make_rng

from gradcheck import grad_check


def small_params(seed=0, d_model=8, n_heads=2, n_layers=1, d_ff=16):
    cfg = ModelConfig("transformer", d_model=d_model, n_heads=n_heads, n_layers=n_layers, d_ff=d_ff)
    return models.init_params(cfg, make_rng(seed))


def mse_setup(params, x, y):
    def loss_fn(p):
        preds, _ = models.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = models.forward(params, x)
    d_preds = 2.0 * (preds - y) / preds.size
    return loss_fn, models.backward(params, cache, d_preds)


class TestForward:
    def test_zero_branches_pass_residual_through(self):
        p = small_params(seed=4)
        layer = p.layers[0]
        for w in (layer.w_v, layer.w_o, layer.w_ff1, layer.w_ff2):
            w[...] = 0.0
        x = make_rng(5).normal(size=(2, 6))
        preds, cache = models.forward(p, x)
        embedded = x[:, :, None] @ p.w_in.T + positional_encoding(6, 8)[None, :, :]
        # the last block keeps only the final position
        assert cache["layers"][-1]["n2"].shape == (2, 1, 8)
        np.testing.assert_allclose(cache["state"], embedded[:, -1], atol=1e-12)
        expected = (embedded[:, -1, :] @ p.head_w.T + p.head_b).ravel()
        np.testing.assert_allclose(preds, expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        p = small_params(seed=6, n_layers=2)
        _, cache = models.forward(p, make_rng(7).normal(size=(3, 6)))
        for layer_cache in cache["layers"]:
            sums = layer_cache["attn_w"].sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_indivisible_heads_rejected_at_construction(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig("transformer", d_model=8, n_heads=3, n_layers=1, d_ff=16)

    def test_positional_encoding_values(self):
        pe = positional_encoding(4, 6)
        assert pe.shape == (4, 6)
        assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0  # sin(0), cos(0)
        np.testing.assert_allclose(pe[2, 0], np.sin(2.0), atol=1e-15)

    def test_positional_encoding_is_cached_read_only(self):
        pe = positional_encoding(7, 6)
        assert positional_encoding(7, 6) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pe[0, 0] = 1.0
        np.testing.assert_array_equal(pe, positional_encoding.__wrapped__(7, 6))

    def test_permutation_sensitivity_with_positions(self):
        p = small_params(seed=8)
        x = make_rng(9).normal(size=(1, 6))
        perm = np.array([3, 1, 5, 0, 2, 4])
        a, _ = models.forward(p, x)
        b, _ = models.forward(p, x[:, perm])
        assert abs(a[0] - b[0]) > 1e-8

    def test_permutation_equivariance_without_positions(self, monkeypatch):
        # Without position codes every block is permutation-equivariant, so
        # the prediction read at the last step ignores the order of the rest.
        monkeypatch.setattr(
            transformer, "positional_encoding", lambda steps, d: np.zeros((steps, d))
        )
        x = make_rng(11).normal(size=(2, 5))
        for n_layers in (1, 2):
            p = small_params(seed=10, n_layers=n_layers)
            preds, _ = models.forward(p, x)
            for head in itertools.permutations(range(4)):
                perm = np.array([*head, 4])
                preds_p, _ = models.forward(p, x[:, perm])
                np.testing.assert_allclose(preds_p, preds, rtol=1e-12, atol=1e-12)

    def test_position_codes_read_on_every_call(self, monkeypatch):
        p = small_params(seed=12)
        x = make_rng(13).normal(size=(2, 6))  # distinct values, so their order matters
        with_codes, _ = models.forward(p, x)
        monkeypatch.setattr(
            transformer, "positional_encoding", lambda steps, d: np.zeros((steps, d))
        )
        without_codes, _ = models.forward(p, x)
        assert np.abs(with_codes - without_codes).min() > 1e-8


def reference_forward(params, x):
    """Per-sample, per-head loops; every block runs over all positions."""
    d = params.dims["d_model"]
    nh = params.dims["n_heads"]
    dk = d // nh
    steps = x.shape[1]

    def layer_norm(v, gain, shift):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return gain * (v - mu) / math.sqrt(var + 1e-5) + shift

    def code(t, j):
        angle = t / 10000.0 ** ((j - j % 2) / d)
        return math.sin(angle) if j % 2 == 0 else math.cos(angle)

    preds = []
    for sample in x:
        h = np.array([[sample[t] * params.w_in[j, 0] + code(t, j) for j in range(d)]
                      for t in range(steps)])
        for layer in params.layers:
            n1 = np.array([layer_norm(row, layer.ln1_g, layer.ln1_b) for row in h])
            q, k, v = n1 @ layer.w_q, n1 @ layer.w_k, n1 @ layer.w_v
            heads = np.zeros((steps, d))
            for head in range(nh):
                cols = slice(head * dk, (head + 1) * dk)
                for t in range(steps):
                    scores = [q[t, cols] @ k[s, cols] / math.sqrt(dk) for s in range(steps)]
                    top = max(scores)
                    w = np.array([math.exp(sc - top) for sc in scores])
                    heads[t, cols] = (w / w.sum()) @ v[:, cols]
            a = h + heads @ layer.w_o
            n2 = np.array([layer_norm(row, layer.ln2_g, layer.ln2_b) for row in a])
            hidden = np.maximum(n2 @ layer.w_ff1.T + layer.b_ff1, 0.0)
            h = a + hidden @ layer.w_ff2.T + layer.b_ff2
        preds.append(float(h[-1] @ params.head_w[0] + params.head_b[0]))
    return np.array(preds)


@settings(max_examples=40, deadline=None)
@given(
    n_heads=st.integers(1, 2),
    head_dim=st.integers(1, 4),
    n_layers=st.integers(1, 3),
    d_ff=st.integers(1, 6),
    batch=st.integers(1, 3),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_forward_matches_reference(n_heads, head_dim, n_layers, d_ff, batch, steps, seed):
    rng = make_rng(seed)
    d_model = n_heads * head_dim
    cfg = ModelConfig("transformer", d_model=d_model, n_heads=n_heads, n_layers=n_layers, d_ff=d_ff)
    p = models.init_params(cfg, rng)
    # non-trivial layer-norm gains and shifts, nonzero FFN biases
    for layer in p.layers:
        for arr in (layer.ln1_g, layer.ln1_b, layer.ln2_g, layer.ln2_b, layer.b_ff1, layer.b_ff2):
            arr += rng.normal(scale=0.3, size=arr.shape)
    p.head_b[0] = rng.normal()
    x = rng.normal(size=(batch, steps))
    preds, _ = models.forward(p, x)
    np.testing.assert_allclose(preds, reference_forward(p, x), rtol=1e-12, atol=1e-12)


class TestBackward:
    def test_grad_check_d8_h2_l1_t6(self):
        p = small_params(seed=14)
        x = make_rng(24).normal(size=(3, 6))
        y = make_rng(34).normal(size=3)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_grad_check_multiple_seeds(self):
        worst = 0.0
        for seed in range(5):
            p = small_params(seed=700 + seed)
            x = make_rng(800 + seed).normal(size=(2, 6))
            y = make_rng(900 + seed).normal(size=2)
            loss_fn, analytic = mse_setup(p, x, y)
            worst = max(worst, grad_check(loss_fn, p, analytic))
        assert worst < 1e-4

    def test_grad_check_two_layers(self):
        p = small_params(seed=15, n_layers=2)
        x = make_rng(25).normal(size=(2, 5))
        y = make_rng(35).normal(size=2)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_grad_check_single_step(self):
        # one position: each block's query row is its only row
        p = small_params(seed=18, n_layers=2)
        x = make_rng(28).normal(size=(3, 1))
        y = make_rng(38).normal(size=3)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_grad_check_three_layers(self):
        p = small_params(seed=19, n_layers=3)
        x = make_rng(29).normal(size=(2, 4))
        y = make_rng(39).normal(size=2)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        p = small_params(seed=16)
        _, cache = models.forward(p, make_rng(17).random((2, 4)))
        grads = models.backward(p, cache, np.zeros(2))
        for _, g in grads.named_arrays():
            assert not g.any()


class TestParams:
    def test_parameter_count_formula(self):
        d, f, layers = 8, 16, 2
        p = small_params(d_model=d, d_ff=f, n_layers=layers)
        total = sum(a.size for _, a in p.named_arrays())
        per_layer = 4 * d * d + 4 * d + f * d + f + d * f + d
        assert total == d + layers * per_layer + d + 1

    def test_named_arrays_order_is_stable(self):
        p = small_params(n_layers=2)
        names = [n for n, _ in p.named_arrays()]
        assert names[0] == "w_in"
        assert names[-2:] == ["head_w", "head_b"]
        assert names[1] == "layers.0.ln1_g"
        assert "layers.1.w_q" in names
