import numpy as np
import pytest

from seqcast.models import transformer
from seqcast.models.transformer import positional_encoding
from seqcast.numerics import grad_check, make_rng


def small_params(seed=0, d_model=8, n_heads=2, n_layers=1, d_ff=16):
    return transformer.init_params(make_rng(seed), d_model, n_heads, n_layers, d_ff)


def mse_setup(params, x, y):
    def loss_fn(p):
        preds, _ = transformer.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = transformer.forward(params, x)
    d_preds = 2.0 * (preds - y) / preds.size
    return loss_fn, transformer.backward(params, cache, d_preds)


class TestForward:
    def test_zero_branches_pass_residual_through(self):
        p = small_params(seed=4)
        layer = p.layers[0]
        for w in (layer.w_v, layer.w_o, layer.w_ff1, layer.w_ff2):
            w[...] = 0.0
        x = make_rng(5).normal(size=(2, 6))
        preds, cache = transformer.forward(p, x)
        embedded = x[:, :, None] @ p.w_in.T + positional_encoding(6, 8)[None, :, :]
        np.testing.assert_allclose(cache["h_final"], embedded, atol=1e-12)
        expected = (embedded[:, -1, :] @ p.head_w.T + p.head_b).ravel()
        np.testing.assert_allclose(preds, expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        p = small_params(seed=6, n_layers=2)
        _, cache = transformer.forward(p, make_rng(7).normal(size=(3, 6)))
        for layer_cache in cache["layers"]:
            sums = layer_cache["attn_w"].sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_indivisible_heads_rejected_at_construction(self):
        with pytest.raises(ValueError, match="divisible"):
            transformer.init_params(make_rng(0), d_model=8, n_heads=3, n_layers=1, d_ff=16)

    def test_positional_encoding_values(self):
        pe = positional_encoding(4, 6)
        assert pe.shape == (4, 6)
        assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0  # sin(0), cos(0)
        np.testing.assert_allclose(pe[2, 0], np.sin(2.0), atol=1e-15)

    def test_permutation_sensitivity_with_positions(self):
        p = small_params(seed=8)
        x = make_rng(9).normal(size=(1, 6))
        perm = np.array([3, 1, 5, 0, 2, 4])
        a, _ = transformer.forward(p, x)
        b, _ = transformer.forward(p, x[:, perm])
        assert abs(a[0] - b[0]) > 1e-8

    def test_permutation_equivariance_without_positions(self, monkeypatch):
        monkeypatch.setattr(
            transformer, "positional_encoding", lambda steps, d: np.zeros((steps, d))
        )
        p = small_params(seed=10)
        x = make_rng(11).normal(size=(2, 6))
        perm = np.array([4, 0, 5, 2, 1, 3])
        _, cache = transformer.forward(p, x)
        _, cache_p = transformer.forward(p, x[:, perm])
        np.testing.assert_allclose(
            cache_p["h_final"], cache["h_final"][:, perm, :], atol=1e-10
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transformer.forward(small_params(), np.zeros(6))


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

    def test_zero_upstream_gives_zero_grads(self):
        p = small_params(seed=16)
        _, cache = transformer.forward(p, make_rng(17).random((2, 4)))
        grads = transformer.backward(p, cache, np.zeros(2))
        for _, g in grads.named_arrays():
            assert not g.any()

    def test_cache_mismatch_rejected(self):
        p8 = small_params(d_model=8)
        p4 = small_params(d_model=4, n_heads=2, d_ff=8)
        _, cache = transformer.forward(p8, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            transformer.backward(p4, cache, np.zeros(1))


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
