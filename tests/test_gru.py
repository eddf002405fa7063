import math

import numpy as np

from seqcast import models
from seqcast.models import ModelConfig, Params
from seqcast.numerics import make_rng

from gradcheck import grad_check


def mse_setup(params, x, y):
    def loss_fn(p):
        preds, _ = models.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = models.forward(params, x)
    d_preds = 2.0 * (preds - y) / preds.size
    return loss_fn, models.backward(params, cache, d_preds)


class TestForward:
    def test_all_zero_params_prediction_is_head_bias(self):
        p = Params("gru", {"hidden": 3})
        p.head_b[0] = -0.25
        preds, cache = models.forward(p, np.array([[0.4, -0.2, 0.9]]))
        for t in range(3):
            z, r = cache["gates"][t]
            np.testing.assert_allclose(z, 0.5, atol=1e-15)
            np.testing.assert_allclose(r, 0.5, atol=1e-15)
            np.testing.assert_allclose(cache["g"][t], 0.0, atol=1e-15)
        assert not cache["state"].any()
        np.testing.assert_allclose(preds, [-0.25], atol=1e-15)

    def test_update_gate_forced_shut_freezes_state(self):
        p = models.init_params(ModelConfig(kind="gru", hidden=4), make_rng(1))
        p.b_z[:] = -1e3  # z ~ 0: h_t stays at h_0 = 0
        preds, cache = models.forward(p, make_rng(2).normal(size=(2, 7)))
        np.testing.assert_allclose(cache["state"], 0.0, atol=1e-12)
        np.testing.assert_allclose(preds, float(p.head_b[0]), atol=1e-12)

    def test_hidden_state_is_convex_combination(self):
        p = models.init_params(ModelConfig(kind="gru", hidden=5), make_rng(3))
        x = make_rng(4).normal(size=(3, 9))
        _, cache = models.forward(p, x)
        for t in range(9):
            h_prev = cache["v"][t, :, :5]
            g = cache["g"][t]
            z = cache["gates"][t, 0]
            h_t = (1.0 - z) * h_prev + z * g
            lo = np.minimum(h_prev, g) - 1e-12
            hi = np.maximum(h_prev, g) + 1e-12
            assert np.all(h_t >= lo) and np.all(h_t <= hi)

    def test_matches_scalar_reimplementation(self):
        # independent straight-line oracle: plain-float loops, no shared code
        hidden, steps = 4, 5
        p = models.init_params(ModelConfig(kind="gru", hidden=hidden), make_rng(321))
        for bias in (p.b_z, p.b_r, p.b_h):
            bias[:] = make_rng(322).normal(size=hidden)
        xs = [0.3, -0.1, 0.7, 0.05, -0.4]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def affine(w, b, v, j):
            return sum(w[j][k] * v[k] for k in range(hidden + 1)) + b[j]

        h = [0.0] * hidden
        for t in range(steps):
            v = h + [xs[t]]
            z = [sig(affine(p.w_z, p.b_z, v, j)) for j in range(hidden)]
            r = [sig(affine(p.w_r, p.b_r, v, j)) for j in range(hidden)]
            u = [r[j] * h[j] for j in range(hidden)] + [xs[t]]
            g = [math.tanh(affine(p.w_h, p.b_h, u, j)) for j in range(hidden)]
            h = [(1.0 - z[j]) * h[j] + z[j] * g[j] for j in range(hidden)]
        expected = sum(p.head_w[0][j] * h[j] for j in range(hidden)) + p.head_b[0]

        preds, _ = models.forward(p, np.array([xs]))
        assert abs(preds[0] - expected) < 1e-12


class TestBackward:
    def test_grad_check_hidden4_t5(self):
        p = models.init_params(ModelConfig(kind="gru", hidden=4), make_rng(13))
        x = make_rng(23).normal(size=(3, 5))
        y = make_rng(33).normal(size=3)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_grad_check_multiple_seeds(self):
        worst = 0.0
        for seed in range(5):
            p = models.init_params(ModelConfig(kind="gru", hidden=4), make_rng(400 + seed))
            x = make_rng(500 + seed).normal(size=(2, 5))
            y = make_rng(600 + seed).normal(size=2)
            loss_fn, analytic = mse_setup(p, x, y)
            worst = max(worst, grad_check(loss_fn, p, analytic))
        assert worst < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        p = models.init_params(ModelConfig(kind="gru", hidden=3), make_rng(2))
        _, cache = models.forward(p, make_rng(3).random((2, 4)))
        grads = models.backward(p, cache, np.zeros(2))
        for _, g in grads.named_arrays():
            assert not g.any()


class TestParams:
    def test_parameter_count_formula(self):
        h = 6
        p = models.init_params(ModelConfig(kind="gru", hidden=h), make_rng(0))
        total = sum(a.size for _, a in p.named_arrays())
        assert total == 3 * h * (h + 1 + 1) + h + 1

    def test_biases_start_at_zero(self):
        p = models.init_params(ModelConfig(kind="gru", hidden=4), make_rng(0))
        for name in ("b_z", "b_r", "b_h"):
            assert not getattr(p, name).any()
