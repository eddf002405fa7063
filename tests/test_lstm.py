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
    def test_all_zero_params_gates_half_prediction_is_head_bias(self):
        p = Params("lstm", {"hidden": 3})
        p.head_b[0] = 0.37
        preds, cache = models.forward(p, np.array([[0.2, 0.8, 0.5]]))
        for t in range(3):
            f, i, o, g = cache["gates"][t]
            np.testing.assert_allclose(f, 0.5, atol=1e-15)
            np.testing.assert_allclose(i, 0.5, atol=1e-15)
            np.testing.assert_allclose(o, 0.5, atol=1e-15)
            np.testing.assert_allclose(g, 0.0, atol=1e-15)
        assert not cache["state"].any()
        np.testing.assert_allclose(preds, [0.37], atol=1e-15)

    def test_saturated_gates_accumulate_cell_state(self):
        # zero weights, huge positive gate biases: f=i=1, candidate=1,
        # so the cell state steps by exactly one per timestep.
        p = Params("lstm", {"hidden": 1})
        for bias in (p.b_f, p.b_i, p.b_c):
            bias[0] = 1e3
        steps = 6
        _, cache = models.forward(p, np.zeros((1, steps)))
        f, i, _, g = cache["gates"][-1]
        c_final = cache["c"][-2] * f + i * g
        assert abs(float(c_final[0, 0]) - steps) < 1e-6

    def test_matches_scalar_reimplementation(self):
        # independent straight-line oracle: plain-float loops, no shared code
        hidden, steps = 4, 5
        rng = make_rng(123)
        p = models.init_params(ModelConfig(kind="lstm", hidden=hidden), rng)
        xs = [0.3, -0.1, 0.7, 0.05, -0.4]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = [0.0] * hidden
        c = [0.0] * hidden
        for t in range(steps):
            z = h + [xs[t]]
            f = [sig(sum(p.w_f[j][k] * z[k] for k in range(hidden + 1)) + p.b_f[j]) for j in range(hidden)]
            i = [sig(sum(p.w_i[j][k] * z[k] for k in range(hidden + 1)) + p.b_i[j]) for j in range(hidden)]
            g = [math.tanh(sum(p.w_c[j][k] * z[k] for k in range(hidden + 1)) + p.b_c[j]) for j in range(hidden)]
            o = [sig(sum(p.w_o[j][k] * z[k] for k in range(hidden + 1)) + p.b_o[j]) for j in range(hidden)]
            c = [f[j] * c[j] + i[j] * g[j] for j in range(hidden)]
            h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
        expected = sum(p.head_w[0][j] * h[j] for j in range(hidden)) + p.head_b[0]

        preds, _ = models.forward(p, np.array([xs]))
        assert abs(preds[0] - expected) < 1e-12


    def test_cell_state_bounded_by_step_count(self):
        # inputs in [0,1]: each step adds at most one tanh-bounded unit
        rng = make_rng(5)
        p = models.init_params(ModelConfig(kind="lstm", hidden=6), rng)
        x = make_rng(6).random((4, 12))
        _, cache = models.forward(p, x)
        for t in range(12):
            f, i, _, g = cache["gates"][t]
            c_t = cache["c"][t] * f + i * g
            assert np.all(np.abs(c_t) <= t + 1 + 1e-12)


class TestBackward:
    def test_grad_check_hidden4_t5(self):
        rng = make_rng(11)
        p = models.init_params(ModelConfig(kind="lstm", hidden=4), rng)
        x = make_rng(21).normal(size=(3, 5))
        y = make_rng(31).normal(size=3)
        loss_fn, analytic = mse_setup(p, x, y)
        assert grad_check(loss_fn, p, analytic) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        p = models.init_params(ModelConfig(kind="lstm", hidden=3), make_rng(2))
        _, cache = models.forward(p, make_rng(3).random((2, 4)))
        grads = models.backward(p, cache, np.zeros(2))
        for _, g in grads.named_arrays():
            assert not g.any()

    def test_batch_gradient_is_mean_of_per_sample(self):
        p = models.init_params(ModelConfig(kind="lstm", hidden=3), make_rng(4))
        x = make_rng(5).normal(size=(2, 6))
        y = make_rng(6).normal(size=2)

        preds, cache = models.forward(p, x)
        batch = models.backward(p, cache, 2.0 * (preds - y) / 2)
        singles = []
        for b in range(2):
            pb, cb = models.forward(p, x[b : b + 1])
            singles.append(models.backward(p, cb, 2.0 * (pb - y[b : b + 1])))
        for (name, g), (_, g0), (_, g1) in zip(
            batch.named_arrays(), singles[0].named_arrays(), singles[1].named_arrays()
        ):
            np.testing.assert_allclose(g, (g0 + g1) / 2, atol=1e-12, err_msg=name)


class TestParams:
    def test_parameter_count_formula(self):
        h = 5
        p = models.init_params(ModelConfig(kind="lstm", hidden=h), make_rng(0))
        total = sum(a.size for _, a in p.named_arrays())
        assert total == 4 * h * (h + 1 + 1) + h + 1

    def test_forget_bias_default_one(self):
        p = models.init_params(ModelConfig(kind="lstm", hidden=4), make_rng(0))
        assert np.all(p.b_f == 1.0)

    def test_init_deterministic(self):
        a = models.init_params(ModelConfig(kind="lstm", hidden=4), make_rng(7))
        b = models.init_params(ModelConfig(kind="lstm", hidden=4), make_rng(7))
        for (n1, x), (n2, y) in zip(a.named_arrays(), b.named_arrays()):
            assert n1 == n2
            assert np.array_equal(x, y)


def test_grad_check_multiple_seeds():
    worst = 0.0
    for seed in range(5):
        p = models.init_params(ModelConfig(kind="lstm", hidden=4), make_rng(100 + seed))
        x = make_rng(200 + seed).normal(size=(2, 5))
        y = make_rng(300 + seed).normal(size=2)
        loss_fn, analytic = mse_setup(p, x, y)
        worst = max(worst, grad_check(loss_fn, p, analytic))
    assert worst < 1e-4
