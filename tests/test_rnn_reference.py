"""The gate-major LSTM and GRU loops against per-gate reference loops, bit for bit.

The references are the straightforward per-gate forms: one matmul and one
activation call per gate and step, lists for the cache, and the weight
gradients added gate by gate at every step. The library's stacked loops must
reproduce their predictions and gradients exactly, not within a tolerance,
because trained weight files are compared by hash.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import ModelConfig
from seqcast.numerics import sigmoid


def lstm_forward(p, x):
    batch, steps = x.shape
    h_t = np.zeros((batch, p.dims["hidden"]))
    c_t = np.zeros_like(h_t)
    cache = {"z": [], "f": [], "i": [], "g": [], "o": [], "c_prev": [], "tanh_c": []}
    for t in range(steps):
        z = np.concatenate([h_t, x[:, t : t + 1]], axis=1)
        f = sigmoid(z @ p.w_f.T + p.b_f)
        i = sigmoid(z @ p.w_i.T + p.b_i)
        g = np.tanh(z @ p.w_c.T + p.b_c)
        o = sigmoid(z @ p.w_o.T + p.b_o)
        cache["c_prev"].append(c_t)
        c_t = f * c_t + i * g
        tanh_c = np.tanh(c_t)
        h_t = o * tanh_c
        for key, val in (("z", z), ("f", f), ("i", i), ("g", g), ("o", o), ("tanh_c", tanh_c)):
            cache[key].append(val)
    return h_t, cache


def lstm_backward(p, cache, dh, grads):
    h = p.dims["hidden"]
    dc = np.zeros_like(dh)
    for t in reversed(range(len(cache["z"]))):
        z, f, i, g, o = (cache[k][t] for k in ("z", "f", "i", "g", "o"))
        c_prev, tanh_c = cache["c_prev"][t], cache["tanh_c"][t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        da_f = dc * c_prev * f * (1.0 - f)
        da_i = dc * g * i * (1.0 - i)
        da_g = dc * i * (1.0 - g**2)
        da_o = do * o * (1.0 - o)
        dc = dc * f
        grads.w_f += da_f.T @ z
        grads.w_i += da_i.T @ z
        grads.w_c += da_g.T @ z
        grads.w_o += da_o.T @ z
        grads.b_f += da_f.sum(axis=0)
        grads.b_i += da_i.sum(axis=0)
        grads.b_c += da_g.sum(axis=0)
        grads.b_o += da_o.sum(axis=0)
        dz = da_f @ p.w_f + da_i @ p.w_i + da_g @ p.w_c + da_o @ p.w_o
        dh = dz[:, :h]


def gru_forward(p, x):
    batch, steps = x.shape
    h_t = np.zeros((batch, p.dims["hidden"]))
    cache = {"v": [], "z": [], "r": [], "g": [], "u": [], "h_prev": []}
    for t in range(steps):
        x_t = x[:, t : t + 1]
        v = np.concatenate([h_t, x_t], axis=1)
        z = sigmoid(v @ p.w_z.T + p.b_z)
        r = sigmoid(v @ p.w_r.T + p.b_r)
        u = np.concatenate([r * h_t, x_t], axis=1)
        g = np.tanh(u @ p.w_h.T + p.b_h)
        cache["h_prev"].append(h_t)
        h_t = (1.0 - z) * h_t + z * g
        for key, val in (("v", v), ("z", z), ("r", r), ("g", g), ("u", u)):
            cache[key].append(val)
    return h_t, cache


def gru_backward(p, cache, dh, grads):
    h = p.dims["hidden"]
    for t in reversed(range(len(cache["v"]))):
        v, z, r, g, u = (cache[k][t] for k in ("v", "z", "r", "g", "u"))
        h_prev = cache["h_prev"][t]
        dz_gate = dh * (g - h_prev)
        dg = dh * z
        dh_prev = dh * (1.0 - z)
        da_g = dg * (1.0 - g**2)
        grads.w_h += da_g.T @ u
        grads.b_h += da_g.sum(axis=0)
        du = da_g @ p.w_h
        drh = du[:, :h]
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_z = dz_gate * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        grads.w_z += da_z.T @ v
        grads.b_z += da_z.sum(axis=0)
        grads.w_r += da_r.T @ v
        grads.b_r += da_r.sum(axis=0)
        dv = da_z @ p.w_z + da_r @ p.w_r
        dh = dh_prev + dv[:, :h]


REFERENCE = {"lstm": (lstm_forward, lstm_backward), "gru": (gru_forward, gru_backward)}


def reference_predictions_and_grads(params, x, d_preds):
    """The head and its gradient as models.forward/backward apply them, over the reference loops."""
    forward, backward = REFERENCE[params.kind]
    state, cache = forward(params, x)
    preds = (state @ params.head_w.T + params.head_b).ravel()
    grads = models.Params(params.cfg)
    grads.head_w += d_preds[None, :] @ state
    grads.head_b += d_preds.sum(keepdims=True)
    backward(params, cache, d_preds[:, None] * params.head_w, grads)
    return preds, grads


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lstm", "gru"]),
    hidden=st.one_of(st.integers(1, 8), st.just(64)),
    batch=st.sampled_from([1, 2, 3, 32]),
    steps=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
# Batch 1 and 2 at hidden 64 are where a copied (rather than viewed) weight
# transpose changes the BLAS path; 32 by 60 is the training shape.
@example(kind="lstm", hidden=64, batch=1, steps=60, seed=0)
@example(kind="gru", hidden=64, batch=1, steps=60, seed=0)
@example(kind="lstm", hidden=64, batch=2, steps=60, seed=1)
@example(kind="gru", hidden=64, batch=2, steps=60, seed=1)
@example(kind="lstm", hidden=64, batch=32, steps=60, seed=2)
@example(kind="gru", hidden=64, batch=32, steps=60, seed=2)
# At hidden 65 each gate of the packed copy is a BLAS operand with leading
# dimension h+2 = 67, a stride no drawn case has; batch 97 is odd and large.
@example(kind="lstm", hidden=65, batch=97, steps=60, seed=3)
@example(kind="gru", hidden=65, batch=97, steps=60, seed=3)
def test_forward_and_backward_match_reference_bitwise(kind, hidden, batch, steps, seed):
    rng = np.random.default_rng(seed)
    params = models.init_params(ModelConfig(kind=kind, hidden=hidden), rng)
    params.theta += rng.normal(scale=0.1, size=params.theta.size)  # nonzero biases too
    x = rng.normal(size=(batch, steps))
    d_preds = rng.normal(size=batch)

    preds, cache = models.forward(params, x)
    grads = models.backward(params, cache, d_preds)
    ref_preds, ref_grads = reference_predictions_and_grads(params, x, d_preds)

    np.testing.assert_array_equal(bits(preds), bits(ref_preds))
    np.testing.assert_array_equal(bits(grads.theta), bits(ref_grads.theta))
