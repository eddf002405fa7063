"""The LSTM and GRU kernels against per-gate reference loops, bit for bit.

The references build their own packed matrix, an ``np.concatenate`` of each
gate's [W | b], and make one GEMM per step against the feature-major
[h_{t-1}; x_t; 1] (the GRU's candidate keeps its own). Past that product they
go gate by gate: each gate's activation and elementwise arithmetic on its own
arrays, in the kernels' association order, lists for the cache, and the
gradient [dW | db] added with one GEMM per step. The library must reproduce
their predictions and gradients exactly, not within a tolerance, because
trained weight files are compared by hash. A per-gate GEMM is not bit-equal
to its row block of the packed one, which is why the references pack too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import ModelConfig
from seqcast.numerics import sigmoid


def packed(p, gates):
    """[W | b] of each gate, stacked: (len(gates) * h, h + 2)."""
    return np.concatenate([np.hstack([getattr(p, f"w_{k}"), getattr(p, f"b_{k}")[:, None]])
                           for k in gates])


def with_ones(h_t, x_t):
    """The GEMM operand [h_t; x_t; 1], (h + 2, batch)."""
    return np.concatenate([h_t, x_t[None, :], np.ones_like(x_t)[None, :]])


def lstm_forward(p, x):
    batch, steps = x.shape
    h = p.dims["hidden"]
    w = packed(p, "fioc")
    h_t = np.zeros((h, batch))
    c_t = np.zeros_like(h_t)
    cache = {"z": [], "f": [], "i": [], "g": [], "o": [], "c_prev": [], "tanh_c": []}
    for t in range(steps):
        z = with_ones(h_t, x[:, t])
        a = w @ z
        f = sigmoid(a[:h])
        i = sigmoid(a[h : 2 * h])
        o = sigmoid(a[2 * h : 3 * h])
        g = np.tanh(a[3 * h :])
        cache["c_prev"].append(c_t)
        c_t = f * c_t + i * g
        tanh_c = np.tanh(c_t)
        h_t = o * tanh_c
        for key, val in (("z", z), ("f", f), ("i", i), ("g", g), ("o", o), ("tanh_c", tanh_c)):
            cache[key].append(val)
    return h_t, cache


def lstm_backward(p, cache, dh, grads):
    h = p.dims["hidden"]
    w = packed(p, "fioc")
    gw = np.zeros_like(w)
    dh = dh.T
    dc = np.zeros_like(dh)
    for t in reversed(range(len(cache["z"]))):
        z, f, i, g, o = (cache[k][t] for k in ("z", "f", "i", "g", "o"))
        c_prev, tanh_c = cache["c_prev"][t], cache["tanh_c"][t]
        do = dh * tanh_c
        dc = dc + (1.0 - tanh_c * tanh_c) * o * dh
        da_f = dc * c_prev * ((1.0 - f) * f)
        da_i = dc * g * ((1.0 - i) * i)
        da_o = do * ((1.0 - o) * o)
        da_g = (1.0 - g * g) * i * dc
        dc = dc * f
        da = np.concatenate([da_f, da_i, da_o, da_g])
        gw += da @ z.T
        dh = w[:, :h].T @ da
    for k, block in zip("fioc", np.split(gw, 4)):
        getattr(grads, f"w_{k}")[...] += block[:, :-1]
        getattr(grads, f"b_{k}")[...] += block[:, -1]


def gru_forward(p, x):
    batch, steps = x.shape
    h = p.dims["hidden"]
    w = packed(p, "zrh")
    h_t = np.zeros((h, batch))
    cache = {"v": [], "z": [], "r": [], "g": [], "u": [], "h_prev": []}
    for t in range(steps):
        v = with_ones(h_t, x[:, t])
        a = w[: 2 * h] @ v
        z = sigmoid(a[:h])
        r = sigmoid(a[h:])
        u = with_ones(r * h_t, x[:, t])
        g = np.tanh(w[2 * h :] @ u)
        cache["h_prev"].append(h_t)
        h_t = h_t + (g - h_t) * z
        for key, val in (("v", v), ("z", z), ("r", r), ("g", g), ("u", u)):
            cache[key].append(val)
    return h_t, cache


def gru_backward(p, cache, dh, grads):
    h = p.dims["hidden"]
    w = packed(p, "zrh")
    gw = np.zeros_like(w)
    dh = dh.T
    for t in reversed(range(len(cache["v"]))):
        v, z, r, g, u = (cache[k][t] for k in ("v", "z", "r", "g", "u"))
        h_prev = cache["h_prev"][t]
        dz_gate = (g - h_prev) * dh
        dg = dh * z
        dh_prev = dh - dg
        da_g = dg * (1.0 - g * g)
        drh = w[2 * h :, :h].T @ da_g
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_z = dz_gate * ((1.0 - z) * z)
        da_r = dr * ((1.0 - r) * r)
        da_zr = np.concatenate([da_z, da_r])
        gw += np.concatenate([da_zr @ v.T, da_g @ u.T])
        dh = w[: 2 * h, :h].T @ da_zr + dh_prev
    for k, block in zip("zrh", np.split(gw, 3)):
        getattr(grads, f"w_{k}")[...] += block[:, :-1]
        getattr(grads, f"b_{k}")[...] += block[:, -1]


REFERENCE = {"lstm": (lstm_forward, lstm_backward), "gru": (gru_forward, gru_backward)}


def reference_predictions_and_grads(params, x, d_preds):
    """The head and its gradient as models.forward/backward apply them, over the reference loops."""
    forward, backward = REFERENCE[params.kind]
    h_t, cache = forward(params, x)
    state = h_t.T
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
# At batch 1 and 2 the products are matrix-vector shaped, where BLAS takes
# another path; 32 by 60 is the training shape.
@example(kind="lstm", hidden=64, batch=1, steps=60, seed=0)
@example(kind="gru", hidden=64, batch=1, steps=60, seed=0)
@example(kind="lstm", hidden=64, batch=2, steps=60, seed=1)
@example(kind="gru", hidden=64, batch=2, steps=60, seed=1)
@example(kind="lstm", hidden=64, batch=32, steps=60, seed=2)
@example(kind="gru", hidden=64, batch=32, steps=60, seed=2)
# At hidden 65 backward's h columns of the packed copy are a BLAS operand with
# leading dimension h+2 = 67, a stride no drawn case has; batch 97 is odd and large.
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
