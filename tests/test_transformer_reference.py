"""The Transformer's forward and backward against a plain reference, within rounding.

The reference is the straightforward form of the same encoder: every block
projects K and V over all positions, the last block slices out its one query
row, heads are split and merged by copies, and every bias, residual and scale
add makes a new array. The library's last block scores its single query
straight against the normed rows and regroups the sums, so the two agree to
rounding, not bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import ModelConfig, transformer
from seqcast.numerics import make_rng, softmax_rows

_LN_EPS = 1e-5


def layer_norm(x, gain, shift):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    return gain * xhat + shift, (xhat, inv)


def layer_norm_backward(d_out, gain, ln_cache):
    xhat, inv = ln_cache
    d_gain = (d_out * xhat).sum(axis=(0, 1))
    d_shift = d_out.sum(axis=(0, 1))
    d_xhat = d_out * gain
    d_x = inv * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    )
    return d_x, d_gain, d_shift


def split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def weight_grad(a, b):
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def forward(params, x):
    steps = x.shape[1]
    d = params.dims["d_model"]
    nh = params.dims["n_heads"]
    scale = 1.0 / np.sqrt(d // nh)

    h = x[:, :, None] @ params.w_in.T
    h = h + transformer.positional_encoding(steps, d)[None, :, :]
    cache = {"layers": [], "scale": scale, "x": x}
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        rows = slice(steps - 1, steps) if idx == last else slice(None)
        lc = {"rows": rows}
        n1, lc["ln1"] = layer_norm(h, layer.ln1_g, layer.ln1_b)
        lc["n1"] = n1
        qh = split_heads(n1[:, rows] @ layer.w_q, nh)
        kh = split_heads(n1 @ layer.w_k, nh)
        vh = split_heads(n1 @ layer.w_v, nh)
        attn_w = softmax_rows(qh @ kh.transpose(0, 1, 3, 2) * scale)
        merged = merge_heads(attn_w @ vh)
        a = h[:, rows] + merged @ layer.w_o
        lc.update(qh=qh, kh=kh, vh=vh, attn_w=attn_w, merged=merged)
        n2, lc["ln2"] = layer_norm(a, layer.ln2_g, layer.ln2_b)
        lc["n2"] = n2
        y1 = n2 @ layer.w_ff1.T + layer.b_ff1
        rel = np.maximum(y1, 0.0)
        lc.update(y1=y1, rel=rel)
        h = a + rel @ layer.w_ff2.T + layer.b_ff2
        cache["layers"].append(lc)
    return h[:, -1, :], cache


def backward(params, cache, d_state, grads):
    scale, nh = cache["scale"], params.dims["n_heads"]
    dh = d_state[:, None, :]

    for layer, grad, lc in zip(params.layers[::-1], grads.layers[::-1], cache["layers"][::-1]):
        df = dh
        grad.w_ff2 += weight_grad(df, lc["rel"])
        grad.b_ff2 += df.sum(axis=(0, 1))
        d_y1 = (df @ layer.w_ff2) * (lc["y1"] > 0)
        grad.w_ff1 += weight_grad(d_y1, lc["n2"])
        grad.b_ff1 += d_y1.sum(axis=(0, 1))
        d_n2 = d_y1 @ layer.w_ff1
        d_a, d_g2, d_b2 = layer_norm_backward(d_n2, layer.ln2_g, lc["ln2"])
        grad.ln2_g += d_g2
        grad.ln2_b += d_b2
        da = dh + d_a

        d_merged = da @ layer.w_o.T
        grad.w_o += weight_grad(lc["merged"], da)
        d_oh = split_heads(d_merged, nh)
        d_attn = d_oh @ lc["vh"].transpose(0, 1, 3, 2)
        d_vh = lc["attn_w"].transpose(0, 1, 3, 2) @ d_oh
        attn_w = lc["attn_w"]
        d_scores = attn_w * (d_attn - (d_attn * attn_w).sum(axis=-1, keepdims=True))
        d_qh = d_scores @ lc["kh"] * scale
        d_kh = d_scores.transpose(0, 1, 3, 2) @ lc["qh"] * scale
        d_q = merge_heads(d_qh)
        d_k = merge_heads(d_kh)
        d_v = merge_heads(d_vh)
        n1, rows = lc["n1"], lc["rows"]
        grad.w_q += weight_grad(n1[:, rows], d_q)
        grad.w_k += weight_grad(n1, d_k)
        grad.w_v += weight_grad(n1, d_v)
        d_n1 = d_k @ layer.w_k.T + d_v @ layer.w_v.T
        d_n1[:, rows] += d_q @ layer.w_q.T
        dh, d_g1, d_b1 = layer_norm_backward(d_n1, layer.ln1_g, lc["ln1"])
        grad.ln1_g += d_g1
        grad.ln1_b += d_b1
        dh[:, rows] += da

    grads.w_in += weight_grad(dh, cache["x"][:, :, None])


def reference_predictions_and_grads(params, x, d_preds):
    """The head and its gradient as models.forward/backward apply them, over the reference."""
    state, cache = forward(params, x)
    preds = (state @ params.head_w.T + params.head_b).ravel()
    grads = models.Params(params.kind, params.dims)
    grads.head_w += d_preds[None, :] @ state
    grads.head_b += d_preds.sum(keepdims=True)
    backward(params, cache, d_preds[:, None] * params.head_w, grads)
    return preds, grads


def assert_close(actual, reference):
    atol = 1e-12 * np.abs(reference).max()
    np.testing.assert_allclose(actual, reference, rtol=1e-10, atol=atol)


@settings(max_examples=60, deadline=None)
@given(
    n_heads=st.integers(1, 2),
    head_dim=st.integers(1, 4),
    n_layers=st.integers(1, 3),
    d_ff=st.integers(1, 6),
    batch=st.integers(1, 3),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
# The default dims at the training shape.
@example(n_heads=2, head_dim=32, n_layers=2, d_ff=128, batch=32, steps=60, seed=0)
@example(n_heads=2, head_dim=32, n_layers=2, d_ff=128, batch=32, steps=60, seed=1)
def test_forward_and_backward_match_reference(
    n_heads, head_dim, n_layers, d_ff, batch, steps, seed
):
    rng = make_rng(seed)
    d_model = n_heads * head_dim
    cfg = ModelConfig("transformer", d_model=d_model, n_heads=n_heads, n_layers=n_layers, d_ff=d_ff)
    params = models.init_params(cfg, rng)
    params.theta += rng.normal(scale=0.1, size=params.theta.size)  # gains, shifts and biases too
    x = rng.normal(size=(batch, steps))
    d_preds = rng.normal(size=batch)

    preds, cache = models.forward(params, x)
    grads = models.backward(params, cache, d_preds)
    ref_preds, ref_grads = reference_predictions_and_grads(params, x, d_preds)

    assert_close(preds, ref_preds)
    assert_close(grads.theta, ref_grads.theta)
