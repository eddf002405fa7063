"""Encoder-only Transformer for scalar sequences.

Each scalar input is embedded by a learned vector, sinusoidal position
codes are added, and L pre-layer-norm encoder blocks follow:

    a = h + MultiHeadAttention(LN1(h))
    h' = a + FFN(LN2(a))          FFN: relu(x W1' + b1) W2' + b2

Attention is scaled dot-product, softmax(Q K' / sqrt(d_k)) V per head.
The encoder state is the final position's vector of the last block; the
scalar head on it lives in ``seqcast.models``.
Nothing else of that block reaches the output, so it computes K and V over
every position but its queries, attention row, output projection, LN2 and
FFN for the final position only; the earlier blocks run on every position,
because the last block attends to all of them.
All gradients are hand-derived; the finite-difference oracle in the test
suite is the ground truth for every branch here.
"""

from __future__ import annotations

import numpy as np

from ..numerics import init_xavier, softmax_rows
from .params import Params

_LN_EPS = 1e-5


def shapes(d_model: int, n_heads: int, n_layers: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    """Input embedding, then each block's arrays as layers.<i>.<field>, then the head.

    Attention matrices act as x @ w; FFN matrices as x @ w'.
    """
    if d_model % n_heads != 0:
        raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
    d, f = (d_model,), (d_ff,)
    square = (d_model, d_model)
    block = {
        "ln1_g": d, "ln1_b": d, "w_q": square, "w_k": square, "w_v": square, "w_o": square,
        "ln2_g": d, "ln2_b": d, "w_ff1": (d_ff, d_model), "b_ff1": f,
        "w_ff2": (d_model, d_ff), "b_ff2": d,
    }
    table = {"w_in": (d_model, 1)}
    for idx in range(n_layers):
        table.update((f"layers.{idx}.{name}", shape) for name, shape in block.items())
    table.update(head_w=(1, d_model), head_b=(1,))
    return table


def init_params(
    rng: np.random.Generator, d_model: int, n_heads: int, n_layers: int, d_ff: int
) -> Params:
    """Xavier weights, unit layer-norm gains, zero biases and shifts.

    Draw order: every block's matrices, then the embedding, then the head.
    """
    dims = {"d_model": d_model, "n_heads": n_heads, "n_layers": n_layers, "d_ff": d_ff}
    p = Params("transformer", dims)
    for layer in p.layers:
        layer.ln1_g[...] = 1.0
        layer.ln2_g[...] = 1.0
        for w in (layer.w_q, layer.w_k, layer.w_v, layer.w_o, layer.w_ff1, layer.w_ff2):
            w[...] = init_xavier(rng, *w.shape)
    for w in (p.w_in, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    return p


def positional_encoding(steps: int, d_model: int) -> np.ndarray:
    """Sinusoidal position codes, (steps, d_model)."""
    pos = np.arange(steps, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, idx / d_model)
    pe = np.zeros((steps, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
    return pe


def _layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    return gain * xhat + shift, (xhat, inv)

def _layer_norm_backward(d_out, gain, ln_cache):
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


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)

def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Encode x of shape (batch, steps); returns the final position's (batch, d_model) vector."""
    steps = x.shape[1]
    d = params.dims["d_model"]
    nh = params.dims["n_heads"]
    scale = 1.0 / np.sqrt(d // nh)

    h = x[:, :, None] @ params.w_in.T  # (batch, steps, d_model)
    h = h + positional_encoding(steps, d)[None, :, :]
    cache = {"layers": [], "scale": scale}
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        rows = slice(steps - 1, steps) if idx == last else slice(None)
        lc = {"rows": rows}
        n1, lc["ln1"] = _layer_norm(h, layer.ln1_g, layer.ln1_b)
        lc["n1"] = n1
        qh = _split_heads(n1[:, rows] @ layer.w_q, nh)
        kh = _split_heads(n1 @ layer.w_k, nh)
        vh = _split_heads(n1 @ layer.w_v, nh)
        attn_w = softmax_rows(qh @ kh.transpose(0, 1, 3, 2) * scale)
        merged = _merge_heads(attn_w @ vh)
        a = h[:, rows] + merged @ layer.w_o
        lc.update(qh=qh, kh=kh, vh=vh, attn_w=attn_w, merged=merged)
        n2, lc["ln2"] = _layer_norm(a, layer.ln2_g, layer.ln2_b)
        lc["n2"] = n2
        y1 = n2 @ layer.w_ff1.T + layer.b_ff1
        rel = np.maximum(y1, 0.0)
        lc.update(y1=y1, rel=rel)
        h = a + rel @ layer.w_ff2.T + layer.b_ff2
        cache["layers"].append(lc)
    return h[:, -1, :], cache  # the last block kept the final position only


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over every leading index of outer(a[..., i], b[..., j]), as one GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def backward(params: Params, cache: dict, d_state: np.ndarray, grads: Params) -> None:
    """Backpropagate d_state, the gradient w.r.t. the final vector; adds into grads."""
    scale, nh = cache["scale"], params.dims["n_heads"]
    dh = d_state[:, None, :]

    for layer, grad, lc in zip(params.layers[::-1], grads.layers[::-1], cache["layers"][::-1]):
        # FFN branch: h_out = a + relu(n2 W1' + b1) W2' + b2
        df = dh
        grad.w_ff2 += _weight_grad(df, lc["rel"])
        grad.b_ff2 += df.sum(axis=(0, 1))
        d_y1 = (df @ layer.w_ff2) * (lc["y1"] > 0)
        grad.w_ff1 += _weight_grad(d_y1, lc["n2"])
        grad.b_ff1 += d_y1.sum(axis=(0, 1))
        d_n2 = d_y1 @ layer.w_ff1
        d_a, d_g2, d_b2 = _layer_norm_backward(d_n2, layer.ln2_g, lc["ln2"])
        grad.ln2_g += d_g2
        grad.ln2_b += d_b2
        da = dh + d_a  # residual plus normalized branch

        # Attention branch: a = h_in[rows] + merge(softmax(Q K' * scale) V) W_o
        d_merged = da @ layer.w_o.T
        grad.w_o += _weight_grad(lc["merged"], da)
        d_oh = _split_heads(d_merged, nh)
        d_attn = d_oh @ lc["vh"].transpose(0, 1, 3, 2)
        d_vh = lc["attn_w"].transpose(0, 1, 3, 2) @ d_oh
        attn_w = lc["attn_w"]
        d_scores = attn_w * (d_attn - (d_attn * attn_w).sum(axis=-1, keepdims=True))
        d_qh = d_scores @ lc["kh"] * scale
        d_kh = d_scores.transpose(0, 1, 3, 2) @ lc["qh"] * scale
        d_q = _merge_heads(d_qh)
        d_k = _merge_heads(d_kh)
        d_v = _merge_heads(d_vh)
        n1, rows = lc["n1"], lc["rows"]
        grad.w_q += _weight_grad(n1[:, rows], d_q)
        grad.w_k += _weight_grad(n1, d_k)
        grad.w_v += _weight_grad(n1, d_v)
        d_n1 = d_k @ layer.w_k.T + d_v @ layer.w_v.T
        d_n1[:, rows] += d_q @ layer.w_q.T  # queries come from the kept rows only
        dh, d_g1, d_b1 = _layer_norm_backward(d_n1, layer.ln1_g, lc["ln1"])
        grad.ln1_g += d_g1
        grad.ln1_b += d_b1
        dh[:, rows] += da  # residual into the kept rows

    # Embedding: h0 = x[:, :, None] @ w_in' (+ constant position codes)
    grads.w_in += _weight_grad(dh, cache["x"][:, :, None])
