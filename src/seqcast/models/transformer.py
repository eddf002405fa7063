"""Encoder-only Transformer for scalar sequences.

Each scalar input is embedded by a learned vector, sinusoidal position
codes are added, and L pre-layer-norm encoder blocks follow:

    a = h + MultiHeadAttention(LN1(h))
    h' = a + FFN(LN2(a))          FFN: relu(x W1' + b1) W2' + b2

Attention is scaled dot-product, softmax(Q K' / sqrt(d_k)) V per head.
The encoder state is the final position's vector of the last block; the
scalar head on it lives in ``seqcast.models``.

Nothing else of the last block reaches the output, so it computes its
attention, LN2 and FFN for the final position only, and it projects no
keys or values at all. With n1 = LN1(h) over every position, q_h the final
query's head-h slice and W_k,h, W_v,h the head's column blocks:

    scores_h = (q_h W_k,h') n1' * scale        head_h = (attn_h n1) W_v,h

so one query is scored straight against the normed rows (the cache keeps
q_h as ``q_h``, q_h W_k,h' as ``qk`` and attn_h n1 as ``ctx``). The earlier
blocks run on every position, because the last block attends to all of
them; they keep their split heads as ``qh``, ``kh`` and ``vh``. Every block
keeps ``ln1``, ``n1``, ``attn_w``, ``merged``, ``ln2``, ``n2`` and ``rel``.
All gradients are hand-derived; the finite-difference oracle in the test
suite is the ground truth for every branch here.
"""

from __future__ import annotations

import functools

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


def init_params(p: Params, rng: np.random.Generator) -> None:
    """Fill zero p: Xavier weights, unit layer-norm gains, zero biases and shifts.

    Draw order: every block's matrices, then the embedding, then the head.
    """
    for layer in p.layers:
        layer.ln1_g[...] = 1.0
        layer.ln2_g[...] = 1.0
        for w in (layer.w_q, layer.w_k, layer.w_v, layer.w_o, layer.w_ff1, layer.w_ff2):
            w[...] = init_xavier(rng, *w.shape)
    for w in (p.w_in, p.head_w):
        w[...] = init_xavier(rng, *w.shape)


@functools.lru_cache(maxsize=32)
def positional_encoding(steps: int, d_model: int) -> np.ndarray:
    """Sinusoidal position codes, (steps, d_model); computed once per shape, read-only."""
    pos = np.arange(steps, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, idx / d_model)
    pe = np.zeros((steps, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
    pe.flags.writeable = False
    return pe


def _layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = np.square(xhat)  # scratch for the variance, then the output
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += shift
    return out, (xhat, inv)

def _layer_norm_backward(d_out, gain, ln_cache):
    """d_x, d_gain, d_shift for d_out, the gradient w.r.t. the output; overwrites d_out."""
    xhat, inv = ln_cache
    d_shift = d_out.sum(axis=(0, 1))
    tmp = d_out * xhat
    d_gain = tmp.sum(axis=(0, 1))
    d_out *= gain  # d_xhat, turned into d_x in place
    np.multiply(d_out, xhat, out=tmp)
    np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
    d_out -= d_out.mean(axis=-1, keepdims=True)
    d_out -= tmp
    d_out *= inv
    return d_out, d_gain, d_shift


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(b, t, d) as a (b, heads, t, d / heads) view."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)

def _heads(w: np.ndarray, n_heads: int) -> np.ndarray:
    """A (d, d) matrix's head column blocks as a (heads, d, d / heads) view."""
    d = w.shape[0]
    return w.reshape(d, n_heads, d // n_heads).transpose(1, 0, 2)

def _merged_matmul(a: np.ndarray, b: np.ndarray, shape: tuple, n_heads: int) -> np.ndarray:
    """The per-head product a @ b, (batch, heads, t, dh), as a new array of shape (batch, t, d)."""
    out = np.empty(shape)
    np.matmul(a, b, out=_split_heads(out, n_heads))
    return out

def _softmax_backward(w: np.ndarray, d_w: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the scores of w = softmax(scores) along the last axis; overwrites d_w."""
    d_w -= np.einsum("...i,...i->...", d_w, w)[..., None]
    d_w *= w
    return d_w


def _attend_all(layer, n1: np.ndarray, nh: int, scale: float, lc: dict) -> np.ndarray:
    """Every position queries every position; the merged heads, (b, t, d)."""
    qh, kh, vh = (_split_heads(n1 @ w, nh) for w in (layer.w_q, layer.w_k, layer.w_v))
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    attn_w = softmax_rows(scores)
    merged = _merged_matmul(attn_w, vh, n1.shape, nh)
    lc.update(qh=qh, kh=kh, vh=vh, attn_w=attn_w, merged=merged)
    return merged

def _attend_all_backward(layer, grad, lc: dict, d_merged: np.ndarray, nh: int, scale: float):
    """Adds the W_q, W_k and W_v gradients into grad; returns d_n1, (b, t, d)."""
    n1, attn_w = lc["n1"], lc["attn_w"]
    d_oh = _split_heads(d_merged, nh)
    d_scores = _softmax_backward(attn_w, d_oh @ lc["vh"].transpose(0, 1, 3, 2))
    d_v = _merged_matmul(attn_w.transpose(0, 1, 3, 2), d_oh, n1.shape, nh)
    d_q = _merged_matmul(d_scores, lc["kh"], n1.shape, nh)
    d_q *= scale
    d_k = _merged_matmul(d_scores.transpose(0, 1, 3, 2), lc["qh"], n1.shape, nh)
    d_k *= scale
    grad.w_q += _weight_grad(n1, d_q)
    grad.w_k += _weight_grad(n1, d_k)
    grad.w_v += _weight_grad(n1, d_v)
    d_n1 = d_k @ layer.w_k.T
    d_n1 += d_v @ layer.w_v.T
    d_n1 += d_q @ layer.w_q.T
    return d_n1


def _attend_last(layer, n1: np.ndarray, nh: int, scale: float, lc: dict) -> np.ndarray:
    """The final position's query against every normed row; its merged heads, (b, 1, d)."""
    b, _, d = n1.shape
    q_h = (n1[:, -1] @ layer.w_q).reshape(b, nh, d // nh).transpose(1, 0, 2)  # (nh, b, dh)
    qk = (q_h @ _heads(layer.w_k, nh).transpose(0, 2, 1)).transpose(1, 0, 2)  # (b, nh, d)
    scores = qk @ n1.transpose(0, 2, 1)  # (b, nh, t)
    scores *= scale
    attn_w = softmax_rows(scores)
    ctx = attn_w @ n1  # (b, nh, d)
    merged = (ctx.transpose(1, 0, 2) @ _heads(layer.w_v, nh)).transpose(1, 0, 2).reshape(b, 1, d)
    lc.update(q_h=q_h, qk=qk, attn_w=attn_w, ctx=ctx, merged=merged)
    return merged

def _attend_last_backward(layer, grad, lc: dict, d_merged: np.ndarray, nh: int, scale: float):
    """Adds the W_q, W_k and W_v gradients into grad; returns d_n1, (b, t, d)."""
    n1, attn_w, qk = lc["n1"], lc["attn_w"], lc["qk"]
    b, _, d = n1.shape
    d_head = d_merged.reshape(b, nh, d // nh).transpose(1, 0, 2)  # (nh, b, dh)
    g_v = _heads(grad.w_v, nh)
    g_v += lc["ctx"].transpose(1, 2, 0) @ d_head
    d_ctx = (d_head @ _heads(layer.w_v, nh).transpose(0, 2, 1)).transpose(1, 0, 2)  # (b, nh, d)
    d_n1 = attn_w.transpose(0, 2, 1) @ d_ctx
    d_scores = _softmax_backward(attn_w, d_ctx @ n1.transpose(0, 2, 1))
    d_scores *= scale
    d_n1 += d_scores.transpose(0, 2, 1) @ qk
    d_qk = d_scores @ n1  # (b, nh, d)
    g_k = _heads(grad.w_k, nh)
    g_k += d_qk.transpose(1, 2, 0) @ lc["q_h"]
    d_q = (d_qk.transpose(1, 0, 2) @ _heads(layer.w_k, nh)).transpose(1, 0, 2).reshape(b, d)
    grad.w_q += n1[:, -1].T @ d_q
    d_n1[:, -1] += d_q @ layer.w_q.T  # the query row
    return d_n1


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Encode x of shape (batch, steps); returns the final position's (batch, d_model) vector."""
    steps = x.shape[1]
    d = params.dims["d_model"]
    nh = params.dims["n_heads"]
    scale = 1.0 / np.sqrt(d // nh)

    h = x[:, :, None] * params.w_in[:, 0]  # (batch, steps, d_model)
    h += positional_encoding(steps, d)
    cache = {"layers": [], "scale": scale}
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        lc = {}
        n1, lc["ln1"] = _layer_norm(h, layer.ln1_g, layer.ln1_b)
        lc["n1"] = n1
        if idx < last:
            merged = _attend_all(layer, n1, nh, scale, lc)
        else:
            merged = _attend_last(layer, n1, nh, scale, lc)
            h = h[:, -1:]  # from here on the final position only
        a = merged @ layer.w_o
        a += h
        n2, lc["ln2"] = _layer_norm(a, layer.ln2_g, layer.ln2_b)
        lc["n2"] = n2
        rel = n2 @ layer.w_ff1.T
        rel += layer.b_ff1
        np.maximum(rel, 0.0, out=rel)
        lc["rel"] = rel
        h = rel @ layer.w_ff2.T
        h += a
        h += layer.b_ff2
        cache["layers"].append(lc)
    return h[:, -1, :], cache  # the last block kept the final position only


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over every leading index of outer(a[..., i], b[..., j]), as one GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def backward(params: Params, cache: dict, d_state: np.ndarray, grads: Params) -> None:
    """Backpropagate d_state, the gradient w.r.t. the final vector; adds into grads."""
    scale, nh = cache["scale"], params.dims["n_heads"]
    dh = d_state[:, None, :]
    last = len(params.layers) - 1

    for idx in range(last, -1, -1):
        layer, grad, lc = params.layers[idx], grads.layers[idx], cache["layers"][idx]
        # FFN branch: h_out = a + relu(n2 W1' + b1) W2' + b2
        grad.w_ff2 += _weight_grad(dh, lc["rel"])
        grad.b_ff2 += dh.sum(axis=(0, 1))
        d_y1 = dh @ layer.w_ff2
        d_y1 *= lc["rel"] > 0  # relu' from its output: rel > 0 exactly where y1 > 0
        grad.w_ff1 += _weight_grad(d_y1, lc["n2"])
        grad.b_ff1 += d_y1.sum(axis=(0, 1))
        da, d_g2, d_b2 = _layer_norm_backward(d_y1 @ layer.w_ff1, layer.ln2_g, lc["ln2"])
        grad.ln2_g += d_g2
        grad.ln2_b += d_b2
        da += dh  # normalized branch plus residual

        # Attention branch: a = h_in + merge(softmax(Q K' * scale) V) W_o, the last block's
        # a and h_in at the final position only
        grad.w_o += _weight_grad(lc["merged"], da)
        attend_backward = _attend_all_backward if idx < last else _attend_last_backward
        d_n1 = attend_backward(layer, grad, lc, da @ layer.w_o.T, nh, scale)
        dh, d_g1, d_b1 = _layer_norm_backward(d_n1, layer.ln1_g, lc["ln1"])
        grad.ln1_g += d_g1
        grad.ln1_b += d_b1
        dh[:, -da.shape[1]:] += da  # residual into the rows the block kept

    # Embedding: h0 = x[:, :, None] * w_in[:, 0] (+ constant position codes)
    grads.w_in += _weight_grad(dh, cache["x"][:, :, None])
