"""Encoder-only Transformer for scalar sequences.

Each scalar input is embedded by a learned vector, sinusoidal position
codes are added, and L pre-layer-norm encoder blocks follow:

    a = h + MultiHeadAttention(LN1(h))
    h' = a + FFN(LN2(a))          FFN: relu(x W1' + b1) W2' + b2

Attention is scaled dot-product, softmax(Q K' / sqrt(d_k)) V per head.
The prediction head reads the final position's vector of the last block.
All gradients are hand-derived; the finite-difference oracle in the test
suite is the ground truth for every branch here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import init_xavier, softmax_rows

_LN_EPS = 1e-5

_LAYER_FIELDS = (
    "ln1_g", "ln1_b", "w_q", "w_k", "w_v", "w_o",
    "ln2_g", "ln2_b", "w_ff1", "b_ff1", "w_ff2", "b_ff2",
)


@dataclass
class TransformerLayerParams:
    ln1_g: np.ndarray  # (d_model,)
    ln1_b: np.ndarray
    w_q: np.ndarray  # (d_model, d_model), acting as x @ w
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_ff1: np.ndarray  # (d_ff, d_model)
    b_ff1: np.ndarray  # (d_ff,)
    w_ff2: np.ndarray  # (d_model, d_ff)
    b_ff2: np.ndarray  # (d_model,)


@dataclass
class TransformerParams:
    w_in: np.ndarray  # (d_model, 1) input embedding
    layers: list[TransformerLayerParams]
    head_w: np.ndarray  # (1, d_model)
    head_b: np.ndarray  # (1,)
    n_heads: int

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")

    @property
    def d_model(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def d_ff(self) -> int:
        return self.layers[0].w_ff1.shape[0]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = [("w_in", self.w_in)]
        for idx, layer in enumerate(self.layers):
            out.extend((f"layers.{idx}.{name}", getattr(layer, name)) for name in _LAYER_FIELDS)
        out.append(("head_w", self.head_w))
        out.append(("head_b", self.head_b))
        return out

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], n_heads: int, **dims: int
    ) -> "TransformerParams":
        """n_heads is the one dimension the array shapes do not fix; the others go unused."""
        n_layers = 1 + max(int(key.split(".")[1]) for key in arrays if key.startswith("layers."))
        layers = [
            TransformerLayerParams(**{name: arrays[f"layers.{idx}.{name}"] for name in _LAYER_FIELDS})
            for idx in range(n_layers)
        ]
        return cls(
            w_in=arrays["w_in"], layers=layers,
            head_w=arrays["head_w"], head_b=arrays["head_b"], n_heads=n_heads,
        )


def init_params(
    rng: np.random.Generator, d_model: int, n_heads: int, n_layers: int, d_ff: int
) -> TransformerParams:
    """Xavier weights, unit layer-norm gains, zero biases and shifts."""
    if d_model % n_heads != 0:
        raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
    layers = []
    for _ in range(n_layers):
        layers.append(
            TransformerLayerParams(
                ln1_g=np.ones(d_model),
                ln1_b=np.zeros(d_model),
                w_q=init_xavier(rng, d_model, d_model),
                w_k=init_xavier(rng, d_model, d_model),
                w_v=init_xavier(rng, d_model, d_model),
                w_o=init_xavier(rng, d_model, d_model),
                ln2_g=np.ones(d_model),
                ln2_b=np.zeros(d_model),
                w_ff1=init_xavier(rng, d_ff, d_model),
                b_ff1=np.zeros(d_ff),
                w_ff2=init_xavier(rng, d_model, d_ff),
                b_ff2=np.zeros(d_model),
            )
        )
    return TransformerParams(
        w_in=init_xavier(rng, d_model, 1),
        layers=layers,
        head_w=init_xavier(rng, 1, d_model),
        head_b=np.zeros(1),
        n_heads=n_heads,
    )


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


def forward(params: TransformerParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Encode x of shape (batch, steps) and predict from the final position."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"expected input of shape (batch, steps), got {x.shape}")
    batch, steps = x.shape
    d = params.d_model
    nh = params.n_heads
    scale = 1.0 / np.sqrt(d // nh)

    h = x[:, :, None] @ params.w_in.T  # (batch, steps, d_model)
    h = h + positional_encoding(steps, d)[None, :, :]
    cache = {"x": x, "layers": [], "d_model": d, "n_heads": nh, "scale": scale}
    for layer in params.layers:
        lc = {"h_in": h}
        n1, lc["ln1"] = _layer_norm(h, layer.ln1_g, layer.ln1_b)
        lc["n1"] = n1
        qh = _split_heads(n1 @ layer.w_q, nh)
        kh = _split_heads(n1 @ layer.w_k, nh)
        vh = _split_heads(n1 @ layer.w_v, nh)
        attn_w = softmax_rows(qh @ kh.transpose(0, 1, 3, 2) * scale)
        merged = _merge_heads(attn_w @ vh)
        a = h + merged @ layer.w_o
        lc.update(qh=qh, kh=kh, vh=vh, attn_w=attn_w, merged=merged, a=a)
        n2, lc["ln2"] = _layer_norm(a, layer.ln2_g, layer.ln2_b)
        lc["n2"] = n2
        y1 = n2 @ layer.w_ff1.T + layer.b_ff1
        rel = np.maximum(y1, 0.0)
        lc.update(y1=y1, rel=rel)
        h = a + rel @ layer.w_ff2.T + layer.b_ff2
        cache["layers"].append(lc)
    cache["h_final"] = h
    preds = (h[:, -1, :] @ params.head_w.T + params.head_b).ravel()
    return preds, cache


def backward(params: TransformerParams, cache: dict, d_preds: np.ndarray) -> TransformerParams:
    """Gradient of sum_b d_preds[b] * pred_b, shaped like the params."""
    if cache.get("d_model") != params.d_model or cache.get("n_heads") != params.n_heads:
        raise ValueError("cache does not match these parameters")
    d_preds = np.asarray(d_preds, dtype=np.float64).ravel()
    x = cache["x"]
    batch, steps = x.shape
    if d_preds.shape != (batch,):
        raise ValueError(f"need one upstream gradient per sample, got {d_preds.shape}")
    scale = cache["scale"]

    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    h_final = cache["h_final"]
    grads["head_w"] += d_preds[None, :] @ h_final[:, -1, :]
    grads["head_b"] += d_preds.sum(keepdims=True)

    dh = np.zeros_like(h_final)
    dh[:, -1, :] = d_preds[:, None] * params.head_w

    for idx in reversed(range(len(params.layers))):
        layer = params.layers[idx]
        lc = cache["layers"][idx]
        pre = f"layers.{idx}."

        # FFN branch: h_out = a + relu(n2 W1' + b1) W2' + b2
        df = dh
        grads[pre + "w_ff2"] += np.einsum("btd,btf->df", df, lc["rel"])
        grads[pre + "b_ff2"] += df.sum(axis=(0, 1))
        d_y1 = (df @ layer.w_ff2) * (lc["y1"] > 0)
        grads[pre + "w_ff1"] += np.einsum("btf,btd->fd", d_y1, lc["n2"])
        grads[pre + "b_ff1"] += d_y1.sum(axis=(0, 1))
        d_n2 = d_y1 @ layer.w_ff1
        d_a, d_g2, d_b2 = _layer_norm_backward(d_n2, layer.ln2_g, lc["ln2"])
        grads[pre + "ln2_g"] += d_g2
        grads[pre + "ln2_b"] += d_b2
        da = dh + d_a  # residual plus normalized branch

        # Attention branch: a = h_in + merge(softmax(QK' * scale) V) W_o
        d_merged = da @ layer.w_o.T
        grads[pre + "w_o"] += np.einsum("bti,btj->ij", lc["merged"], da)
        d_oh = _split_heads(d_merged, params.n_heads)
        d_attn = d_oh @ lc["vh"].transpose(0, 1, 3, 2)
        d_vh = lc["attn_w"].transpose(0, 1, 3, 2) @ d_oh
        attn_w = lc["attn_w"]
        d_scores = attn_w * (d_attn - (d_attn * attn_w).sum(axis=-1, keepdims=True))
        d_qh = d_scores @ lc["kh"] * scale
        d_kh = d_scores.transpose(0, 1, 3, 2) @ lc["qh"] * scale
        d_q = _merge_heads(d_qh)
        d_k = _merge_heads(d_kh)
        d_v = _merge_heads(d_vh)
        n1 = lc["n1"]
        grads[pre + "w_q"] += np.einsum("bti,btj->ij", n1, d_q)
        grads[pre + "w_k"] += np.einsum("bti,btj->ij", n1, d_k)
        grads[pre + "w_v"] += np.einsum("bti,btj->ij", n1, d_v)
        d_n1 = d_q @ layer.w_q.T + d_k @ layer.w_k.T + d_v @ layer.w_v.T
        d_h1, d_g1, d_b1 = _layer_norm_backward(d_n1, layer.ln1_g, lc["ln1"])
        grads[pre + "ln1_g"] += d_g1
        grads[pre + "ln1_b"] += d_b1
        dh = da + d_h1

    # Embedding: h0 = x[:, :, None] @ w_in' (+ constant position codes)
    grads["w_in"] += np.einsum("btd,bt->d", dh, x)[:, None]
    return TransformerParams.from_arrays(grads, params.n_heads)
