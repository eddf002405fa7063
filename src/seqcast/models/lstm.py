"""LSTM cell with a scalar head, unrolled over the lookback window.

Per step, with z_t = [h_{t-1}, x_t]:

    f_t = sigmoid(W_f z_t + b_f)        forget gate
    i_t = sigmoid(W_i z_t + b_i)        input gate
    g_t = tanh(W_c z_t + b_c)           candidate cell state
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigmoid(W_o z_t + b_o)        output gate
    h_t = o_t * tanh(c_t)

The encoder state is h_T; the scalar head on it lives in ``seqcast.models``.
The backward pass is hand-derived BPTT through the full window; gradients
sum over the batch so that a mean-loss upstream gradient yields the mean of
per-sample gradients.

The steps run gate-major: ``Params.stacked`` views the adjacent W_f, W_i,
W_c, W_o as one (4, h, h+1) array and their biases as one (4, h). A step
makes one stacked matmul, one ``sigmoid`` call for f, i and o, and one
``tanh`` for the candidate; backward adds all four weight gradients with one
stacked matmul per step. Each gate's arithmetic is the per-gate form's, in
the same order, so outputs and gradients are bit-identical to it. ``cell``
fills the step-major cache, allocated once per call; ``lanes`` runs it too.
"""

from __future__ import annotations

import numpy as np

from ..numerics import init_xavier, sigmoid
from .params import Params


def shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """Gate matrices act on [h_{t-1}, x_t], so they have hidden + 1 columns."""
    gate, bias = (hidden, hidden + 1), (hidden,)
    return {
        "w_f": gate, "w_i": gate, "w_c": gate, "w_o": gate,
        "b_f": bias, "b_i": bias, "b_c": bias, "b_o": bias,
        "head_w": (1, hidden), "head_b": (1,),
    }


def init_params(p: Params, rng: np.random.Generator) -> None:
    """Fill zero p: Xavier-uniform gate matrices, zero biases except the forget gate.

    The forget bias is 1.0, which keeps early cell-state retention high and
    stabilizes training.
    """
    for w in (p.w_f, p.w_i, p.w_c, p.w_o, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    p.b_f[...] = 1.0


def _gate_views(p: Params) -> tuple[np.ndarray, np.ndarray]:
    """The gate matrices as one (4, h, h+1) view and the biases as (4, 1, h), order f, i, c, o."""
    return p.stacked("w_f", "w_i", "w_c", "w_o"), p.stacked("b_f", "b_i", "b_c", "b_o")[:, None]


def cell(params: Params):
    """The step z_t (n, h+1) -> h_t; a gets f, i, o, g, c_t may be c_prev, h_out z_t[:, :-1]."""
    w, b = _gate_views(params)
    # Reordering copies the stack but keeps each gate matrix row-major. The
    # transpose must stay a view: each gate's product is then the same BLAS
    # call as z @ w_f.T, bit for bit, where a transposed copy is not.
    wt, b = w[[0, 1, 3, 2]].transpose(0, 2, 1), b[[0, 1, 3, 2]]
    def step(z_t, a, c_prev, c_t, tanh_c_t, h_out=None) -> np.ndarray:
        np.matmul(z_t, wt, out=a)
        a += b
        a[:3] = sigmoid(a[:3])
        f, i, o, g = a
        np.tanh(g, out=g)
        np.multiply(f, c_prev, out=c_t)
        c_t += i * g
        np.tanh(c_t, out=tanh_c_t)
        return np.multiply(o, tanh_c_t, out=h_out)
    return step


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = c_0 = 0.

    Returns h_T (batch, hidden) and the step-major cache the backward pass
    needs: ``z`` (steps, batch, h+1) holds z_t; ``gates`` (steps, 4, batch, h)
    holds f_t, i_t, o_t, g_t in that order; ``c`` (steps+1, batch, h) holds
    c_0 ... c_T; ``tanh_c`` (steps, batch, h) holds tanh(c_t).
    """
    batch, steps = x.shape
    h = params.dims["hidden"]
    step = cell(params)
    z = np.zeros((steps, batch, h + 1))
    z[:, :, h] = x.T
    gates = np.empty((steps, 4, batch, h))
    c = np.zeros((steps + 1, batch, h))
    tanh_c = np.empty((steps, batch, h))
    for t, (z_t, a, c_prev, c_t, tanh_c_t) in enumerate(zip(z, gates, c, c[1:], tanh_c)):
        h_t = step(z_t, a, c_prev, c_t, tanh_c_t, z[t + 1, :, :h] if t + 1 < steps else None)
    return h_t, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, step = params.dims["hidden"], cell(params)
    z, c, a, tanh_c = np.zeros((n, h + 1)), np.zeros((n, h)), np.empty((4, n, h)), np.empty((n, h))
    def advance(x: float, reset: int) -> np.ndarray:
        z[reset] = c[reset] = 0.0
        z[:, h] = x
        return step(z, a, c, c, tanh_c, z[:, :h])
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    h = params.dims["hidden"]
    w, _ = _gate_views(params)
    gw, gb = _gate_views(grads)
    z, gates, c, tanh_c = (cache[k] for k in ("z", "gates", "c", "tanh_c"))
    da = np.empty((4,) + dh.shape)  # pre-activation gradients in layout order f, i, c, o
    dc = np.zeros_like(dh)
    for t in reversed(range(len(z))):
        f, i, o, g = gates[t]
        do = dh * tanh_c[t]
        dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
        np.multiply(dc * c[t] * f, 1.0 - f, out=da[0])
        np.multiply(dc * g * i, 1.0 - i, out=da[1])
        np.multiply(dc * i, 1.0 - g**2, out=da[2])
        np.multiply(do * o, 1.0 - o, out=da[3])
        dc = dc * f
        gw += np.matmul(da.transpose(0, 2, 1), z[t])
        gb += da.sum(axis=1, keepdims=True)
        dz = np.matmul(da, w)
        dh = (dz[0] + dz[1] + dz[2] + dz[3])[:, :h]
