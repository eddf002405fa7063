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

The steps run gate-major. W_f, W_i, W_c, W_o are adjacent in ``theta``, so
they are one (4, h, h+1) view and the biases one (4, 1, h) view. A step
makes one stacked matmul, one ``sigmoid`` call for f, i and o, and one
``tanh`` for the candidate; backward adds all four weight gradients with one
stacked matmul per step. Each gate's arithmetic is the per-gate form's, in
the same order, so outputs and gradients are bit-identical to it. The cache
holds step-major arrays, allocated once per call and filled in place.
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


def init_params(rng: np.random.Generator, hidden: int) -> Params:
    """Xavier-uniform gate matrices, zero biases except the forget gate.

    The forget bias is 1.0, which keeps early cell-state retention high and
    stabilizes training.
    """
    p = Params("lstm", {"hidden": hidden})
    for w in (p.w_f, p.w_i, p.w_c, p.w_o, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    p.b_f[...] = 1.0
    return p


def _gate_views(theta: np.ndarray, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """The four gate matrices as one (4, h, h+1) view of theta and the biases as (4, 1, h).

    Both stacks follow the layout order f, i, c, o of ``shapes``.
    """
    n = 4 * hidden * (hidden + 1)
    w = theta[:n].reshape(4, hidden, hidden + 1)
    return w, theta[n : n + 4 * hidden].reshape(4, 1, hidden)


# Forward order of the gates: the three sigmoid gates f, i, o, then the candidate.
_FORWARD_ORDER = [0, 1, 3, 2]


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = c_0 = 0.

    Returns h_T (batch, hidden) and the step-major cache the backward pass
    needs: ``z`` (steps, batch, h+1) holds z_t; ``gates`` (steps, 4, batch, h)
    holds f_t, i_t, o_t, g_t in that order; ``c`` (steps+1, batch, h) holds
    c_0 ... c_T; ``tanh_c`` (steps, batch, h) holds tanh(c_t).
    """
    batch, steps = x.shape
    h = params.dims["hidden"]
    w, b = _gate_views(params.theta, h)
    # Reordering copies the stack but keeps each gate matrix row-major. The
    # transpose must stay a view: each gate's product is then the same BLAS
    # call as z @ w_f.T, bit for bit, where a transposed copy is not.
    wt, b = w[_FORWARD_ORDER].transpose(0, 2, 1), b[_FORWARD_ORDER]
    z = np.zeros((steps, batch, h + 1))
    z[:, :, h] = x.T
    gates = np.empty((steps, 4, batch, h))
    c = np.zeros((steps + 1, batch, h))
    tanh_c = np.empty((steps, batch, h))
    for t, (z_t, a, c_prev, c_t, tanh_c_t) in enumerate(zip(z, gates, c, c[1:], tanh_c)):
        np.matmul(z_t, wt, out=a)
        a += b
        a[:3] = sigmoid(a[:3])
        f, i, o, g = a
        np.tanh(g, out=g)
        np.multiply(f, c_prev, out=c_t)
        c_t += i * g
        np.tanh(c_t, out=tanh_c_t)
        h_t = np.multiply(o, tanh_c_t, out=z[t + 1, :, :h] if t + 1 < steps else None)
    return h_t, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c}


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    h = params.dims["hidden"]
    w, _ = _gate_views(params.theta, h)
    gw, gb = _gate_views(grads.theta, h)
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
