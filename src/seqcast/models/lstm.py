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

State, gates and cache are feature-major, (hidden, batch), so each gate is
one contiguous block of rows, at float64 and float32 alike. ``Params.packed``
gives the four gates' [W | b] as one (4h, h+2) matrix, so a step makes one
GEMM against [h_{t-1}; x_t; 1], one ``sigmoid`` call on the f, i, o rows and
one ``tanh`` on the candidate's. Backward makes one GEMM per step for dz,
summing over the gates, and one for [dW | db], which adds up in that layout.
``cell`` is the step; ``forward`` runs it over the window, and ``lanes``
over a ring of forecast windows. Every array of ``forward`` and ``backward``
comes from ``numerics.buffer``.
"""

from __future__ import annotations

import numpy as np

from ..numerics import buffer, init_xavier, sigmoid
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


# The gates in step order, the sigmoids first: f, i, o, then the candidate g,
# whose arrays are w_c and b_c. The cache's and the gradient's rows keep it.
_GATES = tuple((f"w_{gate}", f"b_{gate}") for gate in "fioc")


def cell(params: Params, workspace: dict | None = None):
    """The step z_t = [h_{t-1}; x_t; 1] (h+2, n) -> h_t in h_out, which may be z_t[:h].

    a gets f_t, i_t, o_t, g_t in that order, and c_t may be c_prev.
    """
    h = params.dims["hidden"]
    w = params.packed(_GATES, workspace)
    def step(z_t, a, c_prev, c_t, tanh_c_t, ig, h_out) -> np.ndarray:
        np.matmul(w, z_t, out=a)
        sigmoid(a[: 3 * h], out=a[: 3 * h])
        np.tanh(a[3 * h :], out=a[3 * h :])
        f, i, o, g = a[:h], a[h : 2 * h], a[2 * h : 3 * h], a[3 * h :]
        np.multiply(f, c_prev, out=c_t)
        c_t += np.multiply(i, g, out=ig)
        np.tanh(c_t, out=tanh_c_t)
        return np.multiply(o, tanh_c_t, out=h_out)
    return step


def forward(
    params: Params, x: np.ndarray, workspace: dict | None = None
) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = c_0 = 0.

    Returns h_T (batch, hidden) and the feature-major cache the backward pass
    needs: ``z`` (steps, h+2, batch) holds [h_{t-1}; x_t; 1], whose last row
    makes the GEMM add the biases; ``gates`` (steps, 4h, batch) holds f_t,
    i_t, o_t, g_t in that order; ``c`` (steps+1, h, batch) holds c_0 ... c_T;
    ``tanh_c`` (steps, h, batch) holds tanh(c_t).
    """
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params, workspace)
    z = buffer(workspace, "z", (steps, h + 2, batch), dtype)
    z[0, :h] = 0.0
    z[:, h] = x.T
    z[:, h + 1] = 1.0
    gates = buffer(workspace, "gates", (steps, 4 * h, batch), dtype)
    c = buffer(workspace, "c", (steps + 1, h, batch), dtype)
    c[0] = 0.0
    tanh_c = buffer(workspace, "tanh_c", (steps, h, batch), dtype)
    state = buffer(workspace, "state", (h, batch), dtype)
    ig = buffer(workspace, "ig", (h, batch), dtype)
    for t in range(steps):
        h_out = z[t + 1, :h] if t + 1 < steps else state
        step(z[t], gates[t], c[t], c[t + 1], tanh_c[t], ig, h_out)
    return state.T, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params)
    z, c = np.zeros((h + 2, n), dtype), np.zeros((h, n), dtype)
    z[h + 1] = 1.0
    a, tanh_c, ig = np.empty((4 * h, n), dtype), np.empty((h, n), dtype), np.empty((h, n), dtype)
    def advance(x: float, reset: int) -> np.ndarray:
        z[:h, reset] = c[:, reset] = 0.0
        z[h] = x
        return step(z, a, c, c, tanh_c, ig, z[:h]).T
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params,
             workspace: dict | None = None) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    z, gates, c, tanh_c = (cache[k] for k in ("z", "gates", "c", "tanh_c"))
    steps, h, batch, dtype = len(z), params.dims["hidden"], dh.shape[0], dh.dtype

    def take(name, shape):
        return buffer(workspace, name, shape, dtype)

    w_h = params.packed(_GATES, workspace)[:, :h]  # h_{t-1}'s columns
    dh_t = take("dh", (h, batch))
    dh_t[...] = dh.T
    dc = take("dc", (h, batch))
    dc[...] = 0.0
    tmp = take("tmp", (h, batch))
    da = take("da", (4 * h, batch))  # pre-activation gradients, rows f, i, o, g
    d_f, d_i, d_o, d_g = da[:h], da[h : 2 * h], da[2 * h : 3 * h], da[3 * h :]
    d_sig, slope = da[: 3 * h], take("slope", (3 * h, batch))
    # [dW | db] of the four gates, and one step's term of it
    gw, product = take("gw", (4 * h, h + 2)), take("gw_step", (4 * h, h + 2))
    gw[...] = 0.0
    for t in reversed(range(steps)):
        a, tc = gates[t], tanh_c[t]
        sig, o, g = a[: 3 * h], a[2 * h : 3 * h], a[3 * h :]
        np.multiply(dh_t, tc, out=d_o)
        # dc += dh * o * (1 - tanh(c_t)^2)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh_t
        dc += tmp
        np.multiply(dc, c[t], out=d_f)
        np.multiply(dc, g, out=d_i)
        np.multiply(g, g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        d_g *= a[h : 2 * h]
        d_g *= dc
        # s (1 - s) for the f, i and o rows at once
        np.subtract(1.0, sig, out=slope)
        slope *= sig
        d_sig *= slope
        dc *= a[:h]
        gw += np.matmul(da, z[t].T, out=product)
        np.matmul(w_h.T, da, out=dh_t)
    grads.add_packed(_GATES, gw)
