"""Dense numeric kernels shared by every model.

All array data is float64. Matrices are 2-D ``numpy.ndarray``; vectors are
1-D. Randomness always flows through an explicit generator created by
:func:`make_rng`, never through global state, so any run can be replayed
from its seed.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit-seeded generator (PCG64).

    Equal seeds produce bit-identical draw sequences.
    """
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|.

    Saturating inputs clamp to 0/1 within float precision instead of
    overflowing. Both halves share one rounded exp(-|v|), so for every
    finite v the float sum sigmoid(v) + sigmoid(-v) is within 2**-52 of 1;
    it is not exactly 1 for every v.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    The exp and the divide run in place on the shifted copy, so x is never
    modified and the result is the only full-size array allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def init_xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Glorot initialization on [-b, b] with b = sqrt(6/(rows+cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"init_xavier needs positive dims, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def grad_check(
    loss_fn: Callable,
    params,
    analytic,
    eps: float = 1e-5,
) -> float:
    """Compare an analytic gradient against central finite differences.

    ``params`` and ``analytic`` are a model's ``Params`` and its gradient, of
    one kind and dims; ``loss_fn(params)`` must be a deterministic scalar
    function. Returns the max over all coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if (analytic.kind, analytic.dims) != (params.kind, params.dims):
        raise ValueError("analytic gradient does not mirror the parameters")
    work = copy.deepcopy(params)

    worst = 0.0
    for (name, arr), (_, g) in zip(work.named_arrays(), analytic.named_arrays()):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = float(loss_fn(work))
            arr[idx] = orig - eps
            f_minus = float(loss_fn(work))
            arr[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while perturbing {name}[{idx}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1e-8, abs(g[idx]) + abs(numeric))
            worst = max(worst, abs(g[idx] - numeric) / denom)
    return worst
