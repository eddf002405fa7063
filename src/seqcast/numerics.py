"""Dense numeric kernels shared by every model.

All array data is float64. Matrices are 2-D ``numpy.ndarray``; vectors are
1-D.
"""

from __future__ import annotations

import numpy as np


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
