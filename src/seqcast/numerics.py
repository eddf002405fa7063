"""Dense numeric kernels shared by every model.

``sigmoid`` and ``softmax_rows`` compute in their input's dtype when it is
float32 and in float64 otherwise, so a float32 model stays float32 from end
to end. Matrices are 2-D ``numpy.ndarray``; vectors are 1-D.
"""

from __future__ import annotations

import numpy as np


def _floating(x) -> np.ndarray:
    """x as an array of its own dtype if that is float32, else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|.

    Saturating inputs clamp to 0/1 within float precision instead of
    overflowing. Both halves share one rounded exp(-|v|), so for every
    finite v the float sum sigmoid(v) + sigmoid(-v) is within one unit in
    the last place of 1 (2**-52 in float64, 2**-23 in float32); it is not
    exactly 1 for every v.
    """
    x = _floating(x)
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    The exp and the divide run in place on the shifted copy, so x is never
    modified and the result is the only full-size array allocated.
    """
    x = _floating(x)
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def init_xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Glorot initialization on [-b, b] with b = sqrt(6/(rows+cols))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))
