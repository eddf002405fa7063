"""Dense numeric kernels shared by every model.

``sigmoid`` and ``softmax_rows`` compute in their input's dtype when it is
float32 and in float64 otherwise, so a float32 model stays float32 from end
to end. Matrices are 2-D ``numpy.ndarray``; vectors are 1-D. ``buffer``
hands the models the arrays they write into, new or from a workspace, and
``sample_sum`` is the one way a weight gradient adds up its samples.
"""

from __future__ import annotations

import math

import numpy as np


def _floating(x) -> np.ndarray:
    """x as an array of its own dtype if that is float32, else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function as (1 + tanh(x / 2)) / 2, stable for large |x|.

    It computes 0.5 * tanh(0.5 * x) + 0.5 in place, written into out, which
    may be x itself; without out the values go to a new array and x is never
    modified. tanh saturates, so large inputs clamp to 0/1 instead of
    overflowing. For every finite v the float sum sigmoid(v) + sigmoid(-v)
    is within one unit in the last place of 1 (2**-52 in float64, 2**-23 in
    float32); it is not exactly 1 for every v.
    """
    x = _floating(x)
    out = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    The exp and the divide run in place on the shifted values, written into
    out, which may be x itself. Without out they go to a new array, the only
    full-size one allocated, and x is never modified.
    """
    x = _floating(x)
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def init_xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Glorot initialization on [-b, b] with b = sqrt(6/(rows+cols))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def buffer(workspace: dict | None, name: str, shape: tuple, dtype) -> np.ndarray:
    """An array of shape and dtype for the caller to overwrite: new, or drawn from workspace.

    A workspace maps each name to one flat array. The call gets its first
    bytes, read as dtype, whenever they are enough: a shorter batch reuses a
    full one's memory, and so does a float32 batch a float64 one's. Otherwise
    a new flat array of dtype replaces it.
    """
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    nbytes = size * np.dtype(dtype).itemsize
    held = workspace.get(name)
    if held is None or held.nbytes < nbytes:
        held = workspace[name] = np.empty(size, dtype)
    return held.view(np.uint8)[:nbytes].view(dtype).reshape(shape)


def sample_sum(a: np.ndarray, b: np.ndarray, workspace: dict | None = None) -> np.ndarray:
    """sum over n of a[n]' @ b[n]: one product per sample, then one sum over the samples.

    a is (n, k, i) and b (n, k, j); the result is (i, j). One GEMM over all
    n * k rows would leave the order of its long sum to BLAS, which picks it
    by the thread count. Here each sample's product reduces over its own k
    rows, and NumPy adds the n products along the sample axis, in sample
    order whenever a product has more than one element. At one BLAS thread
    and at two the result has the same bits; more threads are untested.
    The products are written into ``buffer(workspace, "products", ...)``.
    """
    shape = (len(a), a.shape[-1], b.shape[-1])
    products = buffer(workspace, "products", shape, np.result_type(a, b))
    return np.matmul(a.transpose(0, 2, 1), b, out=products).sum(axis=0)
