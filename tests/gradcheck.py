"""The finite-difference oracle that every hand-written gradient is tested against."""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np


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
