"""One model's parameters: a contiguous float vector with a named view per array.

The layout is the table of the ``ModelConfig`` they are built from, which
checked the dims: views follow the table's order, back to back, so the
optimizer works on ``theta`` while the model code reads the views. A dotted
name ``group.i.field`` becomes ``params.group[i].field``; the Transformer's
blocks are ``params.layers``. Views are plain instance attributes because
batch-1 forecasting reads them at every step. ``packed`` and ``add_packed``
are the one way the LSTM and GRU group their gates, so no module computes an
offset in ``theta``.

``theta`` is float64, or float32 for a working copy that a model trains on:
the model code computes in the dtype of the params it is given.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ..numerics import buffer


class Params:
    """Parameters of the model cfg (a ModelConfig) states; theta defaults to float64 zeros."""

    def __init__(self, cfg, theta: np.ndarray | None = None):
        kind, dims = cfg.kind, dict(cfg.dims)
        shapes = cfg.shapes()
        size = sum(math.prod(shape) for shape in shapes.values())
        if theta is None:
            theta = np.zeros(size)
        elif (theta.dtype not in (np.float32, np.float64) or theta.shape != (size,)
              or not theta.flags.c_contiguous):
            raise ValueError(f"{kind} {dims} needs a contiguous float32 or float64 vector "
                             f"of {size} values")
        self.cfg, self.kind, self.dims, self.theta = cfg, kind, dims, theta
        self._views = {}
        offset = 0
        for name, shape in shapes.items():
            view = theta[offset : offset + math.prod(shape)].reshape(shape)
            offset += view.size
            self._views[name] = view
            group, _, rest = name.partition(".")
            if not rest:
                setattr(self, name, view)
                continue
            idx, field = rest.split(".")
            members = self.__dict__.setdefault(group, [])
            if int(idx) == len(members):
                members.append(SimpleNamespace())
            setattr(members[int(idx)], field, view)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, live view) pairs in layout order, the weight-file block order."""
        return list(self._views.items())

    def packed(self, pairs, workspace: dict | None = None) -> np.ndarray:
        """[W | b] of each (weight, bias) name pair as one copied matrix, a row block per pair.

        Against an input with a row of ones under it, one GEMM gives every
        pair's W v + b. For (rows, cols) weights the result is
        (len(pairs) * rows, cols + 1), drawn from workspace as "packed".
        """
        rows, cols = self._views[pairs[0][0]].shape
        out = buffer(workspace, "packed", (len(pairs), rows, cols + 1), self.theta.dtype)
        for block, (w, b) in zip(out, pairs):
            block[:, :-1] = self._views[w]
            block[:, -1] = self._views[b]
        return out.reshape(-1, cols + 1)

    def add_packed(self, pairs, grad: np.ndarray) -> None:
        """Add grad, a gradient [dW | db] laid out as ``packed(pairs)``, into the named arrays."""
        for block, (w, b) in zip(grad.reshape(len(pairs), -1, grad.shape[-1]), pairs):
            self._views[w] += block[:, :-1]
            self._views[b] += block[:, -1]

    def __reduce__(self):
        # Copies and pickles rebuild the views over their own theta.
        return Params, (self.cfg, self.theta)
